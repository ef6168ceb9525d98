"""The names and call forms that ``perfbench/`` relies on.

The benchmark wraps functions where the pipeline looks them up
(``TRACE_POINTS`` in ``perfbench/run.py``) and calls a few of them
positionally.  A refactor that moves or re-signs one of these breaks the
benchmark; these tests catch that in the tier-1 suite.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from petident import experiments, forward, solver

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def trace_points():
    """``TRACE_POINTS`` read from the source: importing ``run.py`` would set
    BLAS thread variables for the whole test process."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "TRACE_POINTS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACE_POINTS in {RUN_PY}")


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _ in trace_points()]
)
def test_trace_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"petident.{module}"), attr))


@pytest.mark.parametrize("stop", [1, 4, "discrepancy", "start"])
def test_run_irgnm_calls_the_traced_solver_names(known_cart_scenario, monkeypatch, stop):
    # perfbench's spans sit on these four names of petident.solver; a run
    # of k iterations must reach every one of them there, whatever its
    # stop: one forward_vector and one Jacobian at the start, then one
    # Jacobian after each step, which gives the next residual and the next
    # linearization.  A start that meets the discrepancy level takes no step.
    calls = Counter()
    for name in ("jacobian", "irgnm_step", "forward_vector", "project_to_domain"):

        def counted(*args, _name=name, _fn=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    x_true, y_true = experiments.simulate_ground_truth(known_cart_scenario)
    x0 = experiments.perturb_initial(x_true, 0.05, [5, 0])
    if stop == "discrepancy":
        y_delta = experiments.add_noise(y_true, 1e-3, [5, 1])
        record = solver.run_irgnm(x0, y_delta, solver.IrgnmSettings.for_noise(1e-3))
        assert record.stop_reason == "discrepancy" and record.stop_iter >= 1
    elif stop == "start":
        record = solver.run_irgnm(x_true, y_true, solver.IrgnmSettings.for_noise(1e-3))
        assert (record.stop_reason, record.stop_iter) == ("discrepancy", 0)
    else:
        record = solver.run_irgnm(x0, y_true, solver.IrgnmSettings(max_iter=stop))
        assert (record.stop_reason, record.stop_iter) == ("max_iter", stop)
    k = record.stop_iter
    assert (calls["jacobian"], calls["irgnm_step"], calls["forward_vector"]) == (k + 1, k, 1)
    assert calls["project_to_domain"] >= 1


def test_positional_plasma_model_calls(scenario, ground_truth):
    x_true, _ = ground_truth
    eps, model = 1e-3, scenario.plasma.model_id
    x0 = experiments.perturb_initial(x_true, 0.05, [7, 0], eps, model)
    assert np.array_equal(experiments.perturb_initial(x_true, 0.05, [7, 0]).flat, x0.flat)
    projected = forward.project_to_domain(x0, eps, model)
    assert np.array_equal(projected.flat, x0.flat)
    with pytest.raises(KeyError, match="unknown plasma-fraction family"):
        forward.project_to_domain(x0, eps, "gamma")


def test_campaign_call_forms(scenario, tmp_path):
    spec = experiments.CampaignSpec(1e-3, 0.1, 2, "full", 7)
    assert (spec.delta_y, spec.delta_x, spec.repetitions, spec.mode, spec.seed) == (
        1e-3, 0.1, 2, "full", 7
    )
    settings = spec.resolved_settings()
    assert isinstance(settings, solver.IrgnmSettings)
    summary = experiments.run_campaign(spec, scenario)
    assert len(summary.records) == 2
    for record in summary.records:
        assert isinstance(record, solver.RunRecord)
        assert isinstance(record.final_x, forward.ParamVector)
        assert record.residual_norms.shape == (record.stop_iter + 1,)
        assert record.stop_reason in ("discrepancy", "max_iter", "failure")
    written = experiments.emit_results([summary], tmp_path)
    assert [p.name for p in written[:1] + written[-1:]] == ["table1.csv", "results.json"]
    assert sorted(written) == sorted(tmp_path.iterdir())
