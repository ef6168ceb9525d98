"""The names and call forms that ``perfbench/`` relies on.

The benchmark wraps functions where the pipeline looks them up
(``TRACE_POINTS`` in ``perfbench/run.py``) and calls a few of them
positionally.  A refactor that moves or re-signs one of these breaks the
benchmark; these tests catch that in the tier-1 suite.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from petident import experiments, forward

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


def test_positional_plasma_model_calls(scenario, ground_truth):
    x_true, _ = ground_truth
    eps, model = 1e-3, scenario.plasma.model_id
    x0 = experiments.perturb_initial(x_true, 0.05, [7, 0], eps, model)
    assert np.array_equal(experiments.perturb_initial(x_true, 0.05, [7, 0]).flat, x0.flat)
    projected = forward.project_to_domain(x0, eps, model)
    assert np.array_equal(projected.flat, x0.flat)
    with pytest.raises(KeyError, match="unknown plasma-fraction family"):
        forward.project_to_domain(x0, eps, "gamma")
