"""Tests of the benchmark itself (kept out of the package's test suite):

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, covered, layer_stats, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    spans = [
        ("a", 0.0, 10.0, -1, 0, -1),
        ("b", 1.0, 4.0, 0, 0, -1),   # overlaps c
        ("c", 3.0, 6.0, 0, 0, -1),
        ("d", 2.0, 3.0, 1, 0, -1),   # grandchild of a: counts for b only
        ("e", 9.0, 12.0, 0, 0, -1),  # runs past the end of a
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_busy_time_counts_nested_spans_of_one_name_once():
    spans = [
        ("x", 0.0, 4.0, -1, 0, -1),
        ("x", 1.0, 2.0, 0, 0, -1),
        ("x", 6.0, 7.0, -1, 1, -1),
    ]
    stats = layer_stats(spans)["x"]
    assert stats["calls"] == 3
    assert stats["busy_s"] == pytest.approx(5.0)
    assert stats["self_s"] == pytest.approx(5.0)
    assert covered([(0.0, 2.0), (1.0, 3.0)], 0.5, 2.5) == pytest.approx(2.0)


def test_tracer_records_parents_and_run_ids():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    run_span = tracer.wrap("solver.run_irgnm", lambda: inner())
    tracer.call_index = 7
    tracer.call("outer", lambda: (run_span(), run_span()))
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "solver.run_irgnm", "inner", "solver.run_irgnm", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 3]
    assert [s[5] for s in tracer.spans] == [-1, 0, 0, 1, 1]
    assert {s[4] for s in tracer.spans} == {7}


def test_cell_seeds_do_not_alias_where_consecutive_seeds_do():
    chosen = [(workloads.cell_seed(5, i), 30) for i in range(8)]
    assert workloads.aliasing(chosen) == {"runs": 240, "distinct_streams": 240}
    consecutive = [(5 + i, 30) for i in range(8)]
    assert workloads.aliasing(consecutive)["distinct_streams"] < 240


def test_run_check_flags_bad_outputs():
    w = workloads.IdentifySingle(tiny=True)
    w.setup(0)
    outcome = w.call(0, Tracer())
    record, settings = outcome.records[0], outcome.settings[0]
    model = w.scenario.plasma.model_id
    assert w.check(outcome) == [None]
    assert workloads.run_problem(replace(record, stop_iter=3), settings, model)
    flat = record.final_x.flat.copy()
    flat[-1] = -1.0  # a kinetic rate below the box floor
    outside = replace(record, final_x=type(record.final_x)(flat, record.final_x.layout))
    assert "box" in workloads.run_problem(outside, settings, model)
    flat[-1] = math.nan
    assert "finite" in workloads.run_problem(
        replace(record, final_x=type(record.final_x)(flat, record.final_x.layout)), settings, model
    )
    noisy = replace(settings, delta_estimate=1e-12)
    stopped = replace(record, stop_reason="discrepancy")
    assert "discrepancy" in workloads.run_problem(stopped, noisy, model)
    shifted = replace(record, residual_norms=record.residual_norms * 1.001 + 1e-6)
    assert "recomputed" in w.check(workloads.Outcome([shifted], [settings], 1))[0]


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_reports_every_metric(name, trace, quick_setup):
    workload = workloads.WORKLOADS[name](tiny=True)
    workload.setup(3)
    measure = run.per_layer if trace else run.end_to_end
    try:
        metrics, totals, prefix, report = measure(workload, Namespace(seconds=0, seed=3))
    finally:
        workload.finish()
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(metrics) == [row[0] for row in table]
    assert all(np.isfinite(v) for v in metrics.values())
    assert totals["failed"] == 0 and not totals["problems"], totals["problems"]
    assert prefix["calls"] == workload.min_calls
    if trace:
        assert set(report["missing_layers"]) == set(run.LAYERS) - run.EXPECTED_LAYERS[name]
        assert metrics["forward.jacobian.calls"] > 0
    else:
        assert all(v > 0 for v in metrics.values())


def test_benchmark_json_matches_the_tables():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
