"""The comparison of ``platform_table.py`` on two hand-made ``results.json``
lists: the diverged counts, the ``median_run`` flags and the runs whose stop
differs."""

import pytest

from platform_table import compare, report


def run(r, diverged=False, stop_reason="discrepancy", stop_iter=40):
    return {"repetition": r, "diverged": diverged, "stop_reason": stop_reason,
            "stop_iter": stop_iter, "final_residual": 1e-3}


def cell(mode, delta_x, runs, median_run):
    return {
        "spec": {"mode": mode, "delta_y": 0.0, "delta_x": delta_x},
        "diverged_count": sum(r["diverged"] for r in runs),
        "median_run": median_run,
        "runs": runs,
    }


HERE = [
    cell("full", 0.05, [run(0), run(1), run(2)], 1),
    cell("known_cart", 0.15, [run(0, True, "failure", 7), run(1), run(2, stop_iter=41)], 1),
]
THERE = [
    # the same runs; only the final residual moved
    cell("full", 0.05, [{**r, "final_residual": 2e-3} for r in HERE[0]["runs"]], 1),
    cell("known_cart", 0.15, [run(0), run(1, True, "failure", 9), run(2, stop_iter=42)], 2),
]


def test_compare_counts_cells_and_lists_moved_runs():
    cells, runs = compare(HERE, THERE)
    assert cells == [
        ("full dy=0 dx=0.05", 0, 0, False),
        ("known_cart dy=0 dx=0.15", 1, 1, True),
    ]
    assert runs == [
        ("known_cart dy=0 dx=0.15", 0,
         {"diverged": (True, False), "stop_reason": ("failure", "discrepancy"),
          "stop_iter": (7, 40)}),
        ("known_cart dy=0 dx=0.15", 1,
         {"diverged": (False, True), "stop_reason": ("discrepancy", "failure"),
          "stop_iter": (40, 9)}),
        ("known_cart dy=0 dx=0.15", 2, {"stop_iter": (41, 42)}),
    ]


def test_report_totals():
    lines = report(*compare(HERE, THERE))
    assert "diverged runs: 1 here, 1 under avx2" in lines
    assert "median_run differs in 1 of 2 cells" in lines
    assert "diverged flag differs in 2 runs in 1 cells" in lines
    assert "stop differs in 3 runs in 1 cells:" in lines
    assert "  known_cart dy=0 dx=0.15 run 2: stop_iter 41 -> 42" in lines


def test_different_cells_are_refused():
    with pytest.raises(ValueError, match="different cells"):
        compare(HERE, HERE[::-1])
