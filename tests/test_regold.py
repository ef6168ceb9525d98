"""The comparison of ``regold.py`` on two hand-made ledgers, and the reach
of the pin tests over the ledger ``golden.json``."""

import ast
import json
from pathlib import Path

from golden import LEDGER
from regold import moved


def row(mode, delta_x, stop_iter=300, diverged=False, rho_opt=99.9):
    return {"mode": mode, "delta_y": 0.0, "delta_x": delta_x, "stop_reason": "max_iter",
            "stop_iter": stop_iter, "diverged": diverged, "rho_opt": rho_opt}


OLD = {
    "platform": "numpy 2.4.6, AVX512_SPR, OpenBLAS SkylakeX",
    "simulate": {"x_true.csv": "a0", "y_true.csv": "b0"},
    "records": "c0",
    "portable": [row("full", 0.01), row("known_cart", 0.01), row("full", 0.05)],
}
NEW = {
    "platform": "numpy 2.4.6, AVX2, OpenBLAS Haswell",
    "simulate": {"x_true.csv": "a0", "y_true.csv": "b1"},
    "golden_stops": {"(0.0, 0.15)": []},
    # the first row's values moved, the others their stops
    "portable": [row("full", 0.01, rho_opt=99.8), row("known_cart", 0.01, 299),
                 row("full", 0.05, diverged=True)],
}


def test_moved_pins_and_stops_are_listed():
    assert moved(OLD, OLD) == []
    assert moved(OLD, NEW) == [
        "platform", "simulate y_true.csv", "records", "portable", "golden_stops (0.0, 0.15)",
        "  known_cart dy=0 dx=0.01: stop_iter 300 -> 299",
        "  full dy=0 dx=0.05: diverged False -> True",
    ]


def test_every_pin_is_read_by_a_pin_test():
    read = {
        node.args[0].value
        for path in Path(__file__).parent.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pinned"
    }
    assert set(json.loads(LEDGER.read_text())) - read == {"platform"}
