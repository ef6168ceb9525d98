"""Every function of the package runs under its commands.

Each subcommand runs in-process under ``sys.setprofile`` on small inputs
that still take each function's path: a six-region scenario, so that the
sufficient distinct-rate test compares regions, a datum whose square
overflows, a ``--seed`` flag, a corrupted Jacobian and a flag a subcommand
does not take.  A function that no command reaches is test infrastructure,
which belongs in ``tests/``, or dead code.
"""

import importlib
import inspect
import json
import pkgutil
import sys
import types

import petident
from petident.cli import main
from petident.experiments import default_scenario, scenario_to_dict, simulate_ground_truth


def defined_functions() -> dict:
    """Each ``def`` and ``lambda`` of the package by its code location,
    named ``module.qualname``."""
    found = {}
    for info in pkgutil.iter_modules(petident.__path__):
        module = importlib.import_module(f"petident.{info.name}")
        with open(module.__file__, encoding="utf-8") as fh:
            stack = [compile(fh.read(), module.__file__, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # module and class bodies (no CO_NEWLOCALS) run at import, not
            # under a command; comprehensions are expressions of a function
            is_function = code.co_flags & inspect.CO_NEWLOCALS and (
                not code.co_name.startswith("<") or code.co_name == "<lambda>"
            )
            if is_function:
                key = (code.co_filename, code.co_firstlineno, code.co_qualname)
                found[key] = f"{module.__name__}.{code.co_qualname}"
    return found


def six_region_scenario() -> dict:
    """The reference input with six regions of pairwise distinct rates."""
    data = scenario_to_dict(default_scenario())
    data["regions"] = [
        {"K1": 0.16, "k2": 0.17 + 0.01 * i, "k3": 0.09 + 0.005 * i} for i in range(6)
    ]
    data["n"] = 6
    return data


def run_commands(tmp_path):
    """Every subcommand once or more, on inputs written in the same run (the
    scenario writer is part of the file format)."""
    reference, six = tmp_path / "reference.json", tmp_path / "six.json"
    reference.write_text(json.dumps(scenario_to_dict(default_scenario(), "s")))
    six.write_text(json.dumps(six_region_scenario()))
    # a datum whose square overflows: the residual norm is rescaled, and
    # J^T (F - y) is not finite, so the first step fails
    y = simulate_ground_truth(default_scenario())[1].flat()
    y[32] = 1.7e308
    overflowing = tmp_path / "overflowing.json"
    overflowing.write_text(json.dumps({"y": y.tolist()}))
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({"delta_y": 1e-3, "delta_x": 0.05, "repetitions": 2,
                                    "max_iter": 3}))
    out = tmp_path / "out"
    commands = [
        ["check", "--scenario", six],
        ["simulate", "--scenario", reference, "--out", out],
        ["identify", "--scenario", reference, "--data", out / "y_true.csv",
         "--max-iter", "2", "--out", out],
        ["identify", "--scenario", reference, "--data", overflowing, "--out", out],
        ["identify", "--scenario", reference, "--synthesize", "--seed", "3",
         "--delta-y", "1e-3", "--max-iter", "3", "--out", out],
        ["jaccheck", "--trials", "1"],
        ["jaccheck", "--trials", "1", "--corrupt", "0", "0", "0.5"],
        ["reproduce", "--campaign", campaign, "--out", out],
        ["check", "--scenario", reference, "--out", out],
    ]
    return [main([str(a) for a in argv]) for argv in commands]


def test_every_function_is_called(tmp_path, capsys):
    defined = defined_functions()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = run_commands(tmp_path)
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 3, 0, 0, 3, 0, 1]
    assert "stop: failure at iteration 0" in capsys.readouterr().out
    reached = {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in called}
    assert sorted(name for key, name in defined.items() if key not in reached) == []
