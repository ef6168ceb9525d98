"""Every line of the package runs under its commands.

The subcommands run in-process under ``sys.settrace`` on small inputs that
still take each line's path, all written before tracing starts: a
six-region scenario of pairwise distinct rates, a six-region scenario that
fails every clause of the diversity condition on a short grid, twelve
regions whose rates have six or more distinct values each but no three
regions distinct in both, two regions with their own blood times, a
one-term arterial input, data whose square overflows, data whose fit
leaves the float range, a discrepancy stop, a start at the truth, a
corrupted Jacobian, a campaign whose runs break down, a campaign that
lists two cells, ``reproduce --all`` on one noise and one perturbation
level, a bad flag and numbers too large for a float.  The traced commands
take well under a second.

Two kinds of line may stay unreached: the lines of a block that ends in
``raise`` (the input-error branches, which the spoils of
``tests/test_cli.py`` run) and the blocks named in :data:`EXEMPT`, each
with its reason.  Any other line that no command reaches is test
infrastructure, which belongs in ``tests/``, or dead code.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
import types
from pathlib import Path
from unittest import mock

import pytest

import petident
from petident import cli, solver
from petident.experiments import default_scenario, scenario_to_dict, simulate_ground_truth

#: Blocks that no command reaches: ``module.qualname`` of the function ->
#: (reason, opening lines).  An opening line is the first source line,
#: stripped, of a ``def`` (the whole function), of an ``except`` clause
#: (the clause) or of another compound statement (its body).
EXEMPT = {
    "cli.cmd_reproduce": (
        "a cell that raises: only an injected fault reaches it, in tests/test_cli.py "
        "TestReproduce::test_a_cell_that_raises_does_not_stop_the_others",
        ("except Exception as exc:", "if failures:"),
    ),
    "experiments.scenario_to_dict": (
        "the writer of the scenario file format that README documents; no command "
        "calls it, and this harness writes its inputs with it before tracing",
        ("def scenario_to_dict(",),
    ),
}


def package_modules() -> dict:
    """Each module of the package by name: its path and its source lines."""
    modules = {}
    for info in pkgutil.iter_modules(petident.__path__):
        path = importlib.import_module(f"petident.{info.name}").__file__
        modules[info.name] = path, Path(path).read_text(encoding="utf-8").splitlines()
    return modules


def executable_lines(path: str) -> set:
    """``(path, line)`` of every line that a ``def``, a ``lambda`` or a
    comprehension in one executes.  Module and class bodies (no
    ``CO_NEWLOCALS``), the list, set and dict comprehensions outside a
    function and ``def`` lines run at import, not under a command."""
    found = set()
    # a code object and whether a function encloses it
    stack = [(compile(Path(path).read_text(encoding="utf-8"), path, "exec"), False)]
    while stack:
        code, in_function = stack.pop()
        counted = bool(code.co_flags & inspect.CO_NEWLOCALS) and (
            in_function or code.co_name not in ("<listcomp>", "<setcomp>", "<dictcomp>")
        )
        stack.extend(
            (c, in_function or counted) for c in code.co_consts if isinstance(c, types.CodeType)
        )
        if counted:
            lines = {line for _, _, line in code.co_lines() if line is not None}
            if not code.co_name.startswith("<"):
                lines.discard(code.co_firstlineno)
            found.update((path, line) for line in lines)
    return found


def block_lines(node) -> range:
    """The lines of the block that ``node`` opens: a whole ``def`` or
    ``except`` clause, else the body of the statement."""
    if isinstance(node, (ast.FunctionDef, ast.ExceptHandler)):
        return range(node.lineno, node.end_lineno + 1)
    return range(node.body[0].lineno, node.body[-1].end_lineno + 1)


def raise_lines(modules) -> set:
    """``(path, line)`` of every statement list that ends in ``raise``: an
    ``except`` clause with its ``except`` line, or the body, ``else`` or
    ``finally`` of a compound statement inside a function."""
    lines = set()
    for path, source in modules.values():
        for node in ast.walk(ast.parse("\n".join(source))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for field in ("body", "orelse", "finalbody"):
                body = getattr(node, field, None)  # a lambda's body is an expression
                if isinstance(body, list) and body and isinstance(body[-1], ast.Raise):
                    start = node.lineno if isinstance(node, ast.ExceptHandler) else body[0].lineno
                    lines.update((path, n) for n in range(start, body[-1].end_lineno + 1))
    return lines


def functions(tree, prefix=""):
    """``(qualname, node)`` of each ``def`` under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
            yield from functions(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")


def exempt_lines(modules) -> set:
    """``(path, line)`` of every line of the :data:`EXEMPT` blocks."""
    lines = set()
    for name, (_, openings) in EXEMPT.items():
        module, qualname = name.split(".", 1)
        path, source = modules[module]
        (function,) = [node for q, node in functions(ast.parse("\n".join(source))) if q == qualname]
        for opening in openings:
            blocks = [
                node for node in ast.walk(function)
                if isinstance(node, (ast.stmt, ast.ExceptHandler))
                and source[node.lineno - 1].strip().startswith(opening)
            ]
            assert len(blocks) == 1, f"EXEMPT {name}: {opening!r} opens {len(blocks)} blocks"
            lines.update((path, n) for n in block_lines(blocks[0]))
    return lines


def located(sites, modules) -> str:
    """One ``module.py:LINE: source`` line per ``(path, line)``, in order."""
    sources = dict(modules.values())
    return "\n".join(
        f"{Path(path).name}:{n}: {sources[path][n - 1].strip()}" for path, n in sorted(sites)
    )


def six_region_scenario() -> dict:
    """The reference input with six regions of pairwise distinct rates."""
    data = scenario_to_dict(default_scenario())
    data["regions"] = [
        {"K1": 0.16, "k2": 0.17 + 0.01 * i, "k3": 0.09 + 0.005 * i} for i in range(6)
    ]
    data["n"] = 6
    return data


def violating_scenario() -> dict:
    """Six regions on ten times that fail the diversity condition for the
    first exponent, mu = -0.5, in each clause: regions 1, 2 and 5 share
    their k3; regions 3 and 4 share their k2 + k3; region 5 is resonant
    (k2 + k3 = 0.5); and in region 6 (k2 + k3 = 0.125) the coefficient sum
    -5/(-0.375) + 4/(-0.075) + 1/0.025 vanishes."""
    data = scenario_to_dict(default_scenario())
    data["regions"] = [
        {"K1": 0.1, "k2": k2, "k3": k3}
        for k2, k3 in [(0.1, 0.25), (0.2, 0.25), (0.25, 0.125), (0.1875, 0.1875),
                       (0.25, 0.25), (0.0625, 0.0625)]
    ]
    data["n"] = 6
    data["grid"] = {"times": [0.5 * 1.5**i for i in range(10)]}
    return data


def few_levels_scenario() -> dict:
    """Twelve regions: six k3 levels at k2 + k3 = 0.5, five k2 + k3 levels
    at k3 = 0.05 and the region where the two levels cross.  Each rate has
    p + 3 = 6 or more distinct values, but no three regions are distinct in
    both; the crossing region first takes k2 + k3 = 0.5 in the matching
    bound, and gives it up on an augmenting path."""
    data = scenario_to_dict(default_scenario())
    pairs = [(0.1 + 0.05 * i, 0.5) for i in range(6)] + [(0.05, 0.6 + 0.05 * i) for i in range(5)]
    pairs.append((0.05, 0.5))
    data["regions"] = [{"K1": 0.1, "k2": beta - k3, "k3": k3} for k3, beta in pairs]
    data["n"] = 12
    return data


def two_region_scenario() -> dict:
    """The first two reference regions, on the default grid with six blood
    samples of their own."""
    data = scenario_to_dict(default_scenario())
    data["regions"] = data["regions"][:2]
    data["n"] = 2
    data["grid"] = {"blood_times": [0.0, 1.0, 5.0, 10.0, 30.0, 60.0]}
    return data


def write_inputs(root: Path) -> dict:
    """Every input file of :func:`run_commands`, by name."""
    y = simulate_ground_truth(default_scenario())[1].flat()
    # a datum whose square overflows: the residual norm is rescaled, and
    # J^T (F - y) is not finite, so the first step fails
    overflowing = y.copy()
    overflowing[32] = 1.7e308
    contents = {
        "reference.json": scenario_to_dict(default_scenario(), "s"),
        "six.json": six_region_scenario(),
        "violating.json": violating_scenario(),
        "few_levels.json": few_levels_scenario(),
        "two.json": two_region_scenario(),
        "one_term.json": {
            **scenario_to_dict(default_scenario()), "p": 1, "lambda": [1.0], "mu": [-0.2],
        },
        "overflowing.json": {"y": overflowing.tolist()},
        # data 1e20 times the truth's: the first step leaves the float range
        "scaled.json": {"y": (1e20 * y).tolist()},
        # both runs end on a numerically singular system, at iterations 74 and 77
        "breakdown.json": {"delta_y": 0, "delta_x": 0.15, "repetitions": 2, "seed": 0},
        "huge.json": {"delta_y": 10**400, "delta_x": 0.1},
        "two_cells.json": [
            {"delta_y": 1e-2, "delta_x": 0.1, "repetitions": 1, "max_iter": 2, "mode": mode}
            for mode in ("full", "known_cart")
        ],
    }
    paths = {}
    for name, data in contents.items():
        paths[name] = root / name
        paths[name].write_text(json.dumps(data))
    return paths


#: The built-in campaign of ``reproduce --all`` in the harness: one noise and
#: one perturbation level in both modes keeps every line of the cell loop and
#: costs 2 cells, not 32.
SMALL_GRID = dict(ALL_CELLS=[{"delta_y": 1e-2, "delta_x": 0.1, "mode": mode} for mode in cli.MODES])


def run_commands(f: dict, out: Path) -> list:
    """Every subcommand once or more on the input files ``f`` of
    :func:`write_inputs`; returns the exit codes."""
    commands = [
        ["check", "--scenario", f["six.json"]],
        ["check", "--scenario", f["violating.json"]],
        ["check", "--scenario", f["few_levels.json"]],
        ["check", "--scenario", f["two.json"]],
        ["check", "--scenario", f["one_term.json"]],
        ["simulate", "--scenario", f["reference.json"], "--out", out],
        ["identify", "--scenario", f["reference.json"], "--data", out / "y_true.csv",
         "--max-iter", "2", "--out", out],
        ["identify", "--scenario", f["reference.json"], "--data", f["overflowing.json"],
         "--out", out],
        ["identify", "--scenario", f["reference.json"], "--data", f["scaled.json"],
         "--delta-x", "0", "--max-iter", "1", "--out", out],
        ["identify", "--scenario", f["reference.json"], "--synthesize", "--mode", "known_cart",
         "--seed", "3", "--delta-y", "1e-2", "--out", out],
        ["identify", "--scenario", f["reference.json"], "--synthesize", "--mode", "known_cart",
         "--delta-x", "0", "--max-iter", "1", "--out", out],
        ["identify", "--scenario", f["reference.json"], "--synthesize",
         "--max-iter", str(10**400), "--out", out],
        ["jaccheck", "--trials", "1"],
        ["jaccheck", "--trials", "1", "--corrupt", "0", "0", "0.5"],
        ["reproduce", "--campaign", f["breakdown.json"], "--out", out],
        ["reproduce", "--all", "--repetitions", "2", "--out", out],
        ["reproduce", "--campaign", f["huge.json"], "--out", out],
        ["reproduce", "--campaign", f["two_cells.json"], "--out", out],
        ["check", "--scenario", f["reference.json"], "--out", out],
    ]
    # the solver loads LAPACK at its first solve, as in a fresh process
    with mock.patch.multiple(cli, **SMALL_GRID), mock.patch.object(solver, "_POSV", None):
        return [cli.main([str(a) for a in argv]) for argv in commands]


def trace_lines(run):
    """``run()``'s result and the ``(path, line)`` of every package line
    that it executes."""
    package = str(Path(petident.__file__).parent)
    reached = set()

    def line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, reached


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The exit codes, the output and the reached lines of the commands."""
    root = tmp_path_factory.mktemp("reachability")
    paths = write_inputs(root)
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        codes, reached = trace_lines(lambda: run_commands(paths, root / "out"))
    return codes, output.getvalue(), reached


def test_commands_take_their_paths(traced):
    codes, output, _ = traced
    assert codes == [0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0, 1, 0, 3, 0, 0, 2, 0, 1]
    assert "exponent 1, regions (1, 2, 3): k3 not pairwise distinct" in output
    assert "sufficient condition (6 regions with distinct rates): satisfied" in output
    assert "arterial exponents: one term" in output
    assert "exponent 1, regions (6, 7, 8): k3 not pairwise distinct" in output
    assert "stop: failure at iteration 0" in output
    assert "stop: failure at iteration 1" in output
    assert "stop: discrepancy" in output


def test_comprehensions_outside_a_function_run_at_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "TOP = [i for i in range(3)]\n"
        "class Body:\n"
        "    CELLS = {i: i for i in range(3)}\n"
        "def function():\n"
        "    return {i for i in range(3)}\n"
    )
    assert executable_lines(str(path)) == {(str(path), 5)}


def test_every_line_runs_under_a_command(traced):
    _, _, reached = traced
    modules = package_modules()
    executable = set().union(*(executable_lines(path) for path, _ in modules.values()))
    unreached = executable - reached - raise_lines(modules) - exempt_lines(modules)
    assert not unreached, "no command reaches these lines:\n" + located(unreached, modules)


def test_every_exemption_is_unreached(traced):
    _, _, reached = traced
    modules = package_modules()
    stale = exempt_lines(modules) & reached
    assert not stale, "a command reaches these EXEMPT lines:\n" + located(stale, modules)
    assert len(EXEMPT) <= 5
