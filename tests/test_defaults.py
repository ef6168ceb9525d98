"""Every defaulted parameter of the package, pinned.

A default is a knob: it earns its place only when some caller passes
another value.  :data:`DEFAULTED` lists each ``module.function: parameter``
that has one, nested functions and methods by their dotted path.  A new
default fails this test until it is listed here, which is where that second
caller is looked for; an entry whose default is gone fails it too.
"""

import ast

from package_source import package_trees

DEFAULTED = {
    "cli._read_file: parse",
    "cli.main: argv",
    "cli.run_jaccheck: corrupt_entry",
    "cli.run_jaccheck: seed",
    "experiments._check_object: required",
    "experiments._number: scale",
    "experiments._numbers: scale",
    "experiments.default_scenario: mode",
    "experiments.perturb_initial: epsilon",
    "experiments.perturb_initial: plasma_model",
    "experiments.scenario_to_dict: units",
    "forward.finite_difference_check: corrupt_entry",
    "forward.project_to_domain: eps",
    "forward.project_to_domain: plasma_model",
    "solver.run_irgnm: x_true",
}


def defaulted(tree, prefix):
    """``prefix.function: parameter`` of each defaulted parameter of every
    ``def`` under ``tree``, lambdas included as ``<lambda>``."""
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(node, 'name', '<lambda>')}"
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults) :] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            yield from (f"{name}: {arg.arg}" for arg in with_default)
        elif isinstance(node, ast.ClassDef):
            name = f"{prefix}.{node.name}"
        yield from defaulted(node, name)


def package_defaults() -> set:
    return {entry for name, tree in package_trees() for entry in defaulted(tree, name)}


def test_every_default_is_listed():
    new = package_defaults() - DEFAULTED
    assert not new, "defaulted parameters not in DEFAULTED:\n" + "\n".join(sorted(new))


def test_every_listed_default_exists():
    stale = DEFAULTED - package_defaults()
    assert not stale, "DEFAULTED entries without a default:\n" + "\n".join(sorted(stale))
