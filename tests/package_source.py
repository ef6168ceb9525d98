"""The package's modules as syntax trees, for the tests that guard its
source.  This module is a helper, not a test module: pytest does not
collect it."""

import ast
import pkgutil
from pathlib import Path

import petident


def package_trees():
    """``(name, tree)`` of each module of the package."""
    for info in pkgutil.iter_modules(petident.__path__):
        path = Path(petident.__path__[0]) / f"{info.name}.py"
        yield info.name, ast.parse(path.read_text(encoding="utf-8"))
