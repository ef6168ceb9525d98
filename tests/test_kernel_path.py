"""The closed-form kernel has one caller in the package.

Every value, derivative and rounding scale of the tissue curves comes from
:func:`petident.forward.jacobian`; a second call of
:func:`petident.kinetics.region_kernel` (or of ``forward._kernel``, its
unguarded body) would be a second evaluation path that can drift from it.
"""

import ast
import pkgutil
from pathlib import Path

import petident

KERNEL_NAMES = {"region_kernel", "_kernel"}

#: ``module.function`` of every function that may call the kernel.
CALLERS = {"forward.jacobian"}


def callee_names(func):
    """The names a call of ``func`` goes through: ``f`` for ``f(...)``,
    ``attr`` and its base for ``base.attr(...)``."""
    while isinstance(func, ast.Attribute):
        yield func.attr
        func = func.value
    if isinstance(func, ast.Name):
        yield func.id


def kernel_calls(tree, prefix):
    """``prefix.function`` of each function under ``tree`` that calls the
    kernel, nested functions and methods by their dotted path; a call
    outside any function is named by ``prefix`` alone."""
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
        elif isinstance(node, ast.Lambda):
            name = f"{prefix}.<lambda>"
        elif isinstance(node, ast.Call) and KERNEL_NAMES & set(callee_names(node.func)):
            yield prefix
        yield from kernel_calls(node, name)


def package_kernel_calls() -> set:
    found = set()
    for info in pkgutil.iter_modules(petident.__path__):
        path = Path(petident.__path__[0]) / f"{info.name}.py"
        found.update(kernel_calls(ast.parse(path.read_text(encoding="utf-8")), info.name))
    return found


def test_kernel_is_called_only_by_jacobian():
    assert package_kernel_calls() == CALLERS


def test_guard_sees_each_call_form():
    source = (
        "def direct(): region_kernel(1)\n"
        "def body(): region_kernel.__wrapped__(1)\n"
        "def alias(): _kernel(1)\n"
        "class Holder:\n"
        "    def method(self): kinetics.region_kernel(1)\n"
        "def other(): term_sum(1)\n"
    )
    assert set(kernel_calls(ast.parse(source), "m")) == {
        "m.direct", "m.body", "m.alias", "m.Holder.method",
    }
