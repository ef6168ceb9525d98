"""The closed-form kernel has one caller in the package.

Every value, derivative and rounding scale of the tissue curves comes from
:func:`petident.forward.jacobian`; a second call of
:func:`petident.kinetics.region_kernel`, which runs under ``jacobian``'s
error-state guard, would be a second evaluation path that can drift from it.
No module reads a ``__wrapped__`` attribute either: a decorated function
called through it is a second, unguarded function object of one body.
"""

import ast
import pkgutil
from pathlib import Path

import petident

KERNEL_NAMES = {"region_kernel"}

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


def package_trees():
    """``(name, tree)`` of each module of the package."""
    for info in pkgutil.iter_modules(petident.__path__):
        path = Path(petident.__path__[0]) / f"{info.name}.py"
        yield info.name, ast.parse(path.read_text(encoding="utf-8"))


def package_kernel_calls() -> set:
    found = set()
    for name, tree in package_trees():
        found.update(kernel_calls(tree, name))
    return found


def test_kernel_is_called_only_by_jacobian():
    assert package_kernel_calls() == CALLERS


def test_guard_sees_each_call_form():
    source = (
        "def direct(): region_kernel(1)\n"
        "def body(): region_kernel.__wrapped__(1)\n"
        "class Holder:\n"
        "    def method(self): kinetics.region_kernel(1)\n"
        "def other(): term_sum(1)\n"
    )
    assert set(kernel_calls(ast.parse(source), "m")) == {
        "m.direct", "m.body", "m.Holder.method",
    }


def wrapped_reads(tree):
    """Line numbers of every read of a ``__wrapped__`` attribute under
    ``tree``, as ``f.__wrapped__`` or ``getattr(f, "__wrapped__")``; a
    module-level alias ``_body = f.__wrapped__`` is such a read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__wrapped__":
            yield node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and any(isinstance(a, ast.Constant) and a.value == "__wrapped__" for a in node.args)
        ):
            yield node.lineno


def test_no_module_reaches_under_a_decorator():
    found = [
        f"{name}.py:{line}" for name, tree in package_trees() for line in sorted(wrapped_reads(tree))
    ]
    assert found == []


def test_wrapped_guard_sees_each_read_form():
    source = (
        "_body = region_kernel.__wrapped__\n"
        "def call(): _psi_pair.__wrapped__(1)\n"
        "def lookup(): getattr(f, '__wrapped__')\n"
        "def unrelated(): f.wrapped(1)\n"
    )
    assert sorted(wrapped_reads(ast.parse(source))) == [1, 2, 3]
