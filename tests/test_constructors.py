"""Every instance in the package is built by its class's own constructor.

A call of ``object.__new__`` makes an instance that no ``__init__`` has
checked: a second, unchecked constructor beside the class's own.
"""

import ast

from package_source import package_trees


def object_new_calls(tree):
    """Line numbers of every call of ``object.__new__`` under ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            yield node.lineno


def test_no_module_calls_object_new():
    found = [
        f"{name}.py:{line}" for name, tree in package_trees() for line in sorted(object_new_calls(tree))
    ]
    assert found == []


def test_guard_sees_each_call_form():
    source = (
        "x = object.__new__(Vector)\n"
        "class Vector:\n"
        "    @classmethod\n"
        "    def adopt(cls): return object.__new__(cls)\n"
        "def unrelated(): return Vector.__new__(Vector), new(object)\n"
    )
    assert sorted(object_new_calls(ast.parse(source))) == [1, 4]
