"""Import layering of the package, checked on the source text.

Every relative import sits at module level: a function-level import that
works around a cycle hides the cycle instead of removing it. The
simulator validates compiler output, so it must not import the compiler's
scheduling or register-assignment modules.
"""

import ast
from pathlib import Path

import pytest

import xvliw

PACKAGE = Path(xvliw.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _relative_imports(tree):
    """(node, imported module name) of every ``from .x import ...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node, node.module or ""


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_relative_imports_at_module_level(path):
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    nested = [f"line {node.lineno}: from .{module} import ..."
              for node, module in _relative_imports(tree) if id(node) not in top]
    assert not nested, f"{path.name}: {nested}"


def test_simulator_does_not_import_the_compiler():
    tree = ast.parse((PACKAGE / "vliwsim.py").read_text())
    modules = {module for _, module in _relative_imports(tree)}
    assert not modules & {"regalloc", "scheduler"}, modules
