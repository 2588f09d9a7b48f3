"""Import layering of the package, checked on the source text.

Every relative import sits at module level: a function-level import that
works around a cycle hides the cycle instead of removing it. The
simulator validates compiler output, so it must not import the compiler's
scheduling or register-assignment modules. An instruction is copied one
way, ``isa.rebuilt``, so no module uses ``dataclasses.replace``.
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_replace(path):
    tree = ast.parse(path.read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
             and any(alias.name == "replace" for alias in node.names)
             or isinstance(node, ast.Attribute) and node.attr == "replace"
             and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"]
    assert not found, f"{path.name}: dataclasses.replace on lines {found}"
