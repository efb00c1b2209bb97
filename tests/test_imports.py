"""Every package module uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "satguide"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")  # it re-exports names


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no other node reads;
    a ``from __future__`` import binds none."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\n"
                          "print(os.sep, path)\n") == ["line 2: argv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
