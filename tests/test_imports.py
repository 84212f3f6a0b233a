"""Every imported name under src/ and tests/ is used in its module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import but never loaded, nor re-exported in ``__all__``."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_check_flags_an_unused_name():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import pi, tau as full_turn\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(tree) == ["pi (line 3)", "full_turn (line 3)"]
