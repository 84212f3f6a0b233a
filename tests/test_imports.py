"""Every imported name under src/ and tests/ is used in its module, every
``__all__`` entry under src/ names something its module defines, and no
module under src/ imports another module's private (underscore) names."""

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


def private_imports(tree: ast.Module) -> list[str]:
    """Underscore names that ``from ... import`` takes from another module."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def stale_exports(tree: ast.Module) -> list[str]:
    """``__all__`` entries that no top-level statement of the module binds."""
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


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


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_all_entries_are_defined(path):
    assert stale_exports(ast.parse(path.read_text())) == []


def test_check_flags_a_stale_export():
    tree = ast.parse(
        "from math import pi\n"
        "import os.path\n"
        "LIMIT: int = 3\n"
        "def f(): pass\n"
        "class C: pass\n"
        "__all__ = ['pi', 'os', 'LIMIT', 'f', 'C', 'gone']\n"
    )
    assert stale_exports(tree) == ["gone"]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_private_imports(path):
    assert private_imports(ast.parse(path.read_text())) == []


def test_check_flags_a_private_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from .distributions import KERNELS, _genf_shapes as shapes\n"
        "def f():\n"
        "    from .simulate import _BLOCK\n"
    )
    assert private_imports(tree) == ["_genf_shapes (line 2)", "_BLOCK (line 4)"]
