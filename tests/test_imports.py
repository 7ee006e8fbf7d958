"""Every module-level import in src/ramsum is read by its module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ramsum"


def unused_imports(source: str, reexports: bool = False) -> list:
    """The names a module imports at module level and never reads, in order;
    with reexports, relative imports count as read (a package's public names)."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module == "__future__" or reexports and node.level):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            unused += [name for name in names if name not in read]
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(), reexports=path.name == "__init__.py") == []


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom dataclasses import dataclass, field\n"
    source += "from .x import y\n@dataclass\nclass A:\n    n: int = sys.maxsize\n"
    assert unused_imports(source) == ["os", "field", "y"]
    assert unused_imports(source, reexports=True) == ["os", "field"]
