"""Every name a package module or test file imports is read in it (a stdlib stand-in for pyflakes)."""

import ast
from pathlib import Path

import pytest

import wpcontent as w

MODULES = sorted(Path(w.__file__).resolve().parent.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))
IDS = [p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES]


def unread_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression of it reads."""
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(set(bound) - read)


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=IDS)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = "from .tree import PacketTree, projection\nimport numpy as np\nx: PacketTree = np.eye(1)"
    assert unread_imports(source) == ["projection"]
