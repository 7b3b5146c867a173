"""Every name a package module or test file imports is read in it (a stdlib stand-in for pyflakes),
and every package it imports is the standard library, a declared dependency or the repo's own."""

import ast
import re
import sys
from pathlib import Path

import pytest

import wpcontent as w

MODULES = sorted(Path(w.__file__).resolve().parent.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
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


def imported_packages(source: str) -> set[str]:
    """First components of the absolute imports of ``source``; relative ones are the package's."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_only_declared_dependencies_are_imported():
    # an installed but undeclared package (scipy, say) would pass here and fail elsewhere
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0] for req in requirements}
    assert {"numpy", "pytest", "hypothesis"} <= declared
    own = {"wpcontent", "helpers", "golden", "mutants", "workloads"}
    for path in MODULES + TEST_FILES:
        allowed = {"numpy"} if path in MODULES else {"numpy", "pytest", "hypothesis", *own}
        imported = imported_packages(path.read_text(encoding="utf-8"))
        assert imported - set(sys.stdlib_module_names) <= allowed, path.name
