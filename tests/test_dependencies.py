"""The package runs on numpy and the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "technet"}


def _imported_roots(tree: ast.Module) -> set[str]:
    """Top-level names of every absolute import in a module (relative ones stay in technet)."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_source_module_imports_only_stdlib_numpy_and_technet():
    sources = sorted((ROOT / "src" / "technet").glob("*.py"))
    assert sources
    foreign = {
        path.name: sorted(_imported_roots(ast.parse(path.read_text())) - ALLOWED)
        for path in sources
    }
    assert {name: roots for name, roots in foreign.items() if roots} == {}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
