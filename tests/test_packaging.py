"""Packaging guards: the library runs on numpy alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_library_does_not_import_scipy():
    sources = sorted((ROOT / "src" / "halfq").rglob("*.py"))
    assert sources
    offenders = [p.name for p in sources if "scipy" in _imported_roots(p)]
    assert offenders == []


def test_scipy_is_a_test_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    extras = project["optional-dependencies"]
    holders = [name for name, deps in extras.items() if any(d.startswith("scipy") for d in deps)]
    assert holders == ["test"]
