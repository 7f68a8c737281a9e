"""Packaging: the runtime dependencies in pyproject.toml are exactly the
third-party packages that the library source imports, and the ones the
README names."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "omegalab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"omegalab"}


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}


def test_runtime_dependencies_match_imports():
    assert _imported_packages() == _declared()


def test_readme_dependencies_match_declared():
    # the backticked names of the README's "Dependencies:" clause, up to its ";"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    clause = readme.split("\nDependencies:", 1)[1].split(";", 1)[0]
    assert set(re.findall(r"`([^`]+)`", clause)) == _declared()
