"""Packaging: the runtime dependencies in pyproject.toml are exactly the
third-party packages that the library source imports, and the ones the
README names; the library starts no threads or processes; the package
exports each module's public names, each declared once."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules() -> set[str]:
    """The top-level names of every absolute import in the library source."""
    names = set()
    for path in (ROOT / "src" / "omegalab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _imported_packages() -> set[str]:
    return _imported_modules() - set(sys.stdlib_module_names) - {"omegalab"}


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}


def test_runtime_dependencies_match_imports():
    assert _imported_packages() == _declared()


def test_library_imports_no_concurrency():
    # concurrent.futures, threading and multiprocessing: the table kernel
    # and the tuple search run on the calling thread
    assert not _imported_modules() & {"concurrent", "threading", "multiprocessing"}


def test_readme_dependencies_match_declared():
    # the backticked names of the README's "Dependencies:" clause, up to its ";"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    clause = readme.split("\nDependencies:", 1)[1].split(";", 1)[0]
    assert set(re.findall(r"`([^`]+)`", clause)) == _declared()


def test_each_public_name_declared_once():
    # a library module's __all__ is exactly its public top-level classes and
    # functions, and the package's __all__ is their union, without repeats
    import omegalab

    names = []
    for path in sorted((ROOT / "src" / "omegalab").glob("*.py")):
        if path.stem.startswith("__") or path.stem == "cli":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not node.name.startswith("_")
        }
        module_all = importlib.import_module(f"omegalab.{path.stem}").__all__
        assert sorted(module_all) == sorted(public), path.stem
        names += module_all
    assert len(names) == len(set(names))
    assert omegalab.__all__ == sorted(names)
    assert all(hasattr(omegalab, name) for name in omegalab.__all__)
