"""The package's source parses under the oldest Python that pyproject.toml declares."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gme").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    """Syntax only: `ast.parse` with `feature_version=(3, 10)` refuses grammar newer than
    3.10 (such as `except*` or `type` statements), but not runtime features, such as the
    possessive `*+` that `re` compiles only from 3.11 on, nor library calls added later."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_sources_are_found():
    assert SOURCES


def _module_level_names(tree):
    """(name, node) for each function, class and constant a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node


def _loaded_names(tree):
    """(name, node) for each name the module reads: a loaded name or attribute, or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def test_every_module_level_name_is_used_by_the_package():
    """No helper only tests use: each top-level function, class and constant of `src/gme`
    is read by package code outside its own definition.  Names match by spelling alone,
    whatever module they come from, and a string in `__all__` is not a use."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    loads = [(module, name, node) for module, tree in trees.items()
             for name, node in _loaded_names(tree)]
    unused = []
    for module, tree in trees.items():
        for name, definition in _module_level_names(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(n == name and not (m == module and id(node) in inside)
                       for m, n, node in loads):
                unused.append(f"{module}:{definition.lineno} {name}")
    assert unused == []


def test_every_all_entry_names_something_its_module_defines():
    """A stale string in `__all__` breaks `from gme.<module> import *`, and nothing else."""
    stale = []
    for path in SOURCES:
        module = importlib.import_module("gme" if path.stem == "__init__" else f"gme.{path.stem}")
        stale += [f"{path.name} {name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []
