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


def test_no_module_imports_the_package_by_name():
    """Package modules import each other relatively, so a copy of the package loaded under
    another name (as an A/B run of two checkouts does) never reaches the installed `gme`."""
    absolute = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno} {name}" for name in names
                         if name.split(".")[0] == "gme"]
    assert absolute == []


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


def _uses(module, tree):
    """(module, name, node) for each read of a top-level name of some package module.

    A read is a bare loaded name, which reads `module`'s own; `<alias>.<name>`, where
    `from . import <module> as <alias>` bound the alias; or `from .<module> import <name>`.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = f"{alias.name}.py"
                else:
                    yield f"{node.module}.py", alias.name, node
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield module, node.id, node
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            yield aliases[node.value.id], node.attr, node


def test_every_module_level_name_is_used_by_the_package():
    """No helper only tests use: each top-level function, class and constant of `src/gme`
    is read by package code outside its own definition.  A read names its module (see
    `_uses`), so `np.mean` or another module's local `sub` does not count as a use of
    an `autodiff.mean` or `autodiff.sub`, and a string in `__all__` is not a use."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = [(owner, name, id(node)) for module, tree in trees.items()
            for owner, name, node in _uses(module, tree)]
    unused = []
    for module, tree in trees.items():
        for name, definition in _module_level_names(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(owner == module and n == name and node_id not in inside
                       for owner, n, node_id in uses):
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
