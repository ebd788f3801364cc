"""The package's source parses under the oldest Python that pyproject.toml declares."""

import ast
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
