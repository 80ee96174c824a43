"""Rules the library's own source keeps, checked on its syntax trees.

GC state is process-global and batch workers are threads, so the library
never touches the collector: no module under `src/ponzilens` imports `gc` or
reads an attribute of it, `cli.py` included. Code outside the package,
such as `bench/`, may.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ponzilens"


def _gc_uses(tree: ast.AST) -> list[int]:
    """Lines that import the gc module or read an attribute of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.partition(".")[0] == "gc" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and (node.module or "").partition(".")[0] == "gc"
        else:
            hit = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
            )
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "code, lines",
    [
        ("import gc", [1]),
        ("import os, gc as collector", [1]),
        ("from gc import freeze", [1]),
        ("def f():\n    gc.freeze()", [2]),
        ("x = gc.get_threshold", [1]),
        ("import gcx\nfrom . import gc_helpers\nobj.gc = 1", []),
    ],
)
def test_gc_checker_finds_imports_and_attribute_reads(code, lines):
    assert _gc_uses(ast.parse(code)) == lines


def test_library_makes_no_gc_call():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {
        f.name: uses for f in files if (uses := _gc_uses(ast.parse(f.read_text(), str(f))))
    }
    assert found == {}
