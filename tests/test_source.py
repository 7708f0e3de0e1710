"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant they guard is unguarded
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
