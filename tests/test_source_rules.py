"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import nilwalk


def test_no_assert_statements():
    # numerical invariants raise named errors: an assert vanishes under python -O
    files = sorted(Path(nilwalk.__file__).parent.glob("*.py"))
    assert files, "no package sources found"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
