"""The package's public names: every export resolves, and none is unlisted."""

import ast
from pathlib import Path

import nilwalk


def test_every_export_resolves():
    for name in nilwalk.__all__:
        assert hasattr(nilwalk, name), name
    namespace = {}
    exec("from nilwalk import *", namespace)
    assert set(nilwalk.__all__) <= set(namespace)


def test_every_public_import_is_exported():
    tree = ast.parse(Path(nilwalk.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public, "no imports found"
    assert sorted(public - set(nilwalk.__all__)) == []
    assert len(nilwalk.__all__) == len(set(nilwalk.__all__))
