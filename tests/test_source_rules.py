"""Rules the package source keeps, checked on its syntax trees."""

import ast
import re
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


def test_readme_config_fields_match_the_schema():
    # every backticked bare name in README's "Config fields" paragraph is a
    # config field, and every config field is listed there
    from nilwalk.experiments import _CONFIG_FIELDS

    readme = (Path(nilwalk.__file__).resolve().parents[2] / "README.md").read_text()
    start = readme.index("Config fields (used per subcommand)")
    paragraph = readme[start:readme.index("\n\n", start)]
    listed = {name for name in re.findall(r"`([^`]*)`", paragraph) if re.fullmatch(r"[a-z_]+", name)}
    assert listed == set(_CONFIG_FIELDS)
