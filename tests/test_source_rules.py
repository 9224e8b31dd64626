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
    # the backticked bare names in README's "Config fields" paragraph are
    # exactly the config fields, and the calls on its "Presets:" line exactly
    # the graph presets
    from nilwalk.experiments import _CONFIG_FIELDS
    from nilwalk.graph import PRESETS

    readme = (Path(nilwalk.__file__).resolve().parents[2] / "README.md").read_text()
    for heading, pattern, names in (
        ("Config fields (used per subcommand)", r"([a-z_]+)", _CONFIG_FIELDS),
        ("Presets:", r"([a-z_0-9]+)\(\w*\)", PRESETS),
    ):
        start = readme.index(heading)
        paragraph = readme[start:readme.index("\n\n", start)]
        listed = {m.group(1) for name in re.findall(r"`([^`]*)`", paragraph) if (m := re.fullmatch(pattern, name))}
        assert listed == set(names), heading


def test_every_export_is_reached():
    # a public name earns its place when the package itself, an acceptance
    # criterion or the benchmark uses it, or README documents it; a name only
    # its own unit test calls is dead weight
    root = Path(nilwalk.__file__).resolve().parents[2]
    sources = [p for p in Path(nilwalk.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    sources += [root / "tests" / "test_acceptance.py"]
    sources += [p for p in (root / "perfbench").glob("*.py") if p.name != "test_smoke.py"]
    reached = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
    readme = (root / "README.md").read_text()
    fences = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
    documented = [body for lang, body in fences.findall(readme) if lang == "python"]
    documented += re.findall(r"`([^`\n]+)`", fences.sub("", readme))
    for text in documented:
        reached.update(re.findall(r"[A-Za-z_]\w*", text))
    unreached = sorted(set(nilwalk.__all__) - reached)
    assert unreached == [], f"exported but reached by nothing: {unreached}"


def _checked_sources():
    # the package's modules except __init__.py, whose imports are the
    # exports, and the test modules
    root = Path(nilwalk.__file__).resolve().parents[2]
    files = [p for p in Path(nilwalk.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    return files + sorted((root / "tests").glob("*.py"))


def _bound_names(node):
    # the names an import statement binds; none for any other node
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def test_no_unused_imports():
    # every name a module imports is referenced in it
    unused = []
    for path in _checked_sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {name: node.lineno for node in ast.walk(tree) for name in _bound_names(node)}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == [], f"imported but never used: {sorted(unused)}"


def test_no_import_repeated_in_a_function():
    # a function does not import again a name its module imports at module level
    repeated = []
    for path in _checked_sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {name for node in tree.body for name in _bound_names(node)}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                repeated += [
                    f"{path.name}:{node.lineno} {name}"
                    for node in ast.walk(func)
                    for name in _bound_names(node)
                    if name in top
                ]
    assert repeated == [], f"imported again inside a function: {sorted(repeated)}"
