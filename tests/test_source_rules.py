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


def test_no_unused_imports():
    # every name a module imports is referenced in it; the package's
    # __init__.py is exempt, because its imports are the exports
    root = Path(nilwalk.__file__).resolve().parents[2]
    files = [p for p in Path(nilwalk.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    files += sorted((root / "tests").glob("*.py"))
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == [], f"imported but never used: {sorted(unused)}"
