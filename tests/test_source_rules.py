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


def test_package_raises_no_builtin_exception():
    # a caller's bad input raises an InputError subclass, which the CLI reports
    # in one line; a fault raises a named RuntimeError subclass.  Catching a
    # builtin exception to re-raise it as a named one stays allowed
    builtin = {"ValueError", "TypeError", "RuntimeError", "Exception"}
    found = []
    for path in sorted(Path(nilwalk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in builtin:
                found.append(f"{path.name}:{node.lineno} {exc.id}")
    assert found == [], f"builtin exceptions raised: {found}"


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


def test_readme_python_runs():
    # README names no export that the guard below cannot see: each python
    # fence runs, in a fresh namespace
    readme = (Path(nilwalk.__file__).resolve().parents[2] / "README.md").read_text()
    fences = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert fences, "README has no python fence"
    for code in fences:
        exec(compile(code, "README.md", "exec"), {})


def test_every_export_is_reached():
    # a public name earns its place when the package itself, an acceptance
    # criterion or the benchmark uses it; a name only its own unit test or
    # README calls is dead weight
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


def test_only_the_draw_seam_constructs_a_philox():
    # every walk, the scan's parts included, draws through walk._uniforms, so
    # a faster stream replaces one function; nested jobs count as their
    # enclosing function
    path = Path(nilwalk.__file__).parent / "walk.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = [
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and any(isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Philox"
                for node in ast.walk(top))
    ]
    assert callers == ["_uniforms"], callers


def test_only_the_reference_path_and_the_edge_table_read_the_voltages():
    # the batched engines read walk._edge_logs on every step, through the
    # layer recursion on steps 3-4 and edge counts on step 2, and sample_path,
    # the reference they are checked against, folds the voltages and adds the
    # end vertex's position: no third route reads them
    path = Path(nilwalk.__file__).parent / "walk.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    readers = [
        getattr(top, "name", "module level")
        for top in tree.body
        if any(getattr(node, "attr", None) == "voltages" for node in ast.walk(top))
    ]
    assert readers == ["sample_path", "_edge_logs"], readers


def test_only_the_reference_path_calls_fold():
    # the engines build their points from the centered prefix on step <= 2 and
    # by algebra's layer recursion on steps 3-4; only sample_path, the
    # reference they are checked against, calls fold.  Nested jobs count as
    # their enclosing function
    path = Path(nilwalk.__file__).parent / "walk.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = [
        getattr(top, "name", "module level")
        for top in tree.body
        if any(isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "fold"
               for node in ast.walk(top))
    ]
    assert callers == ["sample_path"], callers


def test_walks_draw_no_floats():
    # every walk reads its stream's raw words and selects edges from them: no
    # .random( call in walk.py
    path = Path(nilwalk.__file__).parent / "walk.py"
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "random"]
    assert calls == [], f"float draws in walk.py at lines {calls}"


def test_thread_pools_open_only_in_with_statements():
    # _run_sharded runs the worker threads and _drawn_ahead the draw-ahead
    # helper of batch_endpoints and trajectory_scan; a pool opened in a with
    # statement is joined when its block ends, so no thread outlives the call
    # that started it
    opened, loose = [], []
    for path in sorted(Path(nilwalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            name = f"{path.name} {getattr(top, 'name', 'module level')}"
            in_with = {id(item.context_expr.func) for node in ast.walk(top) if isinstance(node, ast.With)
                       for item in node.items if isinstance(item.context_expr, ast.Call)}
            for node in ast.walk(top):
                if getattr(node, "id", getattr(node, "attr", None)) == "ThreadPoolExecutor":
                    (opened if id(node) in in_with else loose).append(name)
    assert loose == [], f"thread pools not opened in a with statement: {loose}"
    assert opened == ["walk.py _run_sharded", "walk.py _drawn_ahead"], opened


def test_no_unused_parameters():
    # every parameter of every function (self and cls aside) is read in its
    # body, nested functions included: a parameter nothing reads is a knob
    # that does nothing
    unused = []
    for path in sorted(Path(nilwalk.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = func.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(func, "name", "lambda")
            unused += [f"{path.name} {name}({p})" for p in params if p not in read and p not in ("self", "cls")]
    assert unused == [], f"parameters never read: {unused}"


def test_only_algebra_loops_over_the_structure_constants():
    # every contraction with the structure constants lives in algebra.py, so
    # the walk's area sums cannot grow a second one beside fold's; a loop over
    # a name bound to the constants counts too, and unpacking a single
    # constant (rates.py's closed form) stays allowed
    tables = {"bracket_entries", "graded_bracket_entries"}

    def mentions(node, names):
        return any(getattr(n, "attr", None) in names or getattr(n, "id", None) in names
                   for n in ast.walk(node))

    found = []
    for path in sorted(Path(nilwalk.__file__).parent.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and mentions(node.value, tables)
                 for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.comprehension)) and mentions(node.iter, tables | bound):
                found.append(f"{path.name}:{getattr(node, 'lineno', node.iter.lineno)}")
    assert found == [], f"loops over structure constants outside algebra.py: {found}"


def test_only_the_prefix_helper_sums_walk_prefixes():
    # trajectory_scan and the step-2 batch take their centered prefixes from
    # walk._CenteredPrefix, so the two cannot drift apart again; WalkPath.prefix
    # is the replay's own float cumsum.  A cumsum method or an add.accumulate
    # counts too
    path = Path(nilwalk.__file__).parent / "walk.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = {
        getattr(top, "name", "module level")
        for top in tree.body
        for node in ast.walk(top)
        if getattr(node, "attr", None) in ("cumsum", "accumulate")
    }
    assert sites == {"_CenteredPrefix", "WalkPath"}, sites


def test_every_private_constant_is_read():
    # a module-level constant such as walk._PART_STEPS is read somewhere in
    # the package, by name or as a module attribute: a knob whose last reader
    # is gone is left over
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(Path(nilwalk.__file__).parent.glob("*.py"))]
    constants = {
        target.id
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", target.id)
    }
    read = {
        getattr(node, "id", getattr(node, "attr", None))
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(getattr(node, "ctx", None), ast.Load)
    }
    assert len(constants) >= 20, sorted(constants)
    assert sorted(constants - read) == [], "private constants never read"
