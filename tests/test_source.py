"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import deltamatroids
import deltamatroids.delta

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


def test_benchmark_targets_resolve():
    # the benchmark's tracer wraps each TARGETS entry by name, and every round
    # reads the exchange memo's cache_info: a rename breaks the benchmark only
    tracing = SRC.parent / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    (targets,) = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS"
    ]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs
    missing = []
    for mod_name, attr in pairs:
        module = importlib.import_module(f"deltamatroids.{mod_name}")
        cls_name, _, name = attr.rpartition(".")
        # tracing.install reads a method from its class's own __dict__
        scope = vars(getattr(module, cls_name)) if cls_name else vars(module)
        if name not in scope:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
    assert callable(deltamatroids.delta._delta_ok.cache_info)


def test_public_names_are_listed_once():
    # every name in __all__ resolves, and every public name __init__ imports
    # is in __all__, so a removed API cannot linger in one of the two lists
    path = SRC / "deltamatroids" / "__init__.py"
    imported = {
        alias.asname or alias.name
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    listed = set(deltamatroids.__all__)
    assert len(listed) == len(deltamatroids.__all__)
    assert [name for name in deltamatroids.__all__ if not hasattr(deltamatroids, name)] == []
    assert sorted(imported - listed) == []


def test_no_unused_imports():
    # __init__.py imports the public API for its callers; every other module
    # imports a name only to use it
    unused = []
    for path in sorted((SRC / "deltamatroids").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        # a name read as an attribute base (json.dumps) is a Name node too
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_src_line_budget():
    # the package's size budget: features come out of its line count
    counts = {str(path.relative_to(SRC)): len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py"))}
    lines = sum(counts.values())
    per_module = ", ".join(f"{name} {count}" for name, count in counts.items())
    assert lines <= 1950, f"src/ holds {lines} lines, over the 1,950-line budget: {per_module}"


def test_private_helpers_are_called_in_src():
    # every private module-level function or class, and every private method,
    # is named in src/ outside its own definition: a helper kept only for the
    # tests belongs in the tests
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = []  # (path, qualified name, node)
    for path, tree in trees.items():
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for d, owner in [(node, ""), *((m, f"{node.name}.") for m in methods)]:
                if isinstance(d, kinds) and d.name.startswith("_") and not d.name.endswith("__"):
                    defs.append((path, owner + d.name, d))
    assert defs
    refs = [
        (path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]

    def named_elsewhere(path, d):
        return any(name == d.name and not (p == path and d.lineno <= line <= d.end_lineno) for p, line, name in refs)

    dead = [f"{path.relative_to(SRC)}:{d.lineno} {qualname}" for path, qualname, d in defs if not named_elsewhere(path, d)]
    assert dead == []


def test_exchange_check_runs_only_at_the_input_boundary():
    # the exchange kernel certifies only families given from outside, through
    # the two certify methods; everything else reads the family code from core
    callers, private = [], []
    for path in sorted((SRC / "deltamatroids").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [(node, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [
            (m, f"{node.name}.{m.name}")
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for m in node.body
            if isinstance(m, ast.FunctionDef)
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_certify_exchange" in (getattr(node.func, a, None) for a in ("id", "attr")):
                owner = [name for d, name in defs if d.lineno <= node.lineno <= d.end_lineno] or ["<module>"]
                callers.append(f"{path.stem}.{owner[0]}")
        private += [
            f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("matroids", "deltamatroids.matroids")
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert sorted(callers) == ["delta.DeltaMatroid.certify", "matroids.Matroid.certify"]
    assert private == []
