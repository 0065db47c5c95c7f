"""Properties of the package source as a whole: imports, references and
caches."""

import ast
import collections
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import hodp

PACKAGE = pathlib.Path(hodp.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(hodp.__path__))


def _imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


# MODULES leaves out hodp/__init__.py, whose imports are re-exports
@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


# Public functions and methods that nothing in the package refers to, each
# with the reason it stays.  The list may only shrink.
UNREFERENCED = {
    "closure.replay_derivation": "checker, waits for the certificate checker (ROADMAP item 3)",
    "engine.replay_trace": "checker, waits for the certificate checker (ROADMAP item 3)",
    "engine.has_alpha_repeat": "checker, waits for the certificate checker (ROADMAP item 3)",
}


def _references(tree: ast.AST) -> collections.Counter:
    """How often each name is read, as a name or an attribute, or
    imported under tree."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def test_every_public_function_is_referenced():
    """By name, and not only from its own body."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    total = sum(map(_references, trees.values()), collections.Counter())
    unreferenced = set()
    for module, tree in trees.items():
        for node in tree.body:
            owner, defs = f"{module}.", [node]
            if isinstance(node, ast.ClassDef):
                owner, defs = f"{module}.{node.name}.", node.body
            unreferenced.update(
                owner + d.name
                for d in defs
                if isinstance(d, ast.FunctionDef)
                and not d.name.startswith("_")
                and total[d.name] == _references(d)[d.name]
            )
    assert sorted(unreferenced) == sorted(UNREFERENCED)


def test_every_error_class_is_caught_somewhere():
    """An error class earns its place by a caller that reacts to it; one
    that is only raised adds nothing to its base class."""
    classes = {
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    caught = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert sorted(classes - caught - {"HodpError"}) == []


def _caches() -> dict:
    """Every lru_cache bound in a module of hodp or in one of its classes,
    by the module-relative name it was defined under."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"hodp.{name}")
        classes = [c for c in vars(module).values() if inspect.isclass(c)]
        for owner in (module, *classes):
            for value in vars(owner).values():
                if hasattr(value, "cache_parameters"):
                    defined_in = value.__module__.removeprefix("hodp.")
                    found[f"{defined_in}.{value.__qualname__}"] = value
    return found


def test_no_cache_grows_without_bound():
    caches = _caches().items()
    assert [n for n, c in caches if c.cache_parameters()["maxsize"] is None] == []


def test_the_only_cache_is_alpha_canonical():
    assert set(_caches()) == {"terms.alpha_canonical"}


def _bench_targets() -> tuple:
    """`TARGETS` of bench/layers.py, read from its source without importing
    the harness."""
    tree = ast.parse((PACKAGE.parents[1] / "bench" / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/layers.py defines no TARGETS")


def test_every_name_the_benchmark_wraps_resolves():
    """The traced benchmark wraps these by name; a rename should fail here,
    not only inside a forked child of its smoke test."""
    targets, missing = _bench_targets(), []
    for module_name, attr, _, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}:{attr}")
    assert targets
    assert missing == []


def test_only_the_parser_builds_a_system():
    """build_system trusts its input; parse_system is where a system file
    is checked, so no other module may build a system."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "build_system":
                    callers.add(path.stem)
    assert callers == {"parser"}


def test_no_module_imports_dataclasses():
    """Building dataclasses cost a fresh `hodp check` more than checking a
    typical system, and importing dataclasses loads inspect."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                importers.append(path.stem)
    assert importers == []


def test_a_plain_check_loads_no_argparse_dataclasses_or_inspect():
    """In a fresh interpreter: import the front end, check a system, and
    list which of argparse, dataclasses, inspect and json are loaded."""
    code = (
        "import sys\n"
        "from hodp.cli import main\n"
        "main(['check', 'systems/map.hodp'])\n"
        "print(sorted({'argparse', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
    )
    root = PACKAGE.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=root, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "YES"
    assert done.stdout.splitlines()[-1] == "[]"
