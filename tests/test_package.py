import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import randmax

MODULES = sorted(m.name for m in pkgutil.iter_modules(randmax.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_provides_every_exported_name(name):
    # a name left in __all__ after its definition is deleted makes this raise
    namespace = {}
    exec(f"from randmax.{name} import *", namespace)
    module = importlib.import_module(f"randmax.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_cli_and_config_touch_files():
    # the other modules format and parse text; reads and writes stay at the boundary
    offenders = []
    for path in sorted(Path(randmax.__file__).parent.glob("*.py")):
        if path.name in ("cli.py", "config.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _FILE_CALLS:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


_BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "run_bench.py"


def _bench_trees():
    """The syntax trees of the benchmark script and of the child scripts it
    keeps as string constants."""
    tree = ast.parse(_BENCH.read_text(encoding="utf-8"))
    children = [
        ast.parse(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and "import randmax" in str(node.value)
    ]
    return [tree, *children]


def test_benchmark_lookups_resolve():
    # the benchmark reaches into randmax by name, and its tracer skips a
    # missing method binding (an "absent:" line) or stops on a missing
    # class; every name it imports from randmax, and every class with the
    # methods LayerProbe.install wraps, must exist
    trees = _bench_trees()
    imported = [
        (node.module, alias.name)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("randmax")
        for alias in node.names
    ]
    assert ("randmax.config", "load_config") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    (probe,) = [node for node in trees[0].body if getattr(node, "name", None) == "LayerProbe"]
    (install,) = [node for node in probe.body if getattr(node, "name", None) == "install"]
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(install)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    wrapped = [
        (modules[node.args[0].value.id], node.args[0].attr, node.args[1].value)
        for node in ast.walk(install)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "wrap"
        and isinstance(node.args[0], ast.Attribute)
    ]
    assert wrapped
    for module, name, method in wrapped:
        owner = getattr(importlib.import_module(module), name, None)
        assert isinstance(owner, type), f"{module}.{name}"
        assert method in vars(owner), f"{module}.{name}.{method}"
