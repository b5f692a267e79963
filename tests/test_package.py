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


def _install_of_layer_probe():
    """The syntax tree of LayerProbe.install and its {alias: module} imports."""
    script = _bench_trees()[0]
    (probe,) = [node for node in script.body if getattr(node, "name", None) == "LayerProbe"]
    (install,) = [node for node in probe.body if getattr(node, "name", None) == "install"]
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(install)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    return install, modules


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
    install, modules = _install_of_layer_probe()
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


def _module_bindings(body, modules, env):
    """The "module.name" of every wrap(owner, name, ...) call in `body` whose
    owner is a module, with each for loop over a literal tuple unrolled and
    its variable bound in `env`."""
    for stmt in body:
        if isinstance(stmt, ast.For):
            for value in stmt.iter.elts:
                yield from _module_bindings(stmt.body, modules, {**env, stmt.target.id: value})
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "wrap":
                owner, attr = (env.get(getattr(arg, "id", None), arg) for arg in node.args[:2])
                if isinstance(owner, ast.Name):
                    yield f"{modules[owner.id]}.{ast.literal_eval(attr)}"


#: module bindings LayerProbe.install still wraps that no longer exist; the
#: tracer prints each as an "absent:" line
_STALE_BINDINGS = {
    "randmax.cli.composite_estimate",
    "randmax.cli.load_config",
    "randmax.estimators.clamp_alpha",
    "randmax.estimators.gpwm_alpha",
    "randmax.estimators.invert_curve",
    "randmax.estimators.ln_gamma",
    "randmax.estimators.ml_alpha",
    "randmax.estimators.pickands_curve_raw",
    "randmax.estimators.regularized_lower_gamma",
    "randmax.harness.clamp_alpha",
    "randmax.harness.endpoint_correct",
    "randmax.harness.estimate_alpha",
    "randmax.harness.invert_curve",
    "randmax.harness.mise_decompose",
    "randmax.harness.pickands_curve_raw",
    "randmax.harness.pseudo_uniforms",
}


def test_benchmark_module_bindings_resolve_or_are_listed_stale():
    # the tracer looks each binding up as vars(module).get(name) and skips a
    # missing one, so a rename in the package would drop a layer silently;
    # each binding resolves, or is listed stale and really is missing
    install, modules = _install_of_layer_probe()
    bindings = set(_module_bindings(install.body, modules, {}))
    assert "randmax.cli.main" in bindings and "randmax.harness.sample_experiment1" in bindings
    missing = set()
    for binding in bindings:
        module, name = binding.rsplit(".", 1)
        if vars(importlib.import_module(module)).get(name) is None:
            missing.add(binding)
    assert missing == _STALE_BINDINGS
