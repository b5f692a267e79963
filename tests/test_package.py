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
