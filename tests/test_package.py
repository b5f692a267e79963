import importlib
import pkgutil

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
