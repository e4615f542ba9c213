import importlib
import pkgutil

import pytest

import uavsense

MODULES = sorted(info.name for info in pkgutil.iter_modules(uavsense.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A name left in __all__ after its definition is deleted would break
    # `from uavsense.<module> import *`.
    module = importlib.import_module(f"uavsense.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
