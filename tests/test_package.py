import importlib
import pkgutil

import pytest

import cavens

MODULES = sorted(info.name for info in pkgutil.iter_modules(cavens.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cavens.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
