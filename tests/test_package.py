import importlib
import pkgutil

import pytest

import dipolarray

MODULES = ["dipolarray"] + [f"dipolarray.{m.name}" for m in pkgutil.iter_modules(dipolarray.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from dipolarray import *", namespace)
    assert set(dipolarray.__all__) <= namespace.keys()
