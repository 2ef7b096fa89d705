"""Every name in a halc module's `__all__` resolves, so a deletion that
leaves a stale entry fails here rather than at `from halc.<module> import *`.
"""

import importlib
import pkgutil

import pytest

import halc

MODULES = sorted(info.name for info in pkgutil.iter_modules(halc.__path__, "halc."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
