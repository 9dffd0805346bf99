"""Every name a `pxwell` module exports in `__all__` exists.

Tools that walk the package by `__all__` (a tracer wrapping each layer's
public functions, for one) look names up with a default, so a stale entry
left behind by a deletion would be skipped silently instead of failing.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import pxwell

MODULES = sorted(m.name for m in pkgutil.iter_modules(pxwell.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pxwell.{name}")
    assert hasattr(module, "__all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
