"""Every name a `pxwell` module exports in `__all__` exists, and every
function that a per-layer benchmark metric names is exported.

Tools that walk the package by `__all__` (a tracer wrapping each layer's
public functions, for one) look names up with a default, so a stale entry
left behind by a deletion would be skipped silently instead of failing.
The benchmark reports a metric whose function has left `__all__` as absent
(null), so a function that BENCHMARK.json names must stay exported even when
no pipeline stage calls it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import pxwell

MODULES = sorted(m.name for m in pkgutil.iter_modules(pxwell.__path__) if m.name != "__main__")

# <module>.<function> followed by a span field or a microbenchmark size
_LAYER_METRIC = re.compile(r"^(\w+)\.(\w+)\.(calls|s|self_s|failed|iters_per_call|32\.us|128\.us)$")
_BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BENCHMARKED = sorted({m.group(1, 2) for m in (_LAYER_METRIC.match(row["name"])
                                              for row in _BENCHMARK["per_layer"]) if m})


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pxwell.{name}")
    assert hasattr(module, "__all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("module_name, function", BENCHMARKED,
                         ids=[".".join(pair) for pair in BENCHMARKED])
def test_benchmarked_function_exported(module_name, function):
    module = importlib.import_module(f"pxwell.{module_name}")
    assert function in module.__all__
    assert inspect.isfunction(getattr(module, function))
