"""Every name a `pxwell` module exports in `__all__` exists, every function
that a per-layer benchmark metric names is exported, and every exported
function has a use.

Tools that walk the package by `__all__` (a tracer wrapping each layer's
public functions, for one) look names up with a default, so a stale entry
left behind by a deletion would be skipped silently instead of failing.
The benchmark reports a metric whose function has left `__all__` as absent
(null), so a function that BENCHMARK.json names must stay exported even when
no pipeline stage calls it.

An exported function that no command runs and no module calls is dead code
that only its tests keep alive.  Each one must be called somewhere in
`src/pxwell` outside its own definition (found by walking the syntax trees;
`__init__`'s re-exports and `__all__` strings do not count), be a command
entry point, be named by BENCHMARK.json, or be on `KEEP` with its reason.
"""

from __future__ import annotations

import ast
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

SRC = Path(pxwell.__file__).resolve().parent
ENTRY_POINTS = {("cli", "main"), ("cli", "run")}
# exported functions that nothing in src/pxwell calls, each with its reason
KEEP = {
    ("classify", "prop48_check"): "Prop. 4.8's large-data test, a verdict rule to come",
}


def _uses() -> set[tuple[str, str]]:
    """(module, name) for every load of a name in `src/pxwell` outside its
    own top-level definition: a bare name, in its own module or in one that
    imports it from there (under any alias), or `module.name`."""
    uses = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names}
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    use = imported.get(node.id, (path.stem, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    use = (node.value.id, node.attr)
                else:
                    continue
                if use != (path.stem, owner):
                    uses.add(use)
    return uses


_MODULE_OBJECTS = {name: importlib.import_module(f"pxwell.{name}") for name in MODULES}
PUBLIC = sorted((name, attr) for name, module in _MODULE_OBJECTS.items()
                for attr in module.__all__ if inspect.isfunction(getattr(module, attr, None)))
USES = _uses()


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


def test_every_public_function_is_used():
    allowed = USES | ENTRY_POINTS | KEEP.keys() | set(BENCHMARKED)
    unused = [f"{m}.{f}" for m, f in PUBLIC if (m, f) not in allowed]
    assert unused == [], "exported, but nothing runs them: delete them or say why in KEEP"


def test_package_root_exports_no_names():
    # one import path per public name, its module: the root holds its
    # submodules and nothing public besides
    assert sorted(n for n in vars(pxwell) if not n.startswith("_") and n not in MODULES) == []


def test_keep_list_is_current():
    # an entry that gained a use, or whose function went, leaves KEEP
    assert [k for k in KEEP if k not in PUBLIC or k in USES] == []



def _imports(path: Path) -> set[str]:
    """Every module that the source at `path`, a module of the package,
    imports, by its absolute name, and every name it imports from one:
    `from . import _loops` reads as `pxwell` and `pxwell._loops`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pxwell" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_grid_calls_the_compiled_loops():
    # one module calls the loops and holds the buffers they read: the grid
    # kernel, which also runs the steppers' stages, so the solver keeps the
    # scheme alone, with no address of its own
    imports = {path.stem: _imports(path) for path in SRC.glob("*.py")}
    assert sorted(m for m, names in imports.items() if "pxwell._loops" in names) == ["grid"]
    assert [n for n in imports["solver"] if n.split(".")[0] == "ctypes"] == []
