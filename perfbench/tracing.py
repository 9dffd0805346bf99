"""Spans around the public functions of each layer of the program.

A `Tracer` wraps every public function of the layer modules (the functions
named in each module's `__all__`) and installs the wrapper in every `pxwell`
module namespace that holds the original, so `energy.random_field` and
`norms.random_field` are both traced.  A span records its name, start, end,
parent span and the request (top-level input) it belongs to.  Spans stay in
memory until `write`; `uninstall` puts the originals back.

The program's private kernels are not wrapped; their cost is reached through
the microbenchmarks and through the self time of the public caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

PACKAGE = "pxwell"
LAYERS = (
    "grid", "exponents", "witnesses", "norms", "energy",
    "solver", "classify", "cli", "ode_bounds", "radial_gap",
)


def _observe_norm(counters, result):
    iterations = getattr(result, "iterations", None)
    if iterations is not None:
        counters["norms.luxemburg_norm.iterations"] += iterations


def _observe_simulate(counters, result):
    for attr, key in (("step_count", "solver.steps_accepted"),
                      ("rejected_steps", "solver.steps_rejected")):
        value = getattr(result, attr, None)
        if value is not None:
            counters[key] += value
    t_b = getattr(getattr(result, "outcome", None), "t_b", None)
    if t_b is not None:
        counters["solver.t_b.sum"] += t_b
        counters["solver.t_b.runs"] += 1


# Counters read from a traced function's return value, keyed by span name.
OBSERVERS: dict[str, Callable] = {
    "norms.luxemburg_norm": _observe_norm,
    "solver.simulate": _observe_simulate,
}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, request, failed)
        self.spans: list[Optional[tuple]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.request = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request, failed)
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def public_functions(self) -> dict[str, Callable]:
        """Span name -> original function, for every layer module loaded."""
        out = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    out[f"{layer}.{attr}"] = fn
        return out

    def install(self) -> None:
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in self.public_functions().items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls, total seconds, self seconds.

        Calls nest strictly on one thread, so a span's self time is its
        duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _, failed) in enumerate(self.spans):
            row = agg[name]
            row["calls"] += 1
            row["failed"] += int(failed)
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(agg)

    def write(self, path: Path) -> None:
        """One JSON line per span, in start order, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, request, failed) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "failed": failed}) + "\n")
