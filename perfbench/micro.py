"""Per-call medians of the program's public functions, outside any workload.

The grid kernels and estimators run on 32x32 and 128x128 grids with the
workloads' own exponents, p = affine:1.8+0.35x+0.35y and r = const:4.0, and
a field from `witnesses.random_field` seeded with the workload seed.

Each function is looked up by name; one that a later version of the program
no longer has is reported as absent (None), not as a failure.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SIZES = (32, 128)
P_SPEC = "affine:1.8+0.35x+0.35y"
R_SPEC = "const:4.0"

# metric stem -> (module, function, call on (function, u, p, r, grid, seed))
GRID_KERNELS = {
    "grid.px_flux_divergence": ("grid", "px_flux_divergence", lambda f, u, p, r, g, s: f(u, p)),
    "grid.dirichlet_energy": ("grid", "dirichlet_energy", lambda f, u, p, r, g, s: f(u, p)),
    "grid.cell_gradient_magnitude": ("grid", "cell_gradient_magnitude",
                                     lambda f, u, p, r, g, s: f(u)),
    "energy.snapshot": ("energy", "snapshot", lambda f, u, p, r, g, s: f(u, p, r)),
    "energy.find_lambda_star": ("energy", "find_lambda_star", lambda f, u, p, r, g, s: f(u, p, r)),
    "norms.luxemburg_norm": ("norms", "luxemburg_norm", lambda f, u, p, r, g, s: f(u, p)),
    "witnesses.random_field": ("witnesses", "random_field",
                               lambda f, u, p, r, g, s: f(g, np.random.default_rng(s))),
}

def _median_call_s(call, min_calls: int, min_seconds: float) -> float:
    call()  # warm-up
    samples = []
    start = time.perf_counter()
    while len(samples) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_microbenchmarks(seed: int) -> dict[str, float | None]:
    """Metric name -> median time per call in µs."""
    from pxwell import energy, exponents, grid, norms, witnesses

    modules = {"grid": grid, "energy": energy, "norms": norms, "witnesses": witnesses}
    out: dict[str, float | None] = {}
    for n in SIZES:
        g = grid.Grid((n, n), (1.0, 1.0))
        p = exponents.build_field(P_SPEC, g, label="p")
        r = exponents.build_field(R_SPEC, g, label="r")
        u = witnesses.random_field(g, np.random.default_rng(seed))
        for stem, (mod, attr, how) in GRID_KERNELS.items():
            fn = getattr(modules[mod], attr, None)
            out[f"{stem}.{n}.us"] = None if fn is None else 1e6 * _median_call_s(
                lambda: how(fn, u, p, r, g, seed), min_calls=30, min_seconds=0.15)
    return out
