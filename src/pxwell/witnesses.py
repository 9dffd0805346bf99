"""Mean-zero trial fields built from Neumann-compatible cosine modes.

Products of cos(k pi x / L) are exactly mean-zero under the midpoint rule
(for 1 <= k < 2n), so the witness families used by the embedding, depth and
level-set estimators stay in the zero-mean class to round-off.

Every mode with wavenumbers up to kmax is built once per (grid, kmax) into a
read-only basis matrix, one mode per row, held in a small bounded cache.  A
random draw is then one coefficient vector times that matrix, and
`mode_catalogue` reads rows of the same matrix.  `mode_field` evaluates its
one mode with the code that fills the rows, so an arbitrary wavenumber never
builds a large basis.

Every sampled estimator (B0, B, C-tilde, depth, level radii) scans the same
`witness_bank`, and their local refinements step with `perturb`, the depth
descent on flat values in place (`_perturbed`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Optional

import numpy as np

from .grid import Grid, GridFunction, _minus_mean

__all__ = ["mode_field", "mode_catalogue", "random_field", "witness_bank", "perturb"]

# wavenumber band of random_field; mode_catalogue shares its basis
_KMAX = 4


def _mode_values(grid: Grid, ks: tuple[int, ...]) -> np.ndarray:
    vals = np.ones(grid.shape)
    coords = grid.centers()
    for axis, k in enumerate(ks):
        if k:
            vals = vals * np.cos(k * np.pi * coords[axis] / grid.lengths[axis])
    return vals


@lru_cache(maxsize=8)
def _mode_basis(grid: Grid, kmax: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Wavenumber tuples and the (modes x cells) matrix of their fields.

    Rows are the non-constant modes with every wavenumber <= kmax, in
    itertools.product order.  The matrix is shared by every caller, so it is
    read-only; at 64x64 and kmax 4 it holds 24 x 4096 floats.
    """
    modes = tuple(ks for ks in product(range(kmax + 1), repeat=grid.dimension) if any(ks))
    basis = np.empty((len(modes), int(np.prod(grid.shape))))
    for row, ks in zip(basis, modes):
        row[:] = _mode_values(grid, ks).ravel()
    basis.flags.writeable = False
    return modes, basis


def mode_field(grid: Grid, ks: tuple[int, ...]) -> GridFunction:
    """Product of cosine modes, one wavenumber per axis; not all zero."""
    if all(k == 0 for k in ks):
        raise ValueError("all-zero mode is constant, not a witness")
    return GridFunction(grid, _mode_values(grid, ks))


def mode_catalogue(grid: Grid, kmax: int = 3) -> list[GridFunction]:
    """All pure modes with wavenumbers up to kmax (deterministic order)."""
    modes, basis = _mode_basis(grid, max(_KMAX, kmax))
    return [GridFunction(grid, row.reshape(grid.shape))
            for ks, row in zip(modes, basis) if max(ks) <= kmax]


def _draw(grid: Grid, rng: np.random.Generator, lo: float, hi: float,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """Flat values of a band-limited random combination of modes, peak
    scaled to a log-uniform amplitude in [lo, hi] and projected to mean zero.

    Draws one standard normal coefficient per mode of the kmax = 4 basis, in
    basis order, then the amplitude variate, one double, also when lo == hi;
    the stream is that of one scalar draw per mode.  The unit draw
    (lo == hi == 1) takes that double with `rng.random()`, its amplitude
    exactly 1.  The values are formed in `out`, or in one fresh array, and
    scaled and projected in place.
    """
    _, basis = _mode_basis(grid, _KMAX)
    vals = np.matmul(rng.normal(size=basis.shape[0]), basis, out=out)
    unit = lo == hi == 1.0
    amp = rng.random() if unit else np.exp(rng.uniform(np.log(lo), np.log(hi)))
    scale = max(vals.max(), -vals.min())
    if scale == 0.0:
        vals[:] = np.cos(np.pi * grid.centers()[0] / grid.lengths[0]).ravel()
        scale = max(vals.max(), -vals.min())
    if not unit:
        vals *= amp
    vals /= scale
    return _minus_mean(grid, vals, out=vals)


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    amp_range: tuple[float, float] = (1e-1, 1e1),
) -> GridFunction:
    """Band-limited random combination of modes with log-uniform amplitude
    (the draw of `_draw`)."""
    return GridFunction(grid, _draw(grid, rng, *amp_range).reshape(grid.shape))


def witness_bank(grid: Grid, seed: int, n: int) -> list[tuple[str, GridFunction]]:
    """The kmax = 2 catalogue as mode<i>, then n draws of `random_field` from
    default_rng(seed) as draw<i>; prefix-stable in n."""
    bank = [(f"mode{i}", w) for i, w in enumerate(mode_catalogue(grid, kmax=2))]
    rng = np.random.default_rng(seed)
    bank.extend((f"draw{i}", random_field(grid, rng)) for i in range(n))
    return bank


def perturb(w: GridFunction, rng: np.random.Generator, amp: float) -> GridFunction:
    """w plus amp times a unit-amplitude draw of `random_field`, projected to
    mean zero (the values of `_perturbed`)."""
    return GridFunction(w.grid, _perturbed(w.grid, w.values.reshape(-1), rng, amp)
                        .reshape(w.grid.shape))


def _perturbed(grid: Grid, values: np.ndarray, rng: np.random.Generator, amp: float,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """The flat values of `perturb` at the flat `values`, formed in the
    draw's array (`out` if given): amp times the unit draw, plus the values,
    less their mean."""
    d = _draw(grid, rng, 1.0, 1.0, out)
    d *= amp
    d += values
    return _minus_mean(grid, d, out=d)
