"""Mean-zero trial fields built from Neumann-compatible cosine modes.

Products of cos(k pi x / L) are exactly mean-zero under the midpoint rule
(for 1 <= k < 2n), so the witness families used by the embedding, depth and
level-set estimators stay in the zero-mean class to round-off.

Every mode with wavenumbers up to 4 is built once per grid into a read-only
basis matrix, one mode per row, held in a small bounded cache.  A random
draw is then one coefficient vector times that matrix, and `mode_catalogue`
reads its rows with wavenumbers up to 2.  `mode_field` evaluates its one
mode with the code that fills the rows, so an arbitrary wavenumber never
builds a large basis.

Every sampled estimator (B0, B, C-tilde, depth) scans the same
`witness_bank`.  The embedding ascent of `norms` steps from the bank's best
witness with `perturb`; the depth descent of `energy` is deterministic and
starts from the Nehari points of the bank's first draws.  The level radii
read the Nehari points of the depth's scan and descents.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .grid import Grid, GridFunction, _minus_mean

__all__ = ["mode_field", "mode_catalogue", "random_field", "witness_bank", "perturb"]

# wavenumber band of random_field; mode_catalogue shares its basis and takes
# the modes up to _CATALOGUE_KMAX
_KMAX = 4
_CATALOGUE_KMAX = 2


def _mode_values(grid: Grid, ks: tuple[int, ...]) -> np.ndarray:
    vals = np.ones(grid.shape)
    coords = grid.centers()
    for axis, k in enumerate(ks):
        if k:
            vals = vals * np.cos(k * np.pi * coords[axis] / grid.lengths[axis])
    return vals


@lru_cache(maxsize=8)
def _mode_basis(grid: Grid) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Wavenumber tuples and the (modes x cells) matrix of their fields.

    Rows are the non-constant modes with every wavenumber <= _KMAX, in
    itertools.product order.  The matrix is shared by every caller, so it is
    read-only; at 64x64 it holds 24 x 4096 floats.
    """
    modes = tuple(ks for ks in product(range(_KMAX + 1), repeat=grid.dimension) if any(ks))
    basis = np.empty((len(modes), int(np.prod(grid.shape))))
    for row, ks in zip(basis, modes):
        row[:] = _mode_values(grid, ks).ravel()
    basis.flags.writeable = False
    return modes, basis


def mode_field(grid: Grid, ks: tuple[int, ...]) -> GridFunction:
    """Product of cosine modes, one wavenumber per axis, neither constant nor
    zero on the grid: with n the axis' cells, cos(k pi x / L) is +-1 at every
    center when k is a multiple of 2 n (0 included), so some axis must have
    another k, and 0 at every center when k is an odd multiple of n, so no
    axis may have such a k."""
    if all(k % (2 * n) == 0 for k, n in zip(ks, grid.cells)):
        raise ValueError(f"mode {tuple(ks)} is constant on a grid of {grid.cells} cells")
    if any(k % (2 * n) == n for k, n in zip(ks, grid.cells)):
        raise ValueError(f"mode {tuple(ks)} vanishes at every center of a grid of "
                         f"{grid.cells} cells")
    return GridFunction(grid, _mode_values(grid, ks))


def mode_catalogue(grid: Grid) -> list[GridFunction]:
    """All pure modes with wavenumbers up to 2 (deterministic order)."""
    modes, basis = _mode_basis(grid)
    return [GridFunction(grid, row.reshape(grid.shape))
            for ks, row in zip(modes, basis) if max(ks) <= _CATALOGUE_KMAX]


def _draw(grid: Grid, rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """Flat values of a band-limited random combination of modes, peak
    scaled to a log-uniform amplitude in [lo, hi] and projected to mean zero.

    Draws one standard normal coefficient per mode of the kmax = 4 basis, in
    basis order, then the amplitude variate, one double, also when lo == hi;
    the stream is that of one scalar draw per mode.  The unit draw
    (lo == hi == 1) has amplitude exp(0), exactly 1.  The values are formed
    in one fresh array, and scaled and projected in place.
    """
    _, basis = _mode_basis(grid)
    vals = rng.normal(size=basis.shape[0]) @ basis
    amp = np.exp(rng.uniform(np.log(lo), np.log(hi)))
    scale = max(vals.max(), -vals.min())
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
    """The catalogue as mode<i>, then n draws of `random_field` from
    default_rng(seed) as draw<i>; prefix-stable in n."""
    bank = [(f"mode{i}", w) for i, w in enumerate(mode_catalogue(grid))]
    rng = np.random.default_rng(seed)
    bank.extend((f"draw{i}", random_field(grid, rng)) for i in range(n))
    return bank


def perturb(w: GridFunction, rng: np.random.Generator, amp: float) -> GridFunction:
    """w plus amp times a unit-amplitude draw of `random_field`, projected to
    mean zero; formed in the draw's array."""
    d = _draw(w.grid, rng, 1.0, 1.0)
    d *= amp
    d += w.values.reshape(-1)
    return GridFunction(w.grid, _minus_mean(w.grid, d, out=d).reshape(w.grid.shape))
