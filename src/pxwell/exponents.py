"""Variable exponents p(x), r(x) and the structural checks on them.

Exponents are sampled at cell centers and treated as piecewise constant per
cell, matching the cell-centered quadrature used everywhere else.  Extremal
values are exact over the discrete sample, so the strict inequalities below
are tested with zero tolerance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .grid import Grid, _require_one_grid

__all__ = [
    "ExponentField",
    "RegularityReport",
    "HypothesisReport",
    "build_field",
    "check_log_holder",
    "check_hypotheses",
]


@dataclass(frozen=True)
class ExponentField:
    """Spatially varying exponent with cached extrema.

    Every sampled value must exceed 1 (admissible continuous exponent);
    construction rejects anything else.
    """

    grid: Grid
    values: np.ndarray
    p_minus: float
    p_plus: float
    label: str = "p"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class RegularityReport:
    """Sampled audit of the logarithmic modulus of continuity."""

    max_log_modulus: float
    passes: bool
    pairs_checked: int
    cap: float


@dataclass(frozen=True)
class HypothesisReport:
    """Which structural inequalities the exponent pair satisfies."""

    condition_H: bool
    r_plus_below_p_minus: bool
    thm54_regime: bool
    critical_sobolev: Optional[float]
    details: list[tuple[str, float, float, bool]] = field(default_factory=list)


_CONST_RE = re.compile(r"^const:(?P<v>[-+0-9.eE]+)$")
_AFFINE_RE = re.compile(
    r"^affine:(?P<a>[-+0-9.eE]+)\+(?P<b>[-+0-9.eE]+)x(?:\+(?P<c>[-+0-9.eE]+)y)?$"
)
_SIN_RE = re.compile(
    r"^sin:(?P<a>[-+0-9.eE]+)\+(?P<b>[-+0-9.eE]+)\*sin\((?P<k>[-+0-9.eE]+)(?:π|pi)x\)$"
)


def _parse_expression(expr: str) -> Callable[..., np.ndarray]:
    expr = expr.strip()
    m = _CONST_RE.match(expr)
    if m:
        v = float(m.group("v"))
        return lambda *coords: np.full_like(coords[0], v)
    m = _AFFINE_RE.match(expr)
    if m:
        a, b = float(m.group("a")), float(m.group("b"))
        c = float(m.group("c")) if m.group("c") is not None else None

        def affine(*coords):
            out = a + b * coords[0]
            if c is not None:
                if len(coords) < 2:
                    raise ValueError(f"{expr!r} has a y term but the grid is 1D")
                out = out + c * coords[1]
            return out

        return affine
    m = _SIN_RE.match(expr)
    if m:
        a, b, k = float(m.group("a")), float(m.group("b")), float(m.group("k"))
        return lambda *coords: a + b * np.sin(k * np.pi * coords[0])
    raise ValueError(
        f"cannot parse exponent spec {expr!r}; expected const:<v>, "
        "affine:<a>+<b>x[+<c>y], or sin:<a>+<b>*sin(<k>pix)"
    )


FieldSpec = Union[float, int, str, np.ndarray]


def build_field(spec: FieldSpec, grid: Grid, label: str = "p") -> ExponentField:
    """Sample an exponent spec at cell centers and validate admissibility.

    Accepts a constant, a ``const:``/``affine:``/``sin:`` string, or a
    tabulated array (one value per cell).
    """
    if isinstance(spec, (float, int)):
        values = np.full(grid.shape, float(spec))
    elif isinstance(spec, str):
        values = np.broadcast_to(_parse_expression(spec)(*grid.centers()), grid.shape).astype(float)
    elif isinstance(spec, np.ndarray):
        values = np.asarray(spec, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"tabulated field shape {values.shape} != grid {grid.shape}")
    else:
        raise TypeError(f"unsupported exponent spec of type {type(spec)!r}")

    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"exponent {label!r} is non-finite at cell {tuple(bad)}")
    if np.any(values <= 1.0):
        bad = np.argwhere(values <= 1.0)[0]
        raise ValueError(
            f"exponent {label!r} must exceed 1 everywhere; "
            f"cell {tuple(bad)} has value {values[tuple(bad)]}"
        )
    return ExponentField(
        grid=grid,
        values=values,
        p_minus=float(values.min()),
        p_plus=float(values.max()),
        label=label,
    )


# the largest |q(x) - q(y)| ln(1/|x - y|) a passing audit allows
_LOG_HOLDER_CAP = 10.0


def check_log_holder(
    field: ExponentField,
    *more: ExponentField,
    pair_budget: int = 20000,
    seed: int = 0,
) -> tuple[RegularityReport, ...]:
    """Sampled audit of |q(x)-q(y)| * ln(1/|x-y|) over cell pairs with |x-y| < 1,
    one report per field given.

    All axis-adjacent pairs are always included; if the total number of pairs
    fits the budget the check is exhaustive, otherwise the remainder is drawn
    deterministically from the given seed.  This is an audit, not a proof.
    The fields share one grid and are scored on one sample.
    """
    _require_one_grid(field, *more)
    ii, jj, logs = _holder_pairs(field.grid, pair_budget, seed)
    reports = []
    for f in (field, *more):
        q = f.values.ravel()
        max_mod = float((np.abs(q[ii] - q[jj]) * logs).max()) if ii.size else 0.0
        reports.append(RegularityReport(
            max_mod, bool(np.isfinite(max_mod) and max_mod <= _LOG_HOLDER_CAP),
            int(ii.size), _LOG_HOLDER_CAP))
    return tuple(reports)


def _holder_pairs(grid: Grid, pair_budget: int, seed: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The audited cell pairs (i, j) of `check_log_holder`, flat indices
    i < j, with 0 < |x_i - x_j| < 1, and ln(1/|x_i - x_j|) per pair.

    If every pair fits the budget, every pair.  Otherwise every axis-adjacent
    pair, axis by axis in C order of the higher cell, then, until the budget
    is reached, the first draw of each pair not yet taken, in draw order,
    from batches of `pair_budget` cell pairs drawn by `default_rng(seed)`;
    diagonal draws are skipped.
    """
    n = math.prod(grid.cells)
    if n * (n - 1) // 2 <= pair_budget:
        ii, jj = np.triu_indices(n, k=1)  # every pair, the adjacent ones among them
    else:
        # a pair (a, b) with a < b is the integer key a * n + b
        keys = []
        for s, wrap in grid.flat_neighbours:
            k = np.arange(s, n)
            if wrap:
                k = k[k % wrap != 0]
            keys.append((k - s) * n + k)
        need = pair_budget - sum(k.size for k in keys)
        drawn = np.empty(0, dtype=np.int64)
        rng = np.random.default_rng(seed)
        while need > 0:
            draw = rng.integers(0, n, size=(pair_budget, 2))
            lo, hi = np.minimum(draw[:, 0], draw[:, 1]), np.maximum(draw[:, 0], draw[:, 1])
            gap = hi - lo
            fresh = gap != 0
            for s, wrap in grid.flat_neighbours:
                adjacent = gap == s
                if wrap:
                    adjacent &= hi % wrap != 0
                fresh &= ~adjacent
            # the keys taken so far, then this batch's: a key's first
            # position is the least position in its run of the sorted pool,
            # and a first position in this batch is a new pair
            pool = np.concatenate((drawn, lo[fresh] * n + hi[fresh]))
            order = np.argsort(pool)
            runs = np.flatnonzero(np.diff(pool[order], prepend=-1))  # keys are >= 1
            first = np.zeros(pool.size, dtype=bool)
            first[np.minimum.reduceat(order, runs)] = True
            new = np.flatnonzero(first[drawn.size:])[:need] + drawn.size
            drawn = np.concatenate((drawn, pool[new]))
            need -= new.size
        keys.append(drawn)
        ii, jj = np.divmod(np.concatenate(keys), n)

    # |x_i - x_j| from the centre coordinates axis by axis: the bits of
    # np.linalg.norm over the stacked coordinates
    sq = 0.0
    for c in grid.centers():
        d = c.ravel()[ii] - c.ravel()[jj]
        sq = sq + d * d
    dist = np.sqrt(sq)
    mask = (dist > 0.0) & (dist < 1.0)
    return ii[mask], jj[mask], np.log(1.0 / dist[mask])


def check_hypotheses(p: ExponentField, r: ExponentField) -> HypothesisReport:
    """Evaluate the structural inequalities the classification theorems need,
    with N the grid's dimension.

    Strictness is as written; extrema are exact over the sample so no
    tolerance is applied.
    """
    _require_one_grid(p, r)
    N = p.grid.dimension

    lower = max(1.0, 2.0 * N / (N + 2.0))
    details: list[tuple[str, float, float, bool]] = []

    c1 = lower < p.p_minus
    details.append(("max(1, 2N/(N+2)) < p_minus", lower, p.p_minus, c1))
    c2 = p.p_minus < N
    details.append(("p_minus < N", p.p_minus, float(N), c2))
    rhs3 = max(p.p_plus, 2.0)
    c3 = rhs3 < r.p_minus
    details.append(("max(p_plus, 2) < r_minus", rhs3, r.p_minus, c3))
    # the critical exponent is finite only when p_minus < N; a NaN fails c4
    crit = N * p.p_minus / (N - p.p_minus) if c2 else float("nan")
    c4 = r.p_plus <= crit
    details.append(("r_plus <= N p_minus/(N - p_minus)", r.p_plus, crit, c4))

    rpbpm = r.p_plus < p.p_minus
    details.append(("r_plus < p_minus", r.p_plus, p.p_minus, rpbpm))
    t54 = (r.p_minus <= min(p.p_plus, 2.0)) and (r.p_plus < 2.0)
    details.append(("r_minus <= min(p_plus, 2) and r_plus < 2", r.p_plus, 2.0, t54))

    return HypothesisReport(
        condition_H=bool(c1 and c2 and c3 and c4),
        r_plus_below_p_minus=bool(rpbpm),
        thm54_regime=bool(t54),
        critical_sobolev=crit if c2 else None,
        details=details,
    )
