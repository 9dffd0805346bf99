"""Variable exponents p(x), r(x) and the structural checks on them.

Exponents are sampled at cell centers and treated as piecewise constant per
cell, matching the cell-centered quadrature used everywhere else.  Extremal
values are exact over the discrete sample, so the strict inequalities below
are tested with zero tolerance.

The log-Hölder audit is exact over the cell values too: `check_log_holder`
returns the sup of |q(x) - q(y)| ln(1/|x - y|) over every pair of cell
centers closer than 1, a deterministic function of the exponent values and
the grid, with no sample, seed or budget.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Union

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


class LevelSums(NamedTuple):
    """The powers g^q of a nonnegative cell array g, summed over the level
    sets of an exponent q: `sums[k]` is the sum of (g / scale)^{levels[k]}
    over the cells where q equals `levels[k]`.  `scale` is the power of two
    just above max g, so no sum overflows and only cells below max g times
    about 1e-308^{1/q} underflow.  As (lam g)^q = (lam scale)^q (g / scale)^q
    in the reals, `at` gives every level's share of a modular at any lam."""

    levels: np.ndarray
    sums: np.ndarray
    scale: float

    def at(self, lam: float) -> np.ndarray:
        """Per-level sums of (lam g)^q: sums (lam scale)^levels, where lam
        scale is exact and overflows only within a factor 2 of lam max g."""
        return self.sums * (lam * self.scale) ** self.levels


@dataclass(frozen=True)
class ExponentField:
    """Spatially varying exponent with cached extrema and level sets.

    Every sampled value must exceed 1 (admissible continuous exponent);
    construction rejects anything else.  The field holds a read-only copy of
    its values, so its cached level layout cannot go stale.
    """

    grid: Grid
    values: np.ndarray
    p_minus: float
    p_plus: float
    label: str = "p"

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """The distinct values, ascending (read-only); the flat values; and
        the sum of a flat cell array over each level.  Flat values already
        ascending (a constant, or one rising along the flat order) sum each
        level's run with `np.add.reduceat`; others bin each cell by its
        level with `np.bincount`, in cell order.  Both are deterministic, and
        neither is a serial sum over one bin, which a constant's bincount is
        at several times the cost."""
        flat = self.values.ravel()
        if np.all(flat[:-1] <= flat[1:]):
            starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
            levels = flat[starts]
            sum_levels = partial(np.add.reduceat, indices=starts)
        else:
            levels, index = np.unique(flat, return_inverse=True)
            sum_levels = partial(np.bincount, index, minlength=levels.size)
        levels.flags.writeable = False
        return levels, flat, sum_levels

    @property
    def levels(self) -> np.ndarray:
        """The distinct values, ascending: a modular sums its per-cell powers
        over these level sets, so along a ray it scales level by level
        (`level_sums`).  Read-only."""
        return self._layout[0]

    def level_sums(self, base: np.ndarray, out: Optional[np.ndarray] = None) -> LevelSums:
        """`LevelSums` of the flat nonnegative cell array `base`, each cell
        divided by the power of two just above max base (clamped to the
        normal range, so the division is exact but where a quotient is
        subnormal) and raised to its exponent once, in `out` (which may be
        `base`), then summed over each level."""
        levels, flat, sum_levels = self._layout
        scale = math.ldexp(1.0, min(max(math.frexp(base.max())[1], -1022), 1023))
        out = np.multiply(base, 1.0 / scale, out=out)
        return LevelSums(levels, sum_levels(np.power(out, flat, out=out)), scale)


@dataclass(frozen=True)
class RegularityReport:
    """The exact log-Hölder modulus of an exponent over the grid's cell pairs
    closer than 1, and whether it is at most the cap."""

    max_log_modulus: float
    passes: bool
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


def check_log_holder(field: ExponentField, *more: ExponentField) -> tuple[RegularityReport, ...]:
    """The exact sup of |q(x)-q(y)| * ln(1/|x-y|) over cell pairs with
    0 < |x-y| < 1, one report per field given.

    The pairs fall into offset classes, one per offset o = y - x up to sign,
    each at the one distance |o h| and with the largest |q(x+o) - q(x)| one
    shifted difference.  A monotone lattice path of adjacent steps joins the
    two cells of a pair, so min(osc q, sum_k |o_k| max|Delta_k q|) ln(1/|o h|)
    bounds the class's value.  The classes are visited in decreasing order of
    that bound until it falls to the best value so far; the relative margin
    1e-12 covers the rounding of the bound's sum.  The fields share one grid
    and one offset table.
    """
    _require_one_grid(field, *more)
    cells = field.grid.cells
    # the offsets of the box |o_k| < n_k in C order, one axis per row; those
    # after the zero offset have a positive first nonzero component, one sign
    # per class
    box = np.indices([2 * n - 1 for n in cells]).reshape(len(cells), -1)
    box = box[:, box.shape[1] // 2 + 1:] - (np.array(cells) - 1)[:, None]
    dist = np.sqrt(((box * np.array(field.grid.spacing)[:, None]) ** 2).sum(axis=0))
    near = dist < 1.0
    offsets, logs = box[:, near], np.log(1.0 / dist[near])
    reports = []
    for f in (field, *more):
        q = f.values
        steps = [np.abs(np.diff(q, axis=k)).max(initial=0.0) for k in range(q.ndim)]
        bounds = np.minimum(q.max() - q.min(), steps @ np.abs(offsets)) * logs
        best = 0.0
        for i in np.argsort(bounds)[::-1]:
            if bounds[i] * (1.0 + 1e-12) <= best:
                break
            o = offsets[:, i]
            jump = np.abs(q[_window(o, cells)] - q[_window(-o, cells)]).max()
            best = max(best, float(jump * logs[i]))
        reports.append(RegularityReport(best, best <= _LOG_HOLDER_CAP, _LOG_HOLDER_CAP))
    return tuple(reports)


def _window(offset: np.ndarray, shape: tuple[int, ...]) -> tuple[slice, ...]:
    """The slices that pick the cells x + offset, over every cell x for which
    x + offset lies on the grid."""
    return tuple(slice(max(a, 0), n + min(a, 0)) for a, n in zip(offset.tolist(), shape))


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
