"""Closed-form envelopes for h' + C1 min(h^alpha, h^beta) <= C2, with a
quadrature falsifier.

The envelope dispatch covers six printed formulas: the regime split is
C2 >= C1 versus C1 > C2, then the initial value against the matching
threshold (C2/C1)^{1/beta} or (C2/C1)^{1/alpha}, then beta > 1 (algebraic
tail) versus beta <= 1 (exponential tail).

Verification follows the equality ODE h' = f(h) = C2 - C1 min(h^alpha, h^beta)
-- the extremal trajectory among all functions satisfying the differential
inequality -- and reports the largest signed excess of h over the envelope.
f is autonomous and decreasing, so the trajectory moves monotonically toward
the equilibrium h* (the threshold above) and its clock is a quadrature,
t(h) = int_{h0}^{h} ds / f(s).  In y = log(|s - h*| / h*) the integrand
dt/dy = -(s - h*) / f(s) is smooth and bounded, because f'(h*) != 0.  It is
integrated on panels of width 0.02 in y, with a panel end at the kink
s = 1 where the min switches branch, each by the 9-node Gauss-Kronrod rule
and its embedded 4-node Gauss rule, from one evaluation of dt/dy at the 9
nodes.  The accuracy guard is panel agreement: a panel whose Gauss and
Kronrod values differ by more than 1e-12 (relative) is bisected, and one
that still differs after 40 bisections raises ValueError; the Kronrod value
is the one kept.  The 4-node Gauss error falls like (width/2)^8 and the
Kronrod rule is exact to degree 13 (Davis and Rabinowitz, Methods of
Numerical Integration, 2nd ed., 1984), so |Kronrod - Gauss| estimates the
Gauss error, and on most panels this narrow both values sit at round-off.
Near h*, f is formed without cancellation as
-C1 h*^g expm1(g log1p((s - h*)/h*)), with g the exponent on the side of
h = 1 that the trajectory approaches h* from.  Below |s - h*| = 4 eps h* the
trajectory follows its linearisation, |s - h*| proportional to
exp(f'(h*) t).  The excess is taken at t = 0, at every panel end reached
before T, and at h(T), which a Newton solve in y finds inside the panel that
holds T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import gauss_kronrod

__all__ = ["OdeParams", "envelope", "verify_batch"]


@dataclass(frozen=True)
class OdeParams:
    C1: float
    C2: float
    alpha: float
    beta: float
    h0: float

    def __post_init__(self):
        if not (self.C1 > 0.0 and self.C2 > 0.0):
            raise ValueError("C1, C2 must be positive")
        if not (self.alpha >= self.beta > 0.0):
            raise ValueError("need alpha >= beta > 0")
        if self.h0 < 0.0:
            raise ValueError("h0 must be nonnegative")


def _threshold(C1: float, C2: float, alpha: float, beta: float) -> float:
    """The level at which C1 min(h^alpha, h^beta) = C2: (C2/C1)^{1/beta} when
    C2 >= C1, else (C2/C1)^{1/alpha}."""
    return (C2 / C1) ** (1.0 / (beta if C2 >= C1 else alpha))


def envelope(params: OdeParams) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    """Return (bound, branch-id) for the matching printed formula."""
    C1, C2, a, b, h0 = params.C1, params.C2, params.alpha, params.beta, params.h0
    ratio = C2 / C1
    threshold = _threshold(C1, C2, a, b)
    if C2 >= C1:
        regime = "source-dominant"
        rate_factor = C1
    else:
        regime = "dissipation-dominant"
        rate_factor = C1 * ratio ** ((a - b) / (a - b + 1.0))

    if h0 <= threshold:
        def bound(t):
            t = np.asarray(t, dtype=float)
            return np.full_like(t, threshold)

        return bound, f"{regime}/saturated"

    if b > 1.0:
        base = (h0 - threshold) ** (1.0 - b)

        def bound(t):
            t = np.asarray(t, dtype=float)
            return threshold + (base + rate_factor * (b - 1.0) * t) ** (1.0 / (1.0 - b))

        return bound, f"{regime}/algebraic"

    # beta <= 1: exponential relaxation toward a level at or above the threshold
    if C2 >= C1:
        level = ratio * h0 ** (1.0 - b)
        rate = C1 * h0 ** (b - 1.0)
        slope = h0 * (1.0 - ratio * h0 ** (-b))
    else:
        level = ratio ** (b / a) * h0 ** (1.0 - b)
        rate = C2 * (C1 / C2) ** (b / a) * h0 ** (b - 1.0)
        slope = h0 * (1.0 - ratio ** (b / a) * h0 ** (-b))

    def bound(t):
        t = np.asarray(t, dtype=float)
        return level + slope * np.exp(-rate * t)

    return bound, f"{regime}/exponential"


def _rhs(h: np.ndarray, C1: np.ndarray, C2: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    hp = np.maximum(h, 0.0)
    return C2 - C1 * np.minimum(hp**a, hp**b)


# The falsifier's panels in y = log(|h - h*| / h*): their width, the node
# count of the Gauss rule (its Kronrod extension has 2 _NODES + 1), the relative
# agreement each panel must reach, and the bisections a panel may take to
# reach it.
_PANEL_WIDTH = 0.02
_NODES = 4
_AGREEMENT = 1e-12
_MAX_BISECTIONS = 40
# Panels integrated per pass before the elapsed time is compared with T; a
# pass may bisect at most this many panels at a time.
_CHUNK = 512
# |h - h*| / h* below which the trajectory follows its linearisation at h*.
_TAIL = 4.0 * np.finfo(float).eps
# Newton iterations allowed to locate h(T) inside its panel.
_NEWTON_MAX_ITER = 30


def _panel_sums(g, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The _NODES-point Gauss and (2 _NODES + 1)-point Kronrod values of
    int_lo^hi g(y) dy, per panel, from one evaluation of g at the Kronrod
    nodes, whose first _NODES rows are the Gauss nodes.

    The nodes are laid out node-major, one row per node and one column per
    panel, so every ufunc in g runs along the long panel axis.
    """
    x, kronrod, gauss = gauss_kronrod(_NODES)
    half = 0.5 * (hi - lo)
    values = g(0.5 * (hi + lo) + half * x[:, None])
    return half * (gauss @ values[:_NODES]), half * (kronrod @ values)


def _guarded_panels(g, hi: np.ndarray, lo: np.ndarray):
    """Panels tiling [lo[-1], hi[0]] in descending y, with their integrals of g.

    hi and lo are the panel ends in descending y.  A panel whose Gauss and
    Kronrod values differ by more than _AGREEMENT (relative to the Kronrod
    value) is split in two and both halves are checked again.  Raises
    ValueError when a value is not finite, when a panel still disagrees
    after _MAX_BISECTIONS splits, or when more than _CHUNK panels disagree
    at once.  Returns (hi, lo, Kronrod values); when no panel was split,
    these are the given panels in their given order.
    """
    parts = []
    for _ in range(_MAX_BISECTIONS + 1):
        coarse, fine = _panel_sums(g, lo, hi)
        if not np.all(np.isfinite(fine)):
            raise ValueError("trajectory time is not finite on a quadrature panel")
        ok = np.abs(fine - coarse) <= _AGREEMENT * np.abs(fine)
        if not parts and ok.all():
            return hi, lo, fine
        parts.append((hi[ok], lo[ok], fine[ok]))
        if ok.all() or np.count_nonzero(~ok) > _CHUNK:
            break
        hi, lo = hi[~ok], lo[~ok]
        mid = 0.5 * (hi + lo)
        hi, lo = np.concatenate((hi, mid)), np.concatenate((mid, lo))
    if not ok.all():
        worst = float(np.max(np.abs(fine - coarse) / np.abs(fine)))
        raise ValueError(
            f"quadrature panels disagree by {worst:.3e} (relative) after "
            f"{len(parts) - 1} bisections; the trajectory time is not resolved"
        )
    hi, lo, vals = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(-hi)
    return hi[order], lo[order], vals[order]


def _near_density(sigma: float, A: float, g: float):
    """dt/dy between the kink and h*, with u = |h - h*| / h* = e^y.

    f(h) = -h* A expm1(g log1p(sigma u)), with A = C1 h*^{g-1}, since
    C1 h*^g = C2 on this side of the kink; so dt/dy = sigma u h* / -f(h)
    has no cancellation as u -> 0.
    """
    def density(y):
        su = sigma * np.exp(y)
        return su / (A * np.expm1(g * np.log1p(su)))

    return density


def _far_density(sigma: float, h_star: float, C1: float, C2: float, g: float):
    """dt/dy between h0 and the kink, with f(h) = C2 - C1 h^g evaluated
    directly.  This segment stays on the far side of the kink from h*, so
    there is no limit u -> 0 to protect, while the near segment's form with
    an offset (C2 - C1 h*^g) / h* cancels when C1 h*^g >> C2.
    """
    def density(y):
        su = sigma * np.exp(y)
        return su * h_star / (C1 * (h_star * (1.0 + su)) ** g - C2)

    return density


def _counted(density, counts: dict):
    """density, adding the number of points it is evaluated at to
    counts["evaluations"]."""
    def evaluate(y):
        counts["evaluations"] += np.size(y)
        return density(y)

    return evaluate


def _solve_time(density, lo: float, hi: float, t_hi: float, t_lo: float, T: float) -> float:
    """The y in [lo, hi] at which t_hi + int_y^hi density reaches T (Newton)."""
    y = hi - (hi - lo) * (T - t_hi) / (t_lo - t_hi)
    for _ in range(_NEWTON_MAX_ITER):
        resid = t_hi + _panel_sums(density, np.array([y]), np.array([hi]))[1][0] - T
        if abs(resid) <= 4.0 * np.finfo(float).eps * T:
            return y
        y_new = min(max(y + resid / float(density(y)), lo), hi)
        if abs(y_new - y) <= 4.0 * np.finfo(float).eps * (1.0 + abs(y)):
            return y_new
        y = y_new
    raise ValueError(f"h(T) not located within {_NEWTON_MAX_ITER} Newton iterations")


def _path(q: OdeParams, h_star: float, sigma: float, T: float, counts: dict):
    """y = log(|h - h*| / h*) and t at each panel end before T, then at T.

    Integrates dt/dy panel by panel from h0 toward h*, one segment on each
    side of the kink, and stops in the panel that holds T.  Past the tail
    threshold the trajectory follows its linearisation at h*.  Adds the
    panels integrated, the bisections among them and the points at which
    dt/dy is evaluated to counts.
    """
    C1, C2, a, b, h0 = q.C1, q.C2, q.alpha, q.beta, q.h0
    # the exponent of the min on the side of h = 1 that h approaches h* from
    gamma = b if h_star > 1.0 or (h_star == 1.0 and sigma > 0.0) else a
    y = float(np.log(abs(h0 - h_star) / h_star))
    y_tail = min(float(np.log(_TAIL)), y)
    segments = []  # (y from, y to, dt/dy)
    if min(h0, h_star) < 1.0 < max(h0, h_star):  # crosses the kink at y_kink
        far = a if h0 < 1.0 else b
        y_kink = float(np.log(abs(1.0 - h_star) / h_star))
        segments.append((y, y_kink, _far_density(sigma, h_star, C1, C2, far)))
        y = y_kink
    segments.append((y, y_tail, _near_density(sigma, C1 * h_star ** (gamma - 1.0), gamma)))

    t = 0.0
    ys, ts = [], []
    for y_from, y_to, density in segments:
        density = _counted(density, counts)
        n = max(int(np.ceil((y_from - y_to) / _PANEL_WIDTH)), 0)
        edges = np.linspace(y_from, y_to, n + 1)
        for k in range(0, n, _CHUNK):
            chunk = edges[k:k + _CHUNK + 1]
            hi, lo, dt = _guarded_panels(density, chunk[:-1], chunk[1:])
            counts["panels"] += hi.size
            counts["bisected"] += hi.size - (chunk.size - 1)  # one more per split
            t_end = t + np.cumsum(dt)
            j = int(np.searchsorted(t_end, T))  # the first panel that ends at or after T
            ys.append(lo[:j])
            ts.append(t_end[:j])
            if j < t_end.size:
                t_start = t_end[j - 1] if j else t
                y_T = _solve_time(density, lo[j], hi[j], t_start, t_end[j], T)
                return np.append(np.concatenate(ys), y_T), np.append(np.concatenate(ts), T)
            t = float(t_end[-1])
    # T lies past the tail threshold: |h - h*| decays like exp(f'(h*) t)
    y_T = y_tail - C1 * gamma * h_star ** (gamma - 1.0) * (T - t)
    return np.concatenate(ys + [[y_T]]), np.concatenate(ts + [[T]])


def _cell_excess(q: OdeParams, T: float, counts: dict) -> float:
    """Largest h(t) - envelope(t) over [0, T] for one cell, by quadrature."""
    bound, _ = envelope(q)
    h0 = q.h0
    h_star = _threshold(q.C1, q.C2, q.alpha, q.beta)
    if h0 == h_star:  # the trajectory rests at the equilibrium
        return float(np.max(h_star - bound(np.array([0.0, T]))))
    with np.errstate(over="ignore"):  # h0^alpha may overflow where h0^beta does not
        rhs0 = _rhs(np.float64(h0), q.C1, q.C2, q.alpha, q.beta)
    if not np.isfinite(rhs0):
        raise ValueError(f"h' is not finite at h0 = {h0!r}; the trajectory overflows")
    sigma = 1.0 if h0 > h_star else -1.0
    y, t = _path(q, h_star, sigma, T, counts)
    h = h_star + sigma * h_star * np.exp(y)
    return float(max(h0 - bound(0.0), np.max(h - bound(t))))


def verify_batch(
    batch: Sequence[OdeParams], T: float = 12.0, counts: Optional[dict] = None
) -> np.ndarray:
    """Largest signed excess h(t) - envelope(t) on [0, T] for each cell of the batch.

    Each cell's trajectory is the quadrature t(h) = int_{h0}^{h} ds / f(s) in
    y = log(|s - h*| / h*), on panels that end at the kink h = 1 and are
    bisected until their 4-node Gauss and 9-node Kronrod values agree to
    1e-12 (relative); see the module docstring.  The excess is taken at
    t = 0, at each panel end before T and at h(T).  A `counts` dict, when
    given, receives the guard's work over the batch: "panels", the panels
    integrated, "bisected", the bisections among them, and "evaluations",
    the points at which dt/dy was evaluated (panels that were bisected and
    the search for h(T) included).  Raises
    ValueError when T is not positive and finite, when h' is not finite at
    h0 (the trajectory overflows), when the panel agreement is not reached,
    or when the Newton search for h(T) does not converge ("h(T) not
    located").
    """
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, got {T!r}")
    tally = {"panels": 0, "bisected": 0, "evaluations": 0}
    excess = np.array([_cell_excess(q, T, tally) for q in batch], dtype=float)
    if counts is not None:
        counts.update(tally)
    return excess
