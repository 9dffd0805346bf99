"""Closed-form envelopes for h' + C1 min(h^alpha, h^beta) <= C2, with an RK4
falsifier.

The envelope dispatch covers six printed formulas: the regime split is
C2 >= C1 versus C1 > C2, then the initial value against the matching
threshold (C2/C1)^{1/beta} or (C2/C1)^{1/alpha}, then beta > 1 (algebraic
tail) versus beta <= 1 (exponential tail).

Verification integrates the equality ODE h' = C2 - C1 min(h^alpha, h^beta)
-- the extremal trajectory among all functions satisfying the differential
inequality -- and reports the largest signed excess of h over the envelope.
The integration runs at dt and at dt/2 in one stacked pass, and their final
states must agree.  The right-hand side is only C0 at h = 1 where the min
switches branch, so a step that crosses that kink is split at the crossing
(event location, as in Hairer, Norsett and Wanner, Solving Ordinary
Differential Equations I, Sec. II.6): a bracketed secant finds the time at
which the RK4 step reaches h = 1, and a second RK4 step goes on from h = 1.
Neither part straddles the kink, so the step-halving agreement stays at the
level RK4's smooth order promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["OdeParams", "envelope", "verify", "verify_batch", "rk4_min_ode"]


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


def _rk4(h, dt, C1, C2, a, b):
    """One classical RK4 step of size dt (a scalar or one per cell)."""
    k1 = _rhs(h, C1, C2, a, b)
    k2 = _rhs(h + 0.5 * dt * k1, C1, C2, a, b)
    k3 = _rhs(h + 0.5 * dt * k2, C1, C2, a, b)
    k4 = _rhs(h + dt * k3, C1, C2, a, b)
    return h + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Secant and bisection iterations allowed to locate one crossing of h = 1.
# Bisection alone reaches the rounding level of tau in about 50 halvings, and
# the safeguard below bisects at least every second iteration.
_CROSSING_MAX_ITER = 120


def _crossing_time(h, h_new, dt, C1, C2, a, b):
    """The tau in (0, dt) at which the RK4 step from h reaches h = 1, per cell.

    A bracketed secant on g(tau) = RK4(h, tau) - 1, whose sign changes between
    g(0) = h - 1 and g(dt) = h_new - 1; an iteration bisects instead when the
    secant point leaves the bracket or the previous iteration failed to halve
    it.  Raises ValueError when a cell has not converged within the cap.
    """
    tol = 4.0 * np.finfo(float).eps
    lo, hi = np.zeros_like(h), dt.copy()
    g_lo, g_hi = h - 1.0, h_new - 1.0
    halved = np.ones(h.size, dtype=bool)
    tau = np.empty_like(h)
    todo = np.arange(h.size)
    for _ in range(_CROSSING_MAX_ITER):
        l, u, gl, gu = lo[todo], hi[todo], g_lo[todo], g_hi[todo]
        mid = 0.5 * (l + u)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = l - gl * (u - l) / (gu - gl)
        t = np.where(halved[todo] & (t > l) & (t < u), t, mid)
        g = _rk4(h[todo], t, C1[todo], C2[todo], a[todo], b[todo]) - 1.0
        right = np.sign(g) == np.sign(gl)  # the root lies in (t, u)
        new_l, new_u = np.where(right, t, l), np.where(right, u, t)
        lo[todo], hi[todo] = new_l, new_u
        g_lo[todo], g_hi[todo] = np.where(right, g, gl), np.where(right, gu, g)
        halved[todo] = new_u - new_l <= 0.5 * (u - l)
        done = (np.abs(g) <= tol) | (new_u - new_l <= tol * dt[todo])
        tau[todo[done]] = t[done]
        todo = todo[~done]
        if todo.size == 0:
            return tau
    raise ValueError(
        f"crossing of h = 1 not located within {_CROSSING_MAX_ITER} iterations"
    )


def _step(h, dt, C1, C2, a, b):
    """One RK4 step of size dt (a scalar or one per cell), split at h = 1.

    The right-hand side is only C0 at h = 1, where the min switches branch.
    A cell whose step crosses that kink is stepped to the crossing time tau
    (`_crossing_time`), set to h = 1, and stepped on by dt - tau, so neither
    part straddles the kink and RK4 keeps its smooth order.
    """
    h_new = _rk4(h, dt, C1, C2, a, b)
    side = (h - 1.0) * (h_new - 1.0)
    # one reduction per step; fmin skips a NaN cell so it cannot hide a crossing
    if np.fmin.reduce(side) < 0.0:
        sel = np.flatnonzero((side < 0.0) & (np.abs(h_new - h) > 1e-12))
        if not np.all(np.isfinite(h_new[sel])):
            raise ValueError("RK4 state is not finite; the trajectory overflows")
        dt_sel = np.broadcast_to(dt, h.shape)[sel]
        coef = (C1[sel], C2[sel], a[sel], b[sel])
        tau = _crossing_time(h[sel], h_new[sel], dt_sel, *coef)
        h_new[sel] = _rk4(np.ones(sel.size), dt_sel - tau, *coef)
    return h_new


def rk4_min_ode(
    C1: np.ndarray,
    C2: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    h0: np.ndarray,
    T: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized RK4 for the equality ODE over a parameter batch.

    A step that carries an element across h = 1 (the kink of the min) is
    split at the crossing: RK4 to the located crossing time, then RK4 from
    h = 1 for the rest of the step, so the crossing does not degrade the
    global order.  Raises ValueError if a crossing step overflows.
    Returns (times, h_path) with h_path of shape (n_steps + 1, batch).
    """
    C1 = np.atleast_1d(np.asarray(C1, dtype=float))
    C2 = np.atleast_1d(np.asarray(C2, dtype=float))
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    b = np.atleast_1d(np.asarray(beta, dtype=float))
    h = np.atleast_1d(np.asarray(h0, dtype=float)).copy()
    n_steps = int(round(T / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    path = np.empty((n_steps + 1, h.size))
    path[0] = h
    for k in range(n_steps):
        h = _step(h, dt, C1, C2, a, b)
        path[k + 1] = h
    return times, path


def _halving_pass(C1, C2, a, b, h0, T, dt):
    """The dt run and the dt/2 run of the batch as one stacked state of 2n cells.

    Each outer step advances all 2n cells by one `_step` (dt for the first n,
    dt/2 for the last n), then the last n by their second dt/2 step.  Only the
    dt run's path is stored.  Returns (times, dt path, final state of the dt/2
    run); raises ValueError if a state of either run is not finite.
    """
    n = h0.size
    n_steps = int(round(T / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    both = tuple(np.concatenate((x, x)) for x in (C1, C2, a, b))
    steps = np.repeat([dt, 0.5 * dt], n)
    h = np.concatenate((h0, h0))
    path = np.empty((n_steps + 1, n))
    path[0] = h0
    for k in range(n_steps):
        h = _step(h, steps, *both)
        h[n:] = _step(h[n:], 0.5 * dt, C1, C2, a, b)
        path[k + 1] = h[:n]
    half = h[n:]
    if not (np.all(np.isfinite(path)) and np.all(np.isfinite(half))):
        raise ValueError("RK4 state is not finite; the trajectory overflows")
    return times, path, half


def verify(params: OdeParams, T: float = 12.0, dt: float = 1e-3) -> float:
    """Largest signed excess h(t) - envelope(t) of the equality trajectory.

    Integrates at dt and dt/2 first and requires agreement at the final time
    to 1e-9 (scaled), which certifies that the RK4 error is negligible
    relative to the reported violation.
    """
    res = verify_batch([params], T=T, dt=dt)
    return float(res[0])


def verify_batch(batch: Sequence[OdeParams], T: float = 12.0, dt: float = 1e-3) -> np.ndarray:
    """Largest signed excess h(t) - envelope(t) for each cell of the batch.

    Runs the dt and dt/2 integrations as one stacked pass (`_halving_pass`),
    raises ValueError unless their final states agree to 1e-9, scaled by
    1 + max |h| along the dt path, then takes each cell's largest excess of
    the dt path over its closed-form envelope.
    """
    C1 = np.array([q.C1 for q in batch])
    C2 = np.array([q.C2 for q in batch])
    a = np.array([q.alpha for q in batch])
    b = np.array([q.beta for q in batch])
    h0 = np.array([q.h0 for q in batch])

    times, path, half = _halving_pass(C1, C2, a, b, h0, T, dt)
    scale = 1.0 + np.max(np.abs(path), axis=0)
    worst = float(np.max(np.abs(path[-1] - half) / scale))
    if not worst <= 1e-9:
        raise ValueError(
            f"step-halving agreement {worst:.3e} exceeds 1e-9; decrease dt"
        )

    out = np.empty(len(batch))
    for j, q in enumerate(batch):
        bound, _ = envelope(q)
        out[j] = float(np.max(path[:, j] - bound(times)))
    return out
