"""Closed-form envelopes for h' + C1 min(h^alpha, h^beta) <= C2, with an RK4
falsifier.

The envelope dispatch covers six printed formulas: the regime split is
C2 >= C1 versus C1 > C2, then the initial value against the matching
threshold (C2/C1)^{1/beta} or (C2/C1)^{1/alpha}, then beta > 1 (algebraic
tail) versus beta <= 1 (exponential tail).

Verification integrates the equality ODE h' = C2 - C1 min(h^alpha, h^beta)
-- the extremal trajectory among all functions satisfying the differential
inequality -- and reports the largest signed excess of h over the envelope.
The right-hand side is only C0 at h = 1 where the min switches branch, so
any step that crosses that kink is redone with fine substeps to keep the
step-halving agreement at the level RK4's smooth order promises.
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


def rk4_min_ode(
    C1: np.ndarray,
    C2: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    h0: np.ndarray,
    T: float,
    dt: float,
    kink_substeps: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized RK4 for the equality ODE over a parameter batch.

    Whenever a step carries an element across h = 1 (the kink of the min),
    that element's step is redone with `kink_substeps` fine RK4 substeps so
    the crossing does not degrade the global order.
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

    def rk4_step(hcur, dt_loc, sel=slice(None)):
        c1, c2, aa, bb = C1[sel], C2[sel], a[sel], b[sel]
        k1 = _rhs(hcur, c1, c2, aa, bb)
        k2 = _rhs(hcur + 0.5 * dt_loc * k1, c1, c2, aa, bb)
        k3 = _rhs(hcur + 0.5 * dt_loc * k2, c1, c2, aa, bb)
        k4 = _rhs(hcur + dt_loc * k3, c1, c2, aa, bb)
        return hcur + dt_loc / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for k in range(n_steps):
        h_new = rk4_step(h, dt)
        crossed = ((h - 1.0) * (h_new - 1.0) < 0.0) & (np.abs(h_new - h) > 1e-12)
        if np.any(crossed):
            sub = h[crossed]
            ddt = dt / kink_substeps
            for _ in range(kink_substeps):
                sub = rk4_step(sub, ddt, sel=crossed)
            h_new[crossed] = sub
        h = h_new
        path[k + 1] = h
    return times, path


def verify(params: OdeParams, T: float = 12.0, dt: float = 1e-3) -> float:
    """Largest signed excess h(t) - envelope(t) of the equality trajectory.

    Integrates at dt and dt/2 first and requires agreement at the final time
    to 1e-9 (scaled), which certifies that the RK4 error is negligible
    relative to the reported violation.
    """
    res = verify_batch([params], T=T, dt=dt)
    return float(res[0])


def verify_batch(batch: Sequence[OdeParams], T: float = 12.0, dt: float = 1e-3) -> np.ndarray:
    C1 = np.array([q.C1 for q in batch])
    C2 = np.array([q.C2 for q in batch])
    a = np.array([q.alpha for q in batch])
    b = np.array([q.beta for q in batch])
    h0 = np.array([q.h0 for q in batch])

    t_full, path_full = rk4_min_ode(C1, C2, a, b, h0, T, dt)
    _, path_half = rk4_min_ode(C1, C2, a, b, h0, T, 0.5 * dt)
    scale = 1.0 + np.max(np.abs(path_full), axis=0)
    agreement = np.abs(path_full[-1] - path_half[-1]) / scale
    worst = float(agreement.max())
    if worst > 1e-9:
        raise ValueError(
            f"step-halving agreement {worst:.3e} exceeds 1e-9; decrease dt"
        )

    out = np.empty(len(batch))
    for j, q in enumerate(batch):
        bound, _ = envelope(q)
        env_vals = bound(t_full)
        out[j] = float(np.max(path_full[:, j] - env_vals))
    return out
