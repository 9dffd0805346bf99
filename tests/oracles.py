"""Independent reference computations that only the tests run.

`rk4_min_ode` integrates the comparison lemma's equality ODE
h' = C2 - C1 min(h^alpha, h^beta) by classical RK4, with each step that
crosses h = 1 split at the crossing (event location, as in Hairer, Norsett
and Wanner, Solving Ordinary Differential Equations I, Sec. II.6).
`ode_bounds.verify_batch` does not use it; it is the reference that the
falsifier's quadrature is tested against.

`gradient_modular_inner`, `function_modular_shell` and `shell_modular_exact`
split the radial modulars of `radial_gap` by ball and shell, so the sweep's
integrals can be checked piece by piece and against the middle shell's
closed form.

`rkc2_step` and `rk4_step` are one step of the solver's two steppers in
expression form: each stage state and each product a new array, and every
right-hand side from the `rhs(u)` of the kernel they are given.  The
solver's steppers form their stages in preallocated buffers; run on the
per-axis slice kernel of `tests/test_flat_kernel.py` these must give their
states bit for bit, since every elementwise operation has the same operands.

`log_holder_all_pairs` is the log-Hölder modulus that
`exponents.check_log_holder` reads by offset class, taken pair by pair with
distances from the cell centers.
"""

from __future__ import annotations

import numpy as np

from pxwell.ode_bounds import _rhs
from pxwell.radial_gap import _PIECES, _checked, exponent_profile, radial_profile, radial_slope
from pxwell.solver import _rkc2_weights


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

    The five inputs broadcast against each other, so scalar parameters with
    an array of h0 integrate one cell per h0.

    A step that carries an element across h = 1 (the kink of the min) is
    split at the crossing: RK4 to the located crossing time, then RK4 from
    h = 1 for the rest of the step, so the crossing does not degrade the
    global order.  Raises ValueError if a crossing step overflows.
    Returns (times, h_path) with h_path of shape (n_steps + 1, batch).
    """
    C1, C2, a, b, h = (
        np.array(x, dtype=float, ndmin=1) for x in np.broadcast_arrays(C1, C2, alpha, beta, h0)
    )
    n_steps = int(round(T / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    path = np.empty((n_steps + 1, h.size))
    path[0] = h
    for k in range(n_steps):
        h = _step(h, dt, C1, C2, a, b)
        path[k + 1] = h
    return times, path


def gradient_modular_inner(epsilon: float, n_quad: int = 64) -> float:
    """Contribution of the inner ball alone (the middle shell contributes 0)."""
    if epsilon <= 1.0:
        raise ValueError("epsilon must exceed 1")
    return _checked(
        lambda r: np.abs(epsilon * radial_slope(r)) ** exponent_profile(r),
        n_quad,
        pieces=(_PIECES[0],),
    )


def function_modular_shell(epsilon: float, n_quad: int = 64) -> float:
    """Middle-shell contribution; closed form is (7 pi / 24) eps^{5/2}."""
    return _checked(
        lambda r: np.abs(epsilon * radial_profile(r)) ** exponent_profile(r),
        n_quad,
        pieces=(_PIECES[1],),
    )


def shell_modular_exact(epsilon: float) -> float:
    """(4 pi / 3)(2^3 - 1^3) (eps/4)^{5/2} = (7 pi / 24) eps^{5/2}."""
    return 7.0 * np.pi / 24.0 * epsilon**2.5


def rkc2_step(kernel, u, rhs, dt, s):
    """One s-stage RKC2 step from u, whose right-hand side is rhs: the
    recurrence on the increments d_j = Y_j - u with the solver's weights."""
    (mu1, *_), *rows = _rkc2_weights(s)[0].tolist()
    prev, d = 0.0, (mu1 * dt) * rhs
    for mu, nu, mut, gt in rows:
        inc = kernel.rhs(u + d)
        inc *= mut * dt
        inc += (gt * dt) * rhs
        inc += mu * d
        inc += nu * prev
        prev, d = d, inc
    return u + d


def rk4_step(kernel, u, rhs, dt):
    """One classical RK4 step from u, whose right-hand side is rhs, its
    increment summed before it is added to u."""
    k2 = kernel.rhs(u + (0.5 * dt) * rhs)
    k3 = kernel.rhs(u + (0.5 * dt) * k2)
    k4 = kernel.rhs(u + dt * k3)
    b1, b2 = 1.0 / 6.0 * dt, 1.0 / 3.0 * dt
    d = b1 * rhs
    d += b2 * k2
    d += b2 * k3
    d += b1 * k4
    return u + d


def log_holder_all_pairs(field):
    """The largest |q(x) - q(y)| ln(1/|x - y|) over every pair of cell
    centers with 0 < |x - y| < 1, 0.0 when no pair is that close: each cell
    against every later one in C order."""
    pts = np.stack([c.ravel() for c in field.grid.centers()], axis=1)
    q = field.values.ravel()
    best = 0.0
    for i in range(q.size - 1):
        dist = np.sqrt(((pts[i + 1:] - pts[i]) ** 2).sum(axis=1))
        near = (dist > 0.0) & (dist < 1.0)
        if near.any():
            mod = np.abs(q[i + 1:][near] - q[i]) * np.log(1.0 / dist[near])
            best = max(best, float(mod.max()))
    return best
