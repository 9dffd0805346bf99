"""Radial quadrature showing the modular Poincare inequality can fail.

On nested balls of radii 1, 2, 3 in R^3, a piecewise-linear exponent profile
and a piecewise-linear radial function are scaled by epsilon > 1; the
gradient modular grows like eps^{3/2} (eps - 1)/ln(eps) while the function
modular grows like eps^{5/2}, so the Rayleigh-type quotient of modulars
decays to zero as eps grows -- no constant can bound it from below.

All integrals are 4 pi int r^2 f(r) dr computed by Gauss-Legendre panels
aligned with the profile kinks at r = 1 and r = 2, with a node-doubling
agreement check on every reported value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre

__all__ = [
    "exponent_profile",
    "radial_profile",
    "radial_slope",
    "profile_mean",
    "gradient_modular",
    "function_modular",
    "quotient_sweep",
    "SweepRow",
]

_PIECES = ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))
_SLOPE_OUTER = 104.0 / 172.0
# Gauss nodes per panel of every reported integral (the guard doubles them),
# and the epsilons of the sweep that `pxwell poincare` writes.
_N_QUAD = 64
_EPSILONS = (1e2, 1e3, 1e4, 1e6)


def exponent_profile(rr: np.ndarray) -> np.ndarray:
    """Piecewise exponent: 3/2 + r, then 5/2, then 9/2 - r."""
    rr = np.asarray(rr, dtype=float)
    return np.where(rr < 1.0, 1.5 + rr, np.where(rr < 2.0, 2.5, 4.5 - rr))


def radial_profile(rr: np.ndarray) -> np.ndarray:
    """Piecewise radial function: 3/4 - r, then -1/4, then (104 r - 251)/172."""
    rr = np.asarray(rr, dtype=float)
    return np.where(rr < 1.0, 0.75 - rr, np.where(rr < 2.0, -0.25, (104.0 * rr - 251.0) / 172.0))


def radial_slope(rr: np.ndarray) -> np.ndarray:
    rr = np.asarray(rr, dtype=float)
    return np.where(rr < 1.0, -1.0, np.where(rr < 2.0, 0.0, _SLOPE_OUTER))


# allowed node-doubling disagreement, relative to the integral of |fn|
_REL_TOL = 1e-8


def _radial_integrals(fn, n_quad: int, pieces) -> tuple[float, float]:
    """4 pi int r^2 fn(r) dr and 4 pi int r^2 |fn(r)| dr with piece-aligned
    Gauss panels, both from one evaluation of fn per piece."""
    nodes, weights = gauss_legendre(n_quad)
    total = scale = 0.0
    for lo, hi in pieces:
        r = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        values = r * r * fn(r)  # r * r >= 0, so |values| is r * r * |fn(r)| bit for bit
        total += 0.5 * (hi - lo) * float(np.sum(weights * values))
        scale += 0.5 * (hi - lo) * float(np.sum(weights * np.abs(values)))
    return 4.0 * np.pi * total, 4.0 * np.pi * scale


def _checked(fn, n_quad: int, pieces=_PIECES) -> float:
    """Node-doubling agreement guard; returns the finer value.

    Agreement is measured against the integral of |fn|, so exact cancellation
    (a genuinely zero integral) does not trip the guard.
    """
    coarse, _ = _radial_integrals(fn, n_quad, pieces)
    fine, scale = _radial_integrals(fn, 2 * n_quad, pieces)
    if abs(fine - coarse) > _REL_TOL * (abs(scale) + 1e-300):
        raise ValueError(
            f"quadrature disagreement {abs(fine - coarse):.3e} at n={n_quad}; integrand not resolved"
        )
    return fine


def profile_mean() -> float:
    """Mean of the unscaled radial function over the big ball (analytically 0)."""
    vol = 4.0 / 3.0 * np.pi * 27.0
    return _checked(radial_profile, _N_QUAD) / vol


def gradient_modular(epsilon: float) -> float:
    """Gradient modular of the eps-scaled profile over the big ball."""
    if epsilon <= 1.0:
        raise ValueError("epsilon must exceed 1")
    return _checked(lambda r: np.abs(epsilon * radial_slope(r)) ** exponent_profile(r), _N_QUAD)


# panels of the function modular: split at the kinks (r = 1, 2) and at the
# profile's zeros (r = 3/4, 251/104), where |.|^{p(r)} loses smoothness
_FUNCTION_CUTS = (0.0, 0.75, 1.0, 2.0, 251.0 / 104.0, 3.0)
_FUNCTION_PIECES = tuple(zip(_FUNCTION_CUTS, _FUNCTION_CUTS[1:]))


def function_modular(epsilon: float) -> float:
    """Function modular of the eps-scaled profile."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return _checked(
        lambda r: np.abs(epsilon * radial_profile(r)) ** exponent_profile(r),
        _N_QUAD,
        pieces=_FUNCTION_PIECES,
    )


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    numerator: float
    denominator: float
    quotient: float
    bound: float


def quotient_bound(epsilon: float) -> float:
    """960 (eps - 1) / (7 eps ln eps)."""
    return 960.0 * (epsilon - 1.0) / (7.0 * epsilon * math.log(epsilon))


def quotient_sweep() -> list[SweepRow]:
    """Quotients at epsilon = 1e2, 1e3, 1e4 and 1e6, the sweep that
    `pxwell poincare` writes to `poincare.csv`, each integral on 64 Gauss
    nodes per panel checked against 128.  Raises AssertionError when a
    quotient exceeds its closed-form bound or, from e^2 on, fails to
    decrease strictly, and ValueError when a node-doubling check fails."""
    rows = []
    for e in _EPSILONS:
        num = gradient_modular(e)
        den = function_modular(e)
        q = num / den
        bound = quotient_bound(e)
        if q > bound:
            raise AssertionError(
                f"quotient {q} exceeds bound {bound} at eps={e}: "
                f"numerator={num}, denominator={den}"
            )
        rows.append(SweepRow(e, num, den, q, bound))
    prev = None
    for row in rows:
        if row.epsilon >= np.e**2:
            if prev is not None and not (row.quotient < prev):
                raise AssertionError(
                    f"quotient not strictly decreasing at eps={row.epsilon}"
                )
            prev = row.quotient
    return rows
