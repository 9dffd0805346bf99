"""The scaling symmetry of the problem with constant exponents.

With p and r constant, if u solves the problem on the square of side 1,
then v(x, t) = a u(x / L, t / T) solves it on the square of side L, with
a = L^{-p/(r - p)} and T = a^{-(r - 2)}; J and the well depth scale by
a^r L^N.  A verdict reads only quantities that scale together, so it must
not depend on the unit of length.  The cases run p = 1.8, r = 4 on 16
cells a side for L = 2^k, k = -4, 0, 4, 8, 12: the sampled depth, and the
verdicts of the data c lambda* v for c = 1.02, 1 and 0.98, v the shipped
mode mix with peak 1 and lambda* its Nehari scale.  At L = 1 all three
are Undetermined between the sampled radii, and so at every L, since the
critical band is a fixed fraction of the depth.

The blow-up time of the 1.02 lambda* datum must scale by T as well, when
every time setting of the run scales by T, its blow-up threshold by a and
its gradient regularization delta by a / L.  Against a reference run at
L = 1 with energy_tol 1e-10, t_b / T is allowed ten times the L = 1 run's
own error (6.1e-6).  The energy test's tolerance energy_tol (1 + |J|) has
an absolute floor, so it loosens as J scales down: at L = 2^8 and 2^12
(J0 = 0.017 and 5.1e-4, against 20.3 at L = 1) t_b / T is off by 5.4e-4
and 3.6e-3, strict xfails until that tolerance scales with the energy.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from pxwell.classify import UNDETERMINED, classify
from pxwell.energy import estimate_depth, estimate_level_radii, find_lambda_star, snapshot
from pxwell.exponents import build_field, check_hypotheses
from pxwell.grid import Grid, GridFunction, project_mean_zero
from pxwell.solver import BLOWUP_DETECTED, SolverConfig, simulate
from pxwell.witnesses import mode_field

P, R = 1.8, 4.0
# the shipped mode mix of global_2d's datum
MIX = (((1, 1), 1.0), ((2, 0), 0.3), ((0, 1), 0.2))
KS = [-4, 0, 4, 8, 12]


@functools.lru_cache(maxsize=None)
def _setting(k: int):
    """p, r, lambda* and the values of v at L = 2^k."""
    L = 2.0 ** k
    grid = Grid((16, 16), (L, L))
    p, r = build_field(f"const:{P}", grid), build_field(f"const:{R}", grid, label="r")
    vals = sum(c * mode_field(grid, ks).values for ks, c in MIX)
    v = project_mean_zero(GridFunction(grid, vals / np.max(np.abs(vals))))
    lam, _ = find_lambda_star(v, p, r)
    return p, r, lam, v.values


@functools.lru_cache(maxsize=None)
def _case(k: int):
    """The depth at L = 2^k and the (prediction, rule) of the three data."""
    p, r, lam, v = _setting(k)
    depth = estimate_depth(p, r, seed=0)
    hyp = check_hypotheses(p, r)
    verdicts = []
    for c in (1.02, 1.0, 0.98):
        s0 = snapshot(GridFunction(p.grid, c * lam * v), p, r)
        radii = estimate_level_radii(depth, s0.J) if s0.J > depth.upper else None
        verdict = classify(s0, hyp, depth, level_radii=radii)
        verdicts.append((verdict.prediction, verdict.rule))
    return depth.upper, verdicts


def _scales(k: int) -> tuple[float, float]:
    """a and T at L = 2^k."""
    a = (2.0 ** k) ** (-P / (R - P))
    return a, a ** (2.0 - R)


def _energy_scale(k: int) -> float:
    """a^r L^N at L = 2^k, N = 2."""
    return _scales(k)[0] ** R * 4.0 ** k


@functools.lru_cache(maxsize=None)
def _blowup_time(k: int, energy_tol: float = 1e-6) -> float:
    """t_b / T of the datum 1.02 lambda* v at L = 2^k, run with its
    settings scaled from dt_init 1e-6, blowup_threshold 1e5 and t_end 1 at
    L = 1."""
    p, r, lam, v = _setting(k)
    a, T = _scales(k)
    base = SolverConfig(dt_init=1e-6, blowup_threshold=1e5, t_end=1.0)
    cfg = SolverConfig(dt_init=base.dt_init * T, dt_min=base.dt_min * T, t_end=base.t_end * T,
                       energy_tol=energy_tol, blowup_threshold=base.blowup_threshold * a,
                       delta=base.delta * a / 2.0 ** k)
    outcome = simulate(GridFunction(p.grid, 1.02 * lam * v), p, r, cfg).outcome
    assert outcome.kind == BLOWUP_DETECTED, (k, outcome)
    return outcome.t_b / T


@pytest.mark.parametrize("k", KS)
def test_depth_scales_with_the_unit_of_length(k):
    # the ratio reads 1.000000000 of its L = 1 value (1.3e-10 at k = -4)
    ratio = _case(k)[0] / _energy_scale(k)
    assert ratio == pytest.approx(_case(0)[0], rel=1e-8)


@pytest.mark.parametrize("k", KS)
def test_verdicts_do_not_depend_on_the_unit_of_length(k):
    assert _case(0)[1] == [(UNDETERMINED, "supercritical-between-radii")] * 3
    assert _case(k)[1] == _case(0)[1]


@pytest.mark.parametrize("k", [pytest.param(k, marks=pytest.mark.xfail(
    strict=True, reason="the energy test's tolerance energy_tol (1 + |J|) is set by its "
    "absolute floor 1 where J0 = 0.017 (L = 2^8) and 5.1e-4 (L = 2^12)"))
    if k in (8, 12) else k for k in KS])
def test_blowup_time_scales_with_the_unit_of_length(k):
    # the L = 1 run at the shipped energy_tol is 6.1e-6 off the reference
    reference = _blowup_time(0, energy_tol=1e-10)
    allowance = 10.0 * abs(_blowup_time(0) - reference)
    assert abs(_blowup_time(k) - reference) <= allowance
