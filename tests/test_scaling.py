"""The scaling symmetry of the problem with constant exponents.

With p and r constant, if u solves the problem on the square of side 1,
then v(x, t) = a u(x / L, t / T) solves it on the square of side L, with
a = L^{-p/(r - p)} and T = a^{-(r - 2)}; J and the well depth scale by
a^r L^N.  A verdict reads only quantities that scale together, so it must
not depend on the unit of length.  The cases run p = 1.8, r = 4 on 16
cells a side for L = 2^k, k = -4, 0, 4, 8, 12, without a simulation: the
sampled depth, and the verdicts of the data c lambda* v for c = 1.02, 1
and 0.98, v the shipped mode mix with peak 1 and lambda* its Nehari
scale.  At L = 1 all three are Undetermined between the sampled radii.
At L = 2^12 the critical band 1e-3 (1 + d_hat), which adds an absolute
unit to a scaled depth, spans 8.5 d_hat, and the verdicts become decided
critical ones: that case is a strict xfail until the band scales with
the depth.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from pxwell.classify import UNDETERMINED, classify
from pxwell.energy import estimate_depth, estimate_level_radii, find_lambda_star, snapshot
from pxwell.exponents import build_field
from pxwell.grid import Grid, GridFunction, project_mean_zero
from pxwell.witnesses import mode_field

P, R = 1.8, 4.0
# the shipped mode mix of global_2d's datum
MIX = (((1, 1), 1.0), ((2, 0), 0.3), ((0, 1), 0.2))
KS = [-4, 0, 4, 8, 12]


@functools.lru_cache(maxsize=None)
def _case(k: int):
    """The depth at L = 2^k and the (prediction, rule) of the three data."""
    L = 2.0 ** k
    grid = Grid((16, 16), (L, L))
    p, r = build_field(f"const:{P}", grid), build_field(f"const:{R}", grid, label="r")
    depth = estimate_depth(p, r, seed=0)
    vals = sum(c * mode_field(grid, ks).values for ks, c in MIX)
    v = project_mean_zero(GridFunction(grid, vals / np.max(np.abs(vals))))
    lam, _ = find_lambda_star(v, p, r)
    verdicts = []
    for c in (1.02, 1.0, 0.98):
        u0 = GridFunction(grid, c * lam * v.values)
        J0 = snapshot(u0, p, r).J
        radii = estimate_level_radii(depth, J0) if J0 > depth.upper else None
        verdict = classify(u0, p, r, depth, level_radii=radii)
        verdicts.append((verdict.prediction, verdict.rule))
    return depth.upper, verdicts


def _energy_scale(k: int) -> float:
    """a^r L^N at L = 2^k, N = 2."""
    L = 2.0 ** k
    a = L ** (-P / (R - P))
    return a**R * L * L


@pytest.mark.parametrize("k", KS)
def test_depth_scales_with_the_unit_of_length(k):
    # the ratio reads 1.000000000 of its L = 1 value (1.3e-10 at k = -4)
    ratio = _case(k)[0] / _energy_scale(k)
    assert ratio == pytest.approx(_case(0)[0], rel=1e-8)


@pytest.mark.parametrize("k", [pytest.param(k, marks=pytest.mark.xfail(
    strict=True, reason="the critical band 1e-3 (1 + d_hat) spans 8.5 d_hat at L = 2^12"))
    if k == 12 else k for k in KS])
def test_verdicts_do_not_depend_on_the_unit_of_length(k):
    assert _case(0)[1] == [(UNDETERMINED, "supercritical-between-radii")] * 3
    assert _case(k)[1] == _case(0)[1]
