from __future__ import annotations

import numpy as np
import pytest

from oracles import function_modular_shell, gradient_modular_inner, shell_modular_exact
from pxwell.radial_gap import (
    exponent_profile,
    function_modular,
    gradient_modular,
    profile_mean,
    quotient_bound,
    quotient_sweep,
    radial_profile,
    radial_slope,
)


def test_piecewise_continuity_machine_precision():
    # the profiles agree on both sides of each interface radius
    for r0 in (1.0, 2.0):
        lo, hi = r0 - 1e-12, r0 + 1e-12
        assert abs(exponent_profile(lo) - exponent_profile(hi)) < 1e-10
        assert abs(radial_profile(lo) - radial_profile(hi)) < 1e-10


def test_slope_piecewise():
    assert radial_slope(0.5) == -1.0
    assert radial_slope(1.5) == 0.0
    assert radial_slope(2.5) == pytest.approx(104.0 / 172.0)


def test_shell_closed_form():
    for eps in (1.0, 10.0, 1e3):
        quad = function_modular_shell(eps, n_quad=64)
        exact = shell_modular_exact(eps)
        assert quad == pytest.approx(exact, rel=1e-12)
        # the shell value is the classical lower bound on the full modular
        assert function_modular(eps) >= quad


def test_middle_shell_contributes_nothing_to_gradient():
    eps = 100.0
    total = gradient_modular(eps)
    inner = gradient_modular_inner(eps, 64)
    # outer piece accounts for the rest; middle has zero slope
    outer = total - inner
    assert inner > 0 and outer > 0
    assert radial_slope(1.5) == 0.0


def test_gradient_bounds():
    for eps in (np.e**2, 1e3, 1e6):
        envelope = 4 * np.pi * eps**1.5 * (eps - 1.0) / np.log(eps)
        assert gradient_modular_inner(eps, 64) <= envelope * (1 + 1e-12)
        assert gradient_modular(eps) <= 10.0 * envelope * (1 + 1e-12)


def test_denominator_at_unit_scale():
    val = function_modular(1.0)
    assert np.isfinite(val) and val > 0


def test_numerator_requires_scaling_above_one():
    with pytest.raises(ValueError):
        gradient_modular(1.0)


def test_profile_mean_vanishes():
    assert abs(profile_mean()) < 1e-12


def test_quotient_sweep():
    rows = quotient_sweep()
    qs = [row.quotient for row in rows]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    for row in rows:
        assert row.quotient <= row.bound
        assert row.bound == pytest.approx(quotient_bound(row.epsilon))
    # vanishing-infimum trend: the closed-form bound decays like 1/ln(eps)
    assert qs[-1] < 0.5 * qs[0]
    assert quotient_bound(1e200) < quotient_bound(1e6) < quotient_bound(1e2)


def test_default_sweep():
    # the sweep that `pxwell poincare` writes
    assert [row.epsilon for row in quotient_sweep()] == [1e2, 1e3, 1e4, 1e6]
