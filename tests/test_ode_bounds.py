from __future__ import annotations

import numpy as np
import pytest

from pxwell import cli
from pxwell.ode_bounds import OdeParams, _halving_pass, envelope, rk4_min_ode, verify, verify_batch

# (C1, C2, alpha, beta, h0) whose trajectories cross the kink h = 1 before t = 4:
# two upward (beta = 2 and 0.5 above the kink), two downward (beta = 1 and 0.5)
CROSSING_CASES = np.array(
    [(0.5, 1.0, 3.0, 2.0, 0.1), (1.0, 2.0, 2.0, 0.5, 0.1),
     (2.0, 0.5, 3.0, 1.0, 10.0), (1.0, 0.5, 2.0, 0.5, 5.0)]
).T


def test_params_validation():
    with pytest.raises(ValueError):
        OdeParams(C1=0.0, C2=1.0, alpha=2.0, beta=1.0, h0=1.0)
    with pytest.raises(ValueError):
        OdeParams(C1=1.0, C2=1.0, alpha=1.0, beta=2.0, h0=1.0)
    with pytest.raises(ValueError):
        OdeParams(C1=1.0, C2=1.0, alpha=2.0, beta=1.0, h0=-1.0)


def test_envelope_saturated_branch():
    q = OdeParams(C1=1.0, C2=1.0, alpha=3.0, beta=2.0, h0=0.5)
    bound, branch = envelope(q)
    assert branch.endswith("saturated")
    assert np.all(bound(np.linspace(0, 10, 5)) == 1.0)  # (C2/C1)^{1/beta} = 1


def test_envelope_matches_h0_at_zero():
    for q in (
        OdeParams(1.0, 2.0, 3.0, 2.0, h0=5.0),     # source-dominant, beta > 1
        OdeParams(2.0, 1.0, 3.0, 2.0, h0=2.0),     # dissipation-dominant, beta > 1
        OdeParams(1.0, 2.0, 2.0, 0.5, h0=9.0),     # source-dominant, beta <= 1
        OdeParams(2.0, 1.0, 2.0, 0.5, h0=3.0),     # dissipation-dominant, beta <= 1
    ):
        bound, branch = envelope(q)
        assert not branch.endswith("saturated")
        assert bound(0.0) == pytest.approx(q.h0, rel=1e-12)


def test_envelope_dissipation_dominant_rate_factor():
    # branch rate carries C1 (C2/C1)^{(alpha-beta)/(alpha-beta+1)}
    q = OdeParams(C1=2.0, C2=1.0, alpha=3.0, beta=2.0, h0=2.0)
    bound, branch = envelope(q)
    assert branch == "dissipation-dominant/algebraic"
    threshold = 0.5 ** (1.0 / 3.0)
    rate = 2.0 * 0.5 ** (1.0 / 2.0) * (2.0 - 1.0)
    t = 1.7
    expect = threshold + ((q.h0 - threshold) ** (-1.0) + rate * t) ** (-1.0)
    assert bound(t) == pytest.approx(expect, rel=1e-12)


def test_verify_small_cases():
    assert verify(OdeParams(1.0, 1.0, 2.0, 2.0, h0=0.5), T=8.0, dt=1e-3) <= 1e-9
    assert verify(OdeParams(1.0, 2.0, 3.0, 2.0, h0=10.0), T=8.0, dt=1e-3) <= 1e-6
    assert verify(OdeParams(2.0, 1.0, 3.0, 0.5, h0=4.0), T=8.0, dt=1e-3) <= 1e-6


def test_equilibrium_at_threshold():
    q = OdeParams(1.0, 1.0, 2.0, 1.0, h0=1.0)
    t, path = rk4_min_ode(q.C1, q.C2, q.alpha, q.beta, q.h0, T=5.0, dt=1e-3)
    assert np.all(np.abs(path - 1.0) < 1e-12)


def test_beta_le_1_limits():
    # envelope limit (C2/C1) h0^{1-beta} dominates the trajectory limit (C2/C1)^{1/beta}
    q = OdeParams(1.0, 1.0, 1.0, 0.5, h0=10.0)
    bound, _ = envelope(q)
    env_limit = (q.C2 / q.C1) * q.h0 ** (1 - q.beta)
    assert bound(1e9) == pytest.approx(env_limit, rel=1e-9)
    traj_limit = (q.C2 / q.C1) ** (1 / q.beta)
    t, path = rk4_min_ode(q.C1, q.C2, q.alpha, q.beta, q.h0, T=60.0, dt=1e-2)
    assert path[-1, 0] == pytest.approx(traj_limit, abs=1e-4)
    assert traj_limit <= env_limit


def test_monotone_comparison_principle():
    # larger right side => larger solution, pointwise
    t1, low = rk4_min_ode(1.0, 1.0, 2.0, 1.0, 3.0, T=5.0, dt=1e-3)
    t2, high = rk4_min_ode(1.0, 1.3, 2.0, 1.0, 3.0, T=5.0, dt=1e-3)
    assert np.all(low <= high + 1e-12)


def test_kink_crossing_accuracy():
    # trajectory crosses h = 1 where the min switches branch
    q = OdeParams(0.5, 1.0, 3.0, 2.0, h0=0.1)
    bound, _ = envelope(q)
    violation = verify(q, T=10.0, dt=1e-3)  # must not raise on step-halving
    assert violation <= 1e-6
    t, path = rk4_min_ode(q.C1, q.C2, q.alpha, q.beta, q.h0, T=10.0, dt=1e-3)
    assert path[0, 0] < 1.0 < path[-1, 0]


def test_verify_batch_matches_scalar():
    batch = [
        OdeParams(0.5, 1.0, 2.0, 0.5, h0=0.1),
        OdeParams(1.0, 2.0, 3.0, 2.0, h0=4.0),
    ]
    vals = verify_batch(batch, T=6.0, dt=1e-3)
    for q, v in zip(batch, vals):
        assert verify(q, T=6.0, dt=1e-3) == pytest.approx(v, abs=1e-12)


def test_kink_split_keeps_fourth_order():
    # the final-state error against dt = 1e-4 falls ~16x per halving of dt
    # when each crossing step is split at h = 1; unsplit, every case falls
    # less than 3x at one of the two halvings
    _, ref = rk4_min_ode(*CROSSING_CASES, T=4.0, dt=1e-4)
    assert np.all((ref[0] - 1.0) * (ref[-1] - 1.0) < 0.0)
    errs = [
        np.abs(rk4_min_ode(*CROSSING_CASES, T=4.0, dt=dt)[1][-1] - ref[-1])
        for dt in (0.04, 0.02, 0.01)
    ]
    assert np.all(errs[0] >= 8.0 * errs[1])
    assert np.all(errs[1] >= 8.0 * errs[2])


def test_halving_pass_matches_separate_runs():
    # the stacked pass stores exactly the dt run and ends on exactly the dt/2 run
    cells = np.concatenate((CROSSING_CASES, [[1.0], [2.0], [3.0], [2.0], [4.0]]), axis=1)
    times, path, half = _halving_pass(*cells, T=4.0, dt=0.01)
    t_ref, path_ref = rk4_min_ode(*cells, T=4.0, dt=0.01)
    _, half_ref = rk4_min_ode(*cells, T=4.0, dt=0.005)
    np.testing.assert_array_equal(times, t_ref)
    np.testing.assert_array_equal(path, path_ref)
    np.testing.assert_array_equal(half, half_ref[-1])


def test_step_halving_gate_rejects_coarse_dt():
    with pytest.raises(ValueError, match="step-halving agreement"):
        verify_batch(cli._ode_grid(), dt=0.05)


@pytest.mark.parametrize("h0", [1e160, np.inf])
def test_verify_rejects_non_finite_trajectory(h0):
    # 1e160 overflows in its first step, across h = 1; inf is never finite
    q = OdeParams(1.0, 1.0, 3.0, 2.0, h0=h0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            verify(q, T=1.0, dt=1e-3)
