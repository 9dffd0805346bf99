from __future__ import annotations

import numpy as np
import pytest

from conftest import thm53_lemma_cases
from oracles import rk4_min_ode
from pxwell import cli, ode_bounds
from pxwell.ode_bounds import OdeParams, envelope, verify_batch

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


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf],
                         ids=["t_end-zero", "t_end-negative", "t_end-nan", "t_end-inf"])
def test_verify_batch_rejects_bad_horizon(T):
    with pytest.raises(ValueError, match="T must be positive and finite"):
        verify_batch([OdeParams(1.0, 1.0, 2.0, 1.0, h0=0.5)], T=T)


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
    assert verify_batch([OdeParams(1.0, 1.0, 2.0, 2.0, h0=0.5)], T=8.0)[0] <= 1e-9
    assert verify_batch([OdeParams(1.0, 2.0, 3.0, 2.0, h0=10.0)], T=8.0)[0] <= 1e-6
    assert verify_batch([OdeParams(2.0, 1.0, 3.0, 0.5, h0=4.0)], T=8.0)[0] <= 1e-6


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
    violation = verify_batch([q], T=10.0)[0]  # must not raise on panel agreement
    assert violation <= 1e-6
    t, path = rk4_min_ode(q.C1, q.C2, q.alpha, q.beta, q.h0, T=10.0, dt=1e-3)
    assert path[0, 0] < 1.0 < path[-1, 0]


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


@pytest.mark.parametrize("h0", [1e160, np.inf])
def test_verify_rejects_non_finite_trajectory(h0):
    # h0^beta overflows at 1e160, where the time integrand would silently
    # read -0.0; inf is never finite
    q = OdeParams(1.0, 1.0, 3.0, 2.0, h0=h0)
    with pytest.raises(ValueError, match="not finite"):
        verify_batch([q], T=1.0)


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_verify_rejects_bad_horizon(T):
    with pytest.raises(ValueError, match="positive and finite"):
        verify_batch([OdeParams(1.0, 2.0, 3.0, 2.0, h0=4.0)], T=T)


def test_rk4_broadcasts_scalar_parameters():
    # scalar parameters with an array h0; the third cell crosses h = 1
    t, path = rk4_min_ode(1.0, 2.0, 2.0, 1.0, np.array([0.5, 3.0, 0.2]), T=2.0, dt=1e-2)
    assert path.shape == (t.size, 3)
    for j, h0 in enumerate((0.5, 3.0, 0.2)):
        _, alone = rk4_min_ode(1.0, 2.0, 2.0, 1.0, h0, T=2.0, dt=1e-2)
        np.testing.assert_array_equal(path[:, j], alone[:, 0])


def _rk4_excess(batch, T, dt):
    """Largest excess of the RK4 path (step dt) over each cell's envelope."""
    cells = np.array([(q.C1, q.C2, q.alpha, q.beta, q.h0) for q in batch]).T
    t, path = rk4_min_ode(*cells, T=T, dt=dt)
    return np.array([np.max(path[:, j] - envelope(q)[0](t)) for j, q in enumerate(batch)])


@pytest.mark.parametrize("which", ["crossing", "thm53-lemma"])
def test_quadrature_matches_rk4_oracle(which):
    # the quadrature falsifier against the independent kink-split RK4 path:
    # both see the same largest excess to within RK4's error at dt = 1e-3
    if which == "crossing":
        batch, T = [OdeParams(*cell) for cell in CROSSING_CASES.T], 4.0
    else:
        batch, T = [q for _, q in thm53_lemma_cases()], 12.0
    assert np.max(np.abs(verify_batch(batch, T=T) - _rk4_excess(batch, T, 1e-3))) <= 1e-12


def test_lowered_envelope_is_caught(monkeypatch, tmp_path, capsys):
    # an envelope 1e-6 below the printed one is reported as violated by at
    # least 1e-6, and ode-verify then fails with exit code 4 after writing
    # its table, with one stderr line that names the worst violation and the
    # tolerance, under --quiet too
    printed = ode_bounds.envelope

    def lowered(q):
        bound, branch = printed(q)
        return (lambda t: bound(t) - 1e-6), branch

    monkeypatch.setattr(ode_bounds, "envelope", lowered)
    worst = float(np.max(verify_batch(cli._ode_grid())))
    assert worst >= 1e-6
    assert cli.main(["ode-verify", "--out", str(tmp_path), "--quiet"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"assertion failure: worst signed violation {worst!r} "
                   "exceeds the tolerance 1e-06\n")
    assert (tmp_path / "ode_verify.csv").read_text().count("\n") == 217


def test_panel_guard_needs_bisection(monkeypatch):
    # the h0 = 1e-4 lemma cell starts 1e-4 from the singular point s = 0 of
    # s^alpha; its first panels pass the Gauss-Kronrod 4/9 agreement only
    # once bisected
    _, q = thm53_lemma_cases()[0]
    assert verify_batch([q])[0] <= 1e-6
    monkeypatch.setattr(ode_bounds, "_MAX_BISECTIONS", 0)
    with pytest.raises(ValueError, match="panels disagree"):
        verify_batch([q])


def test_smaller_rule_pair_loses_nothing(monkeypatch):
    # the shipped Gauss-Kronrod 4/9 guard against a 16/33 one, on the
    # ode-verify batch and the Thm 5.3 lemma cells: both sample h at the same
    # panel ends, and every cell's excess agrees to 1e-14; the finer run
    # evaluates more points, so it did not compare the shipped rule with itself
    batch = cli._ode_grid() + [q for _, q in thm53_lemma_cases()]
    shipped_counts, finer_counts = {}, {}
    shipped = verify_batch(batch, counts=shipped_counts)
    monkeypatch.setattr(ode_bounds, "_NODES", 16)
    finer = verify_batch(batch, counts=finer_counts)
    assert np.max(np.abs(shipped - finer)) <= 1e-14
    assert finer_counts["evaluations"] > 3 * shipped_counts["evaluations"]


def test_guard_is_live_on_the_shipped_batch():
    # the guard bisects panels of the ode-verify batch, and the counts come
    # back through the one verify_batch call: 9 points on each of the
    # 167,055 + 19 panels integrated, and 1,823 in the searches for h(T)
    counts = {}
    excess = verify_batch(cli._ode_grid(), counts=counts)
    assert excess.shape == (216,)
    assert counts == {"panels": 167055, "bisected": 19, "evaluations": 1505489}


def _random_box(seed: int, n: int) -> list[OdeParams]:
    """n cells from a wide box: C1 and C2 log-uniform in [1e-3, 1e3], alpha
    in [0.05, 10], beta in [0.02, alpha] (beta = alpha on a fifth of the
    cells and min(alpha, 1) on another fifth), h0 = h* e^U with U in [-8, 8]."""
    rng = np.random.default_rng(seed)
    C1 = 10.0 ** rng.uniform(-3.0, 3.0, n)
    C2 = 10.0 ** rng.uniform(-3.0, 3.0, n)
    alpha = rng.uniform(0.05, 10.0, n)
    beta = rng.uniform(0.02, alpha)
    pick = rng.random(n)
    beta = np.where(pick < 0.2, alpha, np.where(pick < 0.4, np.minimum(alpha, 1.0), beta))
    growth = np.exp(rng.uniform(-8.0, 8.0, n))
    return [OdeParams(c1, c2, a, b, h0=ode_bounds._threshold(c1, c2, a, b) * e)
            for c1, c2, a, b, e in zip(*(x.tolist() for x in (C1, C2, alpha, beta, growth)))]


def test_random_box_is_resolved():
    # far from the ode-verify grid: cells with h0 < 1 < h*, where C1 h*^alpha
    # can dwarf C2 on the segment before the kink, and two cells whose h0^alpha
    # overflows while h' stays finite; every excess is judged relative to the
    # scale of h, since some cells reach h ~ 1e50
    batch = _random_box(7, 400) + [
        OdeParams(0.0025089064536793436, 3.705773057420265, 8.659853945035318,
                  0.06944095399705531, 6.201538632050025e45),
        OdeParams(0.0014742509270723914, 10.77777912901272, 5.29333889894243,
                  0.021004323139707584, 2.689559890500493e184),
    ]
    excess = verify_batch(batch)
    scale = [max(1.0, q.h0, ode_bounds._threshold(q.C1, q.C2, q.alpha, q.beta)) for q in batch]
    assert np.all(excess <= 1e-9 * np.array(scale))


def test_verify_from_zero():
    # h0 = 0 sits on the singular point of s^alpha itself
    batch = [OdeParams(1.0, 2.0, 1.25, 0.95, h0=0.0), OdeParams(1.0, 0.5, 0.95, 0.5, h0=0.0)]
    assert np.max(np.abs(verify_batch(batch) - _rk4_excess(batch, 12.0, 1e-3))) <= 1e-12
