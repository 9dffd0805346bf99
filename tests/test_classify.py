from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import column_trajectory, mixed_mode, thm53_lemma_cases
from pxwell.classify import (
    BLOWUP,
    GLOBAL,
    UNDETERMINED,
    blowup_tstar,
    classify,
    construct_high_energy_datum,
    decay_envelope,
    inequality_317_check,
    prop48_check,
    thm53_envelope,
    thm54_bounds,
)
from pxwell.energy import (
    DepthEstimate,
    LevelRadii,
    _Ray,
    estimate_depth,
    estimate_level_radii,
    find_lambda_star,
    snapshot,
)
from pxwell.exponents import build_field, check_hypotheses
from pxwell.grid import Grid, GridFunction, integrate, project_mean_zero
from pxwell.norms import estimate_embedding
from pxwell.ode_bounds import verify_batch
from pxwell.ode_bounds import envelope as ode_envelope
from pxwell.solver import BLOWUP_DETECTED, GLOBAL_UNTIL_TEND, SolverConfig, simulate
from pxwell.witnesses import mode_field


@pytest.fixture(scope="module")
def setting():
    g = Grid((24, 24), (1.0, 1.0))
    p = build_field("affine:1.8+0.1x+0.1y", g)
    r = build_field(4.0, g)
    B = estimate_embedding(p, r, trials=6, seed=1, ascent_steps=4)
    dep = estimate_depth(p, r, trials=6, seed=0, B_est=B)
    return g, p, r, B, dep


def test_zero_datum_global(setting):
    g, p, r, B, dep = setting
    s0 = snapshot(GridFunction(g, np.zeros(g.shape)), p, r)
    v = classify(s0, check_hypotheses(p, r), dep)
    assert v.prediction == GLOBAL and v.rule == "zero-datum"
    assert not v.certified


def test_ray_scaled_verdicts(setting):
    g, p, r, B, dep = setting
    phi = mixed_mode(g)
    lam, _ = find_lambda_star(phi, p, r)
    hyp = check_hypotheses(p, r)

    small = GridFunction(g, 0.15 * lam * phi.values)
    s = snapshot(small, p, r)
    assert s.I > 0 and s.J < dep.upper
    v = classify(s, hyp, dep)
    assert v.regime == "subcritical" and v.prediction == GLOBAL

    big = GridFunction(g, 1.8 * lam * phi.values)
    sb = snapshot(big, p, r)
    assert sb.I < 0 and sb.J < dep.upper
    vb = classify(sb, hyp, dep)
    assert vb.regime == "subcritical" and vb.prediction == BLOWUP
    # Remark-style sharpness: a subcritical datum with I != 0 is never undetermined
    assert v.prediction != UNDETERMINED and vb.prediction != UNDETERMINED


def test_condition_H_needs_depth(setting):
    g, p, r, B, dep = setting
    u = GridFunction(g, 0.3 * mixed_mode(g).values)
    with pytest.raises(ValueError, match="depth"):
        classify(snapshot(u, p, r), check_hypotheses(p, r))


def test_classify_deterministic(setting):
    g, p, r, B, dep = setting
    u = GridFunction(g, 0.3 * mixed_mode(g).values)
    first = classify(snapshot(u, p, r), check_hypotheses(p, r), dep)
    assert classify(snapshot(u, p, r), check_hypotheses(p, r), dep) == first


def test_diffusion_dominant_rule(setting):
    g, _, _, _, dep = setting
    p = build_field(2.5, g)
    r = build_field(1.5, g)
    u = GridFunction(g, 0.3 * mixed_mode(g).values)
    v = classify(snapshot(u, p, r), check_hypotheses(p, r), dep)
    assert v.prediction == GLOBAL and v.rule == "diffusion-dominant-global"


_RADII_NOTE = ("supercritical large-data test uses the norm >= sampled-max direction; "
               "small-data test uses norm <= sampled-min")
_FAILED_FLAT = ("failed: ['p_minus < N', 'max(p_plus, 2) < r_minus', "
                "'r_plus <= N p_minus/(N - p_minus)', 'r_plus < p_minus', "
                "'r_minus <= min(p_plus, 2) and r_plus < 2']")


def _rule_fields(name):
    """A datum shape and exponents: "H" satisfies condition H, "flat" (p = r
    = 2) fails every hypothesis, "diffusion" has r_plus < p_minus and "weak"
    is the weak-source regime with r_plus >= p_minus."""
    if name == "weak":
        g = Grid((32,), (4.0,))
        return mode_field(g, (1,)), build_field("affine:1.6+0.8x", g), build_field(1.7, g)
    g = Grid((8, 8), (1.0, 1.0))
    p, r = {"H": (1.8, 4.0), "flat": (2.0, 2.0), "diffusion": (2.5, 1.5)}[name]
    return mode_field(g, (1, 1)), build_field(p, g), build_field(r, g)


# (fields, datum scale (times lambda* under condition H), depth upper placed
# "above", "at" or "below" J0, level radii as factors of ||u0||_2, regime,
# prediction, rule, notes after the radii note)
_RULE_CASES = {
    "zero-datum-H": ("H", 0.0, "above", None, "subcritical", GLOBAL, "zero-datum",
                     ("trivial solution",)),
    "zero-datum-not-H": ("flat", 0.0, None, None, "diffusion-dominant", GLOBAL,
                         "zero-datum", ("trivial solution",)),
    "diffusion-dominant-global": (
        "diffusion", 0.3, None, None, "diffusion-dominant", GLOBAL,
        "diffusion-dominant-global",
        ("source exponent below diffusion exponent: global for any energy",)),
    "negative-energy-global": (
        "weak", 0.5, None, None, "diffusion-dominant", GLOBAL, "negative-energy-global",
        ("weak-source regime with negative initial energy",)),
    "hypotheses-not-met": ("flat", 0.5, None, None, "unclassified", UNDETERMINED,
                           "hypotheses-not-met", (_FAILED_FLAT,)),
    "subcritical-positive-gap": ("H", 0.5, "above", None, "subcritical", GLOBAL,
                                 "subcritical-positive-gap", ()),
    "subcritical-negative-gap": ("H", 2.0, "above", None, "subcritical", BLOWUP,
                                 "subcritical-negative-gap", ()),
    "subcritical-on-manifold": (
        "H", 0.5, "above", None, "subcritical", UNDETERMINED, "subcritical-on-manifold",
        ("I0 = 0 exactly on a nonzero datum: no rule applies below the depth",)),
    "critical-nonnegative-gap": ("H", 0.5, "at", None, "critical", GLOBAL,
                                 "critical-nonnegative-gap", ()),
    "critical-negative-gap": ("H", 1.2, "at", None, "critical", BLOWUP,
                              "critical-negative-gap", ()),
    "supercritical-no-radii": ("H", 0.5, "below", None, "supercritical", UNDETERMINED,
                               "supercritical-no-radii", ()),
    "supercritical-small-data": ("H", 0.5, "below", (1.1, 1.2), "supercritical", GLOBAL,
                                 "supercritical-small-data", ()),
    "supercritical-large-data": ("H", 1.2, "below", (0.8, 0.9), "supercritical", BLOWUP,
                                 "supercritical-large-data", ()),
    "supercritical-between-radii": ("H", 0.5, "below", (0.9, 1.1), "supercritical",
                                    UNDETERMINED, "supercritical-between-radii", ()),
}


@pytest.mark.parametrize("case", list(_RULE_CASES), ids=list(_RULE_CASES))
def test_every_rule_pinned(case):
    # one datum per rule that classify can return; the estimates are built
    # directly, so each case fixes which side of d_hat and of the radii J0
    # and ||u0||_2 lie, and subcritical-on-manifold, which needs I0 = 0
    # exactly, is classified from the datum's snapshot with I set to 0
    fields, scale, place, radii, regime, pred, rule, notes = _RULE_CASES[case]
    phi, p, r = _rule_fields(fields)
    if fields == "H":
        scale *= find_lambda_star(phi, p, r)[0]
    u0 = GridFunction(phi.grid, scale * phi.values)
    s0 = snapshot(u0, p, r)
    depth = level_radii = None
    if place is not None:
        upper = {"above": abs(s0.J) + 1.0, "at": s0.J, "below": 0.5 * s0.J}[place]
        depth = DepthEstimate(upper=upper, lower_formula=float("nan"), witnesses=0,
                              B_used="none", seed=0)
    if radii is not None:
        l2_0 = np.sqrt(s0.l2sq)
        level_radii = LevelRadii(s=s0.J, lambda_s=radii[0] * l2_0, Lambda_s=radii[1] * l2_0,
                                 kept=1)
    if rule == "subcritical-on-manifold":
        s0 = dataclasses.replace(s0, I=0.0)
    v = classify(s0, check_hypotheses(p, r), depth, level_radii=level_radii)
    assert (v.regime, v.prediction, v.rule) == (regime, pred, rule)
    assert v.notes == (_RADII_NOTE, *notes)


def test_decay_envelope_algebraic(setting):
    g, _, r, B, dep = setting
    p = build_field("affine:1.9+0.6x+0.1y", g)  # p_plus > 2
    env = decay_envelope(2.0, p, r, B0_hat=0.3, delta0_hat=0.4, d_hat=dep.upper)
    assert env.kind == "DecayAlgebraic"
    t = np.linspace(0, 50, 400)
    vals = env.eval(t)
    assert np.all(np.diff(vals) < 0)
    # K1 p+ >= 1 here, so the bound covers the initial energy
    assert vals[0] >= 2.0
    assert env.eval(1e9) < 1e-6
    assert env.constants["grad_multiplier"] == pytest.approx(
        p.p_plus * r.p_minus / (r.p_minus - p.p_plus)
    )


def test_decay_envelope_exponential_branch():
    g = Grid((8, 8), (1.0, 1.0))
    p2 = build_field(2.0, g)
    r4 = build_field(4.0, g)
    env = decay_envelope(1.5, p2, r4, B0_hat=0.3, delta0_hat=0.5, d_hat=1.0)
    assert env.kind == "DecayExponential"
    K0, K1 = env.constants["K0"], env.constants["K1"]
    assert env.eval(0.0) == pytest.approx(K1 * np.e)
    t = np.linspace(0, 10, 100)
    assert np.all(np.diff(env.eval(t)) < 0)


def test_decay_envelope_rejects_bad_inputs(setting):
    g, _, r, B, dep = setting
    p = build_field("affine:1.9+0.6x+0.1y", g)
    with pytest.raises(ValueError, match="delta0"):
        decay_envelope(1.0, p, r, 0.3, delta0_hat=1.0, d_hat=dep.upper)
    with pytest.raises(ValueError, match="positive initial energy"):
        decay_envelope(-1.0, p, r, 0.3, delta0_hat=0.5, d_hat=dep.upper)
    with pytest.raises(ValueError, match="p_plus"):
        decay_envelope(1.0, build_field(1.9, g), r, 0.3, delta0_hat=0.5, d_hat=dep.upper)


def test_blowup_tstar_values():
    val = blowup_tstar(0.1, 0.5, p_minus=2.0, p_plus=2.5, r_minus=4.0, u0_l2=1.0, B0_hat=0.3)
    assert np.isfinite(val) and val > 0
    second_only = blowup_tstar(0.0, 0.5, 2.0, 2.5, 4.0, 1.0, 0.3)
    assert second_only == pytest.approx(2.0 / np.sqrt((4.0 - 2.0) * 0.5))
    # t* diverges as J0 approaches the depth
    close = blowup_tstar(0.499999, 0.5, 2.0, 2.5, 4.0, 1.0, 0.3)
    assert close > 1e4
    with pytest.raises(ValueError):
        blowup_tstar(0.6, 0.5, 2.0, 2.5, 4.0, 1.0, 0.3)


def test_inequality_317_trivial_and_vacuous():
    d_hat = 1.0
    # J = 1, I = G - S = -1
    rep = inequality_317_check(column_trajectory(J=[1.0, 1.0], G=[1.0, 1.0], S=[2.0, 2.0]),
                               d_hat, r_minus=4.0)
    assert rep.ok and rep.checked == 2  # -1 <= 4 (1 - 1) = 0
    # J = 0.5, I = 2
    rep2 = inequality_317_check(column_trajectory(J=[0.5, 0.5], G=[3.0, 3.0], S=[1.0, 1.0]),
                                d_hat, r_minus=4.0)
    assert rep2.ok and rep2.checked == 0  # vacuous off the negative side


def test_inequality_317_mixed_table():
    # d_hat = 1, r_minus = 4, so the bound on I < 0 rows is 4 (J - 1), with
    # an allowance of 1e-9 (1 + |bound|)
    J = [0.5, 2.0, 2.0, 1.0, 0.5, 0.0, 0.75, 0.75]
    S = [0.0, 1.0, 2.0, 2.0, 2.5, 4.0, 2.0 - 1e-9, 2.0 - 3e-9]
    # I:  1, 0 (both unchecked), -1 under 4, -1 under 0, -1.5 over -2 by 0.5,
    # -3 over -4 by 1, and -1 + 1e-9 and -1 + 3e-9 against -1 (allowance 2e-9)
    rep = inequality_317_check(column_trajectory(J=J, G=np.ones(8), S=S), 1.0, r_minus=4.0)
    assert (rep.checked, rep.violations, rep.max_violation, rep.ok) == (6, 3, 1.0, False)


def _inequality_317_loop(J, I, d_hat, r_minus):
    """The row-by-row (3.17) check, with its allowance of 1e-9 (1 + |bound|)."""
    checked = violations = 0
    max_v = 0.0
    for Jk, Ik in zip(J, I):
        if Ik >= 0.0:
            continue
        checked += 1
        bound = r_minus * (Jk - d_hat)
        excess = Ik - bound
        if excess > 1e-9 * (1.0 + abs(bound)):
            violations += 1
            max_v = max(max_v, excess)
    return checked, violations, max_v


def test_inequality_317_matches_row_loop():
    rng = np.random.default_rng(3)
    J = rng.uniform(-2.0, 2.0, 400)
    G = rng.uniform(0.0, 3.0, 400)
    S = np.where(rng.random(400) < 0.1, G, rng.uniform(0.0, 6.0, 400))
    traj = column_trajectory(J=J, G=G, S=S)
    rep = inequality_317_check(traj, 1.0, r_minus=4.0)
    expect = _inequality_317_loop(J, traj.I, 1.0, 4.0)
    assert expect[0] < 400 and 0 < expect[1] < expect[0]
    assert (rep.checked, rep.violations, rep.max_violation) == expect
    assert rep.ok == (expect[1] == 0)


def test_prop48_trivial_cases(setting):
    g, p, r, B, dep = setting
    phi = mixed_mode(g)
    lam, _ = find_lambda_star(phi, p, r)
    big = GridFunction(g, 3.0 * lam * phi.values)
    assert snapshot(big, p, r).J <= 0
    assert prop48_check(big, p, 4.0)  # nonpositive left side
    tiny = GridFunction(g, 1e-3 * phi.values)
    assert snapshot(tiny, p, r).J > 0
    assert not prop48_check(tiny, p, 4.0)
    with pytest.raises(ValueError, match="constant"):
        construct_high_energy_datum(30.0, p, r_const=p.p_plus, depth_upper=20.0)
    with pytest.raises(ValueError, match="exceed"):
        construct_high_energy_datum(10.0, p, r_const=4.0, depth_upper=20.0)


def test_high_energy_datum_pipeline(setting):
    _, p, r, _, dep = setting
    M = 10.0 * dep.upper
    u = construct_high_energy_datum(M, p, 4.0, dep.upper)
    s = snapshot(u, p, r)
    assert s.J == pytest.approx(M, rel=1e-6)
    assert prop48_check(u, p, 4.0)
    assert abs(integrate(u)) <= 1e-12 * (1 + np.abs(u.values).max())
    assert s.I < 0
    cfg = SolverConfig(dt_init=1e-7, t_end=1.0, blowup_threshold=1e4)
    traj = simulate(u, p, r, cfg)
    assert traj.outcome.kind == "BlowupDetected"


def test_high_energy_bisection_stops_at_rounding(monkeypatch):
    # the shipped high_energy datum: 32x32, its p, r = 4, M = 10 d_hat at seed 0;
    # the bisection ends once its midpoint no longer splits the bracket
    g = Grid((32, 32), (1.0, 1.0))
    p = build_field("affine:1.8+0.35x+0.35y", g)
    d_hat = 28.619535014580052
    calls = [0]
    ray_J = _Ray.J

    def counting(self, lam):
        calls[0] += 1
        return ray_J(self, lam)

    monkeypatch.setattr(_Ray, "J", counting)
    u = construct_high_energy_datum(10.0 * d_hat, p, 4.0, d_hat)
    assert snapshot(u, p, build_field(4.0, g)).J == pytest.approx(10.0 * d_hat, rel=1e-6)
    assert 0 < calls[0] <= 80


def test_thm53_envelope_cases():
    g = Grid((8, 8), (1.0, 1.0))
    p = build_field(2.5, g)
    r = build_field(1.5, g)
    with pytest.raises(ValueError):
        thm53_envelope(0.1, build_field(1.4, g), r, 0.3, 0.3)  # r_plus >= p_minus

    env_low = thm53_envelope(1e-4, p, r, B_hat=0.3, B0_hat=0.3)
    thr = env_low.constants["threshold"]
    assert np.all(env_low.eval(np.linspace(0, 5, 10)) == thr)

    env_alg = thm53_envelope(0.5, p, r, B_hat=0.3, B0_hat=0.3)
    assert env_alg.eval(0.0) == pytest.approx(0.5)
    t = np.linspace(0, 20, 50)
    assert np.all(np.diff(env_alg.eval(t)) < 0)

    p_low = build_field(1.9, g)
    env_exp = thm53_envelope(0.5, p_low, r, B_hat=0.3, B0_hat=0.3)
    assert env_exp.eval(0.0) == pytest.approx(0.5)
    t_short = np.linspace(0, 0.5, 50)  # before the exponential underflows
    assert np.all(np.diff(env_exp.eval(t_short)) < 0)
    assert np.all(np.diff(env_exp.eval(t)) <= 0)


def test_thm53_case_i_constant():
    # large B pushes M1 >= 1/2
    g = Grid((8, 8), (1.0, 1.0))
    p = build_field(2.5, g)
    r = build_field(1.5, g)
    env = thm53_envelope(0.1, p, r, B_hat=1.2, B0_hat=0.3)
    M1 = env.constants["M1"]
    assert M1 >= 0.5
    assert env.constants["threshold"] == pytest.approx((2 * M1) ** (2 / 2.5))


def test_thm53_envelope_passes_rk4_check():
    # one datum per branch of the comparison lemma; the ODE falsifier runs on
    # the lemma inputs that each bound records
    cases = thm53_lemma_cases()
    batch, branches = [], []
    for env, q in cases:
        bound, branch = ode_envelope(q)
        t = np.linspace(0.0, 12.0, 25)
        assert np.array_equal(env.eval(t), bound(t))
        batch.append(q)
        branches.append(branch)
    assert len(set(branches)) == len(cases)
    assert np.all(verify_batch(batch) <= 1e-6)


def test_thm54_bounds_pinch_and_limits():
    g = Grid((8, 8), (1.0, 1.0))
    p = build_field(2.5, g)
    r = build_field(1.5, g)
    G0, E0 = 0.04, -0.01
    lower, upper = thm54_bounds(G0, E0, p, r, B0_hat=0.3)
    assert lower.constants["omega_vol"] == g.volume == 1.0
    assert lower.eval(0.0) == pytest.approx(G0)
    assert upper.eval(0.0) == pytest.approx(G0)
    C5, C6, C7 = lower.constants["C5"], lower.constants["C6"], lower.constants["C7"]
    assert lower.eval(1e9) == pytest.approx(-2 * p.p_plus * E0 / C5)
    assert upper.eval(1e9) == pytest.approx((C7 / C6) ** (2 / (2 - r.p_plus)))
    assert lower.eval(1e9) > 0
    for bad in (
        dict(G0=G0, E0=0.01),
        dict(G0=G0, E0=E0, r_override=2.5),
    ):
        with pytest.raises(ValueError):
            if "r_override" in bad:
                thm54_bounds(G0, E0, p, build_field(bad["r_override"], g), 0.3)
            else:
                thm54_bounds(bad["G0"], bad["E0"], p, r, 0.3)


def test_verdict_serializable(setting):
    g, p, r, B, dep = setting
    u = GridFunction(g, 0.2 * mixed_mode(g).values)
    v = classify(snapshot(u, p, r), check_hypotheses(p, r), dep)
    d = dataclasses.asdict(v)
    assert d["certified"] is False
    assert "J0" in d["constants"] and "d_hat_upper" in d["constants"]
    assert any("sampled-max" in n for n in d["notes"])


def test_decided_verdicts_bracket_the_family_threshold():
    # global_2d.ini's family a v at 16 x 16 (its exponents and modes, v of
    # peak 1 and mean zero): the outcome switches once, at a*, bracketed by
    # 14 halvings of [5, 6] (5.223145-5.223206 at seed 0); every Global
    # verdict on a = 0.25, 0.5, ..., 16 lies below the bracket and every
    # Blowup verdict above it (highest Global 3.25, lowest Blowup 10.25)
    g = Grid((16, 16), (1.0, 1.0))
    p = build_field("affine:1.8+0.35x+0.35y", g)
    r = build_field("const:4.0", g)
    vals = sum(c * mode_field(g, ks).values for ks, c in (((1, 1), 1.0), ((2, 0), 0.3),
                                                          ((0, 1), 0.2)))
    v = project_mean_zero(GridFunction(g, vals / np.max(np.abs(vals)))).values
    cfg = SolverConfig(dt_init=1e-6, blowup_threshold=1e5, t_end=1.0)

    def blows_up(a: float) -> bool:
        kind = simulate(GridFunction(g, a * v), p, r, cfg).outcome.kind
        assert kind in (BLOWUP_DETECTED, GLOBAL_UNTIL_TEND), (a, kind)
        return kind == BLOWUP_DETECTED

    lo, hi = 5.0, 6.0
    assert not blows_up(lo) and blows_up(hi)
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if blows_up(mid) else (mid, hi)
    a_star = 0.5 * (lo + hi)

    depth = estimate_depth(p, r, seed=0)
    hyp = check_hypotheses(p, r)
    verdicts = {}
    for a in (0.25 * k for k in range(1, 65)):
        s0 = snapshot(GridFunction(g, a * v), p, r)
        radii = estimate_level_radii(depth, s0.J) if s0.J > depth.upper else None
        verdicts[a] = classify(s0, hyp, depth, level_radii=radii).prediction
    a_G = max(a for a, pred in verdicts.items() if pred == GLOBAL)
    a_B = min(a for a, pred in verdicts.items() if pred == BLOWUP)
    print(f"a* in [{lo:.6f}, {hi:.6f}]: a_G/a* = {a_G / a_star:.3f}, "
          f"a_B/a* = {a_B / a_star:.3f}")
    wrong = [(a, pred) for a, pred in verdicts.items()
             if (pred == GLOBAL and not a < lo) or (pred == BLOWUP and not a > hi)]
    assert not wrong, f"decided verdicts on the wrong side of a* in [{lo}, {hi}]: {wrong}"
