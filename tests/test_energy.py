from __future__ import annotations

import numpy as np
import pytest

from conftest import fail_lambda_star_calls, mixed_mode, random_gridfunction
from pxwell.energy import (
    _Ray,
    estimate_depth,
    estimate_level_radii,
    depth_lower_formula,
    find_lambda_star,
    snapshot,
)
from pxwell.exponents import build_field
from pxwell.grid import Grid, GridFunction, cell_gradient_magnitude, project_mean_zero
from pxwell.norms import estimate_embedding


@pytest.fixture(scope="module")
def pw():
    g = Grid((20, 20), (1.0, 1.0))
    return g, build_field("affine:1.8+0.1x+0.1y", g), build_field(4.0, g)


def test_snapshot_zero(pw):
    g, p, r = pw
    s = snapshot(GridFunction(g, np.zeros(g.shape)), p, r)
    assert s.J == 0.0 and s.I == 0.0 and s.l2sq == 0.0
    assert np.isnan(s.delta0)


def test_ray_energy_at_zero_scaling_is_zero(pw):
    # 0^p = 0 for every exponent p > 1, so J(0 u) is exactly 0 with no case
    # of its own
    g, p, r = pw
    assert _Ray(mixed_mode(g), p, r).J(0.0) == 0.0


def test_snapshot_direct_summation_oracle():
    g = Grid((16,), (1.0,))
    rng = np.random.default_rng(0)
    u = project_mean_zero(random_gridfunction(g, rng))
    p2, r4 = build_field(2.0, g), build_field(4.0, g)
    s = snapshot(u, p2, r4)
    h = g.spacing[0]
    gm = cell_gradient_magnitude(u)
    J_direct = h * (0.5 * np.sum(gm**2) - 0.25 * np.sum(u.values**4))
    I_direct = h * (np.sum(gm**2) - np.sum(u.values**4))
    assert s.J == pytest.approx(J_direct, rel=1e-13)
    assert s.I == pytest.approx(I_direct, rel=1e-13)
    assert s.delta0 == pytest.approx(s.source_modular / s.grad_modular)


def test_ray_profile_constant_exponents_power_law(pw):
    # along the ray {lam u}, constant exponents make I and J polynomials in lam
    g, _, r = pw
    p2 = build_field(2.0, g)
    u = mixed_mode(g)
    s = snapshot(u, p2, r)
    a, b = s.grad_modular, s.source_modular
    for lam in (0.0, 0.3, 1.0, 2.2):
        s_lam = snapshot(GridFunction(g, lam * u.values), p2, r)
        I, J = s_lam.I, s_lam.J
        assert I == pytest.approx(lam**2 * a - lam**4 * b, rel=1e-12, abs=1e-14)
        assert J == pytest.approx(lam**2 * a / 2 - lam**4 * b / 4, rel=1e-12, abs=1e-14)


def test_ray_profile_variable_p_lower_bound(pw):
    # I(lam u) >= lam^{p_plus} a - lam^{r_minus} b for lam < 1
    g, p, r = pw
    u = mixed_mode(g)
    s = snapshot(u, p, r)
    a, b = s.grad_modular, s.source_modular
    for lam in (0.1, 0.4, 0.7, 0.95):
        I = snapshot(GridFunction(g, lam * u.values), p, r).I
        assert I >= lam**p.p_plus * a - lam**r.p_minus * b - 1e-12


def test_lambda_star_analytic_roots():
    g = Grid((24, 24), (1.0, 1.0))
    p2, r4 = build_field(2.0, g), build_field(4.0, g)
    u = mixed_mode(g)
    s = snapshot(u, p2, r4)
    a, b = s.grad_modular, s.source_modular
    lam, _ = find_lambda_star(u, p2, r4)
    assert lam == pytest.approx(np.sqrt(a / b), rel=1e-9)
    # rescale so a = b: root at 1
    c = np.sqrt(a / b)
    balanced = GridFunction(g, c * u.values)
    assert find_lambda_star(balanced, p2, r4)[0] == pytest.approx(1.0, rel=1e-9)
    # a Nehari point maps to itself
    on_manifold = GridFunction(g, lam * u.values)
    assert find_lambda_star(on_manifold, p2, r4)[0] == pytest.approx(1.0, rel=1e-8)


def test_lambda_star_preconditions(pw):
    g, p, r = pw
    with pytest.raises(ValueError, match="degenerate"):
        find_lambda_star(GridFunction(g, np.zeros(g.shape)), p, r)
    with pytest.raises(ValueError, match="r_minus > p_plus"):
        find_lambda_star(mixed_mode(g), p, build_field(1.5, g))


def test_depth_lower_formula_at_unit_B():
    g = Grid((8,), (1.0,))
    p2, r4 = build_field(2.0, g), build_field(4.0, g)
    assert depth_lower_formula(p2, r4, 1.0) == pytest.approx(0.25)


def test_depth_estimate_positive_and_monotone(pw):
    _, p, r = pw
    B = estimate_embedding(p, r, trials=4, seed=1, ascent_steps=0)
    d1 = estimate_depth(p, r, trials=2, seed=3, B_est=B)
    d2 = estimate_depth(p, r, trials=4, seed=3, B_est=B)
    assert d1.upper > 0 and d2.upper > 0
    assert d2.upper <= d1.upper  # min over a superset of candidates
    assert d1.lower_formula == pytest.approx(depth_lower_formula(p, r, B.constant))
    assert d1.B_used == B.ident


@pytest.mark.parametrize("cells, lengths", [((16, 16), (2.0, 2.0)), ((9, 9), (1.0, 1.0))])
def test_depth_rejects_r_off_p_grid(cells, lengths):
    # an r of equal shape on a larger square would be read cell by cell on
    # p's grid; an r of another shape would leave no Nehari point
    p = build_field("affine:1.8+0.35x+0.35y", Grid((16, 16), (1.0, 1.0)))
    r = build_field("affine:4.0+0.5x", Grid(cells, lengths), label="r")
    with pytest.raises(ValueError, match="share one grid"):
        estimate_depth(p, r, seed=1)


def test_nehari_energy_identity(pw):
    # on the manifold J >= (r_minus - p_plus)/(p_plus r_minus) * grad modular
    g, p, r = pw
    rng = np.random.default_rng(8)
    coeff = (r.p_minus - p.p_plus) / (p.p_plus * r.p_minus)
    for _ in range(6):
        w = random_gridfunction(g, rng)
        w = project_mean_zero(w)
        lam, _ = find_lambda_star(w, p, r)
        s = snapshot(GridFunction(g, lam * w.values), p, r)
        assert s.J >= coeff * s.grad_modular - 1e-8 * (1 + abs(s.J))


def test_bounded_slice_identity(pw):
    # every sampled point of {J <= s, I > 0} has grad modular < s p+ r-/(r- - p+)
    from pxwell.witnesses import random_field

    g, p, r = pw
    rng = np.random.default_rng(9)
    s_level = 60.0
    bound = s_level * p.p_plus * r.p_minus / (r.p_minus - p.p_plus)
    found = 0
    for _ in range(40):
        w = random_field(g, rng, amp_range=(0.05, 2.0))
        snap = snapshot(w, p, r)
        if snap.I > 0 and snap.J <= s_level:
            found += 1
            assert snap.grad_modular < bound
    assert found > 5


def test_level_radii(pw):
    _, p, r = pw
    B = estimate_embedding(p, r, trials=4, seed=1, ascent_steps=0)
    dep = estimate_depth(p, r, trials=4, seed=0, B_est=B)
    s1 = 3.0 * dep.upper
    s2 = 9.0 * dep.upper
    r1 = estimate_level_radii(dep, s1)
    r2 = estimate_level_radii(dep, s2)
    assert 0 < r1.lambda_s <= r1.Lambda_s
    # nested samples: weaker level keeps a superset
    assert r2.lambda_s <= r1.lambda_s
    assert r2.Lambda_s >= r1.Lambda_s
    assert 1 <= r1.kept <= r2.kept
    # above the depth the point that gives it is kept, so lambda_s is at most
    # its norm
    (best_norm,) = {norm for J, norm in dep.nehari_points if J == dep.upper}
    assert r1.lambda_s <= best_norm
    assert estimate_level_radii(dep, np.nextafter(dep.upper, np.inf)).lambda_s == best_norm
    with pytest.raises(ValueError, match="exceed"):
        estimate_level_radii(dep, 0.5 * dep.upper)
    with pytest.raises(ValueError, match="exceed"):
        estimate_level_radii(dep, dep.upper)


def test_skipped_witnesses_counted(pw, monkeypatch):
    _, p, r = pw
    clean = estimate_depth(p, r, trials=2, seed=3)
    assert clean.skipped == 0
    # a Nehari point for each of the 8 catalogue witnesses and 2 draws, and
    # one for the end of each draw's descent
    assert len(clean.nehari_points) == 8 + 2 + 2
    # calls 0 and 1 are catalogue witnesses, call 9 a descent step: a failed
    # step is a backtrack, not a skipped witness
    fail_lambda_star_calls(monkeypatch, {0, 1, 9})
    failed = estimate_depth(p, r, trials=2, seed=3)
    assert failed.skipped == 2 and failed.backtracks >= 1
    # each skipped witness adds no point, and the other catalogue points are
    # those of the clean run
    assert len(failed.nehari_points) == len(clean.nehari_points) - 2
    assert failed.nehari_points[:6] == clean.nehari_points[2:8]


def test_depth_upper_vs_single_mode(pw):
    # descent should do no worse than the best raw candidate
    g, p, r = pw
    u = mixed_mode(g)
    lam, _ = find_lambda_star(u, p, r)
    J_mode = snapshot(GridFunction(g, lam * u.values), p, r).J
    dep = estimate_depth(p, r, trials=4, seed=0)
    assert dep.upper <= J_mode + 1e-9


# p = 2 against r just above 2: the lambda* bracket (a/b)^(1/(r - 2)) of the
# (8, 8) mode overflows at r = 2.005, and at r = 2.01 the powers overflow
# near its Nehari point; pytest turns any numpy warning into an error
def test_lambda_star_overflow_is_a_value_error():
    from pxwell.witnesses import mode_field

    g = Grid((32, 32), (1.0, 1.0))
    p = build_field("const:2.0", g)
    w = mode_field(g, (8, 8))
    with pytest.raises(ValueError, match="bracket out of range"):
        find_lambda_star(w, p, build_field("const:2.005", g))
    with pytest.raises(ValueError, match="not converged"):
        find_lambda_star(w, p, build_field("const:2.01", g))


def test_depth_skips_overflowing_witnesses(monkeypatch):
    # on a 3 x 3 square the (1, 0) mode's modular ratio is near 1, so its
    # Nehari point is representable, while the (8, 8) bracket overflows
    from pxwell import energy
    from pxwell.witnesses import mode_field

    g = Grid((32, 32), (3.0, 3.0))
    p, r = build_field("const:2.0", g), build_field("const:2.005", g)
    bank = [("low", mode_field(g, (1, 0))), ("high", mode_field(g, (8, 8)))]
    monkeypatch.setattr(energy, "witness_bank", lambda grid, seed, n: bank)
    depth = estimate_depth(p, r, trials=0, seed=0)
    assert depth.skipped == 1
    assert depth.upper == find_lambda_star(bank[0][1], p, r)[1]
    monkeypatch.undo()
    # on the unit square every bank witness fails, and the estimate says so
    g = Grid((32, 32), (1.0, 1.0))
    with pytest.raises(ValueError, match="no admissible witness"):
        estimate_depth(build_field("const:2.0", g), build_field("const:2.005", g), seed=0)


def test_depth_near_critical_source_is_warning_free():
    g = Grid((32, 32), (1.0, 1.0))
    depth = estimate_depth(build_field("const:2.0", g), build_field("const:2.01", g), seed=0)
    assert 0.0 < depth.upper < np.inf and depth.skipped > 0


@pytest.mark.parametrize("entry", [snapshot, find_lambda_star])
def test_ray_entries_reject_exponents_off_u_grid(entry):
    # p and r of equal shape on a larger square would be read cell by cell
    # on u's grid: J and lambda* came out different, without an error
    u = mixed_mode(Grid((16, 16), (1.0, 1.0)))
    side2 = Grid((16, 16), (2.0, 2.0))
    p = build_field("affine:1.8+0.35x+0.35y", side2)
    with pytest.raises(ValueError, match="share one grid"):
        entry(u, p, build_field(4.0, side2, label="r"))
