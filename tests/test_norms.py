from __future__ import annotations

import numpy as np
import pytest

from conftest import mixed_mode, random_exponent, random_gridfunction
from oracles import modular
from pxwell import norms
from pxwell.exponents import build_field
from pxwell.grid import Grid, GridFunction, cell_gradient_magnitude
from pxwell.norms import (
    NormResult,
    estimate_embedding,
    estimate_gn_constant,
    gn_theta,
    gradient_norm,
    luxemburg_norm,
)
from pxwell.witnesses import witness_bank


def test_modular_trivials(grid1d):
    q2 = build_field(2.0, grid1d)
    assert modular(GridFunction(grid1d, np.ones(64)), q2) == pytest.approx(1.0)
    assert modular(GridFunction(grid1d, np.zeros(64)), q2) == 0.0


def test_modular_closed_form_oracle():
    # int_0^1 2^{1+x} dx = 2/ln 2, midpoint error O(h^2)
    g = Grid((2048,), (1.0,))
    q = build_field("affine:1.0+1.0x", g)
    val = modular(GridFunction(g, np.full(2048, 2.0)), q)
    exact = 2.0 / np.log(2.0)
    assert val == pytest.approx(exact, abs=5.0 / 2048**2)


def test_luxemburg_constant_exponent_reduction():
    rng = np.random.default_rng(11)
    for n, pexp in ((16, 2.0), (64, 3.0), (40, 1.5)):
        g = Grid((n,), (1.0,))
        f = random_gridfunction(g, rng, amp=rng.uniform(0.1, 10))
        q = build_field(pexp, g)
        nr = luxemburg_norm(f, q)
        expected = modular(f, q) ** (1.0 / pexp)
        assert nr.value == pytest.approx(expected, rel=1e-10)
        assert nr.residual <= 1e-12 or nr.value == 0.0


def test_luxemburg_variable_exponent_oracle():
    # independent fine-grid bisection oracle at 10x resolution
    g = Grid((128,), (1.0,))
    q = build_field("affine:1.0+1.0x", g)
    f = GridFunction(g, np.full(128, 2.0))
    nr = luxemburg_norm(f, q)

    gf = Grid((1280,), (1.0,))
    xf = gf.axis_centers(0)
    qf = 1.0 + xf

    def fine_modular(lam):
        return float(np.mean((2.0 / lam) ** qf))

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fine_modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert nr.value == pytest.approx(oracle, rel=1e-4)  # quadrature-level agreement
    assert abs(fine_modular(nr.value) - 1.0) < 1e-3


def _luxemburg_reference(f, q, tol=1e-12):
    """The Newton loop as it was written before it reduced each modular once
    and summed by exponent levels: every iterate raises every cell, kept as
    an oracle for luxemburg_norm."""
    av = np.abs(f.values).ravel()
    if not np.any(av):
        return NormResult(0.0, 0, 0.0)
    qv = q.values.ravel()
    vol = f.grid.cell_volume
    lam = 1.0
    w = av**qv
    rho = vol * float(np.sum(w))
    lo, hi = sorted((rho ** (1.0 / q.p_minus), rho ** (1.0 / q.p_plus)))
    lo, hi = 0.5 * lo, 2.0 * hi
    for evaluations in range(1, 201):
        res = rho - 1.0
        if abs(res) <= tol:
            return NormResult(float(lam), evaluations, abs(res))
        if res > 0.0:
            lo = lam
        else:
            hi = lam
        nxt = float("nan")
        if rho > 0.0:
            nxt = lam * float(np.exp(np.log(rho) * np.sum(w) / np.dot(qv, w)))
        if nxt == lam or hi - lo <= np.finfo(float).eps * lam:
            return NormResult(float(lam), evaluations, abs(res))
        lam = nxt if lo < nxt < hi else float(np.sqrt(lo * hi))
        w = (av / lam) ** qv
        rho = vol * float(np.sum(w))
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("seed", [0, 1])
def test_luxemburg_matches_reference_loop(seed):
    # |grad w| in L^{p(x)} with global_2d's p and w in L^4, over the 16x16
    # bank: the level sums round apart from the per-cell sums, so the value
    # is the reference's to 1e-14 relative, not bit for bit, with the same
    # evaluation count, a residual within tol and a modular within tol of 1
    g = Grid((16, 16), (1.0, 1.0))
    p = build_field("affine:1.8+0.35x+0.35y", g)
    r = build_field(4.0, g)
    tol = 1e-12
    for _, w in witness_bank(g, seed, 24):
        for f, q in ((GridFunction(g, cell_gradient_magnitude(w)), p), (w, r)):
            before = f.values.copy()
            nr, ref = luxemburg_norm(f, q, tol), _luxemburg_reference(f, q, tol)
            assert nr.iterations == ref.iterations
            assert nr.value == pytest.approx(ref.value, rel=1e-14, abs=0.0)
            assert nr.residual <= tol
            assert abs(modular(GridFunction(g, f.values / nr.value), q) - 1.0) <= tol
            assert np.array_equal(f.values, before)


@pytest.mark.parametrize("spec, scale, value", [
    ("affine:2.0+0.5x", 1e-150, 9.559368081711894e-151),
    ("affine:2.0+8.0x", 1e-35, 1.3421243872810773e-35),
])
def test_luxemburg_of_tiny_fields(spec, scale, value):
    # |f|^q of the upper levels underflows, and lambda^-q overflows near the
    # root: the level sums, prescaled by a power of two, still give the
    # per-cell loop's norm in as many evaluations
    g = Grid((8, 8), (1.0, 1.0))
    q = build_field(spec, g)
    f = GridFunction(g, scale * np.random.default_rng(0).standard_normal(g.shape))
    nr, ref = luxemburg_norm(f, q), _luxemburg_reference(f, q)
    assert ref.value == value
    assert nr.iterations == ref.iterations and nr.residual <= 1e-12
    assert nr.value == pytest.approx(value, rel=1e-14, abs=0.0)


def test_luxemburg_zero_and_nonfinite(grid1d):
    q = build_field(2.0, grid1d)
    nr = luxemburg_norm(GridFunction(grid1d, np.zeros(64)), q)
    assert nr.value == 0.0
    bad = GridFunction(grid1d, np.full(64, np.inf))
    with pytest.raises(ValueError):
        luxemburg_norm(bad, q)


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
def test_luxemburg_refuses_a_tolerance_that_is_not_positive_and_finite(grid1d, tol):
    # at tol = inf the first iterate, lambda = 1, passed with a residual of
    # 0.054 on this field, and a NaN tol ran until the Newton step shrank to
    # rounding
    f = random_gridfunction(grid1d, np.random.default_rng(2))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        luxemburg_norm(f, build_field(2.0, grid1d), tol=tol)


def test_luxemburg_homogeneity(grid1d):
    rng = np.random.default_rng(2)
    q = random_exponent(grid1d, rng)
    f = random_gridfunction(grid1d, rng)
    tol = 1e-12
    base = luxemburg_norm(f, q, tol=tol).value
    for c in (0.01, 0.5, 3.0, 250.0):
        scaled = luxemburg_norm(GridFunction(grid1d, c * f.values), q, tol=tol).value
        assert scaled == pytest.approx(c * base, rel=1e-11)


def test_modular_monotone_in_lambda(grid1d):
    rng = np.random.default_rng(3)
    q = random_exponent(grid1d, rng)
    f = random_gridfunction(grid1d, rng)
    lams = np.geomspace(0.1, 10, 20)
    vals = [modular(GridFunction(grid1d, f.values / lam), q) for lam in lams]
    assert np.all(np.diff(vals) < 0)


def test_unit_ball_relations_random():
    # rho - 1 and ||f|| - 1 agree in sign, and rho lies between ||f||^{q_minus}
    # and ||f||^{q_plus}, to round-off
    rng = np.random.default_rng(4)
    band = 1e-9
    for _ in range(50):
        n = int(rng.integers(8, 64))
        g = Grid((n,), (float(rng.uniform(0.5, 2.0)),))
        f = random_gridfunction(g, rng, amp=float(rng.uniform(0.05, 20)))
        q = random_exponent(g, rng)
        norm, rho = luxemburg_norm(f, q).value, modular(f, q)
        if abs(norm - 1.0) > band:
            assert (rho > 1.0) == (norm > 1.0)
        else:
            assert abs(rho - 1.0) <= q.p_plus * band
        lo, hi = sorted((norm**q.p_minus, norm**q.p_plus))
        assert (lo - rho) / rho <= 1e-10 and (rho - hi) / rho <= 1e-10


def test_unit_ball_forced_unit_norm(grid1d):
    rng = np.random.default_rng(5)
    q = random_exponent(grid1d, rng)
    f = random_gridfunction(grid1d, rng)
    unit = GridFunction(grid1d, f.values / luxemburg_norm(f, q).value)
    assert modular(unit, q) == pytest.approx(1.0, abs=1e-10)


def test_embedding_1d_p2_rayleigh_oracle():
    # discrete Neumann spectrum oracle built from the package's own operators
    from pxwell.exponents import build_field as bf
    from pxwell.grid import px_flux_divergence

    n = 48
    g = Grid((n,), (1.0,))
    p2 = bf(2.0, g)
    A = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[:, j] = -px_flux_divergence(GridFunction(g, e), p2, 0.0).values
    evals = np.linalg.eigvalsh(0.5 * (A + A.T))
    lam1 = np.sort(evals)[1]  # first nonzero Neumann eigenvalue
    optimum = 1.0 / np.sqrt(lam1)

    est = estimate_embedding(p2, "L2", trials=8, seed=9)
    assert est.constant <= optimum * (1 + 1e-9)
    assert est.constant >= 0.95 / np.pi
    assert abs(optimum - 1.0 / np.pi) < 1e-3


@pytest.mark.parametrize("cells, lengths", [((16, 16), (2.0, 2.0)), ((9, 9), (1.0, 1.0))])
def test_embedding_rejects_target_off_p_grid(cells, lengths):
    p = build_field("affine:1.8+0.35x+0.35y", Grid((16, 16), (1.0, 1.0)))
    r = build_field("affine:4.0+0.5x", Grid(cells, lengths), label="r")
    with pytest.raises(ValueError, match="share one grid"):
        estimate_embedding(p, r, seed=1)


def test_embedding_monotone_in_trials():
    g = Grid((16, 16), (1.0, 1.0))
    p = build_field("affine:1.8+0.35x+0.35y", g)
    c1 = estimate_embedding(p, "L2", trials=4, seed=7, ascent_steps=0).constant
    c2 = estimate_embedding(p, "L2", trials=8, seed=7, ascent_steps=0).constant
    c3 = estimate_embedding(p, "L2", trials=16, seed=7, ascent_steps=0).constant
    assert c1 <= c2 <= c3


def test_best_quotient_keeps_the_first_of_a_rounding_tie():
    # modes (1,0) and (0,1) tie in exact arithmetic on a square, and a
    # last-bit change of a norm used to trade them: a quotient 4e-16 above
    # the incumbent does not replace it, and the best is still the first
    g = Grid((8, 8), (1.0, 1.0))
    bank = [(ident, GridFunction(g, np.zeros(g.shape))) for ident in ("a", "b", "c")]
    quotients = {"a": 1.0, "b": 1.0 + 4e-16, "c": 0.5}
    by_id = {id(w): quotients[ident] for ident, w in bank}
    best, w, ident = norms._best_quotient(bank, lambda w: by_id[id(w)])
    assert (best, ident) == (1.0, "a") and w is bank[0][1]
    # a margin of 1e-12 relative: a quotient past it still wins
    quotients["b"] = 1.0 + 1e-11
    by_id = {id(w): quotients[ident] for ident, w in bank}
    assert norms._best_quotient(bank, lambda w: by_id[id(w)])[2] == "b"


def test_gn_theta_examples():
    assert gn_theta(1.8, 4.0, 2) == pytest.approx(0.5625)
    assert gn_theta(1.5, 3.0, 2) == pytest.approx(0.5)
    assert gn_theta(2.0, 2.0, 2) == 0.0  # boundary: flagged by consumers


def test_gn_constant_rejects_degenerate_theta():
    g = Grid((8, 8), (1.0, 1.0))
    p = build_field(2.0, g)
    r2 = build_field(2.0, g)
    with pytest.raises(ValueError, match="outside"):
        estimate_gn_constant(p, r2)


def test_gn_constant_bounds_witnesses():
    g = Grid((12, 12), (1.0, 1.0))
    p = build_field("affine:1.8+0.1x+0.1y", g)
    r = build_field(4.0, g)
    est = estimate_gn_constant(p, r, trials=6, seed=1)
    assert est.kind == "Ctilde" and est.theta is not None and 0 < est.theta < 1
    assert est.constant > 0


@pytest.mark.parametrize("entry", [luxemburg_norm, gradient_norm])
def test_norms_reject_exponent_off_field_grid(entry):
    # q of equal shape on a larger square would be read cell by cell on f's
    # grid; gradient_norm reaches the check through luxemburg_norm
    f = mixed_mode(Grid((16, 16), (1.0, 1.0)))
    q = build_field("affine:1.8+0.35x+0.35y", Grid((16, 16), (2.0, 2.0)))
    with pytest.raises(ValueError, match="share one grid"):
        entry(f, q)
