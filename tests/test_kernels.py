"""The estimation kernels against the loop and bisection code they replaced.

The reference implementations below are the earlier per-mode witness loop and
the bisection root-finders, kept here only as oracles.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from conftest import random_gridfunction
from pxwell import norms
from pxwell.energy import _Ray, find_lambda_star
from pxwell.exponents import build_field
from pxwell.grid import Grid, GridFunction, _Kernel, cell_gradient_magnitude, project_mean_zero
from pxwell.norms import luxemburg_norm
from pxwell.witnesses import mode_catalogue, mode_field, perturb, random_field, witness_bank


def _mode_field_loop(grid, ks):
    vals = np.ones(grid.shape)
    coords = grid.centers()
    for axis, k in enumerate(ks):
        if k == 0:
            continue
        vals = vals * np.cos(k * np.pi * coords[axis] / grid.lengths[axis])
    return vals


def _random_field_loop(grid, rng, kmax=4, amp_range=(1e-1, 1e1)):
    vals = np.zeros(grid.shape)
    coords = grid.centers()
    for ks in product(*[range(kmax + 1)] * grid.dimension):
        if all(k == 0 for k in ks):
            continue
        term = np.full(grid.shape, rng.normal())
        for axis, k in enumerate(ks):
            if k:
                term = term * np.cos(k * np.pi * coords[axis] / grid.lengths[axis])
        vals += term
    lo, hi = amp_range
    amp = np.exp(rng.uniform(np.log(lo), np.log(hi)))
    scale = np.max(np.abs(vals))
    return project_mean_zero(GridFunction(grid, amp * vals / scale))


def _lambda_star_bisection(u, p, r, tol=1e-10):
    ray = _Ray(u, p, r)

    def modulars(lam):
        return ray._modulars(*ray.powers(lam))

    def nehari_gap(lam):
        g, s = modulars(lam)
        return g - s

    a, b = modulars(1.0)
    q = 1.0 / (r.p_minus - p.p_plus)
    lo = 0.9 * min(1.0, (a / b) ** q)
    while nehari_gap(lo) <= 0.0:
        lo *= 0.5
    hi = max(1.1, 1.1 * (a / b) ** q)
    while nehari_gap(hi) >= 0.0:
        hi *= 2.0
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        val = nehari_gap(lam)
        if abs(val) <= tol * modulars(lam)[0]:
            return lam
        if val > 0.0:
            lo = lam
        else:
            hi = lam
    raise AssertionError("reference bisection did not converge")


def _luxemburg_bisection(f, q, tol=1e-12):
    av, vol = np.abs(f.values), f.grid.cell_volume

    def rho(lam):
        return vol * float(np.sum((av / lam) ** q.values))

    lo, hi = sorted((rho(1.0) ** (1.0 / q.p_minus), rho(1.0) ** (1.0 / q.p_plus)))
    while rho(hi) > 1.0:
        hi *= 2.0
    while rho(lo) < 1.0:
        lo *= 0.5
    lam = 0.5 * (lo + hi)
    while abs(rho(lam) - 1.0) > tol and hi - lo > np.finfo(float).eps * lam:
        if rho(lam) > 1.0:
            lo = lam
        else:
            hi = lam
        lam = 0.5 * (lo + hi)
    return lam


GRIDS = [Grid((64,), (1.0,)), Grid((24, 16), (1.0, 2.0))]


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
@pytest.mark.parametrize("amp_range", [(1e-1, 1e1), (1.0, 1.0)])
def test_random_field_matches_mode_loop(grid, amp_range):
    rng_new, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(6):
        new = random_field(grid, rng_new, amp_range=amp_range).values
        ref = _random_field_loop(grid, rng_ref, amp_range=amp_range).values
        np.testing.assert_allclose(new, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))
    # same stream consumed, so later draws stay prefix-stable
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_perturb_is_a_unit_random_field_step(grid):
    # perturb draws as random_field at amplitude (1, 1) does, bit for bit
    rng_new, rng_ref = np.random.default_rng(12), np.random.default_rng(12)
    w = random_field(grid, np.random.default_rng(3))
    for amp in (0.3, 2.5e-3, np.float64(7.0)):
        new = perturb(w, rng_new, amp)
        noise = random_field(grid, rng_ref, amp_range=(1.0, 1.0))
        ref = project_mean_zero(GridFunction(grid, w.values + amp * noise.values))
        assert np.array_equal(new.values, ref.values)
        w = new
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def _cell_gradient_oracle(u):
    """Per-axis RMS of the two face differences, zero on outer faces."""
    mag2 = np.zeros(u.grid.shape)
    for axis, h in enumerate(u.grid.spacing):
        d = np.diff(u.values, axis=axis) / h
        pad = [(0, 0)] * u.grid.dimension
        pad[axis] = (1, 1)
        d2 = np.pad(d * d, pad)
        lo = [slice(None)] * u.grid.dimension
        hi = [slice(None)] * u.grid.dimension
        lo[axis], hi[axis] = slice(0, -1), slice(1, None)
        mag2 += 0.5 * (d2[tuple(lo)] + d2[tuple(hi)])
    return np.sqrt(mag2)


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_shared_face_scratch_between_rays_and_kernels(grid):
    # rays and kernels on one grid share its cached face arrays; each use
    # leaves the outer faces zero and no value that a later use reads
    rng = np.random.default_rng(13)
    p = build_field(2.5, grid)
    kernel = _Kernel(grid, p.values, 1e-8, build_field(4.0, grid).values)
    fields = [random_field(grid, rng) for _ in range(3)]
    rays = []
    for u in fields:
        kernel(rng.standard_normal(grid.shape))
        rays.append(_Ray(u, p, p))
        kernel.rhs(rng.standard_normal(grid.shape))
    for u, ray in zip(fields, rays):
        np.testing.assert_allclose(ray.gm.reshape(grid.shape), _cell_gradient_oracle(u),
                                   rtol=1e-14, atol=0.0)
        assert np.array_equal(cell_gradient_magnitude(u), ray.gm.reshape(grid.shape))


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_pure_modes_match_mode_loop(grid):
    for kmax in (2, 3, 6):
        cat = mode_catalogue(grid, kmax=kmax)
        modes = [ks for ks in product(range(kmax + 1), repeat=grid.dimension) if any(ks)]
        assert len(cat) == len(modes)
        for w, ks in zip(cat, modes):
            assert np.array_equal(w.values, _mode_field_loop(grid, ks))
    ks = (7,) if grid.dimension == 1 else (0, 9)
    assert np.array_equal(mode_field(grid, ks).values, _mode_field_loop(grid, ks))


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d"])
def test_witness_bank_catalogue_then_draws(grid):
    bank = witness_bank(grid, seed=5, n=7)
    cat = mode_catalogue(grid, kmax=2)
    assert [label for label, _ in bank] == (
        [f"mode{i}" for i in range(len(cat))] + [f"draw{i}" for i in range(7)])
    for (_, w), ref in zip(bank, cat):
        assert np.array_equal(w.values, ref.values)
    rng = np.random.default_rng(5)
    for _, w in bank[len(cat):]:
        assert np.array_equal(w.values, random_field(grid, rng).values)
    # prefix-stable: a longer bank starts with the shorter one
    longer = witness_bank(grid, seed=5, n=12)
    assert all(a == b and np.array_equal(v.values, w.values)
               for (a, v), (b, w) in zip(bank, longer))
    assert len(longer) == len(cat) + 12


def _nehari_witnesses(grid):
    rng = np.random.default_rng(4)
    return mode_catalogue(grid, kmax=2) + [random_field(grid, rng) for _ in range(32)]


@pytest.mark.parametrize("r_spec", ["const:4.0", "affine:3.4+0.4x+0.3y"])
def test_lambda_star_newton_vs_bisection(monkeypatch, r_spec):
    g = Grid((20, 20), (1.0, 1.0))
    p, r = build_field("affine:1.8+0.35x+0.35y", g), build_field(r_spec, g)
    calls, evaluations = [0], []
    powers = _Ray.powers

    def counting(self, lam):
        calls[0] += 1
        return powers(self, lam)

    monkeypatch.setattr(_Ray, "powers", counting)
    tol = 1e-10
    for w in _nehari_witnesses(g):
        calls[0] = 0
        lam, J_star = find_lambda_star(w, p, r, tol=tol)
        evaluations.append(calls[0])
        ray = _Ray(w, p, r)
        gmod, smod = ray._modulars(*ray.powers(lam))
        assert abs(gmod - smod) <= tol * gmod
        # the returned J(lambda*) is the separate ray evaluation, bit for bit
        assert J_star == _Ray(w, p, r).J(lam)
        assert lam == pytest.approx(_lambda_star_bisection(w, p, r, tol), rel=1e-9)
    assert max(evaluations) <= 8


def test_lambda_star_fails_loudly():
    g = Grid((20, 20), (1.0, 1.0))
    p, r = build_field("affine:1.8+0.1x+0.1y", g), build_field(4.0, g)
    w = random_field(g, np.random.default_rng(2))
    with pytest.raises(ValueError, match="not converged"):
        find_lambda_star(w, p, r, tol=1e-300)
    bad = w.values.copy()
    bad[3, 4] = np.nan
    with pytest.raises(ValueError, match="degenerate"):
        find_lambda_star(GridFunction(g, bad), p, r)


def _norm_cases():
    g1 = Grid((64,), (1.0,))
    g2 = Grid((24, 24), (1.0, 1.0))
    rng = np.random.default_rng(6)
    yield random_gridfunction(g1, rng), build_field("affine:1.5+1.0x", g1)
    yield random_gridfunction(g1, rng, amp=1e3), build_field("affine:1.2+2.5x", g1)
    yield random_gridfunction(g1, rng, amp=1e-4), build_field(3.0, g1)
    for w in _nehari_witnesses(g2)[::6]:
        yield (GridFunction(g2, cell_gradient_magnitude(w)),
               build_field("affine:1.8+0.35x+0.35y", g2))


def test_luxemburg_newton_vs_bisection():
    for f, q in _norm_cases():
        nr = luxemburg_norm(f, q)
        assert nr.value == pytest.approx(_luxemburg_bisection(f, q), rel=1e-11)
        rho = f.grid.cell_volume * np.sum((np.abs(f.values) / nr.value) ** q.values)
        assert nr.residual <= 1e-12
        assert nr.residual == pytest.approx(abs(rho - 1.0), abs=1e-15)
        assert nr.iterations <= 8


def test_luxemburg_rounding_floor_and_cap(monkeypatch):
    f, q = next(_norm_cases())
    floor = luxemburg_norm(f, q, tol=1e-300)
    rho = f.grid.cell_volume * np.sum((np.abs(f.values) / floor.value) ** q.values)
    assert floor.residual == pytest.approx(abs(rho - 1.0), abs=1e-15)
    assert floor.value == pytest.approx(luxemburg_norm(f, q).value, rel=1e-12)
    monkeypatch.setattr(norms, "_MAX_NORM_EVALS", 2)
    with pytest.raises(ValueError, match="not converged"):
        luxemburg_norm(f, q)
