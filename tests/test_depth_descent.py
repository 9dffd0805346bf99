"""The depth descent against its earlier per-proposal loop, bit for bit, and
the buffers of the rays it runs on.

`_oracle_depth` is the earlier `estimate_depth` loop, kept here only as an
oracle: every proposal is a fresh `GridFunction` from the earlier draw (the
unit amplitude taken as exp(uniform(log 1, log 1)) and multiplied in), and
its own `find_lambda_star` call, with a fresh ray and errstate.  The descent
keeps every value and its order, so the estimate's upper bound and skipped
count must match exactly.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from pxwell.energy import _Ray, estimate_depth, find_lambda_star
from pxwell.exponents import build_field
from pxwell.grid import Grid, GridFunction, _minus_mean
from pxwell.witnesses import _KMAX, _mode_basis, witness_bank


def _oracle_perturb(w, rng, amp):
    _, basis = _mode_basis(w.grid, _KMAX)
    vals = (rng.normal(size=basis.shape[0]) @ basis).reshape(w.grid.shape)
    unit = np.exp(rng.uniform(np.log(1.0), np.log(1.0)))
    vals *= unit
    vals /= max(vals.max(), -vals.min())
    d = _minus_mean(w.grid, vals, out=vals)
    d *= amp
    d += w.values
    return GridFunction(w.grid, _minus_mean(w.grid, d, out=d))


def _oracle_descend(u, p, r, J_start, rng, steps):
    best, w = J_start, u
    scale = np.abs(w.values).max() or 1.0
    sigma, skipped = 0.3, 0
    for _ in range(steps):
        trial = _oracle_perturb(w, rng, sigma * scale)
        try:
            _, val = find_lambda_star(trial, p, r, threshold=best)
        except ValueError:
            skipped += 1
            sigma *= 0.8
            continue
        if val < best:
            best, w = val, trial
            scale = np.abs(w.values).max() or 1.0
        else:
            sigma *= 0.8
    return best, skipped


def _oracle_depth(grid, p, r, trials, seed, descent_steps):
    upper, skipped = np.inf, 0
    for i, (_, w) in enumerate(witness_bank(grid, seed, trials)):
        try:
            lam, val = find_lambda_star(w, p, r)
        except ValueError:
            skipped += 1
            continue
        rng = np.random.default_rng((seed, 0xDE5C, i))
        val, lost = _oracle_descend(GridFunction(grid, lam * w.values), p, r, val, rng,
                                    descent_steps)
        upper, skipped = min(upper, val), skipped + lost
    return float(upper), skipped


_GRIDS = {
    "1d40": (Grid((40,), (1.0,)), "affine:1.8+0.35x", "affine:3.4+0.4x"),
    "16x16": (Grid((16, 16), (1.0, 1.0)), "affine:1.8+0.35x+0.35y", "affine:3.4+0.4x+0.3y"),
    "12x9": (Grid((12, 9), (1.0, 0.75)), "affine:1.8+0.35x+0.35y", "affine:3.4+0.4x+0.3y"),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variable_r", [False, True], ids=["const-r", "variable-r"])
@pytest.mark.parametrize("name", list(_GRIDS))
def test_descent_matches_proposal_loop(name, variable_r, seed):
    grid, p_spec, r_spec = _GRIDS[name]
    p, r = build_field(p_spec, grid), build_field(r_spec if variable_r else "const:4.0", grid)
    depth = estimate_depth(grid, p, r, trials=4, seed=seed, descent_steps=20)
    assert (depth.upper, depth.skipped) == _oracle_depth(grid, p, r, 4, seed, 20)


def test_descent_matches_proposal_loop_near_critical_source():
    # p = 2 against r = 2.01: Nehari values near 1e197 and proposals whose
    # powers overflow, skipped alike by both loops
    grid = Grid((16, 16), (1.0, 1.0))
    p, r = build_field("const:2.0", grid), build_field("const:2.01", grid)
    depth = estimate_depth(grid, p, r, trials=4, seed=0, descent_steps=20)
    assert (depth.upper, depth.skipped) == _oracle_depth(grid, p, r, 4, 0, 20)
    assert (depth.upper, depth.skipped) == (6.856296577332696e+196, 9)


def test_depth_pinned_at_64():
    # global_2d's exponents on 64 x 64 at seed 0, with the shipped counts
    grid = Grid((64, 64), (1.0, 1.0))
    p, r = build_field("affine:1.8+0.35x+0.35y", grid), build_field("const:4.0", grid)
    depth = estimate_depth(grid, p, r, trials=24, seed=0, descent_steps=50)
    assert (depth.upper, depth.skipped) == (28.687066794522927, 0)


@pytest.mark.parametrize("name", list(_GRIDS))
def test_ray_powers_fill_its_buffers(name):
    # powers writes (lam |grad u|)^p and (lam |u|)^r into the ray's two
    # buffers, bit for bit, lam = 1 without the multiply included; load
    # takes other values in place
    grid, p_spec, r_spec = _GRIDS[name]
    p, r = build_field(p_spec, grid), build_field(r_spec, grid)
    rng = np.random.default_rng(7)
    u, v = (GridFunction(grid, rng.standard_normal(grid.shape)) for _ in range(2))
    ray = _Ray(u, p, r)
    for values in (u, v):
        if values is v:
            ray.load(v.values.reshape(-1))
        fresh = _Ray(values, p, r)
        assert np.array_equal(ray.gm, fresh.gm) and np.array_equal(ray.au, fresh.au)
        for lam in (1.0, 0.37, 2.5, np.nextafter(1.0, 2.0)):
            gp, sp = ray.powers(lam)
            assert gp is ray.gp and sp is ray.sp
            assert np.array_equal(gp, (lam * fresh.gm) ** p.values.ravel())
            assert np.array_equal(sp, (lam * fresh.au) ** r.values.ravel())


def test_depth_leaves_no_cyclic_garbage():
    # a descent makes no reference cycle: with the collector off, whatever
    # estimate_depth leaves unreachable is freed by reference counting alone
    grid = Grid((16, 16), (1.0, 1.0))
    p, r = build_field("affine:1.8+0.35x+0.35y", grid), build_field("const:4.0", grid)
    gc.collect()
    gc.disable()
    try:
        estimate_depth(grid, p, r, trials=4, seed=0, descent_steps=20)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(o) for o in gc.garbage if type(o).__module__.startswith("pxwell")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []
