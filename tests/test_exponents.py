from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pxwell
from pxwell.exponents import build_field, check_hypotheses, check_log_holder
from pxwell.grid import Grid


def test_constant_field():
    g = Grid((5, 7), (1.0, 1.0))
    f = build_field(2.0, g)
    assert f.p_minus == f.p_plus == 2.0


def test_affine_extrema_at_corners():
    g = Grid((4, 4), (1.0, 1.0))
    f = build_field("affine:1.8+0.35x+0.35y", g)
    x, y = g.centers()
    direct = 1.8 + 0.35 * x + 0.35 * y
    assert np.array_equal(f.values, direct)
    assert f.p_minus == direct[0, 0]
    assert f.p_plus == direct[-1, -1]


def test_sin_spec():
    g = Grid((32,), (1.0,))
    f = build_field("sin:2.0+0.3*sin(2pix)", g)
    x = g.axis_centers(0)
    assert np.allclose(f.values, 2.0 + 0.3 * np.sin(2 * np.pi * x))


def test_rejects_inadmissible():
    g = Grid((4,), (1.0,))
    with pytest.raises(ValueError, match="exceed 1"):
        build_field(1.0, g)
    with pytest.raises(ValueError, match="cell"):
        build_field("affine:1.05+-0.5x", g)  # dips below 1 on the right
    with pytest.raises(ValueError):
        build_field("garbage:2", g)


def test_tabulated_field():
    g = Grid((3, 2), (1.0, 1.0))
    vals = np.array([[1.5, 2.0], [2.5, 3.0], [3.5, 4.0]])
    f = build_field(vals, g, label="r")
    assert f.p_minus == 1.5 and f.p_plus == 4.0 and f.label == "r"


def test_log_holder_constant_zero():
    g = Grid((16,), (1.0,))
    (rep,) = check_log_holder(build_field(2.0, g))
    assert rep.max_log_modulus == 0.0 and rep.passes


def test_log_holder_lipschitz_bounded():
    # |q(x)-q(y)| = |x-y| so the modulus is s ln(1/s) <= 1/e
    g = Grid((48,), (1.0,))
    (rep,) = check_log_holder(build_field("affine:2.0+1.0x", g))
    assert rep.passes
    assert rep.max_log_modulus <= 1.0 / np.e + 1e-12
    assert rep.pairs_checked > 0


def test_log_holder_jump_fails_on_fine_grids():
    def steep(x):
        return 2.5 + 1.2 * np.tanh((x - 0.5) / 1e-4)

    coarse_grid = Grid((16,), (1.0,))
    (coarse,) = check_log_holder(build_field(steep(*coarse_grid.centers()), coarse_grid))
    fine_grid = Grid((512,), (1.0,))
    fine_field = build_field(steep(*fine_grid.centers()), fine_grid)
    (fine,) = check_log_holder(fine_field)
    # adjacent cells straddle the jump: modulus ~ 2.4 ln(n)
    h = fine_grid.spacing[0]
    q = fine_field.values
    jumps = np.abs(np.diff(q)) * np.log(1.0 / h)
    assert fine.max_log_modulus >= jumps.max() - 1e-12
    assert not fine.passes
    assert coarse.max_log_modulus < fine.max_log_modulus


def test_log_holder_refinement_monotone():
    # nested cell centers under factor-3 refinement, exhaustive pairs
    def q(x):
        return 2.0 + 0.8 * np.sin(3 * np.pi * x)

    vals = []
    for n in (6, 18, 54):
        g = Grid((n,), (1.0,))
        (rep,) = check_log_holder(build_field(q(*g.centers()), g), pair_budget=10**6)
        vals.append(rep.max_log_modulus)
    assert vals[0] <= vals[1] <= vals[2]


def test_hypotheses_examples():
    g = Grid((8, 8), (1.0, 1.0))
    x, y = g.centers()
    p = build_field(1.8 + 0.1 * (x + y) / 2, g)
    r = build_field(4.0, g)
    rep = check_hypotheses(p, r)
    assert rep.condition_H
    assert not rep.r_plus_below_p_minus
    assert rep.critical_sobolev == pytest.approx(2 * p.p_minus / (2 - p.p_minus))

    rep2 = check_hypotheses(build_field(2.5, g), build_field(1.5, g))
    assert not rep2.condition_H
    assert rep2.r_plus_below_p_minus
    assert rep2.thm54_regime

    g1 = Grid((8,), (1.0,))
    rep3 = check_hypotheses(build_field(1.5, g1), build_field(4.0, g1))
    assert not rep3.condition_H  # p_minus < N impossible with p > 1, N = 1


@pytest.mark.parametrize("cells, p_minus", [((8, 8), 2.0), ((8, 8), 2.5), ((8,), 1.5)])
def test_critical_exponent_undefined_without_p_minus_below_N(cells, p_minus):
    # with p_minus >= N the critical Sobolev exponent does not exist: its row
    # holds NaN and fails, and the report has no critical exponent
    g = Grid(cells, (1.0,) * len(cells))
    rep = check_hypotheses(build_field(p_minus, g), build_field(4.0, g))
    rows = {row[0]: row for row in rep.details}
    _, r_plus, crit, ok = rows["r_plus <= N p_minus/(N - p_minus)"]
    assert r_plus == 4.0 and np.isnan(crit) and ok is False
    assert rep.critical_sobolev is None
    assert not rep.condition_H


def test_hypotheses_monotone_in_r():
    g = Grid((8,), (1.0,))
    p = build_field(2.5, g)
    rng = np.random.default_rng(0)
    for _ in range(20):
        base = 1.1 + rng.uniform(0, 2)
        bump = rng.uniform(0, 1)
        r_low = build_field(base, g)
        r_high = build_field(base + bump, g)
        low = check_hypotheses(p, r_low).r_plus_below_p_minus
        high = check_hypotheses(p, r_high).r_plus_below_p_minus
        assert low or not high  # raising r cannot flip false -> true


def _log_holder_set_loop(field, pair_budget=20000, cap=10.0, seed=0):
    """The pair selection as a Python set of (a, b) tuples, kept as an oracle
    for the integer-key selection in check_log_holder."""
    grid = field.grid
    pts = np.stack([c.ravel() for c in grid.centers()], axis=1)
    q = field.values.ravel()
    n = q.size
    pairs = set()
    idx = np.arange(n).reshape(grid.shape)
    for axis in range(grid.dimension):
        lo = [slice(None)] * grid.dimension
        hi = [slice(None)] * grid.dimension
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        for a, b in zip(idx[tuple(lo)].ravel(), idx[tuple(hi)].ravel()):
            pairs.add((int(a), int(b)))
    if n * (n - 1) // 2 <= pair_budget:
        ii, jj = np.triu_indices(n, k=1)
        pairs.update(zip(ii.tolist(), jj.tolist()))
    else:
        rng = np.random.default_rng(seed)
        while len(pairs) < pair_budget:
            draw = rng.integers(0, n, size=(pair_budget, 2))
            for a, b in draw:
                if a == b:
                    continue
                pairs.add((int(min(a, b)), int(max(a, b))))
                if len(pairs) >= pair_budget:
                    break
    ii = np.fromiter((a for a, _ in pairs), dtype=int)
    jj = np.fromiter((b for _, b in pairs), dtype=int)
    dist = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    mask = (dist > 0.0) & (dist < 1.0)
    if not np.any(mask):
        return 0.0, True, 0, cap
    max_mod = float((np.abs(q[ii[mask]] - q[jj[mask]]) * np.log(1.0 / dist[mask])).max())
    return max_mod, bool(np.isfinite(max_mod) and max_mod <= cap), int(mask.sum()), cap


@pytest.mark.parametrize("cells, budget, seed", [
    ((64,), 20000, 0),        # exhaustive
    ((200,), 20000, 0),       # exhaustive, 19900 pairs
    ((32, 32), 20000, 3),     # one draw batch fills the budget
    ((16, 16), 20000, 1),     # several draw batches
    ((128, 128), 20000, 0),   # adjacent pairs alone exceed the budget
    ((12, 9), 1000, 5),       # non-square: row ends every 9 flat cells
    ((9, 12), 1000, 5),
])
def test_log_holder_matches_set_loop(cells, budget, seed):
    g = Grid(cells, (1.0,) * len(cells))
    spec = "sin:2.0+0.4*sin(3pix)" if len(cells) == 1 else "affine:1.6+0.5x+0.9y"
    # a sharp bump makes the maximum depend on which pairs are drawn
    f = build_field(build_field(spec, g).values + 0.5 * (g.centers()[0] > 0.37), g)
    (rep,) = check_log_holder(f, pair_budget=budget, seed=seed)
    assert (rep.max_log_modulus, rep.passes, rep.pairs_checked, rep.cap) == \
        _log_holder_set_loop(f, pair_budget=budget, seed=seed)


@pytest.mark.parametrize("cells, budget, seed", [
    ((64,), 20000, 0),        # exhaustive
    ((32, 32), 20000, 7),     # sampled
    ((12, 9), 500, 2),        # sampled, non-square
])
def test_log_holder_fields_scored_together_match_each_alone(cells, budget, seed):
    # a run scores p and r on one sample; together or one by one, each
    # field's report is the same
    g = Grid(cells, (1.0,) * len(cells))
    spec = "sin:2.0+0.4*sin(3pix)" if len(cells) == 1 else "affine:1.6+0.5x+0.9y"
    p = build_field(spec, g)
    r = build_field(p.values + 1.4 + 0.5 * (g.centers()[0] > 0.37), g)
    together = check_log_holder(p, r, pair_budget=budget, seed=seed)
    alone = (check_log_holder(p, pair_budget=budget, seed=seed)
             + check_log_holder(r, pair_budget=budget, seed=seed))
    assert together == alone
    assert together[0] != together[1]


def test_log_holder_leaves_numpy_ma_unimported():
    # the sampled pair selection keeps its keys in a dict; np.unique and
    # np.isin, which it used, import numpy.ma on a process's first call
    code = ("import sys\n"
            "from pxwell.exponents import build_field, check_log_holder\n"
            "from pxwell.grid import Grid\n"
            "g = Grid((32, 32), (1.0, 1.0))\n"
            "(rep,) = check_log_holder(build_field('affine:1.6+0.5x+0.9y', g))\n"
            "print(rep.pairs_checked, 'numpy.ma' in sys.modules)\n")
    src = str(Path(pxwell.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    pairs, imported = proc.stdout.split()
    assert int(pairs) > 0 and imported == "False"


def test_log_holder_fields_must_share_one_grid():
    p = build_field(2.0, Grid((8,), (1.0,)))
    with pytest.raises(ValueError):
        check_log_holder(p, build_field(3.0, Grid((9,), (1.0,))))
