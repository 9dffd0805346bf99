from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pxwell
from oracles import log_holder_all_pairs
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


def test_values_are_a_read_only_copy():
    # the field's levels are cached, so its values must not change under
    # them: writing raises, and the caller's tabulated array stays writable
    g = Grid((3, 2), (1.0, 1.0))
    vals = np.array([[1.5, 2.0], [2.5, 2.0], [3.5, 1.5]])
    f = build_field(vals, g)
    with pytest.raises(ValueError, match="read-only"):
        f.values[0, 0] = 9.0
    vals[0, 0] = 9.0
    assert vals.flags.writeable and f.values[0, 0] == 1.5
    assert f.levels.tolist() == [1.5, 2.0, 2.5, 3.5]
    assert f.levels is f.levels and not f.levels.flags.writeable


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e100])
def test_level_sums_by_level(scale):
    # each level's sum of base^q, in level order and for a field already in
    # it; prescaled by the power of two just above max base, so at(1 / scale)
    # is exact where (scale base)^q itself under- or overflows
    g = Grid((3, 2), (1.0, 1.0))
    base = scale * np.array([0.3, 1.7, 2.0, 0.0, 5.0, 0.9])
    cases = [
        (np.array([[1.5, 2.0], [2.5, 2.0], [3.5, 1.5]]),
         [0.3**1.5 + 0.9**1.5, 1.7**2, 2.0**2.5, 5.0**3.5]),
        (np.full((3, 2), 2.0), [float(np.sum((base / scale) ** 2))]),
    ]
    for vals, want in cases:
        sums = build_field(vals, g).level_sums(base)
        assert np.frexp(sums.scale)[0] == 0.5 and sums.scale / 2 <= base.max() < sums.scale
        assert sums.levels.tolist() == sorted(set(vals.ravel().tolist()))
        np.testing.assert_allclose(sums.at(1.0 / scale), want, rtol=1e-14, atol=0.0)


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


def test_log_holder_jump_fails_on_fine_grids():
    def steep(x):
        return 2.5 + 1.2 * np.tanh((x - 0.5) / 1e-4)

    coarse_grid = Grid((16,), (1.0,))
    (coarse,) = check_log_holder(build_field(steep(*coarse_grid.centers()), coarse_grid))
    fine_grid = Grid((512,), (1.0,))
    fine_field = build_field(steep(*fine_grid.centers()), fine_grid)
    (fine,) = check_log_holder(fine_field)
    # adjacent cells straddle the jump: modulus ~ 2.4 ln(n), read at the
    # closest pairs
    h = fine_grid.spacing[0]
    q = fine_field.values
    jumps = np.abs(np.diff(q)) * np.log(1.0 / h)
    assert fine.max_log_modulus == jumps.max()
    assert not fine.passes
    assert coarse.max_log_modulus < fine.max_log_modulus


def test_log_holder_refinement_monotone():
    # nested cell centers under factor-3 refinement: the finer grid holds
    # every pair of the coarser
    def q(x):
        return 2.0 + 0.8 * np.sin(3 * np.pi * x)

    vals = []
    for n in (6, 18, 54):
        g = Grid((n,), (1.0,))
        (rep,) = check_log_holder(build_field(q(*g.centers()), g))
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


_FIELDS_1D = {
    "affine": "affine:1.6+0.5x",
    "sin": "sin:2.2+0.3*sin(8pix)",
    "const": 2.0,
}
_FIELDS_2D = {**_FIELDS_1D, "affine": "affine:1.6+0.5x+0.9y"}


def _audit_field(g, kind):
    """An exponent field of the given kind on g: one of `_FIELDS_1D` or
    `_FIELDS_2D`, uniform noise from a fixed seed, or the affine field with a
    step of 0.5 across x = 0.37."""
    fields = _FIELDS_1D if g.dimension == 1 else _FIELDS_2D
    if kind == "random":
        return build_field(np.random.default_rng(11).uniform(1.5, 3.5, g.shape), g)
    if kind == "step":
        step = 0.5 * (g.centers()[0] > 0.37)
        return build_field(build_field(fields["affine"], g).values + step, g)
    return build_field(fields[kind], g)


@pytest.mark.parametrize("kind", ["affine", "sin", "const", "random", "step"])
@pytest.mark.parametrize("cells, lengths", [
    ((32, 32), (1.0, 1.0)),
    ((64, 64), (1.0, 1.0)),
    ((12, 9), (1.0, 1.0)),
    ((16, 16), (3.0, 3.0)),    # the pairs at distance >= 1 are left out
    ((20, 30), (1.0, 0.7)),    # cells that are not square
    ((64,), (1.0,)),
    ((300,), (1.0,)),
], ids=["32x32", "64x64", "12x9", "16x16-side3", "20x30-1x0.7", "64", "300"])
def test_log_holder_matches_all_pairs(cells, lengths, kind):
    f = _audit_field(Grid(cells, lengths), kind)
    (rep,) = check_log_holder(f)
    assert rep.max_log_modulus == pytest.approx(log_holder_all_pairs(f), rel=1e-14, abs=0.0)
    assert rep.passes == (rep.max_log_modulus <= rep.cap)


def test_log_holder_without_close_pairs_reads_zero():
    # the two cell centers are 1.5 apart, so no pair enters the audit
    g = Grid((2,), (3.0,))
    f = build_field(np.array([1.5, 3.5]), g)
    (rep,) = check_log_holder(f)
    assert rep.max_log_modulus == log_holder_all_pairs(f) == 0.0 and rep.passes


@pytest.mark.parametrize("spec", ["sin:2.2+0.3*sin(8pix)", "affine:1.8+0.35x+0.35y"])
def test_log_holder_is_invariant_under_the_square_symmetries(spec):
    # the eight images of a field under the rotations and reflections of the
    # square have one modulus, bit for bit
    g = Grid((64, 64), (1.0, 1.0))
    q = build_field(spec, g).values
    images = [np.rot90(v, k) for v in (q, q.T) for k in range(4)]
    reports = [check_log_holder(build_field(np.ascontiguousarray(v), g))[0] for v in images]
    assert all(rep == reports[0] for rep in reports)


@pytest.mark.parametrize("cells", [(64,), (32, 32), (12, 9)])
def test_log_holder_fields_scored_together_match_each_alone(cells):
    # a run scores p and r on one offset table; together or one by one, each
    # field's report is the same
    g = Grid(cells, (1.0,) * len(cells))
    spec = "sin:2.0+0.4*sin(3pix)" if len(cells) == 1 else "affine:1.6+0.5x+0.9y"
    p = build_field(spec, g)
    r = build_field(p.values + 1.4 + 0.5 * (g.centers()[0] > 0.37), g)
    together = check_log_holder(p, r)
    alone = check_log_holder(p) + check_log_holder(r)
    assert together == alone
    assert together[0] != together[1]


def test_log_holder_leaves_numpy_ma_unimported():
    # the audit takes array slices and reductions only; np.unique and np.isin
    # would import numpy.ma on a process's first call
    code = ("import sys\n"
            "from pxwell.exponents import build_field, check_log_holder\n"
            "from pxwell.grid import Grid\n"
            "g = Grid((32, 32), (1.0, 1.0))\n"
            "(rep,) = check_log_holder(build_field('affine:1.6+0.5x+0.9y', g))\n"
            "print(rep.max_log_modulus, 'numpy.ma' in sys.modules)\n")
    src = str(Path(pxwell.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    modulus, imported = proc.stdout.split()
    assert float(modulus) > 0.0 and imported == "False"


def test_log_holder_fields_must_share_one_grid():
    p = build_field(2.0, Grid((8,), (1.0,)))
    with pytest.raises(ValueError):
        check_log_holder(p, build_field(3.0, Grid((9,), (1.0,))))
