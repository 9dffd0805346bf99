from __future__ import annotations

import collections
import ctypes
import dataclasses
import functools
import math
import warnings
from pathlib import Path

import numpy as np
import numpy._core._internal as numpy_internal
import pytest

from conftest import column_trajectory, mixed_mode, random_gridfunction, step
from oracles import rkc2_step
from pxwell.energy import _Ray, find_lambda_star, snapshot
from pxwell import _loops, solver
from pxwell.cli import _build_exponent, _build_grid, _load_config, _read_initial, _solver_config
from pxwell.exponents import build_field
from pxwell.grid import (
    Grid,
    GridFunction,
    _aligned,
    _Faces,
    _Kernel,
    integrate,
    project_mean_zero,
    px_flux_divergence,
)
from pxwell.solver import (
    BLOWUP_DETECTED,
    GLOBAL_UNTIL_TEND,
    STALLED_DT,
    SolverConfig,
    audit_trajectory,
    blowup_functional,
    delta0_hat,
    simulate,
    trajectory_csv,
)
from pxwell.witnesses import mode_field


@pytest.fixture(scope="module")
def setup2d():
    g = Grid((32, 32), (1.0, 1.0))
    p = build_field("affine:1.8+0.35x+0.35y", g)
    r = build_field(4.0, g)
    return g, p, r


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt_init=1e-3, dt_min=1e-2)
    with pytest.raises(ValueError):
        SolverConfig(blowup_threshold=0.0)
    # t_end = inf used to step forever; the others failed late or never
    for bad in (dict(t_end=math.inf), dict(t_end=0.0), dict(t_end=-1.0), dict(t_end=math.nan),
                dict(energy_tol=-1.0), dict(energy_tol=math.nan), dict(energy_tol=math.inf),
                dict(blowup_threshold=math.nan), dict(delta=-1.0), dict(delta=math.nan),
                dict(delta=math.inf)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)
    assert SolverConfig(delta=0.0, blowup_threshold=math.inf).delta == 0.0


def _rkc2(u, p, r, dt, delta=1e-8):
    """One RKC2 step of `simulate` from u, with the stage count that its stage
    rule picks for dt at u."""
    kernel = _Kernel(u.grid, p.values, delta, r.values)
    rhs = kernel.rhs(u.values)
    s = solver._stages(dt, kernel.explicit_dt())
    return GridFunction(u.grid, step(kernel, u.values, rhs, dt, s))


def test_step_zero_fixed_point(setup2d):
    g, p, r = setup2d
    out = _rkc2(GridFunction(g, np.zeros(g.shape)), p, r, dt=1e-3)
    assert np.all(out.values == 0.0)


def test_step_r2_p2_oracle():
    # p = r = 2 and delta = 0 make the right-hand side the linear map
    # L v = (5-point Laplacian) v + v - mean(v); a two-stage step of a
    # second-order scheme is then exactly u + dt L u + dt^2 L^2 u / 2
    g = Grid((24,), (1.0,))
    p2, r2 = build_field(2.0, g), build_field(2.0, g)
    rng = np.random.default_rng(1)
    u = project_mean_zero(random_gridfunction(g, rng))

    def L(v):
        return px_flux_divergence(GridFunction(g, v), p2, 0.0).values + v - v.mean()

    dt = 1e-4
    kernel = _Kernel(g, p2.values, 0.0, r2.values)
    kernel(u.values)
    assert solver._stages(dt, kernel.explicit_dt()) == 2
    out = _rkc2(u, p2, r2, dt, delta=0.0)
    Lu = L(u.values)
    expect = u.values + dt * Lu + 0.5 * dt * dt * L(Lu)
    assert np.max(np.abs(out.values - expect)) <= 1e-15


def test_step_mean_conservation(setup2d):
    g, p, r = setup2d
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = project_mean_zero(random_gridfunction(g, rng, amp=2.0))
        out = _rkc2(u, p, r, dt=1e-5)
        scale = 1.0 + np.abs(out.values).max()
        assert abs(integrate(out)) <= 1e-13 * scale


def test_returned_states_and_slopes_outlive_the_buffers(setup2d):
    # a right-hand side that the kernel writes into a caller's buffer and a
    # state that a step writes into one stay there: later stages in the same
    # work buffers, a second kernel's evaluation and a ray's load on the same
    # grid leave them bit for bit as they were
    g, p, r = setup2d
    kernel = _Kernel(g, p.values, 1e-8, r.values)
    other = _Kernel(g, build_field(2.5, g).values, 0.0, build_field(1.5, g).values)
    rng = np.random.default_rng(8)
    u = project_mean_zero(random_gridfunction(g, rng)).values.reshape(-1)
    f, f_new, u_new, u_rk4, spare = _aligned(u.size, 5)
    kernel.evaluate(u, kernel.address(f))
    work = _aligned(u.size, 4)
    dt_e = kernel.explicit_dt()
    step(kernel, u, f, 3.0 * dt_e, 3, work, u_new)
    step(kernel, u, f, dt_e, work=work, out=u_rk4)
    kept = [(a, a.view(np.int64).copy()) for a in (f, u_new, u_rk4)]
    step(kernel, u_new, f, 10.0 * dt_e, 5, work, spare)
    step(kernel, u_rk4, f, dt_e, work=work, out=spare)
    kernel.evaluate(u_new, kernel.address(f_new))
    other(rng.standard_normal(g.shape))
    _Ray(GridFunction(g, rng.standard_normal(g.shape)), p, r).load(u_rk4 + 1.0)
    assert all(np.array_equal(a.view(np.int64), bits) for a, bits in kept)
    buffers = [kernel.state, kernel.faces.tmp, kernel.q, kernel.w, *work]
    assert not any(np.shares_memory(a, b) for a, _ in kept for b in buffers)


def _array_at(address, n):
    """The n doubles at `address` as an array, a view of the buffer there."""
    return np.ctypeslib.as_array((ctypes.c_double * n).from_address(address))


class _Scalar:
    """The scalar problem y' = z y as a kernel, one z per component, for the
    expression-form stepper of `tests/oracles.py`: its right-hand side at v
    is z v.  The compiled stages run the p(x)-kernel alone, so the weights
    are tested through that stepper, which `tests/test_flat_kernel.py` and
    `tests/test_loops.py` hold to `_Kernel.step` bit for bit."""

    def __init__(self, z):
        self.z = z

    def rhs(self, v):
        return self.z * v


def _stability_polynomial(s, z):
    """P_s(z): one s-stage RKC2 step of y' = z y from y = 1 at dt = 1."""
    return rkc2_step(_Scalar(z), np.ones_like(z), z, 1.0, s)


def test_rkc2_polynomial_is_stable_and_second_order():
    # the weights run on y' = z y: P_s is at most 1 in modulus on
    # [-beta(s), 0], agrees with 1 + z + z^2/2 up to O(z^3) (the defect falls
    # eightfold as z halves), and is exactly that at s = 2, whose interval is
    # 2; beta(s) covers RKL2's (s^2 + s - 2)/2, so a step never takes more
    # stages than it did under RKL2
    small = np.array([-1e-2, -5e-3])
    quadratic = 1.0 + small + 0.5 * small**2
    for s in range(2, 65):
        beta = solver._rkc2_weights(s)[1]
        z = np.linspace(-beta, 0.0, 2000)
        assert np.abs(_stability_polynomial(s, z)).max() <= 1.0 + 1e-12
        defect = _stability_polynomial(s, small) - quadratic
        if s == 2:
            assert beta == 2.0
            assert np.abs(defect).max() <= 1e-15
        else:
            assert beta >= (s * s + s - 2) / 2.0
            assert defect[0] / defect[1] == pytest.approx(8.0, rel=0.02)


def test_stage_count_is_the_least_whose_interval_holds_the_step():
    # on a sweep of dt/dt_E, each interval's end included: the chosen s
    # holds dt, and s - 1 does not
    betas = np.array([solver._rkc2_weights(s)[1] for s in range(2, 65)])
    ratios = np.concatenate([np.geomspace(1e-3, 0.5 * betas[-1], 2000), 0.5 * betas])
    for dt_e in (1.0, 3.7e-5):
        for ratio in ratios:
            dt = ratio * dt_e
            s = solver._stages(dt, dt_e)
            assert dt <= 0.5 * dt_e * solver._rkc2_weights(s)[1]
            assert s == 2 or dt > 0.5 * dt_e * solver._rkc2_weights(s - 1)[1]


def test_simulate_zero_datum(setup2d):
    g, p, r = setup2d
    cfg = SolverConfig(dt_init=1e-4, t_end=0.05)
    traj = simulate(GridFunction(g, np.zeros(g.shape)), p, r, cfg)
    assert traj.outcome.kind == GLOBAL_UNTIL_TEND
    assert np.all(traj.J == 0.0) and np.all(traj.l2sq == 0.0)
    assert np.all(np.diff(traj.t) > 0)


def test_simulate_zero_datum_unregularized():
    # delta = 0 and p > 2 give the flat state zero weights: no stability
    # bound, and the two-stage step keeps the state at zero
    g = Grid((8, 8), (1.0, 1.0))
    cfg = SolverConfig(dt_init=1e-3, t_end=0.01, delta=0.0)
    traj = simulate(GridFunction(g, np.zeros(g.shape)), build_field(2.5, g),
                    build_field(4.0, g), cfg)
    assert traj.outcome.kind == GLOBAL_UNTIL_TEND
    assert set(traj.steps_by("stages")) == {2}
    assert np.all(traj.J == 0.0) and np.all(traj.l2sq == 0.0)


def test_simulate_diffusion_dominant_dissipative(setup2d):
    # with the exponents of diffusion_dominant.ini (r < p) the flow decays and
    # is stability-limited: dt grows past the explicit bound and the stage
    # rule answers with s > 2, while J still falls
    g, _, _ = setup2d
    p, r = build_field(2.5, g), build_field(1.5, g)
    u0 = GridFunction(g, 2.0 * mixed_mode(g).values)
    cfg = SolverConfig(dt_init=1e-5, t_end=0.01)
    traj = simulate(u0, p, r, cfg)
    assert traj.outcome.kind == GLOBAL_UNTIL_TEND
    assert max(traj.steps_by("stages")) > 2
    J = traj.J
    assert np.all(np.diff(J) <= 1e-12 * (1 + np.abs(J[:-1])))
    assert traj.max_rel_residual <= cfg.energy_tol


def test_simulate_global_small_amplitude(setup2d):
    g, p, r = setup2d
    phi = mixed_mode(g)
    lam, _ = find_lambda_star(phi, p, r)
    u0 = GridFunction(g, 0.25 * lam * phi.values)
    assert snapshot(u0, p, r).I > 0
    cfg = SolverConfig(dt_init=1e-5, t_end=0.02)
    traj = simulate(u0, p, r, cfg)
    assert traj.outcome.kind == GLOBAL_UNTIL_TEND
    assert np.all(traj.I > 0)
    assert traj.J[-1] < traj.J[0]
    assert traj.mean_drift_max <= 1e-12
    rep = audit_trajectory(traj, d_hat=1e9)
    assert rep.j_nonincreasing and rep.l2_rate_ok and rep.i_sign_persistent
    d0 = delta0_hat(traj)
    assert 0 < d0 < 1


def test_simulate_blowup_large_amplitude(setup2d):
    g, p, r = setup2d
    phi = mixed_mode(g)
    lam, _ = find_lambda_star(phi, p, r)
    u0 = GridFunction(g, 1.7 * lam * phi.values)
    assert snapshot(u0, p, r).I < 0
    cfg = SolverConfig(dt_init=1e-6, t_end=1.0, blowup_threshold=1e4)
    traj = simulate(u0, p, r, cfg)
    assert traj.outcome.kind == BLOWUP_DETECTED
    assert traj.outcome.t_b is not None and 0 < traj.outcome.t_b < 1.0
    assert traj.linf[-1] >= 1e4 or traj.outcome.t_b > 0
    assert np.all(traj.I < 0)
    bf = blowup_functional(traj, r.p_minus)
    pos = np.where(bf.diagnostic > 0)[0]
    assert pos.size > 0
    assert np.all(bf.diagnostic[pos[0]:] > 0)


def test_simulate_stall_reported(setup2d):
    # impossible tolerance on a decaying run: dt collapses without growth
    g, p, r = setup2d
    u0 = GridFunction(g, 0.5 * mixed_mode(g).values)
    cfg = SolverConfig(dt_init=1e-5, dt_min=1e-8, t_end=1.0, energy_tol=1e-30)
    traj = simulate(u0, p, r, cfg)
    assert traj.outcome.kind == STALLED_DT
    # ten halvings take dt from 1e-5 under 1e-8, and the tally holds each
    # rejected trial, the last included
    assert traj.step_count == 0 and sum(traj.trials.values()) == traj.rejected_steps == 10


def test_audit_zero_trajectory(setup2d):
    g, p, r = setup2d
    cfg = SolverConfig(dt_init=1e-3, t_end=0.01)
    traj = simulate(GridFunction(g, np.zeros(g.shape)), p, r, cfg)
    rep = audit_trajectory(traj, d_hat=1.0)
    assert rep.j_nonincreasing and rep.l2_rate_ok and rep.mean_drift_ok
    assert rep.l2_rate_max_rel_err == 0.0
    assert rep.i_sign_persistent  # vacuous: no significant I values


def test_audit_rate_exact_on_uneven_quadratic():
    # ||u||_2^2 = 5 - 3t - t^2 has d/dt = -2I with I = (3 + 2t)/2; at uneven
    # snapshot times the three-point derivative is exact, the central
    # difference is not
    t = np.array([0.0, 0.1, 0.15, 0.4, 0.45, 0.9, 1.0])
    l2sq = 5.0 - 3.0 * t - t * t
    I = 0.5 * (3.0 + 2.0 * t)
    n = len(t)
    traj = column_trajectory(t=t, J=10.0 - t, G=I + 1.0, S=np.ones(n), l2sq=l2sq,
                             linf=np.ones(n), dt=np.diff(t, append=1.1))
    rep = audit_trajectory(traj)
    assert rep.l2_rate_max_rel_err <= 1e-12 and rep.l2_rate_ok
    central = (l2sq[2:] - l2sq[:-2]) / (t[2:] - t[:-2])
    assert np.max(np.abs(central + 2.0 * I[1:-1]) / (2.0 * I[1:-1])) > 1e-2


def _rate_err_loop(t, l2sq, I):
    """Audit check (b) row by row: the largest relative error of the
    three-point derivative of ||u||_2^2 against -2 I."""
    max_rel = 0.0
    for k in range(1, len(t) - 1):
        h1, h2 = t[k] - t[k - 1], t[k + 1] - t[k]
        if h1 <= 0.0 or h2 <= 0.0:
            continue
        rate = (h1 * h1 * (l2sq[k + 1] - l2sq[k]) + h2 * h2 * (l2sq[k] - l2sq[k - 1])) / (
            h1 * h2 * (h1 + h2))
        target = -2.0 * I[k]
        if rate == 0.0 and target == 0.0:
            continue
        max_rel = max(max_rel, abs(rate - target) / max(abs(target), 1e-300))
    return max_rel


def test_audit_rate_matches_row_loop():
    # check (b) runs on the trajectory's rows, one per accepted state; the
    # last table repeats a time: both stencils through it are skipped
    runs = [_mixed_mode_run(1.7, _BLOWUP16), _mixed_mode_run(0.25, _DECAY16),
            _mixed_mode_run(0.25, _DECAY16_LONG)]
    t = np.array([0.0, 0.1, 0.1, 0.3, 0.35, 0.6])
    runs.append(column_trajectory(t=t, G=np.cos(t) + 2.0, S=np.ones(6), l2sq=np.exp(-t)))
    for traj in runs:
        expect = _rate_err_loop(traj.t, traj.l2sq, traj.I)
        assert expect > 0.0
        assert audit_trajectory(traj).l2_rate_max_rel_err == expect


def test_delta0_hat_skips_rows_without_gradient():
    # S/G would be inf in the G = 0 row, above every finite ratio
    traj = column_trajectory(G=[0.0, 2.0, 4.0, 0.0], S=[1.0, 1.0, 3.0, 0.0])
    assert np.isnan(traj.delta0[[0, 3]]).all()
    assert delta0_hat(traj) == 0.75
    assert math.isnan(delta0_hat(column_trajectory(G=[0.0, 0.0], S=[1.0, 0.0])))


def test_blowup_functional_zero(setup2d):
    g, p, r = setup2d
    cfg = SolverConfig(dt_init=1e-3, t_end=0.01)
    traj = simulate(GridFunction(g, np.zeros(g.shape)), p, r, cfg)
    bf = blowup_functional(traj, 4.0)
    assert np.all(bf.M == 0) and np.all(bf.diagnostic == 0)


def test_blowup_functional_decaying_sublinear(setup2d):
    g, p, r = setup2d
    u0 = GridFunction(g, 0.3 * mixed_mode(g).values)
    cfg = SolverConfig(dt_init=1e-5, t_end=0.05)
    traj = simulate(u0, p, r, cfg)
    bf = blowup_functional(traj, r.p_minus)
    # M' decays, M grows sublinearly
    assert bf.M_prime[-1] < bf.M_prime[0]
    mid = len(bf.t) // 2
    assert bf.M[-1] - bf.M[mid] <= bf.M_prime[mid] * (bf.t[-1] - bf.t[mid]) + 1e-12


def test_trajectory_csv_format(setup2d):
    g, p, r = setup2d
    cfg = SolverConfig(dt_init=1e-4, t_end=0.005)
    traj = simulate(GridFunction(g, 0.1 * mixed_mode(g).values), p, r, cfg)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,l2,linf,grad_modular,source_modular,J,I,delta0,dt"
    assert len(lines) == len(traj.t) + 1
    row = lines[1].split(",")
    assert float(row[0]) == 0.0


@pytest.mark.parametrize("source", [True, False], ids=["source", "no-source"])
@pytest.mark.parametrize("grid, p_spec, r_spec", [
    (Grid((40,), (1.0,)), "affine:1.4+1.2x", "affine:2.5+1.0x"),
    (Grid((14, 10), (1.0, 0.7)), "affine:1.5+0.6x+0.8y", "const:3.0"),
], ids=["1d", "2d"])
def test_kernel_rhs_is_energy_gradient(grid, p_spec, r_spec, source):
    # p_f runs from below 2 to above 2; with the source the right-hand side
    # is the gradient of -J along mean-zero directions
    p, r = build_field(p_spec, grid), build_field(r_spec, grid)
    assert p.values.min() < 2.0 < p.values.max()
    rng = np.random.default_rng(8)
    for delta in (1e-8, 0.3):
        kernel = _Kernel(grid, p.values, delta, r.values if source else None)
        u = project_mean_zero(random_gridfunction(grid, rng)).values
        v = project_mean_zero(random_gridfunction(grid, rng)).values
        J, rhs, _, _ = kernel(u)
        eps = 1e-6
        fd = (kernel(u + eps * v)[0] - kernel(u - eps * v)[0]) / (2 * eps)
        pairing = grid.cell_volume * float(np.sum(rhs * v))
        assert fd == pytest.approx(-pairing, rel=1e-8)
        assert J == pytest.approx(_reference_J(u, grid, p, r if source else None, delta),
                                  rel=1e-12)


@pytest.mark.parametrize("grid, p_spec, r_spec", [
    (Grid((40,), (1.0,)), "affine:1.4+1.2x", "affine:2.5+1.0x"),
    (Grid((14, 10), (1.0, 0.7)), "affine:1.5+0.6x+0.8y", "const:3.0"),
], ids=["1d", "2d"])
def test_kernel_modulars_match_snapshot(grid, p_spec, r_spec):
    # the stepper's J, G and S are the classifier's, up to delta = 1e-8, with
    # p_c below and above 2; the zero state gives exact zeros
    p, r = build_field(p_spec, grid), build_field(r_spec, grid)
    assert p.values.min() < 2.0 < p.values.max()
    kernel = _Kernel(grid, p.values, 1e-8, r.values)
    J, rhs, G, S = kernel(np.zeros(grid.shape))
    assert (J, G, S) == (0.0, 0.0, 0.0) and not rhs.any()
    rng = np.random.default_rng(9)
    for amp in (0.1, 1.0, 10.0):
        u = project_mean_zero(random_gridfunction(grid, rng, amp=amp))
        J, _, G, S = kernel(u.values)
        snap = snapshot(u, p, r)
        assert (J, G, S) == pytest.approx(
            (snap.J, snap.grad_modular, snap.source_modular), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("factor", [0.25, 1.7])
def test_recorded_snapshots_are_snapshots_of_the_state(monkeypatch, factor):
    # the state at a recorded time is the last one a copy of the run stopped
    # there evaluates, shifted to zero mean as an accepted state is; t_end
    # must be positive, so the datum's row is the datum made mean-zero
    u0, p, r = _mixed_mode_datum(factor)
    cfg = SolverConfig(dt_init=1e-5, t_end=2e-4)
    traj = simulate(u0, p, r, cfg)
    assert len(traj.t) >= 4 and traj.t[0] == 0.0
    states = [project_mean_zero(u0).values]
    last = {}

    class LastState(_Kernel):
        # the datum's evaluation and every trial's end in `finish`, at the
        # state the kernel holds
        def finish(self, out):
            last["u"] = self.state.reshape(self.shape).copy()
            return super().finish(out)

    monkeypatch.setattr(solver, "_Kernel", LastState)
    for t_k in traj.t[1:]:
        copy = simulate(u0, p, r, dataclasses.replace(cfg, t_end=t_k))
        assert copy.t[-1] == t_k
        states.append(last["u"] - np.sum(last["u"]) / last["u"].size)
    expect = [snapshot(GridFunction(u0.grid, s), p, r, t=t_k) for s, t_k in zip(states, traj.t)]
    for column, name in ((traj.t, "t"), (traj.J, "J"), (traj.I, "I"), (traj.G, "grad_modular"),
                         (traj.S, "source_modular"), (traj.delta0, "delta0"),
                         (traj.l2sq, "l2sq")):
        assert column == pytest.approx([getattr(e, name) for e in expect], rel=1e-12, abs=0.0)
    assert traj.linf == pytest.approx([np.max(np.abs(s)) for s in states], rel=1e-12, abs=0.0)


def _cell_rms2(uv, grid):
    """|grad u|^2 per cell: per axis, the mean of the squared differences on
    the cell's two faces, from a copy padded with mirror ghosts."""
    m = np.zeros(grid.shape)
    for axis in range(grid.dimension):
        pad = [(0, 0)] * grid.dimension
        pad[axis] = (1, 1)
        g2 = (np.diff(np.pad(uv, pad, mode="edge"), axis=axis) / grid.spacing[axis]) ** 2
        n = grid.cells[axis]
        m += 0.5 * (g2.take(range(n), axis=axis) + g2.take(range(1, n + 1), axis=axis))
    return m


def _reference_J(uv, grid, p, r, delta):
    """The cell-RMS energy by direct summation over cells."""
    q = _cell_rms2(uv, grid) + delta**2
    J = grid.cell_volume * float(np.sum((q ** (0.5 * p.values) - delta**p.values) / p.values))
    if r is not None:
        J -= grid.cell_volume * float(np.sum(np.abs(uv) ** r.values / r.values))
    return J


def _gauss_hermite_dissipation(vol, u, f, u_new, f_new, dt, points):
    """int ||p'||_2^2 over a step of size dt, for the cubic Hermite
    interpolant p through u and u_new with slopes f and f_new, by
    Gauss-Legendre quadrature with `points` nodes on the derivatives of the
    Hermite basis h00, h10, h01 and h11; three nodes are exact on the
    quartic ||p'||^2."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    total = 0.0
    for x, w in zip(nodes, weights):
        th = 0.5 * (1.0 + x)
        dp = ((6.0 * th * th - 6.0 * th) * (u - u_new) / dt + (3.0 * th * th - 4.0 * th + 1.0) * f
              + (3.0 * th * th - 2.0 * th) * f_new)
        total += 0.5 * w * float(np.sum(dp * dp))
    return dt * vol * total


@functools.lru_cache(maxsize=None)
def _chebyshev_rkc2(s):
    """The s-stage RKC2 scheme at damping eps = 2/13 (Verwer, Sommeijer and
    Hundsdorfer, J. Comput. Phys. 201, 2004), from the Chebyshev polynomials
    of `numpy.polynomial.chebyshev` and their derivatives at w0 = 1 + eps/s^2:
    (w0, w1, T_j(w0), b_j, beta) with w1 = T_s'/T_s'', b_j = T_j''/T_j'^2
    for j >= 2, b_0 = b_1 = b_2, and the stability interval's width
    beta = (1 + w0)/w1, or 2 for the two-stage polynomial 1 + z + z^2/2."""
    w0 = 1.0 + (2.0 / 13.0) / s**2
    basis = [np.polynomial.chebyshev.Chebyshev.basis(j) for j in range(s + 1)]
    T = [float(t(w0)) for t in basis]
    b = [float(t.deriv(2)(w0) / t.deriv(1)(w0) ** 2) for t in basis[2:]]
    w1 = float(basis[s].deriv(1)(w0) / basis[s].deriv(2)(w0))
    return w0, w1, T, b[:1] * 2 + b, 2.0 if s == 2 else (1.0 + w0) / w1


def _reference_simulate(u0, p, r, cfg, tail_cap=True):
    """An independent stepper loop: separate right-hand side and energy
    passes, J evaluated again after the mean re-zero, the RKC2 weights formed
    stage by stage from Chebyshev polynomials of `numpy.polynomial.chebyshev`
    (`_chebyshev_rkc2`), the stage count found by counting up, RK4 steps
    formed from the Butcher tableau in the blow-up tail, the Hermite
    dissipation of every step by Gauss-Legendre quadrature, and the
    stepper's dt rule:
    outside the tail an RKC2 step's next dt also follows the RKC local-error
    estimate of Sommeijer, Shampine and Verwer (1998), formed from
    right-hand sides evaluated again, and in the tail growth stops at dt_E
    unless `tail_cap` is false.  Returns (outcome, accepted, rejected, kernel
    evaluations, J of the datum and of every accepted state)."""
    grid = u0.grid
    vol, omega, delta = grid.cell_volume, grid.volume, cfg.delta

    def weights(uv):
        return (_cell_rms2(uv, grid) + delta**2) ** (0.5 * (p.values - 2.0))

    def rhs_of(uv):
        # face flux: the mean of the two cells' (|grad u|^2 + delta^2)^{(p-2)/2}
        # times the face difference
        w = weights(uv)
        div = np.zeros(grid.shape)
        for axis in range(grid.dimension):
            h = grid.spacing[axis]
            g = np.diff(uv, axis=axis) / h
            n = grid.cells[axis]
            flux = 0.5 * (w.take(range(n - 1), axis=axis) + w.take(range(1, n), axis=axis)) * g
            pad = [(0, 0)] * grid.dimension
            pad[axis] = (1, 1)
            div += np.diff(np.pad(flux, pad), axis=axis) / h
        s = np.sign(uv) * np.abs(uv) ** (r.values - 1.0)
        return div + (s - vol * np.sum(s) / omega)

    def internal_J(uv):
        return _reference_J(uv, grid, p, r, delta)

    def nehari_gap(uv):
        # I = G - S by direct summation over cells
        m = _cell_rms2(uv, grid)
        G = np.sum((m + delta**2) ** (0.5 * (p.values - 2.0)) * m)
        return vol * float(G - np.sum(np.abs(uv) ** r.values))

    def euler_dt(uv):
        # 0.8 of 2 over the Gershgorin radius 4 max(w) sum 1/h^2
        radius = 4.0 * float(weights(uv).max()) * sum(h**-2 for h in grid.spacing)
        return 0.8 * 2.0 / radius

    def rkc2(u, dt, s):
        # Y_j = mu Y_{j-1} + nu Y_{j-2} + (1 - mu - nu) u + mu~ dt L(Y_{j-1})
        # + gamma~ dt L(u), run on the increments Y_j - u
        w0, w1, T, b, _ = _chebyshev_rkc2(s)
        m0 = rhs_of(u)
        older, old = np.zeros_like(u), b[1] * w1 * dt * m0
        for j in range(2, s + 1):
            mu = 2.0 * b[j] * w0 / b[j - 1]
            nu = -b[j] / b[j - 2]
            mu_t = 2.0 * b[j] * w1 / b[j - 1]
            gamma_t = -(1.0 - b[j - 1] * T[j - 1]) * mu_t
            # summed in the stepper's order: the blow-up amplifies a one-ulp
            # difference in the state like the square of the growth of ||u||_inf
            new = (mu_t * dt) * rhs_of(u + old) + (gamma_t * dt) * m0 + mu * old + nu * older
            older, old = old, new
        return u + old

    # the classical RK4 tableau: stage j is u + dt sum_l a_jl k_l, and the
    # step u + dt sum_j b_j k_j
    tableau_a = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
    tableau_b = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)

    def rk4(u, dt):
        ks = []
        for row in tableau_a:
            ks.append(rhs_of(u + sum((a * dt) * k for a, k in zip(row, ks) if a != 0.0)))
        return u + sum((b * dt) * k for b, k in zip(tableau_b, ks))

    u = project_mean_zero(u0).values
    t, dt = 0.0, cfg.dt_init
    Jf = internal_J(u)
    internal = [Jf]
    steps = rejected = 0
    evals = 1
    supn = float(np.max(np.abs(u)))
    outcome = None
    tail = False
    while t < cfg.t_end:
        dt_eff = min(dt, cfg.t_end - t)
        s = 2
        while dt_eff > euler_dt(u) * _chebyshev_rkc2(s)[4] / 2.0:
            s += 1
        fourth = tail and s == 2
        u_new = rk4(u, dt_eff) if fourth else rkc2(u, dt_eff, s)
        finite = np.all(np.isfinite(u_new))
        if fourth:
            evals += 4 if finite else 3
        else:
            evals += s if finite else s - 1
        accepted = False
        if finite:
            J_new = internal_J(u_new)
            dissipation = _gauss_hermite_dissipation(vol, u, rhs_of(u), u_new, rhs_of(u_new),
                                                     dt_eff, 3)
            residual = abs(J_new - Jf + dissipation)
            tol = cfg.energy_tol * (1.0 + abs(Jf))
            accepted = np.isfinite(J_new) and residual <= tol
        if accepted:
            error_factor = math.inf
            if not fourth and not tail:
                # the estimate against the step's change, floored at 1024 ulps
                # of ||u|| per explicit Euler bound in the step
                f, f_new = rhs_of(u), rhs_of(u_new)
                est = np.sqrt(np.sum((12.0 * (u - u_new) + 6.0 * dt_eff * (f + f_new)) ** 2)) / 15.0
                floor = 1024.0 * np.finfo(float).eps * max(1.0, dt_eff / euler_dt(u))
                change = max(np.sqrt(np.sum((u_new - u) ** 2)), floor * np.sqrt(np.sum(u * u)))
                if est > 0.0:
                    error_factor = math.sqrt(0.008 * change / est)
            u = u_new - np.sum(u_new) / u_new.size
            t += dt_eff
            steps += 1
            Jf = internal_J(u)
            internal.append(Jf)
            supn, supn_prev = float(np.max(np.abs(u))), supn
            order, aim = (4, 0.8) if fourth else (2, 0.97)
            energy_factor = (aim * (tol / residual) ** (1.0 / (order + 1)) if residual > 0.0
                             else math.inf)
            tail = tail and supn > supn_prev
            if supn > supn_prev and residual > aim ** (order + 1) * tol:
                factor, tail = energy_factor, True
            else:
                factor = min(1.25, energy_factor, error_factor)
            dt_next = dt * math.floor(factor * 1024.0) / 1024.0
            if tail and tail_cap:
                dt_next = min(dt_next, max(euler_dt(u), dt))
            dt = min(dt_next, cfg.dt_max)
            if supn >= cfg.blowup_threshold:
                outcome = (BLOWUP_DETECTED, t)
                break
        else:
            rejected += 1
            dt *= 0.5
        if dt < cfg.dt_min:
            growing = steps > 0 and nehari_gap(u) < 0.0
            outcome = (BLOWUP_DETECTED, t) if growing else (STALLED_DT, None)
            break
    if outcome is None:
        outcome = (GLOBAL_UNTIL_TEND, None)
    return outcome, steps, rejected, evals, np.array(internal)


def _mixed_mode_datum(factor):
    g = Grid((16, 16), (1.0, 1.0))
    p, r = build_field("affine:1.8+0.35x+0.35y", g), build_field(4.0, g)
    phi = mixed_mode(g)
    return GridFunction(g, factor * find_lambda_star(phi, p, r)[0] * phi.values), p, r


_BLOWUP16 = SolverConfig(dt_init=1e-6, t_end=1.0, blowup_threshold=1e4)
_DECAY16 = SolverConfig(dt_init=1e-5, t_end=0.02)
# long enough for dt to pass the old default cap dt_max = 1e-2, and with the
# cap set: the capped run's counts are those of the old default
_DECAY16_LONG = SolverConfig(dt_init=1e-5, t_end=1.0)
_DECAY16_CAPPED = SolverConfig(dt_init=1e-5, dt_max=1e-2, t_end=1.0)
# dt_max holds dt under the admissible step until dt falls under dt_min
_COLLAPSE16 = SolverConfig(dt_init=1e-6, dt_max=1e-6, dt_min=1e-9, t_end=1.0,
                           blowup_threshold=1e30)


@functools.lru_cache(maxsize=None)
def _mixed_mode_run(factor, cfg):
    """The 16^2 mixed-mode run, simulated once per module."""
    return simulate(*_mixed_mode_datum(factor), cfg)


# the decaying runs' (accepted, rejected) counts
@pytest.mark.parametrize("factor, cfg, counts", [
    (1.7, _BLOWUP16, None),
    (0.25, _DECAY16, (66, 0)),
    (0.25, _DECAY16_LONG, (208, 0)),
    (0.25, _DECAY16_CAPPED, (259, 0)),
    (1.7, _COLLAPSE16, (1988, 0)),
], ids=["blowup", "decay", "decay-uncapped", "decay-capped", "collapse"])
def test_simulate_matches_reference_loop(factor, cfg, counts):
    u0, p, r = _mixed_mode_datum(factor)
    (kind, t_b), steps, rejected, evals, internal = _reference_simulate(u0, p, r, cfg)
    traj = _mixed_mode_run(factor, cfg)
    assert traj.outcome.kind == kind
    assert (traj.step_count, traj.rejected_steps) == (steps, rejected)
    assert counts is None or (steps, rejected) == counts
    # the tally counts every trial once, the one that crosses the threshold
    # and the one that takes dt under dt_min included; every trial state is
    # finite here: an RK4 trial costs 4 evaluations and has no stage count
    assert sum(traj.trials.values()) == steps + rejected
    assert all((trial.stages is None) == (trial.stepper == "rk4") for trial in traj.trials)
    assert traj.kernel_evals == evals == 1 + _trial_cost(traj)
    if t_b is None:
        assert traj.outcome.t_b is None
    else:
        assert traj.outcome.t_b == pytest.approx(t_b, rel=1e-12, abs=0.0)
    assert traj.J == pytest.approx(internal, rel=1e-12, abs=0.0)


def _trial_cost(traj):
    """The kernel evaluations of the trajectory's trials if every trial state
    is finite: 4 per RK4 trial and s per s-stage RKC2 trial."""
    return sum(n * (4 if trial.stepper == "rk4" else trial.stages)
               for trial, n in traj.trials.items())


def test_overflowing_trial_is_rejected_without_a_warning(monkeypatch):
    # the first trial of this datum, 9 RKC2 stages at dt 2e-2, overflows: it
    # is rejected unevaluated at a cost of s - 1 = 8 evaluations, and numpy
    # warns of nothing on the way
    g = Grid((16, 16), (1.0, 1.0))
    u0 = GridFunction(g, 50.0 * mode_field(g, (1, 1)).values)
    cfg = SolverConfig(dt_init=2e-2, blowup_threshold=1e30)
    finite = []

    def logged(kernel, plan, u, f, out, dt, s, weights, _step=_Kernel.step):
        flag = _step(kernel, plan, u, f, out, dt, s, weights)
        finite.append((s, bool(np.all(np.isfinite(_array_at(out, kernel.n))))))
        return flag

    monkeypatch.setattr(_Kernel, "step", logged)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(u0, build_field(2.0, g), build_field(4.0, g), cfg)
    assert traj.outcome.kind == BLOWUP_DETECTED
    assert (traj.step_count, traj.rejected_steps) == (355, 13)
    assert sum(traj.trials.values()) == 355 + 13
    assert [row for row in finite if not row[1]] == [finite[0]] == [(9, False)]
    assert traj.trials[solver.Trial(1, "rkc2", 9, None, False)] == 1
    assert traj.kernel_evals == 1 + _trial_cost(traj) - 1 == 1460


# the 16^2 mixed-mode run's escape time to ||u||_inf = 1e4, converged in the
# tolerance: RK4 steps in the tail at energy_tol 1e-8 and 1e-10 and RKL2 steps
# (the Runge-Kutta-Legendre steps that RKC2 replaced) alone at 1e-10 agree on
# it to 1e-7.  Explicit Euler at 1e-8 had given 0.0019190019618725354, 5.5e-5
# off it.
_T_B_CONVERGED = 0.00191889571


def test_shrink_on_growth_cuts_blowup_tail():
    # the grow-and-halve rule without the shrink took 1,943 accepted and 139
    # rejected RKL2 steps on this run
    traj = _mixed_mode_run(1.7, _BLOWUP16)
    assert traj.outcome.kind == BLOWUP_DETECTED
    assert traj.step_count + traj.rejected_steps <= 0.8 * (1943 + 139)
    assert type(traj.outcome.t_b) is float
    assert traj.outcome.t_b == pytest.approx(_T_B_CONVERGED, rel=1e-5, abs=0.0)
    assert traj.max_rel_residual <= _BLOWUP16.energy_tol
    by_decade = traj.steps_by("decade")
    assert sum(acc for acc, _ in by_decade.values()) == traj.step_count
    assert sum(rej for _, rej in by_decade.values()) == traj.rejected_steps
    # from the datum's decade up to the threshold's, each one crossed
    assert sorted(by_decade) == list(range(min(by_decade), 4))


def test_escape_time_matches_converged_reference():
    # at the default energy_tol 1e-6, RKL2 steps alone were 4.6e-5 off the
    # converged escape time after 2,891 kernel evaluations and explicit Euler
    # 6.7e-4 off after 15,328; with RK4 steps in the tail the run is within
    # 1e-5 after 627 at every seed
    traj = _mixed_mode_run(1.7, _BLOWUP16)
    assert traj.outcome.t_b == pytest.approx(_T_B_CONVERGED, rel=1e-5, abs=0.0)
    assert traj.kernel_evals == 627


def test_dt_collapse_through_shrink_reported(monkeypatch):
    # dt_max caps the opening steps below the admissible step, so nothing is
    # rejected and dt can only fall under dt_min through the shrink
    u0, p, r = _mixed_mode_datum(1.7)
    cfg = SolverConfig(dt_init=1e-6, dt_max=1e-6, dt_min=1e-8, t_end=1.0, energy_tol=1e-5,
                       blowup_threshold=1e30)
    steppers = []

    def logged(kernel, plan, u, f, out, dt, s, weights, _step=_Kernel.step):
        steppers.append("rk4" if weights is None else "rkc2")
        return _step(kernel, plan, u, f, out, dt, s, weights)

    monkeypatch.setattr(_Kernel, "step", logged)
    traj = simulate(u0, p, r, cfg)
    assert traj.rejected_steps == 0
    assert traj.outcome.kind == BLOWUP_DETECTED
    assert traj.outcome.t_b == traj.t[-1] < cfg.t_end
    # the last step was an RK4 step of at least dt_min, and its shrink took
    # dt under dt_min: an accepted step has residual <= tol, so its energy
    # factor is at least RK4's aim, floored to a multiple of 2^-10
    assert steppers[-1] == "rk4" and len(steppers) == traj.step_count
    _, aim = solver._ORDER_AIM["rk4"]
    least = math.floor(aim * solver._GRID) / solver._GRID
    assert cfg.dt_min <= traj.dt[-1] < cfg.dt_min / least
    assert traj.linf[-1] < cfg.blowup_threshold


def test_dt_collapse_in_controlled_climb_is_blowup():
    # at the default tolerance the sup norm still climbs when dt reaches
    # dt_min; the state has I < 0, so ||u||_2 still grows
    traj = _mixed_mode_run(1.7, _COLLAPSE16)
    assert traj.I[-1] < 0.0
    assert traj.outcome.kind == BLOWUP_DETECTED
    assert traj.outcome.t_b == pytest.approx(_T_B_CONVERGED, rel=1e-5, abs=0.0)


def test_hermite_dissipation_is_exact_and_fourth_order():
    # the closed form is the Hermite interpolant's int ||p'||^2: it matches
    # five-point Gauss-Legendre on random end values and slopes.  On a smooth
    # state the energy residual J(u+) - J(u) + dissipation of an RK4 step with
    # it falls like dt^5, and that of a two-stage RKC2 step with the
    # rectangle rule dt ||(u2 - u)/dt||^2 like dt^3; dt runs from dt_E down by
    # halves, every residual far above the round-off of J
    u0, p, r = _mixed_mode_datum(1.0)
    kernel = _Kernel(u0.grid, p.values, 1e-8, r.values)
    rng = np.random.default_rng(7)
    scratch = list(np.empty((3,) + u0.grid.shape))
    for dt in (1e-6, 1e-3, 0.5):
        u, f, u_new, f_new = rng.standard_normal((4,) + u0.grid.shape)
        closed = solver._hermite_dissipation(kernel, u_new - u, f, f_new, dt, scratch)
        assert closed == pytest.approx(
            _gauss_hermite_dissipation(kernel.vol, u, f, u_new, f_new, dt, 5), rel=1e-13, abs=0.0)
    u = project_mean_zero(u0).values
    J, f, _, _ = kernel(u)
    dts = kernel.explicit_dt() * 0.5 ** np.arange(5)
    work = _aligned(u.size, 4)
    hermite, rectangle = [], []
    for dt in dts:
        u4 = step(kernel, u, f, dt, work=work)
        J4, f4, _, _ = kernel(u4)
        hermite.append(abs(J4 - J + solver._hermite_dissipation(kernel, u4 - u, f, f4, dt,
                                                                scratch)))
        u2 = step(kernel, u, f, dt, 2, work)
        diff = (u2 - u) / dt
        rectangle.append(abs(kernel(u2)[0] - J + dt * kernel.vol * float(np.sum(diff * diff))))
    assert min(hermite) > 100.0 * np.finfo(float).eps * abs(J)
    slope4, slope2 = (np.polyfit(np.log(dts), np.log(res), 1)[0] for res in (hermite, rectangle))
    assert slope4 >= 4.5
    assert slope2 == pytest.approx(3.0, abs=0.1)


@pytest.mark.parametrize("factor, cfg, steppers", [
    (0.25, _DECAY16, {"rkc2"}),
    (1.7, _BLOWUP16, {"rkc2", "rk4"}),
], ids=["decay", "escape"])
def test_every_trial_takes_the_hermite_dissipation(monkeypatch, factor, cfg, steppers):
    # one energy test for both steppers: the decaying run takes RKC2 trials
    # alone, the escape run RKC2 and RK4 trials, and every trial state is
    # finite, so each trial is evaluated and reads the Hermite dissipation once
    calls = [0]

    def counted(*args, _rule=solver._hermite_dissipation):
        calls[0] += 1
        return _rule(*args)

    monkeypatch.setattr(solver, "_hermite_dissipation", counted)
    traj = simulate(*_mixed_mode_datum(factor), cfg)
    assert traj.kernel_evals == 1 + _trial_cost(traj)
    assert calls[0] == sum(traj.trials.values())
    assert set(traj.steps_by("stepper")) == steppers


_SYMMETRY_RUNS = pytest.mark.parametrize("factor, cfg", [(0.25, _DECAY16), (1.7, _BLOWUP16)],
                                         ids=["decay", "escape"])


@_SYMMETRY_RUNS
def test_trials_run_in_buffers_made_once_per_run(monkeypatch, factor, cfg):
    # a trial allocates no grid array: every trial writes its state into one
    # buffer, and every full evaluation, the datum's and each trial state's,
    # writes its right-hand side into one of two, which an accepted step
    # swaps; each buffer starts on a 64-byte line, and the kernel's
    # allocating entries are never called
    states, slopes, wrappers = [], [], []

    def address(a):
        return a.__array_interface__["data"][0]

    class Logged(_Kernel):
        def evaluate(self, uv, out):
            states.append(address(uv))
            return super().evaluate(uv, out)

        def finish(self, out):
            slopes.append(out)
            return super().finish(out)

        def __call__(self, uv):
            wrappers.append("__call__")
            return super().__call__(uv)

        def rhs(self, uv):
            wrappers.append("rhs")
            return super().rhs(uv)

        def step(self, plan, u, f, out, dt, s, weights):
            # out is the address of the trial state
            states.append(out)
            return super().step(plan, u, f, out, dt, s, weights)

    monkeypatch.setattr(solver, "_Kernel", Logged)
    traj = simulate(*_mixed_mode_datum(factor), cfg)
    # every trial state of these runs is finite, so each is evaluated
    assert len(states) == len(slopes) == 1 + sum(traj.trials.values())
    assert not wrappers
    datum, trials = states[0], set(states[1:])
    assert len(trials) == 1 and datum not in trials
    assert len(set(slopes)) == 2
    assert all(a % 64 == 0 for a in {datum, *trials, *slopes})


@_SYMMETRY_RUNS
def test_an_inner_stage_is_its_power_and_one_compiled_call(monkeypatch, factor, cfg):
    # a step is one compiled `step_begin`, then per inner stage the kernel's
    # NumPy power, which forms w and a in one call, and one compiled
    # `step_stage`, which also forms the next stage state's gradient; the
    # last stage leaves the trial state and its gradient in the kernel, so a
    # trial's evaluation is its power and one `rhs`, and no trial copies its
    # state into the workspace or runs `grad2`: the datum's evaluation makes
    # the one load and the one `grad2` of the run
    calls = collections.Counter()

    class Counted:
        def __init__(self, lib):
            self.lib = lib

        def __getattr__(self, name):
            def call(*args, _fn=getattr(self.lib, name)):
                calls[name] += 1
                return _fn(*args)
            return call

    def power(*args, _power=np.power, **kwargs):
        calls["np.power"] += 1
        return _power(*args, **kwargs)

    def load(self, values, _load=_Faces.load):
        calls["load"] += 1
        _load(self, values)

    datum = _mixed_mode_datum(factor)
    monkeypatch.setattr(_loops, "lib", Counted(_loops.lib))
    monkeypatch.setattr(np, "power", power)
    monkeypatch.setattr(_Faces, "load", load)
    traj = simulate(*datum, cfg)
    trials = sum(traj.trials.values())
    inner = sum(n * (3 if trial.stepper == "rk4" else trial.stages - 1)
                for trial, n in traj.trials.items())
    # every trial state of these runs is finite, so each is evaluated
    assert traj.kernel_evals == 1 + inner + trials
    # one power per evaluation, and the delta offset's, formed once, on the
    # datum's evaluation
    assert calls == {"load": 1, "grad2": 1, "rhs": 1 + trials, "step_begin": trials,
                     "step_stage": inner, "np.power": 1 + traj.kernel_evals}


@pytest.mark.parametrize("factor, cfg", [
    (0.25, _DECAY16), (1.7, dataclasses.replace(_BLOWUP16, t_end=9e-4)),
], ids=["decay", "escape"])
def test_simulate_takes_addresses_once_per_run(monkeypatch, factor, cfg):
    # a run takes its buffers' addresses once, at its start: no step, stage
    # or evaluation takes one, through `_Kernel.address` or `ndarray.ctypes`,
    # so a run twice as long, with more steps, takes as many.  The escape
    # runs stop short of blow-up and take RKC2 and RK4 steps
    calls = collections.Counter()

    def address(*args, _address=_Kernel.address):
        calls["_Kernel.address"] += 1
        return _address(*args)

    def ctypes_init(self, *args, _init=numpy_internal._ctypes.__init__):
        calls["ndarray.ctypes"] += 1
        _init(self, *args)

    # the datum's lambda* builds the grid's workspace, which the runs share
    datum = _mixed_mode_datum(factor)
    monkeypatch.setattr(_Kernel, "address", address)
    monkeypatch.setattr(numpy_internal._ctypes, "__init__", ctypes_init)
    runs = []
    for t_end in (cfg.t_end, 2.0 * cfg.t_end):
        calls.clear()
        traj = simulate(*datum, dataclasses.replace(cfg, t_end=t_end))
        assert traj.outcome.kind == GLOBAL_UNTIL_TEND
        runs.append((dict(calls), traj.step_count, set(traj.steps_by("stepper"))))
    (short, short_steps, steppers), (long, long_steps, _) = runs
    assert short == long and long_steps > short_steps
    assert short["_Kernel.address"] == 8 and short["ndarray.ctypes"] > 0
    assert steppers == ({"rkc2"} if factor < 1.0 else {"rkc2", "rk4"})


@_SYMMETRY_RUNS
def test_negated_datum_takes_the_same_steps_bit_for_bit(factor, cfg):
    # the equation is odd in u: from -u0 every accepted state is the negated
    # state, so every column of the table has the same bits
    u0, p, r = _mixed_mode_datum(factor)
    neg = simulate(GridFunction(u0.grid, -u0.values), p, r, cfg)
    traj = _mixed_mode_run(factor, cfg)
    for name in ("t", "J", "G", "S", "l2sq", "linf", "dt"):
        assert np.array_equal(getattr(neg, name), getattr(traj, name)), name
    assert neg.outcome == traj.outcome


@_SYMMETRY_RUNS
def test_transposed_datum_takes_the_same_steps(factor, cfg):
    # the reflection of the square in its diagonal, with p's values carried
    # along: the sums run in another order, so the energies agree to rounding
    # and the step sequence exactly
    u0, p, r = _mixed_mode_datum(factor)
    g = u0.grid
    flip = simulate(GridFunction(g, np.ascontiguousarray(u0.values.T)),
                    build_field(np.ascontiguousarray(p.values.T), g), r, cfg)
    traj = _mixed_mode_run(factor, cfg)
    assert (flip.step_count, flip.rejected_steps, flip.kernel_evals) == (
        traj.step_count, traj.rejected_steps, traj.kernel_evals)
    assert flip.outcome.kind == traj.outcome.kind
    assert (flip.outcome.t_b is None) == (traj.outcome.t_b is None)
    if traj.outcome.t_b is not None:
        assert flip.outcome.t_b == pytest.approx(traj.outcome.t_b, rel=1e-10, abs=0.0)
    assert flip.J == pytest.approx(traj.J, rel=1e-10, abs=0.0)


# the six images of the square under D4 besides the identity and the
# transpose, each a map of the cell values' index grid
_D4_IMAGES = {
    "rot90": lambda a: np.rot90(a, 1),
    "rot180": lambda a: np.rot90(a, 2),
    "rot270": lambda a: np.rot90(a, 3),
    "flip-x": lambda a: a[::-1, :],
    "flip-y": lambda a: a[:, ::-1],
    "anti-diagonal": lambda a: np.rot90(a, 2).T,
}


@pytest.mark.parametrize("image", sorted(_D4_IMAGES))
@_SYMMETRY_RUNS
def test_square_symmetric_datum_takes_the_same_steps(factor, cfg, image):
    # every other symmetry of the square, with p's values carried along, as
    # the transpose above: the same step sequence and outcome, J, ||u||_2^2
    # and t_b to rounding (measured: J within 1.1e-15 relative, ||u||_2^2
    # within 5.3e-16, t_b the same bits)
    u0, p, r = _mixed_mode_datum(factor)
    g, move = u0.grid, _D4_IMAGES[image]
    moved = simulate(GridFunction(g, np.ascontiguousarray(move(u0.values))),
                     build_field(np.ascontiguousarray(move(p.values)), g), r, cfg)
    traj = _mixed_mode_run(factor, cfg)
    assert (moved.step_count, moved.rejected_steps, moved.kernel_evals) == (
        traj.step_count, traj.rejected_steps, traj.kernel_evals)
    assert moved.outcome.kind == traj.outcome.kind
    assert (moved.outcome.t_b is None) == (traj.outcome.t_b is None)
    if traj.outcome.t_b is not None:
        assert moved.outcome.t_b == pytest.approx(traj.outcome.t_b, rel=1e-10, abs=0.0)
    assert moved.J == pytest.approx(traj.J, rel=1e-10, abs=0.0)
    assert moved.l2sq == pytest.approx(traj.l2sq, rel=1e-10, abs=0.0)


def test_rkc_estimate_is_third_order():
    # the RKC estimate ||12 (u - u+) + 6 dt (f + f+)|| / 15 of a two-stage
    # RKC2 step falls like dt^3 as dt halves from dt_E, every value far above
    # the round-off of ||u||
    u0, p, r = _mixed_mode_datum(1.0)
    kernel = _Kernel(u0.grid, p.values, 1e-8, r.values)
    u = project_mean_zero(u0).values
    _, f, _, _ = kernel(u)
    dts = kernel.explicit_dt() * 0.5 ** np.arange(5)
    work = _aligned(u.size, 4)
    scratch = list(np.empty((2,) + u.shape))
    estimates = []
    for dt in dts:
        u2 = step(kernel, u, f, dt, 2, work)
        estimates.append(solver._rkc_estimate(u2 - u, f, kernel(u2)[1], dt, scratch))
    assert min(estimates) > 1e6 * np.finfo(float).eps * np.linalg.norm(u)
    slope = np.polyfit(np.log(dts), np.log(estimates), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.1)


@pytest.mark.parametrize("name", ["diffusion_dominant", "negative_energy"])
def test_steady_state_keeps_dt(name):
    # both shipped decaying runs settle on a steady state (I -> 0 with G > 0)
    # well before t_end 10, where the step's change and its RKC estimate are
    # round-off; the floor on the change keeps dt from collapsing there.  The
    # last step is cut to t_end, so it is left out
    cfg = _load_config(Path(__file__).parent.parent / "configs" / f"{name}.ini")
    grid = _build_grid(cfg)
    p, r = _build_exponent(cfg, grid, "p"), _build_exponent(cfg, grid, "r")
    scfg = dataclasses.replace(_solver_config(cfg), t_end=10.0)
    traj = simulate(_read_initial(cfg, grid, p, r), p, r, scfg)
    assert traj.outcome.kind == GLOBAL_UNTIL_TEND
    assert abs(traj.I[-1]) < 1e-12 * traj.G[-1]
    assert traj.dt[1] == scfg.dt_init
    assert traj.dt[1:-1].min() >= traj.dt[1]


def test_decaying_runs_take_no_rk4_step():
    # the tail opens only on a growth shrink, which a decaying run never takes;
    # the third run has negative_energy's weak source and negative J0
    runs = [_mixed_mode_run(0.25, _DECAY16), _mixed_mode_run(0.25, _DECAY16_LONG)]
    g = Grid((16, 16), (1.0, 1.0))
    u0 = project_mean_zero(GridFunction(g, 0.05 * mode_field(g, (1, 0)).values))
    p, r = build_field(2.5, g), build_field(1.5, g)
    assert snapshot(u0, p, r).J < 0.0
    runs.append(simulate(u0, p, r, SolverConfig(dt_init=1e-4, t_end=2.0)))
    for traj in runs:
        assert traj.outcome.kind == GLOBAL_UNTIL_TEND
        assert traj.steps_by("stepper", ("rkc2", "rk4")) == {
            "rkc2": [traj.step_count, traj.rejected_steps], "rk4": [0, 0]}


def test_dt_limits_count_rkc2_steps_outside_the_tail():
    # every accepted RKC2 step outside the blow-up tail counts once, by the
    # factor that set the next dt; a decaying run has no tail, and every RKC2
    # trial of the escape run has two stages, which in the tail would make
    # it an RK4 step, so none of them is in the tail; any other trial has
    # the limit None
    limits = ("error", "energy", "growth")
    decay, escape = _mixed_mode_run(0.25, _DECAY16_LONG), _mixed_mode_run(1.7, _BLOWUP16)
    assert set(decay.steps_by("limit")) <= set(limits)
    assert sum(acc for acc, _ in decay.steps_by("limit").values()) == decay.step_count
    assert decay.steps_by("limit")["error"][0] > 0
    assert set(escape.steps_by("stages")) == {None, 2}
    by_limit = escape.steps_by("limit", limits)
    assert all(rej == 0 for _, rej in by_limit.values())
    assert sum(acc for acc, _ in by_limit.values()) == escape.steps_by("stepper")["rkc2"][0]
    # the shrink that opens the tail is the energy factor's
    assert by_limit["energy"][0] > 0


def test_blowup_tail_takes_rk4_steps():
    # the tail from the first growth shrink to the threshold is RK4 wherever
    # dt <= dt_E; RKC2 steps open the run
    traj = _mixed_mode_run(1.7, _BLOWUP16)
    rkc2, rk4 = traj.steps_by("stepper")["rkc2"], traj.steps_by("stepper")["rk4"]
    assert rk4[0] > rkc2[0] > 0
    assert rkc2[0] + rk4[0] == traj.step_count


# blowup_2d's escape time to ||u||_inf = 1e5 at energy_tol 1e-10
_T_B_BLOWUP_2D = 0.002779523950889318


def test_tail_growth_stops_at_explicit_bound():
    # blowup_2d's datum and solver settings: without the cap, dt grows past
    # dt_E in the tail, 16 trials fail and the run takes more kernel
    # evaluations; with it, every RKC2 trial has two stages and none fails
    g = Grid((32, 32), (1.0, 1.0))
    p, r = build_field("affine:1.8+0.35x+0.35y", g), build_field(4.0, g)
    vals = sum(c * mode_field(g, ks).values for ks, c in (((1, 1), 1.0), ((2, 0), 0.3),
                                                          ((0, 1), 0.2)))
    u0 = project_mean_zero(GridFunction(g, 14.0 * vals / np.max(np.abs(vals))))
    cfg = SolverConfig(dt_init=1e-6, t_end=1.0, blowup_threshold=1e5)
    traj = simulate(u0, p, r, cfg)
    assert traj.outcome.kind == BLOWUP_DETECTED
    assert traj.steps_by("stages") == {None: [218, 0], 2: [48, 0]} and traj.rejected_steps == 0
    assert traj.kernel_evals == 969
    assert traj.outcome.t_b == pytest.approx(_T_B_BLOWUP_2D, rel=1e-5, abs=0.0)
    capped = _reference_simulate(u0, p, r, cfg)
    uncapped = _reference_simulate(u0, p, r, cfg, tail_cap=False)
    assert capped[1:4] == (traj.step_count, 0, 969)
    assert capped[0][1] == pytest.approx(traj.outcome.t_b, rel=1e-12, abs=0.0)
    assert uncapped[2:4] == (16, 1077)


def test_shipped_escape_config_meets_converged_escape_time():
    # configs/blowup_2d.ini as shipped, datum and solver settings read by the
    # command line's own parsers: its escape time is within 1e-5 of the
    # energy_tol 1e-10 reference
    cfg = _load_config(Path(__file__).parent.parent / "configs" / "blowup_2d.ini")
    grid = _build_grid(cfg)
    p, r = _build_exponent(cfg, grid, "p"), _build_exponent(cfg, grid, "r")
    traj = simulate(_read_initial(cfg, grid, p, r), p, r, _solver_config(cfg))
    assert traj.outcome.kind == BLOWUP_DETECTED
    assert traj.steps_by("stepper")["rk4"][0] > 0
    assert traj.outcome.t_b == pytest.approx(_T_B_BLOWUP_2D, rel=1e-5, abs=0.0)


def test_nonfinite_initial_energy_raises():
    # delta = 0 with p < 2 gives a cell with a zero gradient an infinite
    # weight; the datum is flat on half the square
    g = Grid((16, 16), (1.0, 1.0))
    x = (np.arange(16) + 0.5) / 16
    v = np.zeros(g.shape)
    v[8:, :] = np.cos(2.0 * np.pi * x[8:])[:, None]
    u0 = project_mean_zero(GridFunction(g, v))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="delta=0.0, p_minus=1.5"):
        simulate(u0, build_field(1.5, g), build_field(4.0, g), SolverConfig(delta=0.0))


def test_uncapped_decay_steps_past_old_cap():
    # without a dt cap the decaying run takes steps above the old default
    # dt_max = 1e-2 and fewer kernel evaluations; check (b), on single steps,
    # holds at the unchanged tolerance, while on rows five steps apart it
    # read 0.107 even under the old cap
    traj = _mixed_mode_run(0.25, _DECAY16_LONG)
    capped = _mixed_mode_run(0.25, _DECAY16_CAPPED)
    assert traj.outcome.kind == capped.outcome.kind == GLOBAL_UNTIL_TEND
    assert np.diff(capped.t).max() == pytest.approx(1e-2, rel=1e-12, abs=0.0)
    assert np.diff(traj.t).max() > 2e-2
    assert (traj.kernel_evals, capped.kernel_evals) == (1103, 1564)
    rep = audit_trajectory(traj)
    assert rep.l2_rate_ok and rep.l2_rate_max_rel_err <= solver._RATE_TOL == 0.05
    assert traj.max_rel_residual <= _DECAY16_LONG.energy_tol


def test_dt_column_is_the_step_that_reached_the_row():
    # the datum's row holds 0; every other row, the final one too, the size
    # of the accepted step into its state, which is the row's time step
    traj = _mixed_mode_run(0.25, _DECAY16_LONG)
    assert traj.dt[0] == 0.0 and traj.t[-1] == _DECAY16_LONG.t_end
    assert traj.dt[1:] == pytest.approx(np.diff(traj.t), rel=1e-9, abs=0.0)


def test_simulate_rejects_exponents_off_datum_grid():
    # p of equal shape on a larger square would be read cell by cell on the
    # datum's grid: the run went on with other weights, without an error
    g = Grid((16, 16), (1.0, 1.0))
    p = build_field("affine:1.8+0.35x+0.35y", Grid((16, 16), (2.0, 2.0)))
    with pytest.raises(ValueError, match="share one grid"):
        simulate(mixed_mode(g), p, build_field(4.0, g, label="r"), SolverConfig(t_end=0.01))
