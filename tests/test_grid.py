from __future__ import annotations

import numpy as np
import pytest

from pxwell.exponents import build_field
from pxwell.grid import (
    Grid,
    GridFunction,
    cell_gradient_magnitude,
    dirichlet_energy,
    integrate,
    load_gridfunction_csv,
    project_mean_zero,
    px_flux_divergence,
    save_gridfunction_csv,
)


def test_grid_invariants():
    g = Grid((8, 4), (2.0, 1.0))
    assert g.cell_volume == pytest.approx(2.0 / 8 * 1.0 / 4)
    assert g.volume == 2.0
    with pytest.raises(ValueError):
        Grid((1,), (1.0,))
    with pytest.raises(ValueError):
        Grid((4, 4), (1.0,))


def test_integrate_constants(grid1d):
    assert integrate(GridFunction(grid1d, np.ones(64))) == pytest.approx(1.0)
    g8 = Grid((8,), (1.0,))
    assert integrate(GridFunction(g8, np.full(8, 2.0))) == pytest.approx(2.0)


def test_integrate_affine_exact(grid1d):
    # midpoint rule is exact for affine integrands
    x = grid1d.axis_centers(0)
    assert integrate(GridFunction(grid1d, x)) == pytest.approx(0.5, abs=1e-15)


def test_gradient_constant_and_linear(grid1d):
    zero = cell_gradient_magnitude(GridFunction(grid1d, np.full(64, 3.7)))
    assert np.all(zero == 0.0)
    # unit slope on every interior face; an end cell also sees one zero
    # outer-boundary face, so its RMS is sqrt(1/2)
    lin = cell_gradient_magnitude(GridFunction(grid1d, grid1d.axis_centers(0)))
    assert np.allclose(lin[1:-1], 1.0)
    assert np.allclose(lin[[0, -1]], np.sqrt(0.5))


def test_gradient_axis_separation():
    g = Grid((8, 8), (1.0, 1.0))
    x, y = g.centers()
    profile = np.full(8, 1.0)
    profile[[0, -1]] = np.sqrt(0.5)
    # a field varying along one axis sees no difference across the other
    along_y = cell_gradient_magnitude(GridFunction(g, y))
    assert np.allclose(along_y, np.broadcast_to(profile, g.shape))
    along_x = cell_gradient_magnitude(GridFunction(g, x))
    assert np.allclose(along_x, along_y.T)


def test_flux_divergence_zero_for_constant(grid2d):
    p = build_field("affine:1.5+0.8x+0.2y", grid2d)
    div = px_flux_divergence(GridFunction(grid2d, np.full(grid2d.shape, 2.0)), p)
    assert np.all(div.values == 0.0)


def test_flux_divergence_p2_is_laplacian(grid1d):
    # at p = 2 the regularization drops out exactly: (g^2 + d^2)^0 = 1
    p2 = build_field(2.0, grid1d)
    rng = np.random.default_rng(5)
    u = GridFunction(grid1d, rng.standard_normal(64))
    div = px_flux_divergence(u, p2, delta=1e-3)
    h = grid1d.spacing[0]
    # mirror-ghost second difference oracle
    ghosted = np.concatenate([[u.values[0]], u.values, [u.values[-1]]])
    lap = (ghosted[:-2] - 2.0 * ghosted[1:-1] + ghosted[2:]) / h**2
    assert np.allclose(div.values, lap, rtol=0, atol=1e-12 * np.abs(lap).max())


def test_flux_divergence_quadratic_interior(grid1d):
    x = grid1d.axis_centers(0)
    u = GridFunction(grid1d, x * (1.0 - x))
    div = px_flux_divergence(u, build_field(2.0, grid1d), delta=0.0)
    assert np.allclose(div.values[1:-1], -2.0, atol=1e-10)
    assert not np.isclose(div.values[0], -2.0)


def test_discrete_divergence_theorem():
    rng = np.random.default_rng(42)
    for dim_case in range(20):
        if dim_case % 2:
            g = Grid((13,), (1.7,))
        else:
            g = Grid((9, 7), (1.0, 2.0))
        u = GridFunction(g, rng.standard_normal(g.shape) * rng.uniform(0.1, 10))
        p = build_field(float(rng.uniform(1.2, 3.5)), g)
        div = px_flux_divergence(u, p, delta=rng.choice([0.0, 1e-8, 1e-2]))
        scale = 1.0 + g.cell_volume * np.abs(div.values).sum()
        assert abs(integrate(div)) <= 1e-12 * scale


def test_linearity_only_at_p2(grid1d):
    rng = np.random.default_rng(1)
    u = GridFunction(grid1d, rng.standard_normal(64))
    v = GridFunction(grid1d, rng.standard_normal(64))
    both = GridFunction(grid1d, u.values + v.values)
    p2 = build_field(2.0, grid1d)
    lin = px_flux_divergence(both, p2, 0.0).values
    sep = px_flux_divergence(u, p2, 0.0).values + px_flux_divergence(v, p2, 0.0).values
    assert np.allclose(lin, sep, atol=1e-12 * np.abs(sep).max())
    p3 = build_field(3.0, grid1d)
    lin3 = px_flux_divergence(both, p3, 0.0).values
    sep3 = px_flux_divergence(u, p3, 0.0).values + px_flux_divergence(v, p3, 0.0).values
    assert not np.allclose(lin3, sep3, rtol=1e-6)


def test_project_mean_zero(grid1d):
    const = project_mean_zero(GridFunction(grid1d, np.full(64, 5.0)))
    assert np.allclose(const.values, 0.0)
    x = grid1d.axis_centers(0)
    shifted = project_mean_zero(GridFunction(grid1d, x))
    assert np.allclose(shifted.values, x - 0.5, atol=1e-15)
    twice = project_mean_zero(shifted)
    assert np.allclose(twice.values, shifted.values, atol=1e-16)
    sine = GridFunction(grid1d, np.sin(2 * np.pi * x))
    assert abs(integrate(sine)) < 1e-14
    assert np.allclose(project_mean_zero(sine).values, sine.values, atol=1e-13)


def test_dirichlet_energy_is_flux_potential(grid2d):
    # directional derivative of the face energy equals -<flux divergence, v>
    rng = np.random.default_rng(7)
    p = build_field("affine:1.6+0.9x+0.1y", grid2d)
    u = GridFunction(grid2d, rng.standard_normal(grid2d.shape))
    v = rng.standard_normal(grid2d.shape)
    delta = 1e-3
    eps = 1e-6
    up = GridFunction(grid2d, u.values + eps * v)
    um = GridFunction(grid2d, u.values - eps * v)
    fd = (dirichlet_energy(up, p, delta) - dirichlet_energy(um, p, delta)) / (2 * eps)
    div = px_flux_divergence(u, p, delta)
    pairing = -grid2d.cell_volume * float(np.sum(div.values * v))
    assert fd == pytest.approx(pairing, rel=1e-7)


def test_csv_roundtrip(tmp_path, grid2d):
    rng = np.random.default_rng(3)
    u = GridFunction(grid2d, rng.standard_normal(grid2d.shape))
    path = tmp_path / "field.csv"
    save_gridfunction_csv(u, path)
    back = load_gridfunction_csv(path)
    assert back.grid == grid2d
    assert np.array_equal(back.values, u.values)
