"""The flat-workspace grid kernels against the per-axis slice kernel they
replaced, bit for bit.

`_SliceKernel` and `_slice_gradient_magnitude` are the earlier kernel, kept
here only as an oracle: per axis they difference 2D slice views and keep face
arrays whose outer-boundary faces stay zero.  The flat kernel keeps every
per-cell operation and its order, so every output must match through its
int64 bits, signed zeros included.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pytest

from pxwell.energy import _Ray
from pxwell.exponents import build_field
from pxwell.grid import Grid, GridFunction, _aligned, _Kernel, cell_gradient_magnitude


def _face_slices(dim, axis):
    """Cells left and right of each interior face, and the interior faces."""
    lo = [slice(None)] * dim
    hi = [slice(None)] * dim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    inner = [slice(None)] * dim
    inner[axis] = slice(1, -1)
    return tuple(lo), tuple(hi), tuple(inner)


def _slice_faces(grid):
    out = []
    for axis in range(grid.dimension):
        shape = list(grid.shape)
        shape[axis] += 1
        out.append((grid.spacing[axis], *_face_slices(grid.dimension, axis), np.zeros(shape)))
    return tuple(out)


def _slice_grad2(uv, faces, mag2):
    gs = []
    mag2.fill(0.0)
    for h, lo, hi, inner, face in faces:
        g = uv[hi] - uv[lo]
        g /= h
        np.multiply(g, g, out=face[inner])
        mag2 += face[lo] + face[hi]
        gs.append(g)
    mag2 *= 0.5
    return gs


def _slice_gradient_magnitude(u):
    mag2 = np.empty(u.grid.shape)
    _slice_grad2(u.values, _slice_faces(u.grid), mag2)
    return np.sqrt(mag2, out=mag2)


class _SliceKernel:
    """The per-axis slice kernel: J, right-hand side, G and S."""

    def __init__(self, grid, p_values, delta, r_values: Optional[np.ndarray] = None):
        self.shape = grid.shape
        self.vol, self.omega = grid.cell_volume, grid.volume
        self.d2 = delta * delta
        self.faces = _slice_faces(grid)
        self.expo = 0.5 * (p_values - 2.0)
        self.inv_p = 1.0 / p_values
        self.mag2, self.q, self.w = (np.empty(grid.shape) for _ in range(3))
        self.offset = 0.0
        if delta > 0.0:
            q0 = np.full(grid.shape, self.d2)
            self.offset = float(np.vdot(q0 * q0**self.expo, self.inv_p))
        self.radius = 4.0 * sum(1.0 / (h * h) for h in grid.spacing)
        self.source = r_values is not None
        if self.source:
            self.r1 = r_values - 1.0
            self.inv_r = 1.0 / r_values

    def __call__(self, uv):
        div, au, a = self._rhs(uv)
        G = self.vol * float(np.vdot(self.w, self.mag2))
        q = self.q
        q *= self.w
        J = self.vol * (float(np.vdot(q, self.inv_p)) - self.offset)
        S = 0.0
        if self.source:
            au *= a
            S = self.vol * float(au.sum())
            J -= self.vol * float(np.vdot(au, self.inv_r))
        return J, div, G, S

    def rhs(self, uv):
        return self._rhs(uv)[0]

    def _rhs(self, uv):
        mag2, q, w = self.mag2, self.q, self.w
        gs = _slice_grad2(uv, self.faces, mag2)
        np.add(mag2, self.d2, out=q)
        np.power(q, self.expo, out=w)
        div = np.zeros(self.shape)
        for (h, lo, hi, inner, face), g in zip(self.faces, gs):
            flux = face[inner]
            np.add(w[lo], w[hi], out=flux)
            flux *= g
            div += (face[hi] - face[lo]) * (0.5 / h)
        if not self.source:
            return div, None, None
        au = np.abs(uv)
        a = au**self.r1
        s = np.copysign(a, uv)
        s -= self.vol * s.sum() / self.omega
        div += s
        return div, au, a

    def explicit_dt(self):
        w_max = float(np.max(self.w))
        return 1.6 / (self.radius * w_max) if w_max > 0.0 else math.inf


def _bits(x):
    return np.ascontiguousarray(np.asarray(x, dtype=float)).view(np.int64)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


GRIDS = {
    "1d": Grid((40,), (1.0,)),
    "square": Grid((16, 16), (1.0, 1.0)),
    "12x9": Grid((12, 9), (1.0, 0.7)),
    "9x7": Grid((9, 7), (0.8, 1.3)),
}


def _exponents(grid, delta):
    # p crosses 2 where delta regularizes the weights; at delta = 0 it stays
    # above 2, so a zero gradient gives a zero weight, not an infinite one
    lo = 1.5 if delta > 0.0 else 2.2
    if grid.dimension == 1:
        return build_field(f"affine:{lo}+1.2x", grid), build_field("affine:2.5+1.0x", grid)
    return (build_field(f"affine:{lo}+0.6x+0.5y", grid),
            build_field("affine:2.7+-0.8x+0.3y", grid, label="r"))


def _fields(grid, rng):
    """Random states at amplitudes 1e-3 to 1e3 with about a third of the
    cells exact +0.0 or -0.0, a state of signed zeros only, and a flat one."""
    out = []
    for amp in (1e-3, 1.0, 1e3):
        u = amp * rng.standard_normal(grid.shape)
        zero = rng.random(grid.shape) < 0.35
        u[zero] = np.where(rng.random(grid.shape) < 0.5, 0.0, -0.0)[zero]
        out.append(u)
    out.append(np.where(rng.random(grid.shape) < 0.5, 0.0, -0.0))
    out.append(np.full(grid.shape, 2.5))
    return out


def _check(kernel, ref, uv):
    J, div, G, S = kernel(uv)
    J_r, div_r, G_r, S_r = ref(uv)
    assert _same_bits([J, G, S], [J_r, G_r, S_r])
    assert _same_bits(div, div_r)
    assert _same_bits(kernel.explicit_dt(), ref.explicit_dt())
    assert _same_bits(kernel.rhs(uv), ref.rhs(uv))
    assert _same_bits(kernel.explicit_dt(), ref.explicit_dt())


@pytest.mark.parametrize("name", list(GRIDS))
@pytest.mark.parametrize("delta", [0.0, 1e-8])
@pytest.mark.parametrize("source", [True, False], ids=["source", "no-source"])
def test_flat_kernel_matches_slice_kernel_bitwise(name, delta, source):
    grid = GRIDS[name]
    p, r = _exponents(grid, delta)
    kernel = _Kernel(grid, p.values, delta, r.values if source else None)
    ref = _SliceKernel(grid, p.values, delta, r.values if source else None)
    rng = np.random.default_rng(31)
    fields = _fields(grid, rng)
    signed_zeros = fields[3]
    assert np.signbit(signed_zeros).any() and not np.signbit(signed_zeros).all()
    for uv in fields:
        _check(kernel, ref, uv)
        # a state in Fortran order is read in C order: the same bits (the
        # slice kernel's sums ran in memory order)
        fortran = kernel(np.asfortranarray(uv))
        assert all(_same_bits(a, b) for a, b in zip(fortran, kernel(uv)))
        u = GridFunction(grid, uv)
        assert _same_bits(cell_gradient_magnitude(u), _slice_gradient_magnitude(u))


@pytest.mark.parametrize("delta", [0.0, 1e-8])
def test_offset_formed_on_first_energy_call(delta):
    # the right-hand side alone never forms the delta offset; the first call
    # that reads J forms it, with the bits of the slice kernel's eager one
    grid = GRIDS["12x9"]
    p, r = _exponents(grid, delta)
    kernel = _Kernel(grid, p.values, delta, r.values)
    ref = _SliceKernel(grid, p.values, delta, r.values)
    uv = _fields(grid, np.random.default_rng(33))[1]
    assert _same_bits(kernel.rhs(uv), ref.rhs(uv))
    assert "offset" not in vars(kernel)
    _check(kernel, ref, uv)
    assert _same_bits(kernel.offset, ref.offset)


def test_flat_kernels_interleaved_over_two_grids_and_a_ray():
    # two grids' kernels and a ray between their calls: each call rewrites
    # the workspace entries it reads, so no call sees another's scratch
    rng = np.random.default_rng(32)
    pairs = []
    for grid in (GRIDS["12x9"], GRIDS["9x7"]):
        p, r = _exponents(grid, 1e-8)
        pairs.append((grid, p, r, _Kernel(grid, p.values, 1e-8, r.values),
                      _SliceKernel(grid, p.values, 1e-8, r.values)))
    for _ in range(3):
        for k, (grid, p, r, kernel, ref) in enumerate(pairs):
            uv, wv = _fields(grid, rng)[1:3]
            J, div, G, S = kernel(uv)
            ray = _Ray(GridFunction(grid, wv), p, r)
            other_grid, _, _, other, _ = pairs[1 - k]
            other.rhs(_fields(other_grid, rng)[2])
            dt = kernel.explicit_dt()
            J_r, div_r, G_r, S_r = ref(uv)
            assert _same_bits([J, G, S, dt], [J_r, G_r, S_r, ref.explicit_dt()])
            assert _same_bits(div, div_r)
            assert _same_bits(kernel.rhs(uv), ref.rhs(uv))
            assert _same_bits(ray.gm,
                              _slice_gradient_magnitude(GridFunction(grid, wv)).ravel())


def _on_line(a):
    return a.__array_interface__["data"][0] % 64 == 0


@pytest.mark.parametrize("name", list(GRIDS))
@pytest.mark.parametrize("source", [True, False], ids=["source", "no-source"])
def test_kernel_writes_start_on_cache_lines(name, source):
    # every array a kernel pass writes starts on a 64-byte line: each face
    # array at entry s, the workspace's tmp and the kernel's cell buffers
    grid = GRIDS[name]
    p, r = _exponents(grid, 1e-8)
    kernel = _Kernel(grid, p.values, 1e-8, r.values if source else None)
    faces = kernel.faces
    written = [faces.tmp, kernel.mag2, kernel.q, kernel.w]
    written += [a[s:] for s, _, _, g, f in faces.axes for a in (g, f)]
    if source:
        written += [kernel.au, kernel.a, kernel.sa]
    assert len(written) == 4 + 2 * grid.dimension + 3 * source
    assert all(_on_line(a) for a in written)


@pytest.mark.parametrize("name", list(GRIDS))
@pytest.mark.parametrize("source", [True, False], ids=["source", "no-source"])
def test_flat_kernel_bitwise_on_a_state_off_a_line(name, source):
    # the oracle on states that start 8 bytes past a cache line, where the
    # kernel reads u[s:] and u[:-s] at other offsets than a fresh array's
    grid = GRIDS[name]
    p, r = _exponents(grid, 1e-8)
    kernel = _Kernel(grid, p.values, 1e-8, r.values if source else None)
    ref = _SliceKernel(grid, p.values, 1e-8, r.values if source else None)
    shifted = _aligned(math.prod(grid.shape) + 1, 1)[0][1:].reshape(grid.shape)
    assert shifted.__array_interface__["data"][0] % 64 == 8
    for uv in _fields(grid, np.random.default_rng(34)):
        shifted[...] = uv
        _check(kernel, ref, shifted)


def test_two_kernels_of_one_grid_in_turn():
    # two kernels on one grid share its face workspace; each pass rewrites
    # the entries it reads, so a kernel called after the other still matches
    # its oracle, and its weights survive the other's pass
    grid = GRIDS["9x7"]
    pairs = []
    for delta, source in ((1e-8, True), (0.0, False)):
        p, r = _exponents(grid, delta)
        rv = r.values if source else None
        pairs.append((_Kernel(grid, p.values, delta, rv), _SliceKernel(grid, p.values, delta, rv)))
    assert pairs[0][0].faces is pairs[1][0].faces
    rng = np.random.default_rng(35)
    for _ in range(3):
        uvs = _fields(grid, rng)[1:3]
        outs = [kernel(uv) for (kernel, _), uv in zip(pairs, uvs)]
        for (kernel, ref), uv, (J, div, G, S) in zip(pairs, uvs, outs):
            J_r, div_r, G_r, S_r = ref(uv)
            assert _same_bits([J, G, S, kernel.explicit_dt()],
                              [J_r, G_r, S_r, ref.explicit_dt()])
            assert _same_bits(div, div_r)
        for (kernel, ref), uv in zip(pairs, reversed(uvs)):
            assert _same_bits(kernel.rhs(uv), ref.rhs(uv))
