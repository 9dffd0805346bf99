"""The flat-workspace grid kernels against per-axis slice kernels.

`_SliceKernel` and `_slice_gradient_magnitude` are the earlier per-axis
kernel, kept here only as an oracle: per axis they difference 2D slice views
and keep face arrays whose outer-boundary faces stay zero.  By default they
use the flat kernel's arithmetic (raw face differences, each sum over a
cell's faces formed across the axes and scaled once by 0.5 / h_0^2), so
every output must match through its int64 bits, signed zeros included.
With `divided=True` they use the arithmetic the flat kernel had before:
each difference divided by its h and each axis' flux difference scaled by
0.5 / h, summed into zeros.  When every spacing is a power of two those
scalings are exact, so that second oracle must match bit for bit up to the
sign of a zero; on the other grids it must agree to a relative 1e-13.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pytest
from oracles import rk4_step, rkc2_step

from pxwell import solver
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
    """Per axis: h, the weight (h_0 / h)^2, the face slices and a face array
    with zero outer-boundary faces."""
    out = []
    h0 = grid.spacing[0]
    for axis, h in enumerate(grid.spacing):
        shape = list(grid.shape)
        shape[axis] += 1
        out.append((h, (h0 / h) ** 2, *_face_slices(grid.dimension, axis), np.zeros(shape)))
    return tuple(out)


def _face_sum(k, rel, term, out, divided):
    """Add axis k's face sum `term` into `out`: in the flat kernel's
    arithmetic the first axis writes `out` and a later one is weighted by
    rel; divided, every axis is added into zeros."""
    if divided:
        out += term
    elif k == 0:
        out[...] = term
    else:
        if rel != 1.0:
            term *= rel
        out += term


def _slice_grad2(uv, faces, mag2, divided=False):
    gs = []
    mag2.fill(0.0)
    for k, (h, rel, lo, hi, inner, face) in enumerate(faces):
        g = uv[hi] - uv[lo]
        if divided:
            g /= h
        np.multiply(g, g, out=face[inner])
        _face_sum(k, rel, face[lo] + face[hi], mag2, divided)
        gs.append(g)
    h0 = faces[0][0]
    mag2 *= 0.5 if divided else 0.5 / (h0 * h0)
    return gs


def _slice_gradient_magnitude(u, divided=False):
    mag2 = np.empty(u.grid.shape)
    _slice_grad2(u.values, _slice_faces(u.grid), mag2, divided)
    return np.sqrt(mag2, out=mag2)


class _SliceKernel:
    """The per-axis slice kernel: J, right-hand side, G and S; with
    `divided`, in the arithmetic of differences divided by h."""

    def __init__(self, grid, p_values, delta, r_values: Optional[np.ndarray] = None,
                 divided=False):
        self.shape = grid.shape
        self.vol, self.omega = grid.cell_volume, grid.volume
        self.d2 = delta * delta
        self.faces = _slice_faces(grid)
        self.divided = divided
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
        mag2, q, w, divided = self.mag2, self.q, self.w, self.divided
        gs = _slice_grad2(uv, self.faces, mag2, divided)
        np.add(mag2, self.d2, out=q)
        np.power(q, self.expo, out=w)
        div = np.zeros(self.shape)
        for k, ((h, rel, lo, hi, inner, face), g) in enumerate(zip(self.faces, gs)):
            flux = face[inner]
            np.add(w[lo], w[hi], out=flux)
            flux *= g
            diff = face[hi] - face[lo]
            if divided:
                diff *= 0.5 / h
            _face_sum(k, rel, diff, div, divided)
        if not divided:
            h0 = self.faces[0][0]
            div *= 0.5 / (h0 * h0)
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


# grids whose every spacing is a power of two (16x8 with h = 1/16 and 1/32,
# so its second axis has weight 4), and the exponent pairs of the shipped
# configs: p = 2.5, r = 1.5 and the affine p (on 1D its x part) with r = 4,
# each at the solver's delta and the constant pair also at delta = 0
DYADIC = {
    "16x16": Grid((16, 16), (1.0, 1.0)),
    "32x32": Grid((32, 32), (1.0, 1.0)),
    "64x64": Grid((64, 64), (1.0, 1.0)),
    "1d-64": Grid((64,), (1.0,)),
    "16x8": Grid((16, 8), (1.0, 0.25)),
}
SHIPPED_EXPONENTS = [("const:2.5", "const:1.5", 0.0), ("const:2.5", "const:1.5", 1e-8),
                     ("affine:1.8+0.35x+0.35y", "const:4.0", 1e-8)]


def _zero_sign_aside(a, b):
    # x + 0.0 is x, except -0.0 + 0.0 = +0.0
    return _same_bits(np.add(a, 0.0), np.add(b, 0.0))


@pytest.mark.parametrize("name", list(DYADIC))
@pytest.mark.parametrize("p_spec, r_spec, delta", SHIPPED_EXPONENTS,
                         ids=["2.5-1.5-delta0", "2.5-1.5", "affine-4"])
@pytest.mark.parametrize("source", [True, False], ids=["source", "no-source"])
def test_flat_kernel_matches_divided_differences_on_dyadic_grids(name, p_spec, r_spec,
                                                                 delta, source):
    # with power-of-two spacings, raw differences scaled once per sum give
    # the bits of differences divided by h at every face, up to zero signs
    grid = DYADIC[name]
    if grid.dimension == 1:
        p_spec = p_spec.replace("+0.35y", "")
    p, r = build_field(p_spec, grid), build_field(r_spec, grid, label="r")
    rv = r.values if source else None
    kernel = _Kernel(grid, p.values, delta, rv)
    ref = _SliceKernel(grid, p.values, delta, rv, divided=True)
    for uv in _fields(grid, np.random.default_rng(36)):
        J, div, G, S = kernel(uv)
        J_r, div_r, G_r, S_r = ref(uv)
        assert _zero_sign_aside([J, G, S], [J_r, G_r, S_r])
        assert _zero_sign_aside(div, div_r)
        assert _same_bits(kernel.explicit_dt(), ref.explicit_dt())
        assert _zero_sign_aside(kernel.rhs(uv), ref.rhs(uv))
        u = GridFunction(grid, uv)
        assert _same_bits(cell_gradient_magnitude(u), _slice_gradient_magnitude(u, divided=True))


# the worst relative difference measured off dyadic spacings is 4e-16
_OFF_DYADIC_RTOL = 1e-14


def _near(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # equal values, an infinite dt among them, are near
    return a.shape == b.shape and (np.array_equal(a, b) or np.max(np.abs(a - b))
                                   <= _OFF_DYADIC_RTOL * np.max(np.abs(b)))


@pytest.mark.parametrize("name", ["1d", "12x9", "9x7"])
@pytest.mark.parametrize("delta", [0.0, 1e-8])
@pytest.mark.parametrize("source", [True, False], ids=["source", "no-source"])
def test_flat_kernel_near_divided_differences_off_dyadic_grids(name, delta, source):
    # off power-of-two spacings the two arithmetics round differently: every
    # output agrees to a relative 1e-14, each array in its max norm
    grid = GRIDS[name]
    p, r = _exponents(grid, delta)
    rv = r.values if source else None
    kernel = _Kernel(grid, p.values, delta, rv)
    ref = _SliceKernel(grid, p.values, delta, rv, divided=True)
    for uv in _fields(grid, np.random.default_rng(37)):
        J, div, G, S = kernel(uv)
        J_r, div_r, G_r, S_r = ref(uv)
        assert all(_near(x, x_r) for x, x_r in ((J, J_r), (G, G_r), (S, S_r)))
        assert _near(div, div_r)
        assert _near(kernel.explicit_dt(), ref.explicit_dt())
        u = GridFunction(grid, uv)
        assert _near(cell_gradient_magnitude(u), _slice_gradient_magnitude(u, divided=True))


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


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("p_spec, r_spec", [("affine:1.8+0.35x+0.35y", "const:4.0"),
                                            ("const:2.5", "const:1.5")],
                         ids=["affine-4", "2.5-1.5"])
def test_steppers_match_expression_form_bitwise(n, p_spec, r_spec):
    # the steppers form their stages in the kernel's state buffer and one
    # set of work buffers, reused from step to step; their states match the
    # expression form on the slice kernel bit for bit, each RKC2 step at the
    # longest dt its stage count holds
    grid = Grid((n, n), (1.0, 1.0))
    p, r = build_field(p_spec, grid), build_field(r_spec, grid, label="r")
    kernel = _Kernel(grid, p.values, 1e-8, r.values)
    ref = _SliceKernel(grid, p.values, 1e-8, r.values)
    u = _fields(grid, np.random.default_rng(38))[1]
    f = kernel(u)[1]
    f_ref = ref.rhs(u)
    assert _same_bits(f, f_ref)
    dt_e = kernel.explicit_dt()
    work = solver._work(u.size)
    for s in (2, 3, 17, 45):
        dt = 0.5 * dt_e * solver._rkc2_weights(s)[1]
        u_new = solver._rkc2_step(kernel, u, f, dt, s, work, np.empty(u.size))
        assert np.isfinite(u_new).all() and _same_bits(u_new, rkc2_step(ref, u, f_ref, dt, s))
    u_new = solver._rk4_step(kernel, u, f, dt_e, work, np.empty(u.size))
    assert np.isfinite(u_new).all() and _same_bits(u_new, rk4_step(ref, u, f_ref, dt_e))
