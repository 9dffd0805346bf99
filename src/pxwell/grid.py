"""Uniform rectangular grids with Neumann-respecting discrete calculus.

Cell-centered finite volumes on an interval or a rectangle.  Gradients live
on faces, scalar fields on cells; all outer-boundary faces carry zero flux,
which is the discrete form of the homogeneous Neumann condition.  Every
integral in the package reduces to the midpoint rule on this grid.  Face
differences are formed where they are used, never stored as a field.

Every grid kernel runs on the C-order flat values, in the one face workspace
a grid caches (`_Faces`): along an axis of flat stride s the face
differences are u[k] - u[k - s], and cell c's two faces are entries c and
c + s of a face array with zero Neumann entries at its ends.  The
differences stay raw, never divided by h: each sum over a cell's faces is
formed across the axes and scaled once by 0.5 / h^2.  With every spacing a
power of two that scaling is exact, and every value has the bits of
differences divided by h at each face up to the sign of a zero.  The
cell-RMS |grad u|^2 is formed in one place, the compiled `grad2` loop.  The
discrete energy J is its cell quadrature, and the p(x)-flux is the exact L2
gradient of that energy.  The private `_Kernel` computes both, with the
source term: built once per exponent pair, it evaluates a state to J(u), the
right-hand side and the two modulars together, sharing the face differences
and the powers between them, or to the right-hand side alone where no energy
is read (a step's inner stages).  `px_flux_divergence`,
`dirichlet_energy` and the solver all call it.

What runs compiled and what stays NumPy.  The elementwise passes (the face
differences, the sums over a cell's faces, the fluxes, the source's sign
and its shift by its mean) and the source's sum run as loops in `_loops.c`
(built and loaded by `_loops`), each over all the cells and every axis in
one call, through addresses taken once per buffer; the sum runs in the
order of NumPy's pairwise sum, so it has `np.sum`'s bits.  The two powers
per cell, w = q^{(p - 2)/2} and a = |u|^{r - 1}, and the other reductions
(the sums of J, G and S, max w) stay NumPy calls: the powers are most of an
evaluation's time, and a loop of our own would round them otherwise.  No
bit can change: each loop makes the operations of the NumPy passes it
replaced, on the same operands and in the same order, built without fused
multiply-adds or fast-math, and the slice oracles of
`tests/test_flat_kernel.py` hold every output to them.  A right-hand side
with the source on is then two compiled calls and the two powers, formed
by one NumPy call over arrays that hold q and |u| side by side: `grad2`
before the powers and `rhs` after them.  A full evaluation
(`_Kernel.evaluate`) copies its state into the workspace's `x`, forms its
gradient and finishes (`_Kernel.finish`): the powers, `rhs` into the
address of the caller's flat buffer, and J and the modulars; it allocates
no array and takes no address.  The kernel also runs the solver's steps
(`_Kernel.step`), through a stepper it describes to the loops once per run
(`_Kernel.stepper`): their compiled stages (`step_begin` and `step_stage`
of `_loops.c`) form each stage state in `x` and its gradient, q and |u| in
the kernel's buffers, so between two compiled calls only the kernel's
powers (`_Kernel.powers`) run, and a step's last stage leaves the new state
and its gradient there for `finish`.  No other module calls the loops.  A
caller takes its buffers' addresses once, through `_Kernel.address`, which
refuses a buffer that is not writeable contiguous float64 of the grid's
size or that overlaps the state or a kernel buffer.  `_Kernel.__call__`,
and `_Kernel.rhs` for the right-hand side alone, wrap them for callers
that keep no buffers and allocate one array each, the right-hand side they
return.

Every array a kernel writes starts on a 64-byte cache line (`_aligned`):
NumPy's AVX-512 loops store a line at a time, and on an AVX-512 host (NumPy
2.4 dispatching AVX512_SPR) an `np.add` on 4,096 doubles took 2.6 us into a
line-aligned output against 4.1-4.7 us into one 8, 16 or 32 bytes off, and
at most 15 % more when only an input was off.  malloc aligns to 16 bytes, so
the face slices [s:] of plain arrays on the stride-1 axis were always 8 bytes
off a line, and any other buffer was on one only by the heap's state.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import _loops

__all__ = [
    "Grid",
    "GridFunction",
    "integrate",
    "cell_gradient_magnitude",
    "px_flux_divergence",
    "dirichlet_energy",
    "project_mean_zero",
    "load_gridfunction_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on an axis-aligned box, 1D or 2D; the spacing and the
    volumes are computed once per instance."""

    cells: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.cells) not in (1, 2) or len(self.cells) != len(self.lengths):
            raise ValueError("grid must be 1D or 2D with matching lengths")
        if any(n < 2 for n in self.cells):
            raise ValueError("need at least 2 cells per axis")
        if not all(0.0 < L < math.inf for L in self.lengths):
            raise ValueError(f"domain lengths must be positive and finite, got {self.lengths!r}")

    @property
    def dimension(self) -> int:
        return len(self.cells)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.cells))

    @cached_property
    def flat_neighbours(self) -> tuple[tuple[int, int], ...]:
        """Per axis, (s, wrap): in the C-order flat values, cells k - s and k
        are neighbours along the axis unless wrap is nonzero and divides k.
        wrap is the row length on the last axis of a 2D grid, where k - s
        and k straddle a row end, and 0 on every other axis."""
        if self.dimension == 1:
            return ((1, 0),)
        return ((self.cells[1], 0), (1, self.cells[1]))

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @cached_property
    def volume(self) -> float:
        return math.prod(self.lengths)

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def centers(self) -> list[np.ndarray]:
        """Cell-center coordinate arrays, broadcast to the grid shape."""
        axes = [self.axis_centers(a) for a in range(self.dimension)]
        return list(np.meshgrid(*axes, indexing="ij"))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells


@dataclass
class GridFunction:
    """Scalar field sampled at cell centers."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )


def integrate(f: GridFunction) -> float:
    """Midpoint-rule integral over the whole domain."""
    return f.grid.cell_volume * float(np.sum(f.values))


def _require_one_grid(field, *more) -> None:
    """Raise ValueError unless every argument lives on `field`'s grid; each
    is a `GridFunction` or an exponent field, anything with a `.grid`."""
    if any(f.grid is not field.grid and f.grid != field.grid for f in more):
        raise ValueError("fields must share one grid")


# doubles per 64-byte cache line
_LINE = 8


def _aligned(n: int, count: int, first: int = 0) -> list[np.ndarray]:
    """`count` float arrays of n entries carved from one `np.empty` block,
    entry `first` of each on a 64-byte boundary, uninitialised."""
    stride = -(-n // _LINE) * _LINE
    block = np.empty(count * stride + _LINE - 1)
    start = (-(block.__array_interface__["data"][0] // block.itemsize) - first) % _LINE
    return [block[k: k + n] for k in range(start, start + count * stride, stride)]


def cell_gradient_magnitude(u: GridFunction) -> np.ndarray:
    """|grad u| at cells: per-axis RMS of the two adjacent face differences,
    an outer-boundary face counting as zero (mirror ghost)."""
    faces = _workspace(u.grid)
    faces.load(u.values)
    faces.gradient()
    return np.sqrt(faces.mag2).reshape(u.grid.shape)


class _Faces:
    """The flat face workspace of one grid, described once to the compiled
    loops (`_loops.Faces`).

    Per axis of flat stride s and row-end `wrap` (`Grid.flat_neighbours`),
    with n cells: the axis' weight `rel` = (h_0 / h)^2 against the first
    axis' spacing h_0 (1.0 on every grid with square cells) and two face
    arrays of n + s entries, `g` for the raw face differences
    d = u[s:] - u[:-s] and `f` for the face fluxes.
    Entry k >= s is the face between cells k - s and k, so cell c's two
    faces are entries c and c + s.  The s entries at each end are
    outer-boundary faces and stay zero, the mirror ghost.  Where `wrap` is
    nonzero the entries at its multiples are the faces across a row end,
    outer-boundary faces too: every loop that writes a face array writes
    +0.0 there.  Three cell arrays complete it: the state `x` that every loop
    reads, the cell-RMS |grad u|^2 `mag2` and the scratch `tmp`, which only
    `energy._Ray` uses.  A kernel's divergence needs no array here: the
    `rhs` loop sums it across the axes in the caller's buffer.  The
    workspace also gives the loops the cell volume and the domain's, for
    the source's mean, and keeps in `spans` the address and size of each
    memory block its buffers are carved from, which no kernel output may
    overlap.

    The differences are never divided by h.  Each sum over a cell's faces
    is formed across the axes first, from raw differences (the first axis
    writing its cell array directly, a later one weighted by its `rel`), and
    scaled once by `scale` = 0.5 / h_0^2.  When every spacing is a power of
    two each of these scalings is exact, so every value has the bits of
    differences divided by h at each face, except that a divergence whose
    terms are all zeros may be -0.0 where a sum begun from +0.0 would be
    +0.0.

    `gradient` runs the compiled `grad2` loop: mag2 from x, per axis half the
    sum of the squared differences on a cell's two faces over h^2, leaving
    each axis' raw differences in its `g`.  A kernel's `rhs` loop then reads
    those differences and its own weights w.

    Scratch only: every caller loads x and overwrites the interior entries
    it reads within one call, and never reads them across calls, so
    `cell_gradient_magnitude` (hence every ray of `energy`) and every
    `_Kernel` on the grid share one workspace, built once per grid and held
    in a small bounded cache.

    Entry s of each face array and entry 0 of each cell array sit on a
    64-byte line, so every write into g[s:n], f[s:n] and the cell arrays
    starts on one (see the module docstring for why).
    """

    def __init__(self, grid: Grid):
        n = self.n = math.prod(grid.cells)
        h0 = grid.spacing[0]
        scale = self.scale = 0.5 / (h0 * h0)
        self.x, self.mag2, self.tmp = x, mag2, _ = _aligned(n, 3)
        axes = []
        for (s, wrap), h in zip(grid.flat_neighbours, grid.spacing):
            g, f = _aligned(n + s, 2, s)
            g[:s] = g[n:] = f[:s] = f[n:] = 0.0
            axes.append((s, (h0 / h) ** 2, wrap, g, f))
        self.axes = tuple(axes)
        # the loops read the buffers through these addresses; the workspace
        # holds the buffers
        self.plan = _loops.Faces(n, len(axes), scale, grid.cell_volume, grid.volume,
                                 x.ctypes.data, mag2.ctypes.data,
                                 (_loops.Axis * 2)(*(
                                     _loops.Axis(s, wrap, rel, g.ctypes.data, f.ctypes.data)
                                     for s, rel, wrap, g, f in axes)))
        self.address = ctypes.addressof(self.plan)
        # the (address, size) of each block the buffers are carved from: x's,
        # and each axis'
        self.spans = tuple((b.ctypes.data, b.nbytes)
                           for b in (x.base, *(g.base for _, _, _, g, _ in axes)))

    def load(self, values: np.ndarray) -> None:
        """Copy the state `values`, read in C order, into x."""
        np.copyto(self.x, values.reshape(-1))

    def gradient(self, d2: float = 0.0, q: Optional[int] = None,
                 au: Optional[int] = None) -> None:
        """|grad u|^2 of the loaded state into `mag2`; with the address `q`,
        also q = |grad u|^2 + d2 there, and with the address `au`, |u|."""
        _loops.lib.grad2(self.address, d2, q, au)


@lru_cache(maxsize=8)
def _workspace(grid: Grid) -> _Faces:
    return _Faces(grid)


class _Kernel:
    """J(u), the right-hand side div(flux) + source - mean(source), and the
    modulars G and S, from one power per cell for the flux and one for the
    source.

    With m the cell-RMS |grad u|^2 of `cell_gradient_magnitude`, each cell
    takes q = m + delta^2 and w = q^{(p - 2)/2}: its energy density is
    (q w - delta^p) / p and its share of G is w m, which is |grad u|^p at
    delta = 0.  The face flux (w_L + w_R) g / 2 is the exact L2 gradient of
    that energy, so the right-hand side is the exact gradient of -J; at
    p = 2 it is the 5-point Laplacian.  Outer-boundary faces carry zero flux.
    Per cell one power a = |u|^{r-1} gives the source sign(u) a, its modular
    S from |u| a and its energy from |u| a / r; without `r_values` the source
    is off and S = 0.  Everything that depends only on the exponents and delta
    is computed once, here.

    The kernel works on the flat values in its grid's `_Faces` workspace,
    whose state buffer it exposes as `state`, and reads |grad u|^2 from the
    workspace's `mag2`.  It keeps its own flat q and w buffers, which the
    sums of J and G and `explicit_dt` read after the call that filled them,
    and with the source on two for |u| and a.  They and the
    per-cell (p - 2)/2 and 1/p, and with the source r - 1 and 1/r, are
    carved from one block with each on a 64-byte line, like the workspace
    (see the module docstring), and with the source each pair (q and |u|,
    the two exponents, w and a) as one array, so that one NumPy power
    forms w and a (`powers`); a construction allocates once, and a
    kernel built per call, as in `px_flux_divergence`, frees one block and
    keeps the right-hand side it returned.  `evaluate` is the one full
    evaluation, into a buffer of the caller's whose address `address` has
    checked, and `finish` its second half, at a state whose gradient is
    formed; `__call__` and `rhs` are its allocating wrappers, the latter
    without the sums of J, G and S.

    A right-hand side is three calls: the workspace's compiled `grad2`
    loop, which also writes q and, with the source on, |u|; the NumPy power
    w = q^{(p - 2)/2} and, with the source on, a = |u|^{r - 1}, in one call
    (`powers`); and the compiled `rhs` loop, which writes into the caller's
    buffer the scaled divergence of the face fluxes (w_L + w_R) g and, with
    the source on, adds sign(u) a less its mean, the sum of sign(u) a taken
    in the order of NumPy's pairwise sum.  A step (`step`) makes the same
    `rhs` and `grad2` around the same powers in each compiled stage.  Each
    per-cell operation, and their order, is that of per-axis formulas on 2D
    slices in the same arithmetic, so every value is the same bits as with
    such slices.
    """

    def __init__(self, grid: Grid, p_values: np.ndarray, delta: float,
                 r_values: Optional[np.ndarray] = None):
        if not 0.0 <= delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {delta!r}")
        self.shape = grid.shape
        self.vol = grid.cell_volume
        self.d2 = delta * delta
        faces = self.faces = _workspace(grid)
        self.n, self.state, self.mag2 = faces.n, faces.x, faces.mag2
        self.delta = delta
        # Gershgorin radius of the flux divergence at frozen weights, over w
        self.radius = 4.0 * sum(1.0 / (h * h) for h in grid.spacing)
        self.source = r_values is not None
        # four arrays: q and |u|, (p - 2)/2 and r - 1, w and a, 1/p and 1/r,
        # the second of each pair from entry m on, on a line, so that one
        # NumPy power forms w and a; without the source, the first of each
        n = faces.n
        m = -(-n // _LINE) * _LINE if self.source else 0
        pairs = self.qa, self.er, self.wa, _ = _aligned(m + n, 4)
        # the entries between a pair's arrays: 1 ** 1, no warning
        self.qa[n:m] = self.er[n:m] = 1.0
        self.spans = (*faces.spans, (pairs[0].base.ctypes.data, pairs[0].base.nbytes))
        self.q, self.expo, self.w, self.inv_p = (b[:n] for b in pairs)
        pv = p_values.ravel()
        np.multiply(np.subtract(pv, 2.0, out=self.expo), 0.5, out=self.expo)
        np.divide(1.0, pv, out=self.inv_p)
        # the addresses of the buffers the compiled loops write, read once
        self.q_at, self.w_at = self.q.ctypes.data, self.w.ctypes.data
        self.au_at = self.a_at = None
        if self.source:
            self.au, self.r1, self.a, self.inv_r = (b[m:] for b in pairs)
            rv = r_values.ravel()
            np.subtract(rv, 1.0, out=self.r1)
            np.divide(1.0, rv, out=self.inv_r)
            self.au_at, self.a_at = self.au.ctypes.data, self.a.ctypes.data

    @cached_property
    def offset(self) -> float:
        """Sum over cells of delta^p / p, formed as q w is at a zero gradient,
        so that the zero state's energy is exactly zero; computed on the
        first call that reads J, never for the right-hand side alone.  It is
        formed in the q and w buffers, which the next right-hand side
        overwrites."""
        if not self.delta > 0.0:
            return 0.0
        q, w = self.q, self.w
        q.fill(self.d2)
        np.power(q, self.expo, out=w)
        return float(np.vdot(np.multiply(q, w, out=q), self.inv_p))

    def address(self, out: np.ndarray) -> int:
        """The address of the flat buffer `out`, checked to be a writeable
        C-contiguous float64 buffer of n entries, since a loop reads or
        writes n entries from it, whatever it is, and would write through a
        read-only one; and to share no memory with the state or a buffer of
        the kernel's or its workspace's, which a stage reads after it has
        begun to write its output.  ValueError otherwise.  A caller that
        keeps its buffers takes their addresses here once."""
        flags = out.flags
        if not (out.dtype == np.float64 and out.size == self.n and flags.c_contiguous
                and flags.writeable):
            raise ValueError(f"a loop needs a writeable contiguous float64 buffer of {self.n} "
                             f"entries, got {out.dtype} {out.shape}"
                             f"{'' if flags.writeable else ', read-only'}")
        at = out.ctypes.data
        if any(lo < at + out.nbytes and at < lo + size for lo, size in self.spans):
            raise ValueError("a kernel's output must not share memory with its state or buffers")
        return at

    def evaluate(self, uv: np.ndarray, dest: int) -> tuple[float, float, float]:
        """(J, G, S) at the state `uv`, which is copied into `state` first,
        with its right-hand side written to the address `dest` of a buffer
        of the caller's (`address`); no array is allocated."""
        # read before the gradient, which fills the buffers the offset is
        # formed in
        self.offset
        self.faces.load(uv)
        self.faces.gradient(self.d2, self.q_at, self.au_at)
        return self.finish(dest)

    def finish(self, dest: int) -> tuple[float, float, float]:
        """(J, G, S) at the state in `state`, whose gradient, q and |u| are
        formed (by `evaluate`, or by a stepper's last stage), with its
        right-hand side written to the address `dest`: the powers, the
        compiled `rhs` and the sums.  The offset must be cached already
        (`evaluate` and `stepper` cache it): it is formed in the buffers that
        hold q."""
        self.powers()
        _loops.lib.rhs(self.faces.address, self.w_at, self.a_at, dest)
        G = self.vol * float(np.vdot(self.w, self.mag2))
        q = np.multiply(self.q, self.w, out=self.q)
        J = self.vol * (float(np.vdot(q, self.inv_p)) - self.offset)
        S = 0.0
        if self.source:
            au = np.multiply(self.au, self.a, out=self.au)
            S = self.vol * float(au.sum())
            J -= self.vol * float(np.vdot(au, self.inv_r))
        return J, G, S

    def __call__(self, uv: np.ndarray) -> tuple[float, np.ndarray, float, float]:
        """(J, right-hand side, G, S) at the state `uv`, the right-hand side
        in a new array of the grid's shape (`evaluate`)."""
        div = np.empty(self.n)
        J, G, S = self.evaluate(uv, self.address(div))
        return J, div.reshape(self.shape), G, S

    def rhs(self, uv: np.ndarray) -> np.ndarray:
        """The right-hand side at `uv` alone, in a new array of the grid's
        shape: the compiled `grad2`, the powers and the compiled `rhs`, the
        first half of `evaluate`, without the sums of J, G and S.
        |grad u|^2, q and w, and with the source on |u| and a = |u|^{r-1},
        stay in their buffers (|grad u|^2, in the workspace, until the next
        call on the grid)."""
        div = np.empty(self.n)
        dest = self.address(div)
        self.faces.load(uv)
        self.faces.gradient(self.d2, self.q_at, self.au_at)
        self.powers()
        _loops.lib.rhs(self.faces.address, self.w_at, self.a_at, dest)
        return div.reshape(self.shape)

    def powers(self) -> None:
        """The powers w = q^{(p - 2)/2} and, with the source on,
        a = |u|^{r - 1}, from the q and |u| that the last `grad2` wrote: one
        NumPy power over each pair of arrays, which gives each entry the bits
        of a power over its array alone and saves a call's 0.75 us."""
        np.power(self.qa, self.er, out=self.wa)

    def stepper(self, work: list[int]) -> int:
        """The address of a run's stepper (`_loops.Stepper`), which `step`
        reads: this kernel's workspace, delta^2 and the addresses of its q,
        |u|, w and a buffers, and the first three of `work`, the addresses
        of the caller's work buffers (`address`).  The caller holds those
        buffers and the kernel the struct, until its next call.  The offset
        is read first, if no evaluation has read it: it is formed in the q
        and w buffers, where a step's last stage leaves its state's q for
        `finish`."""
        self.offset
        self.plan = _loops.Stepper(self.faces.address, self.d2, self.q_at, self.au_at,
                                   self.w_at, self.a_at, *work[:3])
        return ctypes.addressof(self.plan)

    def step(self, plan: int, u: int, f: int, out: int, dt: float, s: int,
             weights: Optional[int]) -> bool:
        """One step of size dt from the flat state at the address u, whose
        right-hand side is at f, into the buffer at out, through the stepper
        at the address `plan` (`stepper`); whether the new state is finite.
        With the address `weights` of its rows (`solver._rkc2_weights`) it
        is an s-stage RKC2 step, and with none (s = 4) an RK4 step.  Each
        address is of a buffer of n cells, checked by `address`.

        It is one compiled `step_begin`, which forms the first stage state
        in `state`, the first increment (RKC2's d_1 = f mu~_1 dt and
        d_0 = +0.0, RK4's f dt / 6) and the state's gradient, q and |u|;
        then per inner stage the powers (`powers`) and one compiled
        `step_stage`, which forms the stage's slope, the right-hand side,
        the increment and the next stage state, and its gradient, q and |u|.
        RKC2's increment is ((slope mu~_j dt + f gamma~_j dt) + d_{j-1} mu_j)
        + d_{j-2} nu_j and its stage state u + d_j; RK4 adds each slope's
        term of the tableau's b = (1/6, 1/3, 1/3, 1/6) dt to its increment
        as soon as the slope is formed, and its stage state is u + k c.  The
        last stage writes the new state, u plus the increment, into both out
        and `state`, with its gradient, so `finish` evaluates it from the
        powers on.  A step costs s - 1 evaluations, allocates nothing and
        takes no address, and each value has the bits of the NumPy passes
        that formed these sums term by term: the loops make the same
        operations in the same order, without fused multiply-adds."""
        lib = _loops.lib
        lib.step_begin(plan, u, f, out, dt, s, weights)
        for j in range(2, s + 1):
            self.powers()
            finite = lib.step_stage(plan, j)
        return bool(finite)

    def explicit_dt(self) -> float:
        """0.8 of explicit Euler's stability bound 2 / rho at the state last
        evaluated, whose cell weights w are still held, with rho = 4 max(w)
        sum 1/h^2 the Gershgorin radius of the flux divergence at frozen
        weights.  The weights' own variation stiffens only modes smooth on
        the cell scale, so rho bounds the linearized right-hand side's
        spectral radius on every state measured; the energy-residual test,
        not this bound, decides whether a step stands.  Infinite when every
        weight is zero (delta = 0, p > 2 and a flat state)."""
        w_max = float(self.w.max())
        return 1.6 / (self.radius * w_max) if w_max > 0.0 else math.inf


def px_flux_divergence(u: GridFunction, p, delta: float = 1e-8) -> GridFunction:
    """Variable-exponent flux divergence with zero Neumann boundary flux.

    The face flux is (w_L + w_R) g / 2 with g the face difference and
    w = (|grad u|^2 + delta^2)^{(p - 2)/2} in the two adjacent cells, |grad u|
    the cell-RMS gradient; delta regularizes the singular case p < 2 at
    vanishing gradients.  u and p must share one grid.
    """
    _require_one_grid(u, p)
    return GridFunction(u.grid, _Kernel(u.grid, p.values, delta).rhs(u.values))


def dirichlet_energy(u: GridFunction, p, delta: float = 1e-8) -> float:
    """Cell-RMS potential sum (q w - delta^p) / p, q = |grad u|^2 + delta^2,
    whose L2 gradient is -px_flux_divergence; u and p must share one grid."""
    _require_one_grid(u, p)
    return _Kernel(u.grid, p.values, delta)(u.values)[0]


def project_mean_zero(u: GridFunction) -> GridFunction:
    """Subtract the spatial mean; idempotent up to round-off."""
    return GridFunction(u.grid, _minus_mean(u.grid, u.values))


def _minus_mean(grid: Grid, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """`values` less their midpoint-rule mean over the grid, into `out` if
    given."""
    return np.subtract(values, grid.cell_volume * float(values.sum()) / grid.volume, out=out)


def load_gridfunction_csv(path) -> GridFunction:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# grid"):
            raise ValueError(f"{path}: missing '# grid' header")
        parts = header.split()[2:]
        if len(parts) not in (2, 4):
            raise ValueError(f"{path}: header must be '# grid nx [ny] Lx [Ly]'")
        dim = len(parts) // 2
        cells = tuple(map(int, parts[:dim]))
        lengths = tuple(map(float, parts[dim:]))
        data = np.array([float(line) for line in fh if line.strip()])
    grid = Grid(cells, lengths)
    n_expected = math.prod(cells)
    if data.size != n_expected:
        raise ValueError(f"{path}: expected {n_expected} values, found {data.size}")
    return GridFunction(grid, data.reshape(cells, order="C"))
