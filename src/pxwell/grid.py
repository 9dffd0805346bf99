"""Uniform rectangular grids with Neumann-respecting discrete calculus.

Cell-centered finite volumes on an interval or a rectangle.  Gradients live
on faces, scalar fields on cells; all outer-boundary faces carry zero flux,
which is the discrete form of the homogeneous Neumann condition.  Every
integral in the package reduces to the midpoint rule on this grid.  Face
differences are formed where they are used, never stored as a field.

Every grid kernel runs on the C-order flat values, in the one face workspace
a grid caches (`_Faces`): along an axis of flat stride s the face differences
are u[s:] - u[:-s], contiguous, and a cell's two faces are the [:-s] and [s:]
slices of a face array with zero Neumann entries at its ends.  The
differences stay raw, never divided by h: each sum over a cell's faces is
formed across the axes and scaled once by 0.5 / h^2, so a 2D right-hand side
with the source on takes 24 full array passes.  With every spacing a power
of two that scaling is exact, and every value has the bits of differences
divided by h at each face up to the sign of a zero.  The cell-RMS
|grad u|^2 is formed in one place, the workspace's `grad2` passes.  The
discrete energy J is its cell quadrature, and the p(x)-flux is the exact L2
gradient of that energy.  The private `_Kernel` computes both, with the
source term: built once per exponent pair, it evaluates a state to J(u), the
right-hand side and the two modulars together, sharing the face differences
and the powers between them, or to the right-hand side alone where no energy
is read (the solver's inner stages).  `px_flux_divergence`,
`dirichlet_energy` and the solver all call it.

The passes are bound once, as a program: a tuple of (ufunc, in, in, out) over
fixed views of the workspace's and the kernel's buffers, run by `_run` with
positional outs, so a call slices nothing.  The passes read the state from
the workspace's state buffer `x`.  What reads only the workspace is bound
once per grid, in `_Faces`: the `grad2` passes from `x` to |grad u|^2, and
per axis the divergence passes after the flux's weight sum.  What reads a
kernel's own weights w, and its q and w passes, is bound per kernel, so that
building a kernel binds four views on a 2D grid and allocates one block.
A full evaluation (`_Kernel.rhs`, `_Kernel.__call__`) copies its state into
`x` and allocates one array, the right-hand side it returns; an inner stage
(`_Kernel.stage`) reads a state its caller formed in `x` and writes into
the caller's buffer, and allocates nothing.

Every array a kernel pass writes starts on a 64-byte cache line (`_aligned`):
NumPy's AVX-512 loops store a line at a time, and on an AVX-512 host (NumPy
2.4 dispatching AVX512_SPR) an `np.add` on 4,096 doubles took 2.6 us into a
line-aligned output against 4.1-4.7 us into one 8, 16 or 32 bytes off, and
at most 15 % more when only an input was off.  malloc aligns to 16 bytes, so
the face slices [s:] of plain arrays on the stride-1 axis were always 8 bytes
off a line, and any other buffer was on one only by the heap's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

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
    _run(faces.grad2)
    return np.sqrt(faces.mag2).reshape(u.grid.shape)


# +0.0, the one input of the passes that zero a strided set of faces
_ZERO = np.zeros(())


def _run(program: tuple) -> None:
    """Run the bound passes (ufunc, in, in, out) in order."""
    for ufunc, a, b, out in program:
        ufunc(a, b, out)


class _Faces:
    """The flat face workspace of one grid, with the passes bound on it.

    Per axis of flat stride s and row-end `wrap` (`Grid.flat_neighbours`),
    with n cells: the axis' weight `rel` = (h_0 / h)^2 against the first
    axis' spacing h_0 (1.0 on every grid with square cells) and two face
    arrays of n + s entries, `g` for the raw face differences
    d = u[s:] - u[:-s] and `f` for their squares and then the fluxes.
    Entry k >= s is the face between cells k - s and k, so cell c's two
    faces are entries c and c + s, the slices [:-s] and [s:].  The s entries
    at each end are outer-boundary faces and stay zero, the mirror ghost.
    Where `wrap` is nonzero the entries at its multiples are the faces
    across a row end, outer-boundary faces too: every write there is
    followed by one strided pass that zeroes them again.  Four cell arrays
    complete it: the state `x` that every pass reads, the cell-RMS
    |grad u|^2 `mag2`, the unscaled divergence `div` and the scratch `tmp`.

    The differences are never divided by h.  Each sum over a cell's faces
    is formed across the axes first, from raw differences (the first axis
    writing its cell array directly, a later axis through `tmp`, scaled by
    its `rel` when that is not 1), and scaled once by `scale` = 0.5 / h_0^2.
    When every spacing is a power of two each of these scalings is exact,
    so every value has the bits of differences divided by h at each face,
    except that a divergence whose terms are all zeros may be -0.0 where a
    sum begun from +0.0 would be +0.0.

    Two programs are bound here.  `grad2` forms mag2 from x: per axis, half
    the sum of the squared differences on a cell's two faces over h^2,
    leaving each axis' raw differences in its `g`.  `flux` holds per axis
    the face flux array f[s:n] and the passes that follow its weight sum
    (w_L + w_R), which a kernel binds on its own w: the flux times the
    differences `grad2` left, and the sum of the fluxes' differences into
    `div`, so that the divergence of the face flux (w_L + w_R) d / (2 h) is
    `scale` div.

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
        self.x, self.mag2, self.div, self.tmp = x, mag2, div, tmp = _aligned(n, 4)
        axes, grad2, flux = [], [], []
        for k, ((s, wrap), h) in enumerate(zip(grid.flat_neighbours, grid.spacing)):
            rel = (h0 / h) ** 2
            g, f = _aligned(n + s, 2, s)
            g[:s] = g[n:] = f[:s] = f[n:] = 0.0
            axes.append((s, rel, wrap, g, f))
            gi, fi = g[s:n], f[s:n]
            grad2.append((np.subtract, x[s:], x[:-s], gi))
            if wrap:
                grad2.append((np.add, _ZERO, _ZERO, g[::wrap]))
            grad2.append((np.multiply, gi, gi, fi))
            grad2 += self._summed(k, rel, f[:-s], f[s:], np.add, mag2)
            ops = [(np.multiply, fi, gi, fi)]
            if wrap:
                ops.append((np.add, _ZERO, _ZERO, f[::wrap]))
            ops += self._summed(k, rel, f[s:], f[:-s], np.subtract, div)
            flux.append((fi, tuple(ops)))
        grad2.append((np.multiply, mag2, scale, mag2))
        self.axes, self.grad2, self.flux = tuple(axes), tuple(grad2), tuple(flux)

    def _summed(self, k: int, rel: float, a: np.ndarray, b: np.ndarray, ufunc,
                out: np.ndarray) -> list[tuple]:
        """The passes that sum axis k's face term ufunc(a, b) into `out`: the
        first axis writes `out` directly, a later one goes through `tmp` and
        is added with its weight."""
        if not k:
            return [(ufunc, a, b, out)]
        ops = [(ufunc, a, b, self.tmp)]
        if rel != 1.0:
            ops.append((np.multiply, self.tmp, rel, self.tmp))
        return ops + [(np.add, out, self.tmp, out)]

    def load(self, values: np.ndarray) -> None:
        """Copy the state `values`, read in C order, into x."""
        np.copyto(self.x, values.reshape(-1))


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
    and with the source on three for |u|, a and sign(u) a.  They and the
    per-cell (p - 2)/2 and 1/p, and with the source r - 1 and 1/r, are
    carved from one block with each on a 64-byte line, like the workspace
    (see the module docstring), so a construction allocates once, and a
    kernel built per call, as in `px_flux_divergence`, frees one block and
    keeps the right-hand side it returned.  Its `program` is the
    workspace's `grad2` passes, its own q and w passes and, per axis, its own
    weight sum into the face flux followed by the workspace's flux passes for
    that axis.  A right-hand side makes these passes over the cells, 2D with
    square cells and the source on: |grad u|^2 in 8, q and w in 2, the
    divergence in 8 and the source in 6 (|u|, a, sign(u) a, its sum, less
    its mean, added to the scaled divergence): 24 in all.  The last pass,
    the source's addition or without the source the divergence's scaling,
    writes the caller's array.
    Each per-cell operation, and their order, is that of per-axis formulas on
    2D slices in the same arithmetic, so every value is the same bits as with
    such slices.
    """

    def __init__(self, grid: Grid, p_values: np.ndarray, delta: float,
                 r_values: Optional[np.ndarray] = None):
        if not 0.0 <= delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {delta!r}")
        self.shape = grid.shape
        self.vol, self.omega = grid.cell_volume, grid.volume
        self.d2 = delta * delta
        faces = self.faces = _workspace(grid)
        self.state, self.mag2 = faces.x, faces.mag2
        self.delta = delta
        # Gershgorin radius of the flux divergence at frozen weights, over w
        self.radius = 4.0 * sum(1.0 / (h * h) for h in grid.spacing)
        self.source = r_values is not None
        buffers = _aligned(faces.n, 9 if self.source else 4)
        self.expo, self.inv_p, q, w = buffers[:4]
        self.q, self.w = q, w
        pv = p_values.ravel()
        np.multiply(np.subtract(pv, 2.0, out=self.expo), 0.5, out=self.expo)
        np.divide(1.0, pv, out=self.inv_p)
        program = faces.grad2 + ((np.add, faces.mag2, self.d2, q), (np.power, q, self.expo, w))
        for (s, *_), (flux, ops) in zip(faces.axes, faces.flux):
            program += ((np.add, w[:-s], w[s:], flux),) + ops
        if self.source:
            self.r1, self.inv_r, self.au, self.a, self.sa = buffers[4:]
            rv = r_values.ravel()
            np.subtract(rv, 1.0, out=self.r1)
            np.divide(1.0, rv, out=self.inv_r)
            program += ((np.multiply, faces.div, faces.scale, faces.div),)
        self.program = program

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

    def __call__(self, uv: np.ndarray) -> tuple[float, np.ndarray, float, float]:
        """(J, right-hand side, G, S) at the state `uv`."""
        # read before the right-hand side, which overwrites the buffers the
        # offset is formed in
        offset = self.offset
        div = self.rhs(uv)
        G = self.vol * float(np.vdot(self.w, self.mag2))
        q = self.q
        q *= self.w
        J = self.vol * (float(np.vdot(q, self.inv_p)) - offset)
        S = 0.0
        if self.source:
            au = self.au
            au *= self.a
            S = self.vol * float(au.sum())
            J -= self.vol * float(np.vdot(au, self.inv_r))
        return J, div, G, S

    def rhs(self, uv: np.ndarray) -> np.ndarray:
        """The right-hand side at `uv`, in a new array of the grid's shape;
        |grad u|^2, q and w, and with the source on |u| and a = |u|^{r-1},
        stay in their buffers for the sums of J, G and S (|grad u|^2, in the
        workspace, until the next call on the grid)."""
        self.faces.load(uv)
        return self.stage(np.empty(self.faces.n)).reshape(self.shape)

    def stage(self, out: np.ndarray) -> np.ndarray:
        """The right-hand side at the flat state in `state`, written into the
        flat `out` and returned; no array is allocated."""
        _run(self.program)
        faces = self.faces
        if not self.source:
            return np.multiply(faces.div, faces.scale, out)
        x, au, a, sa = faces.x, self.au, self.a, self.sa
        np.abs(x, out=au)
        np.power(au, self.r1, out=a)
        np.copysign(a, x, out=sa)
        sa -= self.vol * sa.sum() / self.omega
        return np.add(faces.div, sa, out)

    def explicit_dt(self) -> float:
        """0.8 of explicit Euler's stability bound 2 / rho at the state last
        evaluated, whose cell weights w are still held, with rho = 4 max(w)
        sum 1/h^2 the Gershgorin radius of the flux divergence at frozen
        weights.  The weights' own variation stiffens only modes smooth on
        the cell scale, so rho bounds the linearized right-hand side's
        spectral radius on every state measured; the energy-residual test,
        not this bound, decides whether a step stands.  Infinite when every
        weight is zero (delta = 0, p > 2 and a flat state)."""
        w_max = float(np.max(self.w))
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
