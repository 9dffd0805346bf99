"""Uniform rectangular grids with Neumann-respecting discrete calculus.

Cell-centered finite volumes on an interval or a rectangle.  Gradients live
on faces, scalar fields on cells; all outer-boundary faces carry zero flux,
which is the discrete form of the homogeneous Neumann condition.  Every
integral in the package reduces to the midpoint rule on this grid.

The p(x)-flux, its face-quadrature energy and the source term are computed
in one place, the private `_Kernel`: built once per exponent pair, it
evaluates a state to J(u) and the right-hand side together, sharing the face
differences and the powers between them.  `px_flux_divergence`,
`dirichlet_energy` and the solver all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "FaceField",
    "integrate",
    "gradient",
    "cell_gradient_magnitude",
    "px_flux_divergence",
    "dirichlet_energy",
    "project_mean_zero",
    "save_gridfunction_csv",
    "load_gridfunction_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on an axis-aligned box, 1D or 2D."""

    cells: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.cells) not in (1, 2) or len(self.cells) != len(self.lengths):
            raise ValueError("grid must be 1D or 2D with matching lengths")
        if any(n < 2 for n in self.cells):
            raise ValueError("need at least 2 cells per axis")
        if any(L <= 0 for L in self.lengths):
            raise ValueError("domain lengths must be positive")

    @property
    def dimension(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.cells))

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for h in self.spacing:
            vol *= h
        return vol

    @property
    def volume(self) -> float:
        vol = 1.0
        for L in self.lengths:
            vol *= L
        return vol

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def centers(self) -> list[np.ndarray]:
        """Cell-center coordinate arrays, broadcast to the grid shape."""
        axes = [self.axis_centers(a) for a in range(self.dimension)]
        if self.dimension == 1:
            return axes
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

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


@dataclass
class FaceField:
    """Per-axis face-centered values; outer-boundary faces are zero."""

    grid: Grid
    faces: tuple[np.ndarray, ...] = field(default_factory=tuple)


def integrate(f: GridFunction) -> float:
    """Midpoint-rule integral over the whole domain."""
    return f.grid.cell_volume * float(np.sum(f.values))


def gradient(u: GridFunction) -> FaceField:
    """Forward-difference gradient; boundary faces set to zero (mirror ghost)."""
    g = u.grid
    out = []
    for axis in range(g.dimension):
        h = g.spacing[axis]
        shape = list(g.shape)
        shape[axis] += 1
        faces = np.zeros(shape)
        interior = [slice(None)] * g.dimension
        interior[axis] = slice(1, -1)
        faces[tuple(interior)] = np.diff(u.values, axis=axis) / h
        out.append(faces)
    return FaceField(g, tuple(out))


def cell_gradient_magnitude(u: GridFunction) -> np.ndarray:
    """|grad u| at cells: per-axis RMS of the two adjacent face values."""
    g = u.grid
    grad = gradient(u)
    mag2 = np.zeros(g.shape)
    for axis in range(g.dimension):
        f2 = grad.faces[axis] ** 2
        lo = [slice(None)] * g.dimension
        hi = [slice(None)] * g.dimension
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        mag2 += 0.5 * (f2[tuple(lo)] + f2[tuple(hi)])
    return np.sqrt(mag2)


class _Kernel:
    """J(u) and the right-hand side div(flux) + source - mean(source), from one
    power per axis and one per cell.

    Per axis the face difference g gives q = g^2 + delta^2 and one power
    w = q^{(p_f - 2)/2}, with p_f the mean of the two adjacent cell exponents:
    the flux is w g and the energy density (q w - delta^{p_f}) / p_f, the
    exact antiderivative of the flux, so the right-hand side is the exact L2
    gradient of -J.  Outer-boundary faces carry zero flux.  Per cell one power
    a = |u|^{r-1} gives the source sign(u) a and its energy |u| a / r; without
    `r_values` the source is off.  Everything that depends only on the
    exponents and delta is computed once, here.
    """

    def __init__(self, grid: Grid, p_values: np.ndarray, delta: float,
                 r_values: Optional[np.ndarray] = None):
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        self.shape = grid.shape
        self.vol, self.omega = grid.cell_volume, grid.volume
        self.d2 = delta * delta
        self.offset = 0.0  # sum over faces of delta^{p_f} / p_f
        self.axes = []
        for axis in range(grid.dimension):
            lo, hi, inner = _face_slices(grid.dimension, axis)
            pf = 0.5 * (p_values[lo] + p_values[hi])
            inv_pf = 1.0 / pf
            if delta > 0.0:
                self.offset += float(np.vdot(np.exp(np.log(delta) * pf), inv_pf))
            shape = list(grid.shape)
            shape[axis] += 1
            flux = np.zeros(shape)  # outer-boundary faces stay zero
            self.axes.append((grid.spacing[axis], lo, hi, 0.5 * (pf - 2.0), inv_pf,
                              flux[inner], flux[lo], flux[hi]))
        self.source = r_values is not None
        if self.source:
            self.r1 = r_values - 1.0
            self.inv_r = 1.0 / r_values

    def __call__(self, uv: np.ndarray) -> tuple[float, np.ndarray]:
        div = np.zeros(self.shape)
        energy = -self.offset
        for h, lo, hi, expo, inv_pf, flux, flux_in, flux_out in self.axes:
            g = (uv[hi] - uv[lo]) / h
            q = g * g
            q += self.d2
            w = q**expo
            np.multiply(w, g, out=flux)
            div += (flux_out - flux_in) / h
            q *= w
            energy += float(np.vdot(q, inv_pf))
        J = self.vol * energy
        if self.source:
            au = np.abs(uv)
            a = au**self.r1
            s = np.copysign(a, uv)
            s -= self.vol * s.sum() / self.omega
            div += s
            au *= a
            J -= self.vol * float(np.vdot(au, self.inv_r))
        return J, div


def _face_slices(dim: int, axis: int) -> tuple[tuple, tuple, tuple]:
    """Cells left and right of each interior face, and the interior faces."""
    lo = [slice(None)] * dim
    hi = [slice(None)] * dim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    inner = [slice(None)] * dim
    inner[axis] = slice(1, -1)
    return tuple(lo), tuple(hi), tuple(inner)


def px_flux_divergence(u: GridFunction, p, delta: float = 1e-8) -> GridFunction:
    """Variable-exponent flux divergence with zero Neumann boundary flux.

    The face flux is (|g|^2 + delta^2)^{(p_f - 2)/2} g with g the face
    gradient and p_f the mean of the two adjacent cell exponents; delta
    regularizes the singular case p < 2 at vanishing gradients.
    """
    return GridFunction(u.grid, _Kernel(u.grid, p.values, delta)(u.values)[1])


def dirichlet_energy(u: GridFunction, p, delta: float = 1e-8) -> float:
    """Face-quadrature potential whose L2 gradient is -px_flux_divergence."""
    return _Kernel(u.grid, p.values, delta)(u.values)[0]


def project_mean_zero(u: GridFunction) -> GridFunction:
    """Subtract the spatial mean; idempotent up to round-off."""
    mean = integrate(u) / u.grid.volume
    return GridFunction(u.grid, u.values - mean)


def save_gridfunction_csv(u: GridFunction, path) -> None:
    g = u.grid
    header = "# grid " + " ".join(str(n) for n in g.cells)
    header += " " + " ".join(repr(float(L)) for L in g.lengths)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for v in u.values.ravel(order="C"):
            fh.write(repr(float(v)) + "\n")


def load_gridfunction_csv(path) -> GridFunction:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# grid"):
            raise ValueError(f"{path}: missing '# grid' header")
        parts = header.split()[2:]
        if len(parts) == 2:
            cells, lengths = (int(parts[0]),), (float(parts[1]),)
        elif len(parts) == 4:
            cells = (int(parts[0]), int(parts[1]))
            lengths = (float(parts[2]), float(parts[3]))
        else:
            raise ValueError(f"{path}: header must be '# grid nx [ny] Lx [Ly]'")
        data = np.array([float(line) for line in fh if line.strip()])
    grid = Grid(cells, lengths)
    n_expected = int(np.prod(cells))
    if data.size != n_expected:
        raise ValueError(f"{path}: expected {n_expected} values, found {data.size}")
    return GridFunction(grid, data.reshape(cells, order="C"))
