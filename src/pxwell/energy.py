"""Potential-well machinery: energy/Nehari functionals, rays, depth, radii.

J(u) is the diffusion energy minus the source energy, I(u) the difference of
the corresponding modulars; the Nehari manifold is {I = 0}.  The modulars are
inhomogeneous under scaling when the exponents vary, but (lambda g)^p =
lambda^p g^p, so grouped by the exponents' levels (`ExponentField.level_sums`)
each is a sum over levels of A_k lambda^{P_k}.  A ray is one cell quadrature,
which forms the level sums A_k, and every evaluation I(lambda u), J(lambda u)
along it is a sum over the levels; both are done in one place, the private
`_Ray`, for `snapshot` too.  The Nehari scaling lambda* is found by Newton's
method on the log-ratio of the two modulars in log lambda: the derivative is
a difference of exponent means weighted by the powered level sums, so each
iterate costs one power per level, and a few iterates suffice because the
log-ratio is exactly linear when the exponents are constant.

Along a ray d/dlambda J(lambda u) = I(lambda u) / lambda, and with r_minus >
p_plus I changes sign exactly once, at lambda*, so J(lambda* u) = max over
lambda of J(lambda u) =: Phi(u).  The well depth is the infimum of Phi over
mean-zero fields.  By the envelope theorem the gradient of Phi at a Nehari
point u is the gradient of J there, which is minus the right-hand side of
the grid kernel (`grid._Kernel`).  So the depth descent steps along that
right-hand side, preconditioned by the inverse 5-point Neumann Laplacian (a
Sobolev gradient), and retracts each step to the manifold with a full
lambda* solve.  The preconditioner is diagonal in the grid's cosine modes:
per axis one orthonormal cosine matrix, cached per grid (`_neumann_modes`).

The depth is an estimate over `witness_bank`: its upper bound is the least
Nehari value over the bank and over the descents from the first bank draws,
every one an achieved Nehari value, and the analytic lower bound is evaluated
at a sampled embedding constant, which makes it non-certified; both
directions are reported with provenance.  The level-set radii read the Nehari
points that the depth estimate reached, so they scan nothing of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .exponents import ExponentField
from .grid import Grid, GridFunction, _Kernel, _require_one_grid, _run, _workspace
from .norms import EmbeddingEstimate, l2_norm
from .witnesses import witness_bank

__all__ = [
    "EnergySnapshot",
    "DepthEstimate",
    "LevelRadii",
    "snapshot",
    "find_lambda_star",
    "estimate_depth",
    "estimate_level_radii",
    "depth_lower_formula",
]


@dataclass(frozen=True)
class EnergySnapshot:
    """The energy pair (J, I) and auxiliary modulars at one time."""

    t: float
    J: float
    I: float
    grad_modular: float
    source_modular: float
    delta0: float
    l2sq: float


@dataclass(frozen=True)
class DepthEstimate:
    """Two-sided (non-certified) information about the well depth.

    upper: least Nehari value over the bank and the descents (>= true
    depth).  lower_formula: the analytic bound evaluated at a sampled
    embedding constant; since that constant is itself a lower bound raised
    to negative exponents, this number is not a certified lower bound and may
    exceed `upper`.  skipped: bank witnesses dropped because lambda* failed on
    them.  residual: the stationarity residual at the point that gives
    `upper`, the relative preconditioned gradient norm
    sqrt(<g, L^-1 g> / <u, L u>), with u that Nehari point, g the kernel's
    right-hand side there (minus the L2 gradient of J) and L the 5-point
    Neumann Laplacian on mean-zero fields.  It is scale-free and zero at a
    critical point of J; the descents leave it near 1e-5 on the shipped
    exponents, against 0.1 to 0.4 at the best bank witness, and it is not
    finite where the gradient is not.  iterations and backtracks: the
    descents' accepted and rejected steps, counters that `cli.run` writes to
    `meta.json`, not to the record.  nehari_points: (J, ||.||_2) of every
    Nehari point reached, each bank witness's and each descent's end, which
    `estimate_level_radii` reads; like the counters it stays out of the
    record.
    """

    upper: float
    lower_formula: float
    witnesses: int
    B_used: str
    seed: int
    skipped: int = 0
    residual: float = math.nan
    iterations: int = field(default=0, metadata={"sidecar": True})
    backtracks: int = field(default=0, metadata={"sidecar": True})
    nehari_points: tuple[tuple[float, float], ...] = field(
        default=(), repr=False, metadata={"sidecar": True})

    @property
    def ident(self) -> str:
        return f"depth-s{self.seed}-w{self.witnesses}"


@dataclass(frozen=True)
class LevelRadii:
    """Sampled min/max L2 norms over the Nehari slice at level s, which the
    supercritical rules of `classify` compare with ||u0||_2; kept counts the
    Nehari points with J <= s."""

    s: float
    lambda_s: float
    Lambda_s: float
    kept: int


def snapshot(u: GridFunction, p: ExponentField, r: ExponentField, t: float = 0.0) -> EnergySnapshot:
    """Evaluate J, I and the modulars by cell-wise quadrature.

    The gradient magnitude is the RMS of adjacent face values per axis.
    delta0 is the source/diffusion modular ratio (NaN when the gradient
    modular vanishes).  `solver.simulate` records J, the two modulars and
    ||u||_2^2 as columns from its kernel, which regularizes the gradient by
    its delta.  u, p and r must share one grid.
    """
    _require_one_grid(u, p, r)
    ray = _Ray(u, p, r)
    gp, sp = ray.powers(1.0)
    gmod, smod = ray._modulars(gp, sp)
    return EnergySnapshot(t=float(t), J=ray._energy(gp, sp), I=gmod - smod, grad_modular=gmod,
                          source_modular=smod,
                          delta0=smod / gmod if gmod > 0.0 else float("nan"),
                          l2sq=ray.vol * float(np.sum(u.values**2)))


# cap on ray evaluations in find_lambda_star; Newton needs about five
_MAX_RAY_EVALS = 100
# rounding floor of the lambda* bracket, relative to the iterate
_EPS = float(np.finfo(float).eps)


class _Ray:
    """Cached quadrature data for evaluating I and J along {lambda * u}.

    The gradient magnitude is formed by the bound `grad2` passes of the face
    workspace its grid caches (`grid._Faces`), the same passes as a kernel's
    and `cell_gradient_magnitude`'s, from the values loaded into it.  A ray
    owns its flat |grad u| and |u|, and `load` points it at other flat
    values on the same grid in place, so one ray serves every trial step of
    a descent.  `load` raises each cell to its exponent once, in the
    workspace's scratch `tmp`, and sums the powers over the exponents' level
    sets (`ExponentField.level_sums`), prescaled by an exact power of two.
    `powers` scales those sums to any lambda, as (lambda g)^p = lambda^p g^p
    exactly in the reals, so a level's term overflows only where lambda
    times the largest |grad u| or |u|, raised to the level, does: a caller
    treats a non-finite modular as a cap on lambda.
    """

    def __init__(self, u: GridFunction, p: ExponentField, r: ExponentField):
        self.vol = u.grid.cell_volume
        self.faces = _workspace(u.grid)
        self.p, self.r = p, r
        self.P, self.R = p.levels, r.levels
        self.gm, self.au = np.empty((2, u.values.size))
        self.load(u.values.reshape(-1))

    def load(self, values: np.ndarray) -> None:
        """Take the ray of the flat `values`: |grad u| and |u| in place, and
        the level sums of |grad u|^p and |u|^r."""
        faces = self.faces
        faces.load(values)
        _run(faces.grad2)
        np.sqrt(faces.mag2, out=self.gm)
        np.abs(values, out=self.au)
        self.grad = self.p.level_sums(self.gm, out=faces.tmp)
        self.source = self.r.level_sums(self.au, out=faces.tmp)

    def powers(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-level integrals of (lambda |grad u|)^p and (lambda |u|)^r, per
        cell volume, over the levels P and R."""
        return self.grad.at(lam), self.source.at(lam)

    def _modulars(self, gp: np.ndarray, sp: np.ndarray) -> tuple[float, float]:
        """Modulars G, S: the sums of `powers` over the levels."""
        return self.vol * float(gp.sum()), self.vol * float(sp.sum())

    def _energy(self, gp: np.ndarray, sp: np.ndarray) -> float:
        """Energy J from `powers`, the diffusion energy less the source
        energy."""
        return self.vol * float((gp / self.P).sum()) - self.vol * float((sp / self.R).sum())

    def J(self, lam: float) -> float:
        """J(lam u); J(0) is exactly 0, as 0^p = 0 for every exponent p > 1."""
        return self._energy(*self.powers(lam))


def find_lambda_star(
    u: GridFunction,
    p: ExponentField,
    r: ExponentField,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Nehari point of u: the scaling lambda* with I(lambda* u) = 0, and
    J(lambda* u) from the converged iterate's powers (the sum of `_Ray.J`).

    Valid in the source-dominant regime r_minus > p_plus.  Newton's method
    from lambda = 1 on f(s) = log G(e^s u) - log S(e^s u), s = log lambda,
    with G, S the gradient and source modulars; f'(s) is the mean of p under
    the weights (lambda |grad u|)^p minus the mean of r under (lambda |u|)^r.
    The ray raises each cell to its exponent once, and every iterate forms f
    and f' from its level sums (`_Ray.powers`), one power per level.  It
    stops at the first iterate with |I| <= tol * G.

    The power bounds I(lam u) >= lam^{p_plus} a - lam^{r_minus} b for lam < 1
    (and the reverse for lam >= 1) bracket the root; every evaluation shrinks
    the bracket, and an iterate that is not finite or leaves it is replaced by
    the bracket's geometric midpoint.  Overflow is not warned about: a
    modular overflows where lambda times the largest |grad u| or |u|, raised
    to a level, does (`_Ray`), and such an evaluation caps the bracket from
    above and sends the next iterate to the midpoint, so it cannot pass
    silently.
    Raises ValueError on degenerate input, on a bracket that over- or
    underflows, and when the tolerance is not met within the evaluation cap
    or before the bracket or the Newton step shrinks to rounding, or when u,
    p and r do not share one grid.
    """
    _require_one_grid(u, p, r)
    if r.p_minus <= p.p_plus:
        raise ValueError("lambda* requires r_minus > p_plus")
    with np.errstate(over="ignore", invalid="ignore"):
        return _nehari(_Ray(u, p, r), r.p_minus - p.p_plus, tol)


def _nehari(ray: _Ray, gap: float, tol: float = 1e-10) -> tuple[float, float]:
    """The Newton iteration of `find_lambda_star` on `ray`, with gap =
    r_minus - p_plus > 0; overflow must be ignored around it."""
    vol = ray.vol
    lam = 1.0
    gp, sp = ray.powers(lam)
    gsum, ssum = float(gp.sum()), float(sp.sum())
    a, b = vol * gsum, vol * ssum
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("degenerate trial field: non-finite modulars")
    if a <= 0.0:
        raise ValueError("degenerate trial field: zero gradient modular")
    if b <= 0.0:
        raise ValueError("degenerate trial field: zero source modular, I(lam u) > 0 for all lam")

    try:
        c = (a / b) ** (1.0 / gap)
    except OverflowError:
        c = math.inf
    lo, hi = 0.9 * min(1.0, c), 1.1 * max(1.0, c)
    if not (lo > 0.0 and hi < math.inf):
        raise ValueError(
            f"lambda* bracket out of range: modular ratio {a / b!r} to the power "
            f"1/(r_minus - p_plus) = {1.0 / gap!r}"
        )
    for _ in range(_MAX_RAY_EVALS):
        gmod = vol * gsum
        val = gmod - vol * ssum
        nxt = math.nan
        if not math.isfinite(val):
            # a modular overflowed, which only a large lambda does
            hi = lam
        else:
            if abs(val) <= tol * gmod:
                return float(lam), ray._energy(gp, sp)
            if val > 0.0:
                lo = lam
            else:
                hi = lam
            if gsum > 0.0 and ssum > 0.0:
                slope = float(np.dot(ray.P, gp)) / gsum - float(np.dot(ray.R, sp)) / ssum
                nxt = lam * float(np.exp((np.log(ssum) - np.log(gsum)) / slope))
        if nxt == lam or hi - lo <= _EPS * lam:
            break
        lam = nxt if lo < nxt < hi else float(np.sqrt(lo * hi))
        gp, sp = ray.powers(lam)
        gsum, ssum = float(gp.sum()), float(sp.sum())
    raise ValueError(
        f"lambda* not converged to tol {tol}: bracket [{lo!r}, {hi!r}] after "
        f"{_MAX_RAY_EVALS} evaluations or at rounding"
    )


def depth_lower_formula(p: ExponentField, r: ExponentField, B_constant: float) -> float:
    """Analytic well-depth bound evaluated at an embedding constant."""
    e1 = r.p_plus * p.p_minus / (p.p_minus - r.p_plus)
    e2 = r.p_minus * p.p_plus / (p.p_plus - r.p_minus)
    coeff = (r.p_minus - p.p_plus) / (p.p_plus * r.p_minus)
    return coeff * min(B_constant**e1, B_constant**e2)


# the descent: starts (the first bank draws), the first step length, the
# relative decrease of J at which a descent stops, and caps on its trial
# steps and on how far backtracking shrinks the step
_DESCENT_STARTS = 4
_STEP0 = 1.0
_DESCENT_RTOL = 1e-9
_DESCENT_MAX_TRIALS = 400
_STEP_MIN = 1e-12


@lru_cache(maxsize=8)
def _neumann_modes(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cosine modes of the 5-point Neumann Laplacian L = -Delta_h on
    `grid`, with a 1D grid taken as n x 1: per axis the orthonormal cosine
    matrix C, C[k, j] proportional to cos(pi k (j + 1/2) / n), then on the
    n0 x n1 cells the eigenvalues mu = sum over axes of (2 sin(pi k / 2n) / h)^2
    and their inverses, the constant mode's inverse set to zero, so that L^-1
    acts on mean-zero fields.  Read-only: every caller on the grid shares
    them."""
    pad = 2 - grid.dimension
    mats, eigs = [], []
    for n, h in zip(grid.cells + (1,) * pad, grid.spacing + (1.0,) * pad):
        k = np.arange(n)
        c = math.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
        c[0] = 1.0 / math.sqrt(n)
        mats.append(c)
        eigs.append(((2.0 / h) * np.sin(0.5 * np.pi * k / n)) ** 2)
    mu = np.add.outer(*eigs)
    inv = np.zeros_like(mu)
    inv.flat[1:] = 1.0 / mu.flat[1:]
    for a in (*mats, mu, inv):
        a.flags.writeable = False
    return mats[0], mats[1], mu, inv


def _to_modes(c0: np.ndarray, c1: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The cosine coefficients of the flat `values`."""
    return c0 @ values.reshape(len(c0), len(c1)) @ c1.T


def _sobolev_gradient(grid: Grid, g: np.ndarray) -> np.ndarray:
    """L^-1 g for the flat mean-zero g: the descent direction."""
    c0, c1, _, inv = _neumann_modes(grid)
    return (c0.T @ (_to_modes(c0, c1, g) * inv) @ c1).reshape(-1)


def _stationarity(grid: Grid, kernel: _Kernel, u: np.ndarray) -> float:
    """The residual of `DepthEstimate` at the flat Nehari point u."""
    c0, c1, mu, inv = _neumann_modes(grid)
    g = _to_modes(c0, c1, kernel.rhs(u).reshape(-1))
    uh = _to_modes(c0, c1, u)
    return math.sqrt(float(np.vdot(g * inv, g)) / float(np.vdot(uh * mu, uh)))


def _nehari_descent(grid: Grid, ray: _Ray, kernel: _Kernel, gap: float, u: np.ndarray,
                    J: float) -> tuple[float, np.ndarray, int, int]:
    """Preconditioned descent of Phi(v) = J(lambda*(v) v) from the flat
    Nehari point u, J = J(u).

    Each step is v = u + tau L^-1 g, g the kernel's right-hand side at u
    (minus the gradient of Phi there, by the envelope theorem), retracted
    to its Nehari point by a full lambda* solve on `ray`.  A step that lowers
    J is accepted and tau grows by 1.5; a rise or a lambda* failure is a
    backtrack and halves tau.  The descent stops once an accepted step lowers
    J by at most `_DESCENT_RTOL` J, or after `_DESCENT_MAX_TRIALS` trial
    steps, or when tau falls below `_STEP_MIN` or the gradient is not finite.
    Returns the least value, its point and the accepted and rejected steps;
    overflow, invalid values and division by zero must be ignored around it.
    """
    tau, steps, backtracks = _STEP0, 0, 0
    d = _sobolev_gradient(grid, kernel.rhs(u).reshape(-1))
    for _ in range(_DESCENT_MAX_TRIALS):
        if tau < _STEP_MIN or not np.isfinite(d).all():
            break
        trial = u + tau * d
        ray.load(trial)
        try:
            lam, val = _nehari(ray, gap)
        except ValueError:
            val = math.inf
        if not val < J:
            backtracks += 1
            tau *= 0.5
            continue
        steps += 1
        tau *= 1.5
        trial *= lam
        u, decrease, J = trial, J - val, val
        if decrease <= _DESCENT_RTOL * J:
            break
        d = _sobolev_gradient(grid, kernel.rhs(u).reshape(-1))
    return J, u, steps, backtracks


def estimate_depth(
    p: ExponentField,
    r: ExponentField,
    trials: int = 24,
    seed: int = 0,
    B_est: Optional[EmbeddingEstimate] = None,
) -> DepthEstimate:
    """Upper bound on the well depth plus the analytic formula bound, over
    fields on p's grid (r must live there too, or ValueError is raised).

    `upper` is the least Nehari value over `witness_bank` and over the
    preconditioned descents (`_nehari_descent`) from the Nehari points of the
    first min(trials, 4) draws.  Witness draws are prefix-stable in `trials`
    and so are the starts, so raising `trials` can only lower `upper`.
    """
    _require_one_grid(p, r)
    if r.p_minus <= p.p_plus:
        raise ValueError("depth estimation requires r_minus > p_plus")
    grid = p.grid
    starts = {f"draw{i}" for i in range(_DESCENT_STARTS)}
    upper, best = np.inf, None
    skipped = steps = backtracks = 0
    points = []
    gap = r.p_minus - p.p_plus
    kernel = _Kernel(grid, p.values, 0.0, r.values)
    ray = None
    bank = witness_bank(grid, seed, trials)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for name, w in bank:
            try:
                lam, val = find_lambda_star(w, p, r)
            except ValueError:
                skipped += 1
                continue
            u = lam * w.values.reshape(-1)
            points.append((val, l2_norm(GridFunction(grid, lam * w.values))))
            if name in starts:
                if ray is None:
                    ray = _Ray(w, p, r)
                val, u, k, b = _nehari_descent(grid, ray, kernel, gap, u, val)
                steps, backtracks = steps + k, backtracks + b
                points.append((val, l2_norm(GridFunction(grid, u.reshape(grid.shape)))))
            if val < upper:
                upper, best = val, u
        if not points:
            raise ValueError("no admissible witness produced a Nehari point")
        if not (upper > 0.0):
            raise ValueError(f"sampled depth upper bound is not positive: {upper}")
        residual = _stationarity(grid, kernel, best)
    lower = depth_lower_formula(p, r, B_est.constant) if B_est is not None else float("nan")
    return DepthEstimate(
        upper=float(upper),
        lower_formula=float(lower),
        witnesses=trials,
        B_used=B_est.ident if B_est is not None else "none",
        seed=seed,
        skipped=skipped,
        residual=residual,
        iterations=steps,
        backtracks=backtracks,
        nehari_points=tuple(points),
    )


def estimate_level_radii(depth: DepthEstimate, s: float) -> LevelRadii:
    """Sampled extremes of the L2 norm over the Nehari slice {I=0, J<=s}.

    The Nehari points that `depth` reached with J <= s give the sampled
    lambda_s (minimum) and Lambda_s (maximum).  s must exceed `depth.upper`,
    so the point that gives the upper bound is always kept.  lambda_s is an
    achieved Nehari norm, so it is an upper bound on the infimum over the
    slice, and the small-data rule that reads it stays non-certified.
    """
    if not s > depth.upper:
        raise ValueError(f"level s={s} must exceed the depth upper estimate {depth.upper}")
    norms = [norm for J, norm in depth.nehari_points if J <= s]
    return LevelRadii(s=float(s), lambda_s=min(norms), Lambda_s=max(norms), kept=len(norms))
