"""Potential-well machinery: energy/Nehari functionals, rays, depth, radii.

J(u) is the diffusion energy minus the source energy, I(u) the difference of
the corresponding modulars; the Nehari manifold is {I = 0}.  The modulars are
inhomogeneous under scaling when the exponents vary, so every ray evaluation
I(lambda u), J(lambda u) is a full quadrature, done in one place, the private
`_Ray`, for `snapshot` too.  The Nehari scaling lambda* is found by Newton's
method on the log-ratio of the two modulars in log lambda: the derivative is
a difference of exponent means weighted by the powered integrands, so each
iterate costs one pair of power sums, and a few iterates suffice because the
log-ratio is exactly linear when the exponents are constant.

Along a ray d/dlambda J(lambda u) = I(lambda u) / lambda, and with r_minus >
p_plus I changes sign exactly once, at lambda*, so J(lambda u) <= J(lambda* u)
for every lambda.  The depth descent passes its best value to
the lambda* iteration as a threshold: once the first or second iterate's J
exceeds it by more than 1e-12 times the sum of that iterate's diffusion and
source energies (a margin for rounding), the proposal cannot win and the
solve returns without converging.  The descent accepts and rejects exactly
the proposals it would with full solves; only a proposal whose full solve
would have failed after that iterate counts as rejected instead of skipped.
A descent builds no object per proposal: its draws, its one ray and the
lambda* iterates work in place on flat values (`_Ray`).

Depth and level-set radii are sampled estimates over `witness_bank`: the
depth upper bound is a minimum of Nehari values over witnesses (refined by
stochastic descent), and the analytic lower bound is evaluated at a sampled
embedding constant, which makes it non-certified; both directions are
reported with provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import ExponentField
from .grid import Grid, GridFunction, _workspace
from .norms import EmbeddingEstimate, l2_norm
from .witnesses import _perturbed, witness_bank

__all__ = [
    "EnergySnapshot",
    "DepthEstimate",
    "LevelRadii",
    "snapshot",
    "ray_profile",
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

    upper: best Nehari value found by sampling + descent (>= true depth).
    lower_formula: the analytic bound evaluated at a sampled embedding
    constant; since that constant is itself a lower bound raised to negative
    exponents, this number is not a certified lower bound and may exceed
    `upper`.  skipped: witnesses and descent proposals dropped because
    lambda* failed on them.
    """

    upper: float
    lower_formula: float
    witnesses: int
    B_used: str
    seed: int
    skipped: int = 0

    @property
    def ident(self) -> str:
        return f"depth-s{self.seed}-w{self.witnesses}"


@dataclass(frozen=True)
class LevelRadii:
    """Sampled min/max L2 norms over the Nehari slice at level s; skipped
    counts the samples dropped because lambda* failed on them."""

    s: float
    lambda_s: float
    Lambda_s: float
    M_bound: Optional[float]
    kept: int
    skipped: int = 0


def snapshot(u: GridFunction, p: ExponentField, r: ExponentField, t: float = 0.0) -> EnergySnapshot:
    """Evaluate J, I and the modulars by cell-wise quadrature.

    The gradient magnitude is the RMS of adjacent face values per axis.
    delta0 is the source/diffusion modular ratio (NaN when the gradient
    modular vanishes).  `solver.simulate` records J, the two modulars and
    ||u||_2^2 as columns from its kernel, which regularizes the gradient by
    its delta.
    """
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
# margin of find_lambda_star's early return, relative to the sum of the two
# energy terms: it covers the rounding of J's quadrature and the gap, second
# order in the tolerance, between J(lambda* u) and J at the converged iterate
_REJECT_MARGIN = 1e-12


class _Ray:
    """Cached quadrature data for evaluating I and J along {lambda * u}.

    The gradient magnitude is formed in contiguous passes over the flat
    values, in the face workspace its grid caches (`grid._Faces`).  A ray
    owns its flat |grad u| and |u|, two power buffers and one scratch array,
    and `load` points it at other flat values on the same grid in place, so
    one ray serves every proposal of a descent.  `powers` writes into the
    power buffers and returns them: a caller uses a returned pair before the
    next `powers` call, as `snapshot`, `ray_profile`, the lambda* iteration
    and the rays of `classify` do.
    """

    def __init__(self, u: GridFunction, p: ExponentField, r: ExponentField):
        self.vol = u.grid.cell_volume
        self.faces = _workspace(u.grid)
        self.pv = p.values.ravel()
        self.rv = r.values.ravel()
        self.gm, self.au, self.gp, self.sp, self.tmp = np.empty((5, self.pv.size))
        self.load(u.values.reshape(-1))

    def load(self, values: np.ndarray) -> None:
        """Take the ray of the flat `values`: |grad u| and |u| in place."""
        self.faces.grad2(values, self.gm)
        np.sqrt(self.gm, out=self.gm)
        np.abs(values, out=self.au)

    def powers(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell integrands (lambda |grad u|)^p and (lambda |u|)^r, in the
        power buffers; at lambda = 1 without the multiply, 1.0 x == x."""
        gp, sp = self.gp, self.sp
        gm, au = self.gm, self.au
        if lam != 1.0:
            gm, au = np.multiply(gm, lam, out=gp), np.multiply(au, lam, out=sp)
        return np.power(gm, self.pv, out=gp), np.power(au, self.rv, out=sp)

    def _modulars(self, gp: np.ndarray, sp: np.ndarray) -> tuple[float, float]:
        """Modulars G, S: the cell quadrature of `powers`."""
        return self.vol * float(gp.sum()), self.vol * float(sp.sum())

    def _energy_terms(self, gp: np.ndarray, sp: np.ndarray) -> tuple[float, float]:
        """The diffusion and source energies, whose difference is J."""
        tmp = self.tmp
        diffusion = float(np.divide(gp, self.pv, out=tmp).sum())
        return self.vol * diffusion, self.vol * float(np.divide(sp, self.rv, out=tmp).sum())

    def _energy(self, gp: np.ndarray, sp: np.ndarray) -> float:
        """Energy J: the cell quadrature of `powers`."""
        diffusion, source = self._energy_terms(gp, sp)
        return diffusion - source

    def modulars(self, lam: float) -> tuple[float, float]:
        if lam == 0.0:
            return 0.0, 0.0
        return self._modulars(*self.powers(lam))

    def I(self, lam: float) -> float:
        g, s = self.modulars(lam)
        return g - s

    def J(self, lam: float) -> float:
        if lam == 0.0:
            return 0.0
        return self._energy(*self.powers(lam))


def ray_profile(
    u: GridFunction,
    p: ExponentField,
    r: ExponentField,
    lambdas,
) -> list[tuple[float, float, float]]:
    """[(lambda, I(lambda u), J(lambda u))] by exact quadrature per lambda."""
    ray = _Ray(u, p, r)
    return [(float(lam), ray.I(float(lam)), ray.J(float(lam))) for lam in lambdas]


def find_lambda_star(
    u: GridFunction,
    p: ExponentField,
    r: ExponentField,
    tol: float = 1e-10,
    threshold: float = math.inf,
) -> tuple[float, float]:
    """Nehari point of u: the scaling lambda* with I(lambda* u) = 0, and
    J(lambda* u) from the converged iterate's powers (the quadrature of
    `_Ray.J`).

    Valid in the source-dominant regime r_minus > p_plus.  Newton's method
    from lambda = 1 on f(s) = log G(e^s u) - log S(e^s u), s = log lambda,
    with G, S the gradient and source modulars; f'(s) is the mean of p under
    the weights (lambda |grad u|)^p minus the mean of r under (lambda |u|)^r,
    so f and f' come from one pair of power sums.  It stops at the first
    iterate with |I| <= tol * G.

    The power bounds I(lam u) >= lam^{p_plus} a - lam^{r_minus} b for lam < 1
    (and the reverse for lam >= 1) bracket the root; every evaluation shrinks
    the bracket, and an iterate that is not finite or leaves it is replaced by
    the bracket's geometric midpoint.  Overflow is not warned about: an
    evaluation whose modulars overflow caps the bracket from above and sends
    the next iterate to the midpoint.  Raises ValueError on degenerate input,
    on a bracket that over- or underflows, and when the tolerance is not met
    within the evaluation cap or before the bracket or the Newton step shrinks
    to rounding.

    Early return: d/dlambda J(lambda u) = I(lambda u) / lambda, and with
    r_minus > p_plus I changes sign once, at lambda*, so J(lambda u) <=
    J(lambda* u) at every iterate.  Once the first or second iterate's J
    exceeds a finite `threshold` by more than 1e-12 times the sum of its two
    energy terms (the diffusion and the source energy), J at the Nehari point
    exceeds the threshold too, and that iterate and its J are returned
    unconverged: the margin covers the rounding of the quadrature and the
    second-order gap between J(lambda* u) and J at the converged iterate.
    Later iterates are not checked: a proposal still unrejected after one
    Newton step is nearly always accepted, and the converged J rejects
    whatever a later check would.  A caller that only asks whether
    J(lambda* u) < threshold gets the answer of the full solve; a solve that
    returns early is not checked further.
    """
    if r.p_minus <= p.p_plus:
        raise ValueError("lambda* requires r_minus > p_plus")
    with np.errstate(over="ignore", invalid="ignore"):
        return _nehari(_Ray(u, p, r), r.p_minus - p.p_plus, tol, threshold)


def _nehari(ray: _Ray, gap: float, tol: float = 1e-10,
            threshold: float = math.inf) -> tuple[float, float]:
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
    for k in range(_MAX_RAY_EVALS):
        gmod = vol * gsum
        val = gmod - vol * ssum
        nxt = math.nan
        if not math.isfinite(val):
            # a modular overflowed, which only a large lambda does
            hi = lam
        else:
            if abs(val) <= tol * gmod:
                return float(lam), ray._energy(gp, sp)
            if k < 2 and threshold < math.inf:
                diffusion, source = ray._energy_terms(gp, sp)
                if diffusion - source > threshold + _REJECT_MARGIN * (diffusion + source):
                    return float(lam), diffusion - source
            if val > 0.0:
                lo = lam
            else:
                hi = lam
            if gsum > 0.0 and ssum > 0.0:
                slope = float(np.dot(ray.pv, gp)) / gsum - float(np.dot(ray.rv, sp)) / ssum
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


def _descend(
    u: GridFunction,
    p: ExponentField,
    r: ExponentField,
    J_start: float,
    rng: np.random.Generator,
    steps: int,
) -> tuple[float, int]:
    """Greedy perturbation descent of the Nehari value from one witness.

    Pure function of (witness, rng state): per-witness seeding keeps the
    depth estimate monotone in the number of trials.  Each proposal's lambda*
    solve takes the best value so far as its threshold, so a proposal that
    cannot win stops early.  Returns the best value and the number of
    proposals skipped because lambda* failed.

    The proposals are flat values drawn into one of two buffers, the other
    holding the best point, and one ray is loaded with each; every solve
    runs inside one errstate, so a proposal that overflows is skipped.
    """
    grid, gap = u.grid, r.p_minus - p.p_plus
    ray = _Ray(u, p, r)
    best = J_start
    w, trial = u.values.flatten(), np.empty(u.values.size)
    scale = max(w.max(), -w.min()) or 1.0
    sigma = 0.3
    skipped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            _perturbed(grid, w, rng, sigma * scale, out=trial)
            ray.load(trial)
            try:
                _, val = _nehari(ray, gap, threshold=best)
            except ValueError:
                skipped += 1
                sigma *= 0.8
                continue
            if val < best:
                best, w, trial = val, trial, w
                scale = max(w.max(), -w.min()) or 1.0
            else:
                sigma *= 0.8
    return best, skipped


def estimate_depth(
    grid: Grid,
    p: ExponentField,
    r: ExponentField,
    trials: int = 24,
    seed: int = 0,
    B_est: Optional[EmbeddingEstimate] = None,
    descent_steps: int = 50,
) -> DepthEstimate:
    """Sampled upper bound on the well depth plus the analytic formula bound.

    Witness draws are prefix-stable in `trials`, and the descent RNG is
    seeded per witness index, so doubling `trials` can only lower `upper`.
    """
    if r.p_minus <= p.p_plus:
        raise ValueError("depth estimation requires r_minus > p_plus")
    upper = np.inf
    n_ok = 0
    skipped = 0
    for i, (_, w) in enumerate(witness_bank(grid, seed, trials)):
        try:
            lam, val = find_lambda_star(w, p, r)
        except ValueError:
            skipped += 1
            continue
        n_ok += 1
        if descent_steps > 0:
            rng_desc = np.random.default_rng((seed, 0xDE5C, i))
            val, lost = _descend(GridFunction(grid, lam * w.values), p, r, val, rng_desc,
                                 descent_steps)
            skipped += lost
        upper = min(upper, val)
    if n_ok < 1:
        raise ValueError("no admissible witness produced a Nehari point")
    if not (upper > 0.0):
        raise ValueError(f"sampled depth upper bound is not positive: {upper}")
    lower = depth_lower_formula(p, r, B_est.constant) if B_est is not None else float("nan")
    return DepthEstimate(
        upper=float(upper),
        lower_formula=float(lower),
        witnesses=trials,
        B_used=B_est.ident if B_est is not None else "none",
        seed=seed,
        skipped=skipped,
    )


def level_radius_floor(
    p: ExponentField,
    r: ExponentField,
    depth: float,
    ctilde: EmbeddingEstimate,
) -> Optional[float]:
    """s-independent floor for the minimal L2 norm on Nehari slices.

    Defined when 2 <= r_plus <= (1 + 2/N) p_minus, N the grid's dimension;
    evaluated at the sampled interpolation constant, hence non-certified.
    """
    N = p.grid.dimension
    if not (2.0 <= r.p_plus <= (1.0 + 2.0 / N) * p.p_minus):
        return None
    theta = ctilde.theta
    if theta is None or not (0.0 < theta < 1.0):
        return None
    base = p.p_minus * r.p_plus * depth / (r.p_plus - p.p_minus)
    e1 = 1.0 / r.p_plus - theta / p.p_minus
    e2 = 1.0 / r.p_minus - theta / p.p_plus
    c = 1.0 / ctilde.constant
    return float(min((c * base**e1) ** (1.0 / (1.0 - theta)),
                     (c * base**e2) ** (1.0 / (1.0 - theta))))


def estimate_level_radii(
    grid: Grid,
    s: float,
    p: ExponentField,
    r: ExponentField,
    samples: int = 48,
    seed: int = 0,
    depth_upper: Optional[float] = None,
    ctilde: Optional[EmbeddingEstimate] = None,
) -> LevelRadii:
    """Sampled extremes of the L2 norm over the Nehari slice {I=0, J<=s}."""
    if depth_upper is not None and not (s > depth_upper):
        raise ValueError(f"level s={s} must exceed the depth upper estimate {depth_upper}")
    norms = []
    skipped = 0
    for _, w in witness_bank(grid, seed, samples):
        try:
            lam, val = find_lambda_star(w, p, r)
        except ValueError:
            skipped += 1
            continue
        if val <= s:
            norms.append(l2_norm(GridFunction(grid, lam * w.values)))
    if not norms:
        raise ValueError(
            f"no sampled Nehari point has J <= {s}; increase s or the sample count"
        )
    m_bound = None
    if ctilde is not None and depth_upper is not None:
        m_bound = level_radius_floor(p, r, depth_upper, ctilde)
    return LevelRadii(
        s=float(s),
        lambda_s=float(min(norms)),
        Lambda_s=float(max(norms)),
        M_bound=m_bound,
        kept=len(norms),
        skipped=skipped,
    )
