"""Modulars, Luxemburg norms and numerically estimated embedding constants.

The modular rho(u) = integral of |u|^{q(x)} is inhomogeneous when q varies,
so the norm is the lambda at which rho(u/lambda) = 1, found by Newton's method
on log rho, which is convex and decreasing in log lambda.  Grouped by the
levels Q of q (`ExponentField.level_sums`), rho(u/lambda) is the sum over
levels of A_k lambda^{-Q_k}, so each cell is raised to its exponent once per
norm and each Newton iterate costs one power per level.  Modular and norm
are exact on the discrete measure space (cells with weight equal to the cell
volume), so the relations between them, the sign of rho - 1 against that of
the norm - 1 and the power sandwich in q_minus and q_plus, hold to round-off
and the tests assert them tightly.

Embedding constants are sampled lower bounds obtained by maximizing Rayleigh
quotients over witness fields; they are never certified and every consumer
records which estimate it used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .exponents import ExponentField, build_field
from .grid import GridFunction, _require_one_grid, cell_gradient_magnitude, integrate
from .witnesses import perturb, witness_bank

__all__ = [
    "NormResult",
    "EmbeddingEstimate",
    "luxemburg_norm",
    "estimate_embedding",
    "estimate_gn_constant",
    "gn_theta",
    "l2_norm",
    "gradient_norm",
]


@dataclass(frozen=True)
class NormResult:
    value: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class EmbeddingEstimate:
    """Sampled lower bound on an embedding constant.

    kind is "B" (gradient norm controls the L^{r(x)} norm), "B0" (gradient
    norm controls the L^2 norm) or "Ctilde" (interpolation constant with
    exponent theta).  The constant is the best quotient among the witnesses,
    hence a lower bound on the true optimal constant.
    """

    constant: float
    kind: str
    theta: Optional[float]
    trials: int
    seed: int
    best_witness: str

    @property
    def ident(self) -> str:
        return f"{self.kind}-s{self.seed}-t{self.trials}"


# cap on modular evaluations in luxemburg_norm; Newton needs about five
_MAX_NORM_EVALS = 200
_EPS = float(np.finfo(float).eps)
# a sampled quotient replaces the best one only if it beats it by more than
# this relative margin: witnesses that tie in exact arithmetic, such as modes
# (1,0) and (0,1) on a square, then keep the first whatever their last bits
_QUOTIENT_TIE = 1e-12


def luxemburg_norm(f: GridFunction, q: ExponentField, tol: float = 1e-12) -> NormResult:
    """inf{lambda > 0 : modular(f/lambda) <= 1}, to |modular - 1| <= tol.

    Newton's method from lambda = 1 on log rho(f/lambda) in t = log lambda,
    whose derivative is minus the mean of q under the weights |f/lambda|^q.
    The function is convex and decreasing, so after the first step the
    iterates rise monotonically to the root.  |f|^q is formed once and
    summed over the level sets of q (`ExponentField.level_sums`), prescaled
    by the power of two just above max |f|, so every iterate's weights are
    the level sums times (scale / lambda)^Q, one power per level, and near
    the root neither factor over- or underflows unless |f/lambda|^q would.
    The power relations between norm and modular bracket the root, widened
    by a factor 2 for rounding; every evaluation shrinks the bracket, and an
    iterate that is not finite or leaves it is replaced by the bracket's
    geometric midpoint.  When the bracket or the Newton step shrinks to
    rounding first, the last iterate is returned with its true residual if
    that is finite, and ValueError is raised if not.  `iterations` counts
    modular evaluations.  Returns 0 for the zero field; raises ValueError
    when f and q do not share one grid, when tol is not positive and finite
    (at an infinite one every iterate passes), on a non-finite modular of f,
    when the evaluation cap is reached, or when the bracket shrinks to
    rounding at a non-finite modular.
    """
    _require_one_grid(f, q)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    av = np.abs(f.values).ravel()
    if not np.any(av):
        return NormResult(0.0, 0, 0.0)
    sums = q.level_sums(av, out=av)
    Q = sums.levels
    vol = f.grid.cell_volume
    lam = 1.0
    # w is the iterate's level sums of |f/lambda|^q, s their sum.  An overflow
    # makes the modular non-finite: the first check rejects it, and in the
    # loop it never meets the tolerance, so the loop ends in the ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        w = sums.at(1.0)
        s = float(np.sum(w))
        rho = vol * s
        if not np.isfinite(rho):
            raise ValueError("modular is non-finite; input field not admissible")

        lo, hi = sorted((rho ** (1.0 / q.p_minus), rho ** (1.0 / q.p_plus)))
        lo, hi = 0.5 * lo, 2.0 * hi
        for evaluations in range(1, _MAX_NORM_EVALS + 1):
            res = rho - 1.0
            if abs(res) <= tol:
                return NormResult(float(lam), evaluations, abs(res))
            if res > 0.0:
                lo = lam
            else:
                hi = lam
            nxt = float("nan")
            if rho > 0.0:
                nxt = lam * float(np.exp(np.log(rho) * s / np.dot(Q, w)))
            if nxt == lam or hi - lo <= _EPS * lam:
                if np.isfinite(res):
                    return NormResult(float(lam), evaluations, abs(res))
                break
            lam = nxt if lo < nxt < hi else float(np.sqrt(lo * hi))
            w = sums.at(1.0 / lam)
            s = float(np.sum(w))
            rho = vol * s
    raise ValueError(
        f"Luxemburg norm not converged to tol {tol}: bracket [{lo!r}, {hi!r}] after "
        f"{_MAX_NORM_EVALS} evaluations or at rounding with a non-finite modular"
    )


def l2_norm(f: GridFunction) -> float:
    return float(np.sqrt(integrate(GridFunction(f.grid, f.values**2))))


def gradient_norm(f: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm of the cell gradient magnitude."""
    gm = GridFunction(f.grid, cell_gradient_magnitude(f))
    return luxemburg_norm(gm, p).value


def _target_norm(w: GridFunction, target: Union[ExponentField, str]) -> float:
    if isinstance(target, str):
        if target != "L2":
            raise ValueError(f"unknown target {target!r}")
        return l2_norm(w)
    return luxemburg_norm(w, target).value


def estimate_embedding(
    p: ExponentField,
    target: Union[ExponentField, str],
    trials: int = 24,
    seed: int = 0,
    ascent_steps: int = 12,
) -> EmbeddingEstimate:
    """Best sampled quotient ||w||_target / ||grad w||_p over mean-zero witnesses.

    The witnesses are drawn on p's grid, where a target field must live too
    (ValueError otherwise).  The draw sequence is prefix-stable in `trials`
    for a fixed seed, so enlarging the witness set can only increase the
    estimate.  A short perturbation-ascent refinement from the best witness
    follows; its RNG is independent of the draws.  A draw or a perturbation
    replaces the best witness only if its quotient beats the best one by more
    than `_QUOTIENT_TIE` relative, so witnesses that tie in exact arithmetic
    do not trade places on last-bit rounding.  The result is a lower
    bound on the optimal constant and is labeled as such.  The defaults, 24
    draws and 12 ascent steps, are the ones every `pxwell` run uses.
    """
    kind = "B0" if isinstance(target, str) else "B"
    if kind == "B":
        _require_one_grid(p, target)

    def quotient(w: GridFunction) -> float:
        denom = gradient_norm(w, p)
        if denom == 0.0:
            return -np.inf  # degenerate witness: constant after projection
        return _target_norm(w, target) / denom

    best, w, best_id = _best_quotient(witness_bank(p.grid, seed, trials), quotient)
    rng_ascent = np.random.default_rng((seed, 0xA5CE17))
    if ascent_steps > 0:
        sigma = 0.5
        scale = np.max(np.abs(w.values)) or 1.0
        for _ in range(ascent_steps):
            trial = perturb(w, rng_ascent, sigma * scale)
            qv = quotient(trial)
            if _beats(qv, best):
                best, w = qv, trial
                best_id += "+asc"
            else:
                sigma *= 0.7
    return EmbeddingEstimate(float(best), kind, None, trials, seed, best_id)


def _beats(qv: float, best: float) -> bool:
    """Whether the quotient qv replaces the best one: by more than
    `_QUOTIENT_TIE` relative, so a tie to rounding keeps the incumbent."""
    return qv > best * (1.0 + _QUOTIENT_TIE)


def _best_quotient(
    bank: list[tuple[str, GridFunction]],
    quotient: Callable[[GridFunction], float],
) -> tuple[float, GridFunction, str]:
    """The largest quotient over the bank to within `_QUOTIENT_TIE`
    relative, with its witness and label: of quotients that tie to that
    margin the first is kept.  A degenerate witness scores -inf.  Raises
    when every witness is degenerate."""
    best = -np.inf
    best_w: Optional[GridFunction] = None
    best_id = ""
    for ident, w in bank:
        qv = quotient(w)
        if _beats(qv, best):
            best, best_w, best_id = qv, w, ident
    if not np.isfinite(best):
        raise ValueError("no admissible witness found (all degenerate)")
    return best, best_w, best_id


def gn_theta(p_minus: float, r_plus: float, N: int) -> float:
    """Interpolation exponent balancing (1/2 + 1/N - 1/p_minus) theta = 1/2 - 1/r_plus."""
    denom = 0.5 + 1.0 / N - 1.0 / p_minus
    if denom == 0.0:
        raise ValueError("interpolation balance is degenerate (zero denominator)")
    return (0.5 - 1.0 / r_plus) / denom


def estimate_gn_constant(
    p: ExponentField,
    r: ExponentField,
    trials: int = 32,
    seed: int = 0,
) -> EmbeddingEstimate:
    """Sampled interpolation constant for (1+|Omega|)||w||_{r_plus} against
    ||grad w||_p^theta ||w||_2^{1-theta} over witnesses on p's grid, theta
    balanced in the grid's dimension.

    No pipeline stage calls it: the level-radius floor that read it held only
    for 2 <= r_plus <= (1 + 2/N) p_minus, which no run that computes radii
    satisfied, and was removed.  It stays public, and the benchmark's
    per-layer table still names it."""
    grid = p.grid
    theta = gn_theta(p.p_minus, r.p_plus, grid.dimension)
    if not (0.0 < theta < 1.0):
        raise ValueError(f"interpolation exponent {theta} outside (0,1); hypotheses violated")
    rplus_field = build_field(float(r.p_plus), grid, label="r+")
    vol_factor = 1.0 + grid.volume

    def quotient(w: GridFunction) -> float:
        gnorm = gradient_norm(w, p)
        l2 = l2_norm(w)
        if gnorm == 0.0 or l2 == 0.0:
            return -np.inf
        num = vol_factor * luxemburg_norm(w, rplus_field).value
        return num / (gnorm**theta * l2 ** (1.0 - theta))

    best, _, best_id = _best_quotient(witness_bank(grid, seed, trials), quotient)
    return EmbeddingEstimate(float(best), "Ctilde", float(theta), trials, seed, best_id)
