"""Regime classification and closed-form envelope/bound evaluation.

Every classification rule is driven by computed quantities (initial energy
J0, Nehari sign I0, sampled well depth and level radii), so a verdict is a
statement about estimates, never a certificate; each verdict carries the
constants it used and the provenance of every estimate.

Envelopes are closed-form time bounds with their constants pinned at
construction; `eval` accepts scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import ode_bounds
from .exponents import ExponentField, HypothesisReport, build_field
from .energy import (
    DepthEstimate,
    EnergySnapshot,
    LevelRadii,
    _Ray,
    find_lambda_star,
    snapshot,
)
from .grid import Grid, GridFunction
from .norms import l2_norm
from .solver import Trajectory

__all__ = [
    "Verdict",
    "Envelope",
    "classify",
    "decay_envelope",
    "blowup_tstar",
    "inequality_317_check",
    "Inequality317Report",
    "prop48_check",
    "construct_high_energy_datum",
    "thm53_envelope",
    "thm54_bounds",
]

GLOBAL = "Global"
BLOWUP = "Blowup"
UNDETERMINED = "Undetermined"

# half-width of the critical band around the sampled depth, relative to d_hat
_CRITICAL_BAND_REL = 1e-3
# allowance of the (3.17) gap check, relative to 1 + |bound|
_TOL_317 = 1e-9

_RADII_DIRECTION_NOTE = (
    "supercritical large-data test uses the norm >= sampled-max direction; "
    "small-data test uses norm <= sampled-min"
)


@dataclass(frozen=True)
class Verdict:
    regime: str
    prediction: str
    rule: str
    constants: dict[str, float]
    certified: bool = False
    notes: tuple[str, ...] = ()
    estimates_used: tuple[str, ...] = ()


@dataclass(frozen=True)
class Envelope:
    kind: str
    constants: dict[str, float]
    eval: Callable[[np.ndarray], np.ndarray]


def classify(
    s0: EnergySnapshot,
    hyp: HypothesisReport,
    depth: Optional[DepthEstimate] = None,
    level_radii: Optional[LevelRadii] = None,
) -> Verdict:
    """Map the initial datum, through its energy snapshot s0 and the
    exponents' hypothesis report, to a predicted regime and outcome.

    One rule chain decides from these numbers and the estimates, and the
    first rule that matches gives the regime, the prediction, the rule name
    and at most one note of its own, after the note on the direction of the
    sampled radii:
    - A zero datum, ||u0||_2^2 = 0, is global ("zero-datum"); so is a datum
      whose squares all underflow.
    - Outside the source-dominant hypotheses (condition H) the
      diffusion-dominant rules apply, which use no depth (a given one is
      only recorded): r_plus < p_minus is global, the weak-source regime
      with J0 < 0 is global, and anything else is undetermined.
    - Subcritical (J0 below the sampled depth): the sign of I0 decides.
    - Critical band (|J0 - d_hat| within _CRITICAL_BAND_REL * d_hat, a
      half-width of 1e-3 of the depth that only this function applies):
      I0 >= 0 gives global, I0 < 0 gives escape, even when level radii are
      given.  Each comparison of the chain is between quantities that
      scale together under a change of the unit of length, so no verdict
      depends on that unit.
    - Supercritical: sampled level radii decide when the norm comparisons
      apply, otherwise undetermined.
    Under condition H a missing depth raises ValueError.
    """
    if hyp.condition_H and depth is None:
        raise ValueError("classification under condition H needs a depth estimate")
    J0, I0 = s0.J, s0.I
    l2_0 = np.sqrt(s0.l2sq)
    constants: dict[str, float] = {
        "J0": J0,
        "I0": I0,
        "grad_modular0": s0.grad_modular,
        "l2_0": l2_0,
    }
    estimates: list[str] = []
    d_hat = band = float("nan")
    if depth is not None:
        d_hat = depth.upper
        band = _CRITICAL_BAND_REL * d_hat
        constants["d_hat_upper"] = d_hat
        constants["d_hat_lower_formula"] = depth.lower_formula
        estimates.append(depth.ident)
    notes: list[str] = [_RADII_DIRECTION_NOTE]

    H = hyp.condition_H
    if s0.l2sq == 0.0:
        regime = "subcritical" if H else "diffusion-dominant"
        pred, rule, note = GLOBAL, "zero-datum", "trivial solution"
    elif not H and hyp.r_plus_below_p_minus:
        regime, pred, rule = "diffusion-dominant", GLOBAL, "diffusion-dominant-global"
        note = "source exponent below diffusion exponent: global for any energy"
    elif not H and hyp.thm54_regime and J0 < 0.0:
        regime, pred, rule = "diffusion-dominant", GLOBAL, "negative-energy-global"
        note = "weak-source regime with negative initial energy"
    elif not H:
        regime, pred, rule = "unclassified", UNDETERMINED, "hypotheses-not-met"
        note = f"failed: {[d[0] for d in hyp.details if not d[3]]}"
    elif J0 < d_hat - band and I0 > 0.0:
        regime, pred, rule, note = "subcritical", GLOBAL, "subcritical-positive-gap", None
    elif J0 < d_hat - band and I0 < 0.0:
        regime, pred, rule, note = "subcritical", BLOWUP, "subcritical-negative-gap", None
    elif J0 < d_hat - band:
        regime, pred, rule = "subcritical", UNDETERMINED, "subcritical-on-manifold"
        note = "I0 = 0 exactly on a nonzero datum: no rule applies below the depth"
    elif abs(J0 - d_hat) <= band and I0 >= 0.0:
        regime, pred, rule, note = "critical", GLOBAL, "critical-nonnegative-gap", None
    elif abs(J0 - d_hat) <= band:
        regime, pred, rule, note = "critical", BLOWUP, "critical-negative-gap", None
    elif level_radii is None:
        regime, pred, rule, note = "supercritical", UNDETERMINED, "supercritical-no-radii", None
    elif I0 > 0.0 and l2_0 <= level_radii.lambda_s:
        regime, pred, rule, note = "supercritical", GLOBAL, "supercritical-small-data", None
    elif I0 < 0.0 and l2_0 >= level_radii.Lambda_s:
        regime, pred, rule, note = "supercritical", BLOWUP, "supercritical-large-data", None
    else:
        regime, pred, rule = "supercritical", UNDETERMINED, "supercritical-between-radii"
        note = None

    if H and rule != "zero-datum":
        constants["critical_band"] = band
    if regime == "supercritical" and level_radii is not None:
        constants["lambda_s"] = level_radii.lambda_s
        constants["Lambda_s"] = level_radii.Lambda_s
        estimates.append(f"radii-s{level_radii.s:.6g}")
    if note is not None:
        notes.append(note)
    return Verdict(regime, pred, rule, constants, notes=tuple(notes),
                   estimates_used=tuple(estimates))


def decay_envelope(
    J0: float,
    p: ExponentField,
    r: ExponentField,
    B0_hat: float,
    delta0_hat: float,
    d_hat: float,
) -> Envelope:
    """Energy decay bound for global source-dominant runs.

    K1 is the initial energy; K0 combines the L2 embedding constant, the
    delta0 ratio, and the sampled depth.  Algebraic decay when p_plus > 2,
    exponential when p_plus = 2.  The paired diffusion-modular bound is the
    same envelope scaled by p_plus r_minus / (r_minus - p_plus).
    """
    pp, pm, rm = p.p_plus, p.p_minus, r.p_minus
    if pp < 2.0:
        raise ValueError("decay envelope needs p_plus >= 2")
    if not (0.0 < delta0_hat < 1.0):
        raise ValueError(f"delta0_hat={delta0_hat} outside (0,1): envelope hypothesis violated")
    if J0 <= 0.0:
        raise ValueError("decay envelope needs positive initial energy")
    K1 = J0
    ratio = pp * rm * d_hat / (rm - pp)
    K0 = (
        B0_hat**2
        / (2.0 * pm * (1.0 - delta0_hat))
        * max(1.0, ratio ** (2.0 / pm - 2.0 / pp))
        * (pp * rm / (rm - pp)) ** (2.0 / pp)
    )
    grad_multiplier = pp * rm / (rm - pp)

    if pp > 2.0:
        expo = pp / (pp - 2.0)

        def eval_fn(t):
            t = np.asarray(t, dtype=float)
            return (K1**2 * pp / (K1 + K0 * (pp - 2.0) * t)) ** expo

        kind = "DecayAlgebraic"
    else:

        def eval_fn(t):
            t = np.asarray(t, dtype=float)
            return K1 * np.exp((K0 - t) / K0)

        kind = "DecayExponential"

    return Envelope(
        kind=kind,
        constants={"K0": K0, "K1": K1, "B0_hat": B0_hat, "delta0_hat": delta0_hat,
                   "d_hat": d_hat, "grad_multiplier": grad_multiplier},
        eval=eval_fn,
    )


def blowup_tstar(
    J0: float,
    d_hat: float,
    p_minus: float,
    p_plus: float,
    r_minus: float,
    u0_l2: float,
    B0_hat: float,
) -> float:
    """Time after which the concavity argument forces escape (both branches)."""
    if J0 >= d_hat:
        raise ValueError("t* requires J0 < d_hat")
    if r_minus <= 2.0:
        raise ValueError("t* requires r_minus > 2")
    gap = d_hat - J0
    denom_min = min(B0_hat ** (-p_plus), B0_hat ** (-p_minus))
    first = (
        1.0
        / gap
        / (2.0 * r_minus)
        * (p_plus * r_minus * abs(J0) / ((r_minus - p_plus) * denom_min)) ** (2.0 / p_minus)
    )
    second = 2.0 * u0_l2 / np.sqrt((r_minus - 2.0) * gap)
    return float(max(first, second))


@dataclass(frozen=True)
class Inequality317Report:
    checked: int
    violations: int
    max_violation: float
    ok: bool


def inequality_317_check(traj: Trajectory, d_hat_upper: float,
                         r_minus: float) -> Inequality317Report:
    """At every recorded row with I < 0, verify I <= r_minus (J - d_hat), to
    _TOL_317 relative to 1 + |bound|; max_violation is the largest excess
    over the bound among the violating rows, 0 when there are none."""
    neg = traj.I < 0.0
    bound = r_minus * (traj.J[neg] - d_hat_upper)
    excess = traj.I[neg] - bound
    bad = excess > _TOL_317 * (1.0 + np.abs(bound))
    violations = int(bad.sum())
    return Inequality317Report(int(neg.sum()), violations,
                               float(np.max(excess[bad], initial=0.0)), violations == 0)


def prop48_check(u0: GridFunction, p: ExponentField, r_const: float) -> bool:
    """Large-data test for constant source exponent:
    (p_plus r/(r - p_plus)) |Omega|^{(r-2)/2} J(u0) <= ||u0||_2^r."""
    r_field = build_field(float(r_const), u0.grid, label="r")
    s0 = snapshot(u0, p, r_field)
    lhs = (p.p_plus * r_const / (r_const - p.p_plus)
           * p.grid.volume ** ((r_const - 2.0) / 2.0) * s0.J)
    rhs = l2_norm(u0) ** r_const
    return bool(lhs <= rhs)


def _support_profile(grid: Grid, cell_lo: int, cell_hi: int, periods: int) -> np.ndarray:
    """Full-period sine bump on cells [cell_lo, cell_hi) of the first axis,
    constant along the others; exactly mean-zero under the midpoint rule."""
    m = cell_hi - cell_lo
    bump = np.sin(2.0 * np.pi * periods * (np.arange(m) + 0.5) / m)
    vals = np.zeros(grid.shape)
    vals[cell_lo:cell_hi] = bump.reshape(m, *(1,) * (grid.dimension - 1))
    return vals


def construct_high_energy_datum(
    M_target: float,
    p: ExponentField,
    r_const: float,
    depth_upper: float,
) -> GridFunction:
    """Initial datum on p's grid with prescribed (arbitrarily large) energy
    that still escapes.

    Two bumps with disjoint supports separated by a 2-cell gap, so the
    discrete energies add exactly: the first is scaled until its energy is
    nonpositive and its L2 mass beats the large-data threshold at level
    M_target; the second is scaled by bisection until the total energy equals
    M_target.  d/dc J(c w) = I(c w) / c, so J(c w) rises to its one peak at
    the Nehari scaling c = lambda*(w), and the bisection runs on [0, lambda*].
    """
    if not (M_target > depth_upper):
        raise ValueError("M_target must exceed the depth upper estimate")
    if not (r_const > p.p_plus):
        raise ValueError("needs constant source exponent above p_plus")
    grid = p.grid
    r_field = build_field(float(r_const), grid, label="r")
    n = grid.cells[0]
    half = n // 2
    if half < 6:
        raise ValueError("grid too coarse to hold two separated bumps")
    left = _support_profile(grid, 0, half - 2, periods=1)
    threshold = (
        p.p_plus * r_const / (r_const - p.p_plus)
        * grid.volume ** ((r_const - 2.0) / 2.0) * M_target
    )

    v = GridFunction(grid, left)
    ray_v = _Ray(v, p, r_field)
    l2_v = l2_norm(v)
    alpha = 1.0
    for _ in range(200):
        J_alpha_v = ray_v.J(alpha)
        if J_alpha_v <= 0.0 and (alpha * l2_v) ** r_const > threshold:
            break
        alpha *= 2.0
    else:
        raise ValueError("could not scale the first bump to nonpositive energy and large mass")
    J_omega_target = M_target - J_alpha_v

    for periods in range(1, 40):
        w = GridFunction(grid, _support_profile(grid, half + 2, n, periods=periods))
        peak_c, peak_J = find_lambda_star(w, p, r_field)
        if peak_J < J_omega_target:
            continue
        ray_w = _Ray(w, p, r_field)
        lo, hi = 0.0, peak_c
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if ray_w.J(mid) < J_omega_target:
                lo = mid
            else:
                hi = mid
        c_star = 0.5 * (lo + hi)
        datum = GridFunction(grid, alpha * v.values + c_star * w.values)
        J_total = snapshot(datum, p, r_field).J
        if abs(J_total - M_target) <= 1e-6 * max(1.0, abs(M_target)):
            return datum
    raise ValueError("bisection failure: no bump frequency reaches the requested energy")


def thm53_envelope(
    w0: float,
    p: ExponentField,
    r: ExponentField,
    B_hat: float,
    B0_hat: float,
) -> Envelope:
    """Bound on w(t) = ||u||_2^2 / B0^2 in the diffusion-dominant regime r_plus < p_minus.

    M1 is the Young-inequality constant (max of four powers of 2 B_hat).  w
    satisfies w' + min(w^{p_plus/2}, w^{p_minus/2}) / B0^2 <= 2 M1 / B0^2, so
    the bound is the comparison lemma's envelope `ode_bounds.envelope` with
    C1 = 1/B0^2, C2 = 2 M1/B0^2, alpha = p_plus/2, beta = p_minus/2, h0 = w0:
    2 M1 >= 1 is the lemma's source-dominant regime, and its threshold is
    (2 M1)^{2/p_minus} there and (2 M1)^{2/p_plus} otherwise.
    """
    pm, pp = p.p_minus, p.p_plus
    rm, rp = r.p_minus, r.p_plus
    if not (rp < pm):
        raise ValueError("this bound requires r_plus < p_minus")
    M1 = max(
        (2.0 * B_hat**rp) ** (pm / (pm - rp)),
        (2.0 * B_hat**rp) ** (pp / (pp - rp)),
        (2.0 * B_hat**rm) ** (pm / (pm - rm)),
        (2.0 * B_hat**rm) ** (pp / (pp - rm)),
    )
    lemma = ode_bounds.OdeParams(C1=1.0 / B0_hat**2, C2=2.0 * M1 / B0_hat**2,
                                 alpha=0.5 * pp, beta=0.5 * pm, h0=w0)
    threshold = ode_bounds._threshold(lemma.C1, lemma.C2, lemma.alpha, lemma.beta)
    eval_fn, _ = ode_bounds.envelope(lemma)
    consts = {"M1": M1, "B_hat": B_hat, "B0_hat": B0_hat, "w0": w0,
              "threshold": threshold, "C1": lemma.C1, "C2": lemma.C2}
    return Envelope(kind="Thm53Bound", constants=consts, eval=eval_fn)


def thm54_bounds(
    G0: float,
    E0: float,
    p: ExponentField,
    r: ExponentField,
    B0_hat: float,
) -> tuple[Envelope, Envelope]:
    """Two-sided bounds on G(t) = ||u||_2^2 for negative initial energy in the
    weak-source regime r_minus <= min(p_plus, 2), r_plus < 2, on the domain
    of p's grid."""
    pm, pp = p.p_minus, p.p_plus
    rm, rp = r.p_minus, r.p_plus
    if not (E0 < 0.0):
        raise ValueError("needs negative initial energy: E0 < 0")
    if not (rm <= min(pp, 2.0)):
        raise ValueError("needs r_minus <= min(p_plus, 2)")
    if not (rp < 2.0):
        raise ValueError("needs r_plus < 2")
    if not (pp > rm):
        raise ValueError("needs p_plus > r_minus (constants degenerate at equality)")

    omega_vol = p.grid.volume
    vol_factor = (1.0 + omega_vol) ** rp
    inner = pp * rm * E0 / ((rm - pp) * vol_factor)
    M2 = max(G0, inner ** (2.0 / rp), inner ** (2.0 / rm))
    C5 = 2.0 * (pp - rm) / rm * vol_factor * max(M2 ** ((rp - 2.0) / 2.0), M2 ** ((rm - 2.0) / 2.0))
    C6 = (2.0 - rp) / B0_hat**2 * min(
        (M2 / B0_hat**2) ** ((pp - 2.0) / 2.0), (M2 / B0_hat**2) ** ((pm - 2.0) / 2.0)
    )
    C7 = (
        max((M2 / B0_hat**2) ** ((rm - rp) / 2.0), 1.0)
        * (2.0 - rp)
        * B0_hat ** (-rp)
        * (1.0 + omega_vol) ** (rp / 2.0)
    )
    consts = {"M2": M2, "C5": C5, "C6": C6, "C7": C7, "G0": G0, "E0": E0,
              "B0_hat": B0_hat, "omega_vol": omega_vol}
    offset = -2.0 * pp * E0 / C5  # positive since E0 < 0

    def lower_fn(t):
        t = np.asarray(t, dtype=float)
        return (G0 - offset) * np.exp(-C5 * t) + offset

    ratio = C7 / C6
    base = G0 ** ((2.0 - rp) / 2.0)

    def upper_fn(t):
        t = np.asarray(t, dtype=float)
        return (ratio + (base - ratio) * np.exp(-C6 * t)) ** (2.0 / (2.0 - rp))

    lower = Envelope("L2SandwichLower", dict(consts), lower_fn)
    upper = Envelope("L2SandwichUpper", dict(consts), upper_fn)
    return lower, upper
