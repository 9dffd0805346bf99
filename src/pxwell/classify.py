"""Regime classification and closed-form envelope/bound evaluation.

Every classification rule is driven by computed quantities (initial energy
J0, Nehari sign I0, sampled well depth and level radii), so a verdict is a
statement about estimates, never a certificate; each verdict carries the
constants it used and the provenance of every estimate.

Envelopes are closed-form time bounds with their constants pinned at
construction; `eval` accepts scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .exponents import ExponentField, build_field, check_hypotheses
from .energy import (
    DepthEstimate,
    LevelRadii,
    _Ray,
    snapshot,
)
from .grid import Grid, GridFunction
from .norms import EmbeddingEstimate, l2_norm
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
    "high_energy_blowup_flag",
]

GLOBAL = "Global"
BLOWUP = "Blowup"
UNDETERMINED = "Undetermined"

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
    valid_hypotheses: tuple[str, ...] = ()


def high_energy_blowup_flag(
    J0: float,
    grad_mod0: float,
    p: ExponentField,
    r: ExponentField,
    B_hat: float,
    N: int,
) -> tuple[bool, dict[str, float]]:
    """Sufficient escape test: initial energy below the threshold E1 while the
    initial diffusion modular exceeds alpha1 (both built from B_hat + 1), under
    the stricter source-exponent window it requires."""
    B1 = B_hat + 1.0
    alpha1 = B1 ** (r.p_plus * p.p_plus / (p.p_plus - r.p_minus))
    E1 = (r.p_minus - p.p_plus) / (p.p_plus * r.p_minus) * alpha1
    window_hi = (2.0 * N + (N + 2.0) * p.p_minus) / (2.0 * N)
    hyp = (
        max(1.0, 2.0 * N / (N + 2.0)) < p.p_minus < N
        and max(p.p_plus, 2.0) < r.p_minus
        and r.p_plus <= window_hi
    )
    flag = bool(hyp and J0 < E1 and grad_mod0 > alpha1)
    return flag, {"alpha1": alpha1, "E1": E1, "B1": B1, "window_hi": window_hi,
                  "hypotheses_hold": float(hyp)}


def classify(
    u0: GridFunction,
    p: ExponentField,
    r: ExponentField,
    depth: DepthEstimate,
    level_radii: Optional[LevelRadii] = None,
    B_est: Optional[EmbeddingEstimate] = None,
    N: Optional[int] = None,
    band_rel: float = 1e-3,
) -> Verdict:
    """Map the initial datum to a predicted regime and outcome.

    Subcritical (J0 below the sampled depth): the sign of I0 decides.
    Critical band (|J0 - d_hat| within band_rel * (1 + d_hat)): I0 >= 0 gives
    global, I0 < 0 gives escape.  Supercritical: sampled level radii decide
    when the norm comparisons apply, otherwise undetermined.  Outside the
    source-dominant hypotheses the diffusion-dominant rules apply.
    """
    if N is None:
        N = u0.grid.dimension
    hyp = check_hypotheses(p, r, N)
    s0 = snapshot(u0, p, r)
    J0, I0 = s0.J, s0.I
    constants: dict[str, float] = {
        "J0": J0,
        "I0": I0,
        "grad_modular0": s0.grad_modular,
        "l2_0": np.sqrt(max(s0.l2sq, 0.0)),
        "d_hat_upper": depth.upper,
        "d_hat_lower_formula": depth.lower_formula,
    }
    estimates = [depth.ident]
    notes: list[str] = [_RADII_DIRECTION_NOTE]

    flag = False
    if B_est is not None:
        flag, flag_consts = high_energy_blowup_flag(J0, s0.grad_modular, p, r, B_est.constant, N)
        constants.update(flag_consts)
        constants["high_energy_blowup_flag"] = float(flag)
        estimates.append(B_est.ident)

    if not np.any(u0.values):
        return Verdict(
            regime="subcritical" if hyp.condition_H else "diffusion-dominant",
            prediction=GLOBAL,
            rule="zero-datum",
            constants=constants,
            notes=tuple(notes + ["trivial solution"]),
            estimates_used=tuple(estimates),
        )

    if not hyp.condition_H:
        if hyp.r_plus_below_p_minus:
            return Verdict(
                regime="diffusion-dominant",
                prediction=GLOBAL,
                rule="diffusion-dominant-global",
                constants=constants,
                notes=tuple(notes + ["source exponent below diffusion exponent: global for any energy"]),
                estimates_used=tuple(estimates),
            )
        if hyp.thm54_regime and J0 < 0.0:
            return Verdict(
                regime="diffusion-dominant",
                prediction=GLOBAL,
                rule="negative-energy-global",
                constants=constants,
                notes=tuple(notes + ["weak-source regime with negative initial energy"]),
                estimates_used=tuple(estimates),
            )
        return Verdict(
            regime="unclassified",
            prediction=UNDETERMINED,
            rule="hypotheses-not-met",
            constants=constants,
            notes=tuple(notes + [f"failed: {[d[0] for d in hyp.details if not d[3]]}"]),
            estimates_used=tuple(estimates),
        )

    d_hat = depth.upper
    band = band_rel * (1.0 + d_hat)
    constants["critical_band"] = band

    if J0 < d_hat - band:
        regime = "subcritical"
        if I0 > 0.0:
            pred, rule = GLOBAL, "subcritical-positive-gap"
        elif I0 < 0.0:
            pred, rule = BLOWUP, "subcritical-negative-gap"
        else:
            pred, rule = UNDETERMINED, "subcritical-on-manifold"
            notes.append("I0 = 0 exactly on a nonzero datum: no rule applies below the depth")
    elif abs(J0 - d_hat) <= band:
        regime = "critical"
        if I0 >= 0.0:
            pred, rule = GLOBAL, "critical-nonnegative-gap"
        else:
            pred, rule = BLOWUP, "critical-negative-gap"
    else:
        regime = "supercritical"
        pred, rule = UNDETERMINED, "supercritical-no-radii"
        if level_radii is not None:
            constants["lambda_s"] = level_radii.lambda_s
            constants["Lambda_s"] = level_radii.Lambda_s
            estimates.append(f"radii-s{level_radii.s:.6g}")
            l2_0 = constants["l2_0"]
            if I0 > 0.0 and l2_0 <= level_radii.lambda_s:
                pred, rule = GLOBAL, "supercritical-small-data"
            elif I0 < 0.0 and l2_0 >= level_radii.Lambda_s:
                pred, rule = BLOWUP, "supercritical-large-data"
            else:
                pred, rule = UNDETERMINED, "supercritical-between-radii"

    if flag and pred != BLOWUP and regime in ("subcritical", "critical"):
        # arithmetic guarantees I0 < 0 whenever the flag holds, so this
        # branch is unreachable; kept as a consistency tripwire
        notes.append("high-energy escape flag contradicts the threshold rule")
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
        valid_hypotheses=("p_plus >= 2", "0 < delta0_hat < 1", "J0 > 0"),
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


def inequality_317_check(traj: Trajectory, d_hat_upper: float, r_minus: float,
                         tol: float = 1e-9) -> Inequality317Report:
    """At every recorded snapshot with I < 0, verify I <= r_minus (J - d_hat)."""
    checked = 0
    violations = 0
    max_v = 0.0
    for s in traj.snapshots:
        if s.I >= 0.0:
            continue
        checked += 1
        bound = r_minus * (s.J - d_hat_upper)
        excess = s.I - bound
        if excess > tol * (1.0 + abs(bound)):
            violations += 1
            max_v = max(max_v, excess)
    return Inequality317Report(checked, violations, max_v, violations == 0)


def prop48_check(u0: GridFunction, p: ExponentField, r_const: float, omega_vol: float) -> bool:
    """Large-data test for constant source exponent:
    (p_plus r/(r - p_plus)) |Omega|^{(r-2)/2} J(u0) <= ||u0||_2^r."""
    r_field = build_field(float(r_const), u0.grid, label="r")
    s0 = snapshot(u0, p, r_field)
    lhs = p.p_plus * r_const / (r_const - p.p_plus) * omega_vol ** ((r_const - 2.0) / 2.0) * s0.J
    rhs = l2_norm(u0) ** r_const
    return bool(lhs <= rhs)


def _support_profile(grid: Grid, cell_lo: int, cell_hi: int, periods: int) -> np.ndarray:
    """Full-period sine bump on cells [cell_lo, cell_hi) of the first axis;
    exactly mean-zero under the midpoint rule."""
    n = grid.cells[0]
    vals_1d = np.zeros(n)
    m = cell_hi - cell_lo
    j = np.arange(m)
    vals_1d[cell_lo:cell_hi] = np.sin(2.0 * np.pi * periods * (j + 0.5) / m)
    if grid.dimension == 1:
        return vals_1d
    return np.repeat(vals_1d[:, None], grid.cells[1], axis=1)


def construct_high_energy_datum(
    M_target: float,
    grid: Grid,
    p: ExponentField,
    r_const: float,
    depth_upper: float,
) -> GridFunction:
    """Initial datum with prescribed (arbitrarily large) energy that still escapes.

    Two bumps with disjoint supports separated by a 2-cell gap, so the
    discrete energies add exactly: the first is scaled until its energy is
    nonpositive and its L2 mass beats the large-data threshold at level
    M_target; the second is scaled by bisection until the total energy equals
    M_target.
    """
    if not (M_target > depth_upper):
        raise ValueError("M_target must exceed the depth upper estimate")
    if not (r_const > p.p_plus):
        raise ValueError("needs constant source exponent above p_plus")
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

    alpha = 1.0
    v = GridFunction(grid, left)
    ray_v = _Ray(v, p, r_field)
    ok = False
    for _ in range(200):
        Jv = ray_v.J(alpha)
        l2r = (alpha * l2_norm(v)) ** r_const
        if Jv <= 0.0 and l2r > threshold:
            ok = True
            break
        alpha *= 2.0
    if not ok:
        raise ValueError("could not scale the first bump to nonpositive energy and large mass")
    J_alpha_v = ray_v.J(alpha)
    J_omega_target = M_target - J_alpha_v

    for periods in range(1, 40):
        w = GridFunction(grid, _support_profile(grid, half + 2, n, periods=periods))
        ray_w = _Ray(w, p, r_field)
        c_hi = 1.0
        peak_c, peak_J = 0.0, 0.0
        c = 1e-3
        prev = 0.0
        # coarse geometric scan for the rising branch and the peak
        while c < 1e9:
            val = ray_w.J(c)
            if val > peak_J:
                peak_J, peak_c = val, c
            if val < prev and val < 0.0:
                break
            prev = val
            c *= 1.3
        if peak_J < J_omega_target:
            continue
        lo, hi = 0.0, peak_c
        for _ in range(200):
            mid = 0.5 * (lo + hi)
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

    M1 is the Young-inequality constant (max of four powers of 2 B_hat); the
    case split compares 2 M1 with 1 and w0 with the matching threshold.
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
    consts: dict[str, float] = {"M1": M1, "B_hat": B_hat, "B0_hat": B0_hat, "w0": w0}
    hyp = ["r_plus < p_minus"]

    if M1 >= 0.5:
        threshold = (2.0 * M1) ** (2.0 / pm)
        consts["threshold"] = threshold
        if w0 <= threshold:
            eval_fn = _const_envelope(threshold)
            kind = "Thm53Bound"
            hyp.append("w0 <= (2 M1)^{2/p_minus}")
        elif pm > 2.0:
            rate = (pm - 2.0) / (2.0 * B0_hat**2)
            eval_fn = _algebraic_envelope(threshold, w0, pm, rate)
            kind = "Thm53Bound"
            consts["rate"] = rate
        else:
            rate = w0 ** ((pm - 2.0) / 2.0) / B0_hat**2
            coeff = 2.0 * M1
            eval_fn = _exponential_envelope(coeff, w0, pm, rate)
            kind = "Thm53Bound"
            consts["rate"] = rate
    else:
        threshold = (2.0 * M1) ** (2.0 / pp)
        consts["threshold"] = threshold
        if w0 <= threshold:
            eval_fn = _const_envelope(threshold)
            kind = "Thm53Bound"
            hyp.append("w0 <= (2 M1)^{2/p_plus}")
        elif pm > 2.0:
            C3 = (2.0 * M1) ** ((pp - pm) / (pp - pm + 2.0)) * (pm - 2.0) / (2.0 * B0_hat**2)
            consts["C3"] = C3
            eval_fn = _algebraic_envelope(threshold, w0, pm, C3)
            kind = "Thm53Bound"
        else:
            C4 = w0 ** ((pm - 2.0) / 2.0) / B0_hat**2 * (2.0 * M1) ** ((pp - pm) / pp)
            consts["C4"] = C4
            coeff = (2.0 * M1) ** (pm / pp)
            eval_fn = _exponential_envelope(coeff, w0, pm, C4)
            kind = "Thm53Bound"

    return Envelope(kind=kind, constants=consts, eval=eval_fn, valid_hypotheses=tuple(hyp))


def _const_envelope(value: float):
    def eval_fn(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, value)

    return eval_fn


def _algebraic_envelope(threshold: float, w0: float, pm: float, rate: float):
    # threshold + [ (w0 - threshold)^{(2-pm)/2} + rate t ]^{2/(2-pm)}, pm > 2
    base = (w0 - threshold) ** ((2.0 - pm) / 2.0)

    def eval_fn(t):
        t = np.asarray(t, dtype=float)
        return threshold + (base + rate * t) ** (2.0 / (2.0 - pm))

    return eval_fn


def _exponential_envelope(coeff: float, w0: float, pm: float, rate: float):
    # coeff w0^{(2-pm)/2} + w0 (1 - coeff w0^{-pm/2}) e^{-rate t}, pm <= 2
    limit = coeff * w0 ** ((2.0 - pm) / 2.0)
    slope = w0 * (1.0 - coeff * w0 ** (-pm / 2.0))

    def eval_fn(t):
        t = np.asarray(t, dtype=float)
        return limit + slope * np.exp(-rate * t)

    return eval_fn


def thm54_bounds(
    G0: float,
    E0: float,
    p: ExponentField,
    r: ExponentField,
    B0_hat: float,
    omega_vol: float,
) -> tuple[Envelope, Envelope]:
    """Two-sided bounds on G(t) = ||u||_2^2 for negative initial energy in the
    weak-source regime r_minus <= min(p_plus, 2), r_plus < 2."""
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
    hyp = ("E0 < 0", "r_minus <= min(p_plus, 2)", "r_plus < 2")

    offset = -2.0 * pp * E0 / C5  # positive since E0 < 0

    def lower_fn(t):
        t = np.asarray(t, dtype=float)
        return (G0 - offset) * np.exp(-C5 * t) + offset

    ratio = C7 / C6
    base = G0 ** ((2.0 - rp) / 2.0)

    def upper_fn(t):
        t = np.asarray(t, dtype=float)
        return (ratio + (base - ratio) * np.exp(-C6 * t)) ** (2.0 / (2.0 - rp))

    lower = Envelope("L2SandwichLower", dict(consts), lower_fn, hyp)
    upper = Envelope("L2SandwichUpper", dict(consts), upper_fn, hyp)
    return lower, upper
