"""Time integration of the nonlocal Neumann diffusion problem.

Two explicit trial steps with energy-residual step control: damped
second-order Runge-Kutta-Chebyshev steps (RKC2: Sommeijer, Shampine and
Verwer, J. Comput. Appl. Math. 88, 1998; Verwer, Sommeijer and Hundsdorfer,
J. Comput. Phys. 201, 2004) everywhere but the blow-up tail, and classical
fourth-order Runge-Kutta steps (RK4) in it.  A step is accepted only if the
discrete energy identity

    J(u+) - J(u) + int_0^dt ||du/dt||_2^2  ~  0

holds to the configured tolerance, energy_tol (1 + |J|).  J is the cell-RMS
potential of `grid.dirichlet_energy` minus the source energy, the J that
`energy.snapshot` and the classifier read; its L2 gradient equals the discrete
right-hand side exactly, so the residual is a pure time-discretization
remainder and halving dt on rejection always wins eventually.

Both steppers share one quadrature of the dissipation: the exact
int ||p'||^2 of the step's cubic Hermite interpolant p through u and u+ with
slopes f and f+, the right-hand sides at both ends (Hairer, Norsett and
Wanner, Solving ODEs I).  With D = (u+ - u)/dt, A = f - D and B = f+ - D it
is dt (||D||^2 + (2/15)(||A||^2 + ||B||^2) - (1/15) <A, B>), a closed form
in values the step already holds.  On the exact flow it misses by O(dt^5),
so the residual is the step's own remainder, O(dt^3) on an RKC2 step and
O(dt^5) on an RK4 step, and the test does not cap a fourth-order step.

An s-stage RKC2 step is the three-term Chebyshev recurrence of the scheme,
with the weights mu_j, nu_j, mu~_j and gamma~_j of `_rkc2_weights`, formed
from the Chebyshev polynomials T_j at w0 = 1 + eps/s^2 with the damping
eps = 2/13 (`_DAMPING`, not a setting).  Its stability polynomial is
a_s + b_s T_s(w0 + w1 z), second order, and bounded by 1 in modulus while
w0 + w1 z >= -1, that is on the real interval [-beta(s), 0] with
beta(s) = (1 + w0)/w1, about 0.653 s^2; the Runge-Kutta-Legendre scheme
(RKL2: Meyer, Balsara and Aslam, J. Comput. Phys. 257, 2014) covers
(s^2 + s - 2)/2, about 0.5 s^2, with the same recurrence.  At s = 2 the
polynomial is 1 + z + z^2/2 whatever the damping, and its interval is
exactly 2, not the formula's 1.963: with 1.963, a step at the tail's cap
dt = dt_E (below) would take three stages instead of RK4, and `blowup_2d`
took 12 such trials, each rejected, and 1,069 kernel evaluations instead of
981.  The first stage
reuses the current state's right-hand side, so a trial step costs s kernel
evaluations: s - 1 inner stages, which need the right-hand side alone, and
the trial state itself.  The stage count is not a setting.  For the step dt
it is the least s >= 2 with dt <= dt_E beta(s)/2, where dt_E is the kernel's
explicit Euler bound at the current state (`_Kernel.explicit_dt`).  In the
accuracy-limited blow-up tail s stays at 2 or near it; in a decaying,
stability-limited run dt grows past dt_E and s grows like its square root.
An RK4 step also reuses the current right-hand side: three inner stages and
the trial state make four kernel evaluations.
Every stage is a combination of the current state and zero-mean right-hand
sides, so the mean is conserved.  An inner stage of either stepper forms its
state in the kernel's state buffer and its slope and increment in buffers
made once per run (`_work`), so it allocates no array; the trial state and
its right-hand side are new arrays, which the run keeps.

The blow-up tail starts on the accepted step at which the growth shrink
(below) fires, and ends at the first accepted step on which ||u||_inf does
not grow.  Inside it, a step is RK4 wherever the stage rule would pick s = 2,
that is dt <= dt_E, well inside RK4's real stability interval of about
2.79 / rho = 1.74 dt_E; elsewhere it is RKC2.  A decaying run never shrinks
on growth, so it takes exactly the RKC2 steps it would take alone.

One kernel evaluation of a trial state gives its J, its right-hand side and
its two modulars from the same powers; when the step is accepted they are
reused as the current state's, and its row takes them with ||u||_2^2 and
||u||_inf without another quadrature.  The accepted state is then shifted to
zero mean; the shift is round-off and the kernel's values still stand.

The run is a `Trajectory`: one column per recorded quantity, one row for the
datum and one for every accepted state, so the run's accepted steps are its
rows less one.  ||u||_2^2 is reduced once per state; the l2sq column, the
drift check and audit check (b) all read that one value.  The audit, the
blow-up functional, delta0 and the CSV read the columns, each identity on
single steps, and `columns_csv` writes this table and every other numeric
table of a run.  Its trial steps are one tally: each trial, accepted or
not, counts once under its `Trial` key, the decade floor(log10 ||u||_inf)
of the state it starts from, its stepper, its stage count, the factor that
set the next dt and whether it was accepted; the rejected steps and every
count by one of these is a marginal of the tally (`Trajectory.steps_by`).
A trial runs with numpy's overflow and invalid-value warnings off: a state
that overflows is not finite, and the trial is rejected unevaluated.

The step rule: a rejection halves dt, and every accepted step scales it by a
factor of at most 1.25, read from estimates the step already holds, so it
costs no kernel evaluation:

- The energy factor.  The remainder of a step of order k grows like
  dt^(k+1), so aim (tol / residual)^(1/(k+1)) is the factor at which the
  same remainder would sit at aim^(k+1) of the tolerance.  An RKC2 step has
  k = 2 and aim 0.97; an RK4 step k = 4 and aim 0.8, whose fifth power
  leaves the same margin in dt.
- The error factor, on an RKC2 step outside the blow-up tail.  The RKC
  local-error estimate ||12 (u - u+) + 6 dt (f + f+)|| / 15 of Sommeijer,
  Shampine and Verwer (J. Comput. Appl. Math. 88, 1998), with f and f+ the
  right-hand sides at both ends of the step, is O(dt^3), and the step's
  change ||u+ - u|| is O(dt); the factor (0.008 / ratio)^(1/2) aims their
  ratio at 0.008.  In a decaying run the residual sits far under its
  tolerance once the flow slows, while the ratio keeps the step on the
  time scale of the slowest decaying mode; the target holds audit check
  (b), whose three-point rate is second order in the step, under 0.01 on
  the shipped decaying configs.  The change is floored at 1024 ulps of
  ||u|| for every explicit Euler bound in dt, the round-off of dt times a
  right-hand side: at a steady state the change and the estimate are both
  round-off, and their ratio would drive dt to dt_min.

The factor is the least of the two and the cap, except on an accepted step on
which the sup norm grows and the residual passes aim^(k+1) of the tolerance:
the energy factor alone then shrinks dt, and the blow-up tail opens.  In the
tail the admissible step falls like the source ODE's scale ||u||_inf^{2-r};
the shrink keeps dt on it instead of sawtoothing between half and all of it
through rejections.  In the tail growth also stops at max(dt_E, dt): past
dt_E the step would be a three-stage RKC2 trial, which the energy test
rejects on the escape runs, halving dt.  There is no cap by
default (`SolverConfig.dt_max` is inf): in a decaying run dt grows until the
estimates stop it, and since the stage count grows like sqrt(dt / dt_E), an
s-stage step covers a dt that grows like s^2, so the longer the step, the
fewer kernel evaluations per unit time.

The factor is floored to a multiple of 2^-10.  The residual is a difference
of O(|J|) sums, so its round-off is about eps |J| / residual ~ 1e-10
relative.  Unfloored, that round-off would set the last bits of dt, and two
evaluations of the same J that sum in a different order would drift onto
different trajectories; floored, dt depends on the estimates only through
comparisons, as it does under halving.

Blow-up is declared when the sup norm crosses the configured threshold (a
finite trigger yields a lower bound on the escape time), or when dt collapses
below dt_min, through a rejection or a shrink, after at least one accepted
step and at a state whose source modular S exceeds its gradient modular G.
For this kernel <u, rhs> = -(G - S) = -I exactly, so S > G means the L2 norm
is still growing.  A collapse before any accepted step, or at a state with
S <= G, is reported as stalling, not blow-up.  A datum whose J, G or S is not
finite (delta = 0 with p_minus < 2 on a datum with a flat cell) raises
ValueError before the first step.
"""

from __future__ import annotations

import collections
import functools
import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .exponents import ExponentField
from .grid import GridFunction, _aligned, _Kernel, _require_one_grid, project_mean_zero

__all__ = [
    "SolverConfig",
    "Outcome",
    "Trajectory",
    "simulate",
    "audit_trajectory",
    "AuditReport",
    "blowup_functional",
    "BlowupFunctional",
    "delta0_hat",
    "trajectory_csv",
    "columns_csv",
]

GLOBAL_UNTIL_TEND = "GlobalUntilTend"
BLOWUP_DETECTED = "BlowupDetected"
STALLED_DT = "StalledDt"

# an accepted step of order k aims the next step's residual at aim**(k + 1)
# of the tolerance; every step factor is floored to a multiple of 1/_GRID
_ORDER_AIM = {"rkc2": (2, 0.97), "rk4": (4, 0.8)}
_GRID = 1024.0
# an accepted RKC2 step outside the tail aims the next step's RKC error
# estimate at _ERROR_AIM of its change; the change is floored at _ROUNDOFF
# ||u|| per explicit Euler bound in the step, so a state at rest keeps dt
_ERROR_AIM = 0.008
_ROUNDOFF = 1024.0 * np.finfo(float).eps
# the most a step factor grows dt
_GROWTH = 1.25
# the damping eps of the RKC2 polynomial, whose Chebyshev argument is
# w0 + w1 z with w0 = 1 + eps/s^2
_DAMPING = 2.0 / 13.0

# a trial step's key in the tally: the decade of the state it starts from
# (None for the zero state), its stepper "rkc2" or "rk4", its stage count
# (None on RK4), the factor that set the next dt (None but on an accepted
# RKC2 step outside the blow-up tail) and whether it was accepted
Trial = collections.namedtuple("Trial", "decade stepper stages limit accepted")


@dataclass(frozen=True)
class SolverConfig:
    """The stepper's settings: the first trial step dt_init; dt_min, under
    which dt collapses and the run ends; dt_max, a cap on dt that is off (inf)
    by default and set only to hold dt under the admissible step; the final
    time t_end; the energy-residual tolerance energy_tol, relative to
    1 + |J|, which both trial steps meet with one quadrature of the
    dissipation; the sup norm blowup_threshold that declares blow-up;
    and the regularization delta of the gradient weight.  Which stepper a
    step takes, its stage count and its step factor are not settings, and the
    trajectory records every accepted state, so no setting thins it."""

    dt_init: float = 1e-5
    dt_min: float = 1e-18
    dt_max: float = math.inf
    t_end: float = 1.0
    energy_tol: float = 1e-6
    blowup_threshold: float = 1e6
    delta: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not (0.0 < self.t_end < math.inf):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end!r}")
        if not (0.0 < self.energy_tol < math.inf):
            raise ValueError(f"energy_tol must be positive and finite, got {self.energy_tol!r}")
        if not (self.blowup_threshold > 0.0):
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold!r}")
        if not (0.0 <= self.delta < math.inf):
            raise ValueError(f"delta must be non-negative and finite, got {self.delta!r}")


@dataclass(frozen=True)
class Outcome:
    kind: str
    t_b: Optional[float] = None


@dataclass
class Trajectory:
    """The run as a table of equal-length columns, one row for the datum and
    one for every accepted state: its time t, energy J, gradient and source
    modulars G and S, ||u||_2^2 and ||u||_inf, and the size dt of the step
    that reached the state (0 for the datum).  I, delta0 and the count of
    accepted steps are derived from the columns, and the rejected steps and
    every marginal count of trials from the tally `trials`."""

    t: np.ndarray
    J: np.ndarray
    G: np.ndarray
    S: np.ndarray
    l2sq: np.ndarray
    linf: np.ndarray
    dt: np.ndarray
    outcome: Outcome
    energy_budget_used: float
    max_rel_residual: float
    residual_sum: float
    mean_drift_max: float
    # one for the datum, s per s-stage RKC2 trial step and 4 per RK4 trial
    # step (three stages and the state); a trial whose state is not finite is
    # rejected unevaluated and costs s - 1 or 3, whatever its key
    kernel_evals: int = 0
    # the number of trial steps under each `Trial` key, every trial once; the
    # limit is "error" (the RKC estimate), "energy" (the residual, the shrink
    # that opens the tail included) or "growth" (the cap)
    trials: collections.Counter = field(default_factory=collections.Counter)

    @property
    def step_count(self) -> int:
        """The accepted steps: every row but the datum's."""
        return len(self.t) - 1

    @property
    def rejected_steps(self) -> int:
        """The rejected trial steps, a marginal of the tally."""
        return sum(n for trial, n in self.trials.items() if not trial.accepted)

    def steps_by(self, name: str, keys: tuple = ()) -> dict:
        """[accepted, rejected] trial steps by the field `name` of their
        `Trial` key: for each of keys in their order, zero rows included, or
        by default for each value the run met, None first and the rest
        ascending."""
        counts = {key: [0, 0] for key in keys}
        for trial, n in self.trials.items():
            key = getattr(trial, name)
            if key in counts or not keys:
                counts.setdefault(key, [0, 0])[not trial.accepted] += n
        return counts if keys else dict(sorted(counts.items(),
                                               key=lambda kv: (kv[0] is not None, kv[0])))

    @property
    def I(self) -> np.ndarray:
        return self.G - self.S

    @property
    def delta0(self) -> np.ndarray:
        """S/G, NaN where G vanishes."""
        return np.divide(self.S, self.G, out=np.full_like(self.G, np.nan), where=self.G > 0.0)


@functools.lru_cache(maxsize=None)
def _rkc2_weights(s: int) -> tuple[np.ndarray, float]:
    """The s-stage RKC2 scheme's weights, one row per stage, and the width
    beta(s) of its real stability interval.  The rows are (mu~_1, 0, 0, 0),
    then (mu_j, nu_j, mu~_j, gamma~_j) for j = 2..s: with the Chebyshev
    values T_j, T_j' and T_j'' at w0 = 1 + eps/s^2, w1 = T_s'/T_s'',
    b_j = T_j''/T_j'^2 (b_0 = b_1 = b_2) and a_j = 1 - b_j T_j, they are
    mu~_1 = b_1 w1, mu_j = 2 b_j w0/b_{j-1}, nu_j = -b_j/b_{j-2},
    mu~_j = 2 b_j w1/b_{j-1} and gamma~_j = -a_{j-1} mu~_j.  beta(s) is
    (1 + w0)/w1, where w0 + w1 z reaches -1, and 2 for s = 2, whose
    polynomial is 1 + z + z^2/2 at any damping.  A decaying run meets dozens
    of stage counts, so each cached rule is one float array rather than
    tuples of Python floats, which would take about six times the memory."""
    w0 = 1.0 + _DAMPING / (s * s)
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        d2T.append(4.0 * dT[j - 1] + 2.0 * w0 * d2T[j - 1] - d2T[j - 2])
    w1 = dT[s] / d2T[s]
    b = [d2T[j] / (dT[j] * dT[j]) for j in range(2, s + 1)]
    b = b[:1] * 2 + b
    rows = [(b[1] * w1, 0.0, 0.0, 0.0)]
    for j in range(2, s + 1):
        mut = 2.0 * b[j] * w1 / b[j - 1]
        rows.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mut,
                     -(1.0 - b[j - 1] * T[j - 1]) * mut))
    return np.array(rows), 2.0 if s == 2 else (1.0 + w0) / w1


def _stages(dt: float, dt_e: float) -> int:
    """The least s >= 2 whose stability interval dt_e beta(s)/2 holds dt.
    RKL2's interval (s^2 + s - 2)/2 is at most beta(s), so the search starts
    at RKL2's closed-form count and steps down."""
    s = max(2, math.ceil(0.5 * (math.sqrt(9.0 + 16.0 * (dt / dt_e)) - 1.0)))
    while s > 2 and dt <= 0.5 * dt_e * _rkc2_weights(s - 1)[1]:
        s -= 1
    return s


def _work(n: int) -> list[np.ndarray]:
    """The steppers' flat buffers for n cells, made once per run: RKC2 takes
    all four, RK4 the first three."""
    return _aligned(n, 4)


def _rkc2_step(kernel: _Kernel, u: np.ndarray, rhs: np.ndarray, dt: float, s: int,
               work: list[np.ndarray]) -> np.ndarray:
    """The s-stage RKC2 state from u, whose right-hand side is rhs, in a new
    array; it costs s - 1 kernel evaluations, one per inner stage.
    Subtracting u from the stage recurrence Y_j = mu Y_{j-1} + nu Y_{j-2} +
    (1 - mu - nu) u + ... leaves one on the increments d_j = Y_j - u, whose
    round-off scales with the step rather than with the state: the blow-up
    tail amplifies a change in the last bit of the state many times over.
    Each stage forms u + d_{j-1} in the kernel's state buffer and its
    increment in the `work` buffers (`_work`), so an inner stage allocates
    nothing."""
    (mu1, *_), *rows = _rkc2_weights(s)[0].tolist()
    uf, f = u.reshape(-1), rhs.reshape(-1)
    d, prev, inc, tmp = work
    x = kernel.state
    np.multiply(f, mu1 * dt, out=d)
    # d_0 = Y_0 - u = 0 enters the first stage's recurrence
    prev.fill(0.0)
    for mu, nu, mut, gt in rows:
        np.add(uf, d, out=x)
        kernel.stage(inc)
        inc *= mut * dt
        inc += np.multiply(f, gt * dt, out=tmp)
        inc += np.multiply(d, mu, out=tmp)
        inc += np.multiply(prev, nu, out=tmp)
        prev, d, inc = d, inc, prev
    return (uf + d).reshape(u.shape)


def _rk4_step(kernel: _Kernel, u: np.ndarray, rhs: np.ndarray, dt: float,
              work: list[np.ndarray]) -> np.ndarray:
    """The classical RK4 state from u, whose right-hand side is rhs, in a new
    array; it costs three kernel evaluations, one per inner stage.  As in
    `_rkc2_step` the increment is summed before it is added to u, with the
    tableau's weights b = (1/6, 1/3, 1/3, 1/6) times dt, each term as soon as
    its stage slope is formed: the slope buffer then takes the next one."""
    uf, f = u.reshape(-1), rhs.reshape(-1)
    k, d, tmp = work[:3]
    x = kernel.state
    b1, b2 = 1.0 / 6.0 * dt, 1.0 / 3.0 * dt
    np.add(uf, np.multiply(f, 0.5 * dt, out=x), out=x)
    kernel.stage(k)
    np.multiply(f, b1, out=d)
    d += np.multiply(k, b2, out=tmp)
    np.add(uf, np.multiply(k, 0.5 * dt, out=x), out=x)
    kernel.stage(k)
    d += np.multiply(k, b2, out=tmp)
    np.add(uf, np.multiply(k, dt, out=x), out=x)
    kernel.stage(k)
    d += np.multiply(k, b1, out=tmp)
    return (uf + d).reshape(u.shape)


def _rkc_estimate(u: np.ndarray, rhs: np.ndarray, u_new: np.ndarray, rhs_new: np.ndarray,
                  dt: float) -> float:
    """||12 (u - u_new) + 6 dt (rhs + rhs_new)|| / 15, the local-error
    estimate of a second-order step of size dt from u to u_new, whose
    right-hand sides are rhs and rhs_new (Sommeijer, Shampine and Verwer,
    J. Comput. Appl. Math. 88, 1998): four fifths of the trapezoidal rule's
    defect (u_new - u) - dt (rhs + rhs_new)/2, which is -dt^3 u'''/12 +
    O(dt^4) on a smooth flow.  It reads values the step already holds, so it
    costs no kernel evaluation."""
    est = (6.0 * dt) * (rhs + rhs_new)
    est -= 12.0 * (u_new - u)
    return float(np.sqrt(np.vdot(est, est))) / 15.0


def _hermite_dissipation(kernel: _Kernel, u: np.ndarray, rhs: np.ndarray, u_new: np.ndarray,
                         rhs_new: np.ndarray, dt: float) -> float:
    """The dissipation int ||p'||_2^2 of the cubic Hermite interpolant p of a
    step of size dt from u to u_new, whose right-hand sides are rhs and
    rhs_new, in closed form: dt (||D||^2 + (2/15)(||A||^2 + ||B||^2)
    - (1/15) <A, B>), with D = (u_new - u)/dt, A = rhs - D and B = rhs_new - D,
    since p' = D + A (1 - th)(1 - 3 th) + B th (3 th - 2) at th = t/dt.  It is
    O(dt^5) off on the exact flow and reads values the step already holds, so
    it costs no kernel evaluation."""
    d = (u_new - u) / dt
    a, b = rhs - d, rhs_new - d
    return dt * kernel.vol * (
        float(np.vdot(d, d)) + (2.0 / 15.0) * (float(np.vdot(a, a)) + float(np.vdot(b, b)))
        - (1.0 / 15.0) * float(np.vdot(a, b)))


def simulate(
    u0: GridFunction,
    p: ExponentField,
    r: ExponentField,
    cfg: SolverConfig,
) -> Trajectory:
    _require_one_grid(u0, p, r)
    grid = u0.grid
    vol = grid.cell_volume
    kernel = _Kernel(grid, p.values, cfg.delta, r.values)
    work = _work(kernel.faces.n)

    u = project_mean_zero(u0).values
    t = 0.0
    dt = cfg.dt_init
    Jf, rhs, G, S = kernel(u)
    evals = 1
    if not all(map(math.isfinite, (Jf, G, S))):
        raise ValueError(
            f"initial energy is not finite (J={Jf!r}, G={G!r}, S={S!r}) at "
            f"delta={cfg.delta!r}, p_minus={p.p_minus!r}; delta = 0 with "
            "p_minus < 2 gives a cell with a zero gradient an infinite weight")
    dt_e = kernel.explicit_dt()
    supn = float(np.max(np.abs(u)))
    # the trajectory's table, transposed: one buffer row per column, in the
    # order of its fields, and one buffer column per state, the datum's first;
    # doubled in length when full
    table = np.empty((7, 256))
    table[:, 0] = t, Jf, G, S, vol * float(np.vdot(u, u)), supn, 0.0
    n = 1

    budget = 0.0
    max_rel_res = 0.0
    res_sum = 0.0
    drift_max = 0.0
    outcome: Optional[Outcome] = None
    trials: collections.Counter = collections.Counter()
    # in the blow-up tail: from the first growth shrink to the first accepted
    # step on which ||u||_inf does not grow
    tail = False

    while t < cfg.t_end:
        dt_eff = min(dt, cfg.t_end - t)
        s = _stages(dt_eff, dt_e)
        stepper = "rk4" if tail and s == 2 else "rkc2"
        decade = math.floor(math.log10(supn)) if supn > 0.0 else None
        # a state that overflows is not finite and is rejected unevaluated
        with np.errstate(over="ignore", invalid="ignore"):
            if stepper == "rk4":
                u_new = _rk4_step(kernel, u, rhs, dt_eff, work)
                evals += 3
            else:
                u_new = _rkc2_step(kernel, u, rhs, dt_eff, s, work)
                evals += s - 1
            accepted = False
            if np.all(np.isfinite(u_new)):
                J_new, rhs_new, G_new, S_new = kernel(u_new)
                # read while the kernel still holds its weights at u_new: the
                # next trial's stages replace them
                dt_e_new = kernel.explicit_dt()
                evals += 1
                dissipation = _hermite_dissipation(kernel, u, rhs, u_new, rhs_new, dt_eff)
                residual = abs(J_new - Jf + dissipation)
                tol = cfg.energy_tol * (1.0 + abs(Jf))
                accepted = math.isfinite(J_new) and residual <= tol

        limit = None
        if accepted:
            # outside the tail an RKC2 step also reads its RKC estimate, against
            # the step's change floored at its round-off: that of dt times the
            # right-hand side, about eps ||u|| per explicit Euler bound in dt;
            # the zero state has nothing to estimate
            error = 0.0
            estimated = stepper == "rkc2" and not tail
            if estimated:
                change = max(float(np.linalg.norm(u_new - u)),
                             _ROUNDOFF * max(1.0, dt_eff / dt_e) * float(np.linalg.norm(u)))
                if change > 0.0:
                    error = _rkc_estimate(u, rhs, u_new, rhs_new, dt_eff) / change
            # the right-hand side has zero mean, so this is a round-off shift
            # that keeps the drift flat; the kernel's values at u_new stand
            # for the shifted state
            u = u_new - np.sum(u_new) / u_new.size
            t += dt_eff
            budget += dissipation
            res_sum += residual
            max_rel_res = max(max_rel_res, residual / (1.0 + abs(Jf)))
            Jf, rhs, G, S, dt_e = J_new, rhs_new, G_new, S_new, dt_e_new
            l2sq = vol * float(np.vdot(u, u))
            drift_max = max(drift_max, abs(vol * float(np.sum(u))) / (1.0 + np.sqrt(l2sq)))
            supn, supn_prev = float(np.max(np.abs(u))), supn
            k, aim = _ORDER_AIM[stepper]
            # residual ~ dt^(k + 1): at this factor of dt the next step's
            # residual would sit at aim^(k + 1) of the tolerance
            energy = aim * (tol / residual) ** (1.0 / (k + 1)) if residual > 0.0 else math.inf
            grows = supn > supn_prev
            tail = tail and grows
            if grows and residual > aim ** (k + 1) * tol:
                # the next step at this dt would fail: the tail opens, or goes on
                factor, limit, tail = energy, "energy", True
            else:
                factor, limit = min((_GROWTH, "growth"), (energy, "energy"))
                if error > 0.0:
                    # the estimate is O(dt^3), the step's change O(dt)
                    factor, limit = min((factor, limit), ((_ERROR_AIM / error) ** 0.5, "error"))
            limit = limit if estimated else None
            scaled = dt * (math.floor(factor * _GRID) / _GRID)
            # in the tail growth stops at dt_E, past which RK4 would give way
            # to an RKC2 trial that fails
            dt = min(min(scaled, max(dt_e, dt)) if tail else scaled, cfg.dt_max)
            if n == table.shape[1]:
                table = np.concatenate((table, np.empty_like(table)), axis=1)
            table[:, n] = t, Jf, G, S, l2sq, supn, dt_eff
            n += 1
        else:
            dt *= 0.5
        # every trial counts once, before either break
        trials[Trial(decade, stepper, None if stepper == "rk4" else s, limit, accepted)] += 1
        if accepted and supn >= cfg.blowup_threshold:
            outcome = Outcome(BLOWUP_DETECTED, t_b=t)
            break
        if dt < cfg.dt_min:
            # S > G is I < 0: the L2 norm is still growing
            if n > 1 and S > G:
                outcome = Outcome(BLOWUP_DETECTED, t_b=t)
            else:
                outcome = Outcome(STALLED_DT)
            break

    if outcome is None:
        outcome = Outcome(GLOBAL_UNTIL_TEND)

    return Trajectory(
        *table[:, :n].copy(),
        outcome=outcome,
        energy_budget_used=budget,
        max_rel_residual=max_rel_res,
        residual_sum=res_sum,
        mean_drift_max=drift_max,
        kernel_evals=evals,
        trials=trials,
    )


# audit allowances: (a) a relative J uptick, (b) the relative error of the
# ||u||_2^2 rate, (d) the spatial-mean drift
_J_TOL = 1e-3
_RATE_TOL = 0.05
_DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class AuditReport:
    j_nonincreasing: bool
    max_j_uptick_rel: float
    l2_rate_max_rel_err: float
    l2_rate_ok: bool
    i_sign_persistent: Optional[bool]
    mean_drift_max: float
    mean_drift_ok: bool


def audit_trajectory(traj: Trajectory, d_hat: Optional[float] = None) -> AuditReport:
    """Consistency checks on a simulated trajectory.

    Every accepted state is a row, so each check spans single steps.

    (a) J non-increasing within a relative allowance;
    (b) the derivative of ||u||_2^2 against -2 I, relative, at each interior
        row from it and its two neighbours (second order at uneven times);
        rows with a non-increasing time are skipped;
    (c) when the initial energy sits below a supplied depth estimate, the
        sign of I must not flip (discrete invariant-set check);
    (d) spatial-mean drift.
    """
    if len(traj.t) < 2:
        raise ValueError("need at least 2 states to audit")
    J, I = traj.J, traj.I

    upticks = (J[1:] - J[:-1]) / (1.0 + np.abs(J[:-1]))
    max_uptick = float(upticks.max()) if upticks.size else 0.0

    h = np.diff(traj.t)
    h1, h2 = h[:-1], h[1:]
    dl = np.diff(traj.l2sq)
    target = -2.0 * I[1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the three-point derivative, exact on quadratics at any spacing
        rate = (h1 * h1 * dl[1:] + h2 * h2 * dl[:-1]) / (h1 * h2 * (h1 + h2))
        rel = np.abs(rate - target) / np.maximum(np.abs(target), 1e-300)
    max_rel = float(np.max(rel[(h1 > 0.0) & (h2 > 0.0)], initial=0.0))

    sign_ok: Optional[bool] = None
    if d_hat is not None and J[0] < d_hat:
        scale = 1e-12 * (1.0 + np.abs(I).max())
        signs = np.sign(I[np.abs(I) > scale])
        sign_ok = bool(signs.size == 0 or np.all(signs == signs[0]))

    return AuditReport(
        j_nonincreasing=bool(max_uptick <= _J_TOL),
        max_j_uptick_rel=max_uptick,
        l2_rate_max_rel_err=max_rel,
        l2_rate_ok=bool(max_rel <= _RATE_TOL),
        i_sign_persistent=sign_ok,
        mean_drift_max=traj.mean_drift_max,
        mean_drift_ok=bool(traj.mean_drift_max <= _DRIFT_TOL),
    )


class BlowupFunctional(NamedTuple):
    t: np.ndarray
    M: np.ndarray
    M_prime: np.ndarray
    M_second_proxy: np.ndarray
    diagnostic: np.ndarray


def blowup_functional(traj: Trajectory, r_minus: float) -> BlowupFunctional:
    """Time integral of ||u||_2^2 with its derivatives and the concavity
    diagnostic M'' M - ((r_minus + 2)/4) (M')^2 (positive in the escape
    regime)."""
    t, Mp = traj.t, traj.l2sq
    M = np.zeros_like(t)
    M[1:] = np.cumsum(0.5 * (Mp[1:] + Mp[:-1]) * np.diff(t))
    Mpp = -2.0 * traj.I
    diag = Mpp * M - 0.25 * (r_minus + 2.0) * Mp**2
    return BlowupFunctional(t=t, M=M, M_prime=Mp, M_second_proxy=Mpp, diagnostic=diag)


def delta0_hat(traj: Trajectory) -> float:
    """Maximum of the source/diffusion modular ratio over the recorded rows
    where it is finite; NaN when it is finite on none."""
    d0 = traj.delta0
    d0 = d0[np.isfinite(d0)]
    return float(d0.max()) if d0.size else float("nan")


def columns_csv(table: dict[str, np.ndarray]) -> str:
    """Deterministic CSV of equal-length numeric columns under a header of
    their names, each value in the shortest round-trip float format; an empty
    table is the empty string.  The rows go one at a time into one buffer:
    a list of every row's values and strings would leave a trajectory of
    thousands of rows about 1 MB of small-object arenas after it is freed."""
    if not table:
        return ""
    rows = np.column_stack([np.asarray(c, dtype=float) for c in table.values()])
    out = io.StringIO()
    out.write(",".join(table) + "\n")
    for row in rows:
        out.write(",".join(map(repr, row.tolist())) + "\n")
    return out.getvalue()


def trajectory_csv(traj: Trajectory) -> str:
    """The trajectory's columns, I, delta0 and the L2 norm as CSV."""
    return columns_csv({
        "t": traj.t, "l2": np.sqrt(traj.l2sq), "linf": traj.linf,
        "grad_modular": traj.G, "source_modular": traj.S, "J": traj.J, "I": traj.I,
        "delta0": traj.delta0, "dt": traj.dt,
    })
