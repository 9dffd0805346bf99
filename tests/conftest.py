from __future__ import annotations

import numpy as np
import pytest

from pxwell import energy
from pxwell.classify import thm53_envelope
from pxwell.exponents import build_field
from pxwell.grid import Grid, GridFunction, project_mean_zero
from pxwell.ode_bounds import OdeParams
from pxwell.solver import GLOBAL_UNTIL_TEND, Outcome, Trajectory
from pxwell.witnesses import mode_field


@pytest.fixture
def grid1d():
    return Grid((64,), (1.0,))


@pytest.fixture
def grid2d():
    return Grid((24, 24), (1.0, 1.0))


def random_gridfunction(grid, rng, amp=1.0):
    return GridFunction(grid, amp * rng.standard_normal(grid.shape))


def mixed_mode(grid, coefs=((1, 1, 1.0), (2, 0, 0.3), (0, 1, 0.2))):
    vals = np.zeros(grid.shape)
    for *ks, c in coefs:
        vals += c * mode_field(grid, tuple(ks)).values
    return project_mean_zero(GridFunction(grid, vals))


def random_exponent(grid, rng, lo=1.2, hi=4.0):
    """Smooth random exponent field strictly above 1."""
    coords = grid.centers()
    wobble = rng.uniform(0.05, 0.4)
    base = rng.uniform(lo + 2 * wobble + 0.05, hi - 0.5)
    vals = base + wobble * np.sin(2 * np.pi * coords[0] / grid.lengths[0])
    if grid.dimension == 2:
        vals = vals + wobble * np.cos(np.pi * coords[1] / grid.lengths[1])
    return build_field(np.asarray(vals), grid)


def fail_lambda_star_calls(monkeypatch, failing):
    """Make the lambda* solve raise on the given call indices; returns the
    one-element call counter.  Every solve, a `find_lambda_star` call or a
    depth-descent step, runs `energy._nehari` once, so that is where the
    failure is injected."""
    original = energy._nehari
    calls = [0]

    def flaky(*args, **kwargs):
        calls[0] += 1
        if calls[0] - 1 in failing:
            raise ValueError("lambda* failure injected by the test")
        return original(*args, **kwargs)

    monkeypatch.setattr(energy, "_nehari", flaky)
    return calls


def column_trajectory(**columns):
    """A trajectory table with the given columns and zeros in the others."""
    n = len(next(iter(columns.values())))
    table = {name: np.zeros(n) for name in ("t", "J", "G", "S", "l2sq", "linf", "dt")}
    table.update({name: np.asarray(col, dtype=float) for name, col in columns.items()})
    return Trajectory(**table, outcome=Outcome(GLOBAL_UNTIL_TEND), energy_budget_used=0.0,
                      max_rel_residual=0.0, residual_sum=0.0, mean_drift_max=0.0)


def thm53_lemma_cases():
    """One Thm 5.3 bound per branch of the comparison lemma, with the lemma
    inputs it records: a list of (Envelope, OdeParams).  The first datum,
    w0 = 1e-4 with alpha = 1.25, starts next to the singular point s = 0 of
    s^alpha."""
    g = Grid((8, 8), (1.0, 1.0))
    r = build_field(1.5, g)
    cases = [(2.5, 0.3, 1e-4), (2.5, 0.3, 0.5), (1.9, 0.3, 0.5),
             (2.5, 1.2, 0.1), (2.5, 1.2, 50.0), (1.9, 1.2, 1e3)]
    out = []
    for p_const, B_hat, w0 in cases:
        p = build_field(p_const, g)
        env = thm53_envelope(w0, p, r, B_hat=B_hat, B0_hat=0.3)
        c = env.constants
        out.append((env, OdeParams(c["C1"], c["C2"], 0.5 * p.p_plus, 0.5 * p.p_minus, c["w0"])))
    return out
