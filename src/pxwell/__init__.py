"""Numerical laboratory for nonlocal Neumann diffusion with variable exponents.

Simulates u_t = div(|grad u|^{p(x)-2} grad u) + |u|^{r(x)-2} u - <source mean>
on an interval or rectangle with zero Neumann flux, evaluates the associated
potential-well functionals, predicts global existence versus finite-time
escape from the initial datum, and verifies the closed-form decay/growth
envelopes and the modular Poincare counterexample at desk scale.
"""

from .grid import (
    Grid,
    GridFunction,
    integrate,
    px_flux_divergence,
    project_mean_zero,
)
from .exponents import ExponentField, build_field, check_hypotheses, check_log_holder
from .norms import (
    NormResult,
    EmbeddingEstimate,
    modular,
    luxemburg_norm,
    check_unit_ball_relations,
    check_holder,
    estimate_embedding,
    gn_theta,
)
from .energy import (
    EnergySnapshot,
    DepthEstimate,
    LevelRadii,
    snapshot,
    ray_profile,
    find_lambda_star,
    estimate_depth,
    estimate_level_radii,
)
from .solver import (
    SolverConfig,
    Trajectory,
    Outcome,
    step,
    simulate,
    audit_trajectory,
    blowup_functional,
)
from .classify import (
    Verdict,
    Envelope,
    classify,
    decay_envelope,
    blowup_tstar,
    inequality_317_check,
    prop48_check,
    construct_high_energy_datum,
    thm53_envelope,
    thm54_bounds,
)
from .ode_bounds import OdeParams, envelope, verify
from . import radial_gap

__version__ = "0.1.0"
