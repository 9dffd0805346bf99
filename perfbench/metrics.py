"""Derivations of every metric the benchmark reports.

End-to-end metrics come from untraced passes.  Per-layer metrics come from
the traced pass (spans and counters) and from the microbenchmarks.  Units and
better directions are those of BENCHMARK.json.  A value of None means the
program no longer has the function the metric measures: it is reported as
absent, never as a failure.  A layer that a workload never calls reads 0
calls and 0 s, which is what was measured.
"""

from __future__ import annotations

from typing import Optional

WAITING_NOTE = ("waiting: none measured; one process, one thread, no queues, "
                "so no layer waits for another")


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_table(agg: dict, counters: dict, traced: set, micro: dict,
                wall_traced: float, wall_untraced: float, slowdown: float,
                failed_frac: float, audit_fail: int, depth_upper: float) -> dict:
    """Every per-layer metric of BENCHMARK.json: name -> value or None.

    `agg` maps span names to calls/failed/s/self_s, `traced` holds the span
    names the program still has (so a missing name is absent, a name never
    called is zero), `micro` holds the microbenchmark medians.
    """

    def span(name: str, field: str) -> Optional[float]:
        if name not in traced:
            return None
        return agg.get(name, {}).get(field, 0)

    def count(key: str) -> float:
        return counters.get(key, 0)

    table: dict[str, Optional[float]] = dict(micro)

    sim_self = span("solver.simulate", "self_s")
    accepted = count("solver.steps_accepted")
    rejected = count("solver.steps_rejected")
    trials = accepted + rejected
    table["solver.simulate.self_s"] = sim_self
    table["solver.steps_accepted"] = accepted
    table["solver.steps_rejected"] = rejected
    table["solver.accept_ratio"] = _ratio(accepted, trials)
    table["solver.trial_step.us"] = _ratio(None if sim_self is None else 1e6 * sim_self, trials)
    table["solver.t_b"] = _ratio(count("solver.t_b.sum"), count("solver.t_b.runs"))

    for name, fields in (
        ("energy.snapshot", ("calls", "s")),
        ("energy.find_lambda_star", ("calls", "failed", "s")),
        ("energy.estimate_depth", ("self_s",)),
        ("energy.estimate_level_radii", ("self_s",)),
        ("norms.luxemburg_norm", ("calls", "s")),
        ("norms.estimate_embedding", ("self_s",)),
        ("norms.estimate_gn_constant", ("self_s",)),
        ("witnesses.random_field", ("calls", "s")),
        ("witnesses.mode_catalogue", ("s",)),
        ("exponents.check_log_holder", ("s",)),
        ("classify.classify", ("s",)),
        ("classify.construct_high_energy_datum", ("s",)),
        ("cli.run", ("self_s",)),
        ("cli.main", ("self_s",)),
        ("ode_bounds.verify_batch", ("s",)),
        ("radial_gap.quotient_sweep", ("s",)),
    ):
        for field in fields:
            table[f"{name}.{field}"] = span(name, field)
    # a NormResult without `iterations` leaves the counter unset: absent
    lux_calls = table["norms.luxemburg_norm.calls"]
    table["norms.luxemburg_norm.iters_per_call"] = (
        lux_calls if not lux_calls
        else _ratio(counters.get("norms.luxemburg_norm.iterations"), lux_calls))

    table["wall_s"] = wall_untraced
    table["host.slowdown"] = slowdown
    table["failed_frac"] = failed_frac
    table["audit_fail"] = audit_fail
    table["depth_upper"] = depth_upper
    self_total = sum(row["self_s"] for row in agg.values())
    table["trace.overhead_frac"] = _ratio(wall_traced - wall_untraced, wall_untraced)
    table["trace.accounted_frac"] = _ratio(self_total, wall_traced)
    return table


def format_value(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"
