"""Correctness checks on what a run writes.

The checks read the persisted output (`record.json`, `norm.json` or a CSV),
not in-memory objects, so they judge exactly what a user of the program gets.
"""

from __future__ import annotations

import json
import math
import re

from .workloads import DEPTH_ESTIMATED, OUTCOME_FOR_VERDICT, PINNED_VERDICT, Input

AUDIT_FLAGS = ("j_nonincreasing", "l2_rate_ok", "mean_drift_ok", "i_sign_persistent")

# `pxwell ode-verify` rejects a cell whose signed violation exceeds this.
ODE_TOLERANCE = 1e-6
POINCARE_EPSILONS = (1e2, 1e3, 1e4, 1e6)
NORM_MAX_RESIDUAL = 1e-9


def check_output(inp: Input, data: bytes) -> list[str]:
    """Reasons the output of `inp` is wrong; empty when it passed."""
    if inp.writes_record:
        return check_record(inp, json.loads(data))
    if inp.command == "norm":
        return _check_norm(json.loads(data))
    rows = _csv_rows(data.decode())
    if inp.command == "ode-verify":
        return _check_ode(rows)
    return _check_poincare(rows)


def check_record(inp: Input, record: dict) -> list[str]:
    """A verdict other than the pinned one, an outcome that contradicts the
    verdict, or a depth estimate present where none is pinned or missing
    where one is."""
    reasons = []
    verdict = (record.get("verdict") or {}).get("prediction")
    pinned = PINNED_VERDICT[inp.stem]
    if verdict != pinned:
        reasons.append(f"verdict {verdict!r}, pinned {pinned!r}")
    if inp.simulate:
        kind = (record.get("outcome") or {}).get("kind")
        if kind != OUTCOME_FOR_VERDICT.get(verdict):
            reasons.append(f"outcome {kind!r} contradicts verdict {verdict!r}")
    if (depth_upper(record) is not None) != (inp.stem in DEPTH_ESTIMATED):
        reasons.append("depth estimate " + ("missing" if inp.stem in DEPTH_ESTIMATED
                                            else "present where r_minus <= p_plus"))
    return reasons


def audit_failures(record: dict) -> int:
    """False flags in record.audit; i_sign_persistent counts only when set."""
    audit = record.get("audit") or {}
    return sum(1 for flag in AUDIT_FLAGS if audit.get(flag) is False)


def depth_upper(record: dict):
    depth = (record.get("estimates") or {}).get("depth")
    return None if depth is None else depth["upper"]


def _number(text: str) -> float:
    # NumPy 2 writes a scalar's repr as `np.float64(x)`
    match = re.fullmatch(r"(?:np\.float64\()?([^()]+)\)?", text.strip())
    return float(match.group(1)) if match else math.nan


def _csv_rows(text: str) -> list[dict[str, str]]:
    header, *lines = text.strip().splitlines()
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines]


def _check_norm(result: dict) -> list[str]:
    """A Luxemburg norm is positive and finite, and its modular residual
    stays near the requested tolerance."""
    value, residual = result.get("value"), result.get("residual")
    reasons = []
    if not (isinstance(value, float) and 0.0 < value < math.inf):
        reasons.append(f"norm value {value!r} is not positive and finite")
    if not (isinstance(residual, float) and abs(residual) <= NORM_MAX_RESIDUAL):
        reasons.append(f"norm residual {residual!r} above {NORM_MAX_RESIDUAL}")
    return reasons


def _check_ode(rows: list[dict[str, str]]) -> list[str]:
    """Every parameter cell stays under its envelope within the tolerance."""
    if not rows:
        return ["ode_verify.csv has no cells"]
    worst = max(_number(row["max_violation"]) for row in rows)
    if not worst <= ODE_TOLERANCE:
        return [f"ODE envelope violated by {worst!r} over {len(rows)} cells"]
    return []


def _check_poincare(rows: list[dict[str, str]]) -> list[str]:
    """One row per default epsilon, each quotient positive and within its
    closed-form bound, and the quotients decreasing."""
    eps = tuple(float(row["epsilon"]) for row in rows)
    if eps != POINCARE_EPSILONS:
        return [f"poincare.csv epsilons {eps}, expected {POINCARE_EPSILONS}"]
    quotients = [float(row["quotient"]) for row in rows]
    reasons = [f"quotient {q!r} outside (0, {row['bound']}] at eps={row['epsilon']}"
               for q, row in zip(quotients, rows) if not 0.0 < q <= float(row["bound"])]
    if any(b >= a for a, b in zip(quotients, quotients[1:])):
        reasons.append(f"quotients {quotients} do not decrease")
    return reasons
