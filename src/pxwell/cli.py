"""Batch experiment runner: config parsing, pipeline, persistence.

Configs are flat INI files with a fixed key vocabulary; unknown sections or
keys are hard errors so that a stored config echo pins a run completely.
Given the same config and seed, every artifact is reproduced byte for byte.
The JSON files are strict JSON: a non-finite number is written as null.
Wall times and counters go to the sidecar `meta.json`, never into the
record: the total and per-stage wall times, the depth descent's accepted
steps and backtracks where a depth is estimated, and, for a simulated run,
the stepper's kernel evaluations and its accepted and rejected steps, in total
and as marginals of the solver's trial tally: by the decade
floor(log10 ||u||_inf) of the state each trial step starts from (decade null
for the zero state), by the stepper (RKC2 or RK4), for RKC2 trials by their
stage count, and for accepted RKC2 steps outside the blow-up tail by the
factor that set the next dt.  `report` collects
each run's verdict, outcome, step counts, accepted RK4 steps, kernel
evaluations and the worst relative error of audit check (b)
(`audit_rate_err`, empty for a classify-only run) into `summary.csv`; a
`meta.json` written before RK4 steps were counted leaves that column empty.
The `[solver]` section and the `[initial]` datum are read with the domain
and exponents on every run, `classify` and `depth` included, so a bad value
is a config error before any estimate runs.  A non-finite datum value,
amplitude, mode coefficient or `mtarget_factor` is a bad value, and so is an
`mtarget_factor` of at most 1, or kind `highenergy` with a non-constant
source exponent or with r_minus <= p_plus.

The numeric tables of a run (`trajectory.csv`, `envelopes.csv`) and of
`poincare` (`poincare.csv`) are column tables written by one writer,
`solver.columns_csv`; `ode_verify.csv`, with its string `branch` column,
is written in place.

`simulate`, `classify`, `depth` and `norm` each require `--config`;
`ode-verify`, `poincare` and `report` read no config and refuse one.
Only `simulate`, `classify` and `depth` read `--seed`; every command
accepts it, since the benchmark passes it to `ode-verify`, `poincare` and
`norm` too.
Every command writes its output under `--out` (an empty `--out` is the
working directory).  Every output directory is made after the config has
been read and checked and before the work starts, so a config error leaves
no directory behind.

Exit codes: 0 success, 2 config error, bad argument (such as a negative
`--seed`) or output path that cannot be made or written, 3 pipeline error
(among them a quadrature guard that fails in `ode-verify` or `poincare`,
which exits before `ode_verify.csv` or `poincare.csv` is written, and a
`record.json` or `meta.json` that `report` cannot parse or that holds no
JSON object, or a record without a string `id`, which exits before
`summary.csv` is written),
4 assertion or acceptance failure, such as a `simulate` outcome that
contradicts its decided verdict (a Global verdict that ends BlowupDetected
or a Blowup verdict that ends GlobalUntilTend), which the record's events
name and which exits only after `record.json` and `meta.json` are written,
or an `ode-verify` cell above its envelope by more than 1e-6, which exits
after `ode_verify.csv` is written with the one stderr line `assertion
failure: worst signed violation ... exceeds the tolerance 1e-06`, under
`--quiet` too.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import ode_bounds, radial_gap
from .classify import (
    BLOWUP,
    GLOBAL,
    blowup_tstar,
    classify,
    construct_high_energy_datum,
    decay_envelope,
    inequality_317_check,
    thm53_envelope,
    thm54_bounds,
)
from .energy import DepthEstimate, estimate_depth, estimate_level_radii, snapshot
from .exponents import ExponentField, build_field, check_hypotheses, check_log_holder
from .grid import Grid, GridFunction, load_gridfunction_csv, project_mean_zero
from .norms import estimate_embedding, luxemburg_norm
from .solver import (
    BLOWUP_DETECTED,
    GLOBAL_UNTIL_TEND,
    SolverConfig,
    audit_trajectory,
    blowup_functional,
    columns_csv,
    delta0_hat,
    simulate,
    trajectory_csv,
)
from .witnesses import mode_field

__all__ = ["main", "run", "ConfigError", "PipelineError"]


class ConfigError(ValueError):
    pass


class PipelineError(RuntimeError):
    pass


_SCHEMA: dict[str, set[str]] = {
    "domain": {"dimension", "cells", "lengths"},
    "exponents": {"p", "r"},
    "initial": {"kind", "amplitude", "modes", "csv", "mtarget_factor"},
    "solver": {f.name for f in dataclasses.fields(SolverConfig)},
    "norm": {"field_csv", "exponent", "tol"},
}


def _load_config(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    cfg: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        cfg[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            cfg[section][key] = value.strip()
    return cfg


def _get(cfg, section, key, default=None, required=False, cast=None):
    """[section] key, or `default` when absent, parsed by `cast`; a value that
    `cast` rejects is a config error."""
    try:
        raw = cfg[section][key]
    except KeyError:
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        raw = default
    if cast is None or raw is None:
        return raw
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _load_csv(path: str, what: str) -> GridFunction:
    """A grid function from a file that the config names, every value
    finite."""
    try:
        gf = load_gridfunction_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not np.all(np.isfinite(gf.values)):
        raise ConfigError(f"{what}: {path} holds a non-finite value")
    return gf


def _build_grid(cfg) -> Grid:
    dim = _get(cfg, "domain", "dimension", required=True, cast=int)
    cells = _get(cfg, "domain", "cells", required=True, cast=_ints)
    lengths = _get(cfg, "domain", "lengths", required=True, cast=_floats)
    if len(cells) != dim or len(lengths) != dim:
        raise ConfigError("cells/lengths do not match the declared dimension")
    try:
        return Grid(cells, lengths)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_exponent(cfg, grid: Grid, key: str) -> ExponentField:
    spec = _get(cfg, "exponents", key, required=True)
    values = spec
    if spec.endswith(".csv"):
        gf = _load_csv(spec, f"[exponents] {key}")
        if gf.grid != grid:
            raise ConfigError(f"tabulated exponent {spec} does not match the domain grid")
        values = gf.values
    try:
        return build_field(values, grid, label=key)
    except ValueError as exc:
        raise ConfigError(f"[exponents] {key}: {exc}") from exc


def _parse_mode_terms(text: str, dim: int):
    terms = []
    for chunk in text.split(";"):
        toks = chunk.split()
        if not toks:
            continue
        if len(toks) != dim + 1:
            raise ConfigError(
                f"mode term {chunk!r} must be {dim} wavenumber(s) followed by a coefficient"
            )
        try:
            terms.append((tuple(int(t) for t in toks[:dim]), float(toks[dim])))
        except ValueError as exc:
            raise ConfigError(f"mode term {chunk!r}: {exc}") from exc
        if not math.isfinite(terms[-1][1]):
            raise ConfigError(f"[initial] modes: term {chunk.strip()!r} has a non-finite coefficient")
    if not terms:
        raise ConfigError("no mode terms given")
    return terms


def _read_initial(cfg, grid: Grid, p: ExponentField, r: ExponentField) -> GridFunction | float:
    """The [initial] section, read and checked before any estimate runs: the
    datum, or for kind highenergy the factor of the depth that sets its
    energy, since that datum is built from the depth estimate; its
    construction needs a constant source exponent and a depth, hence
    r_minus > p_plus."""
    kind = _get(cfg, "initial", "kind", default="zero")
    if kind == "zero":
        return GridFunction(grid, np.zeros(grid.shape))
    if kind == "csv":
        path = _get(cfg, "initial", "csv", required=True)
        gf = _load_csv(path, "[initial] csv")
        if gf.grid != grid:
            raise ConfigError(f"initial datum {path} does not match the domain grid")
        return project_mean_zero(gf)
    if kind == "modes":
        amplitude = _get(cfg, "initial", "amplitude", default="1.0", cast=float)
        if not math.isfinite(amplitude):
            raise ConfigError(f"[initial] amplitude must be finite, got {amplitude!r}")
        terms = _parse_mode_terms(_get(cfg, "initial", "modes", required=True), grid.dimension)
        vals = np.zeros(grid.shape)
        for ks, coef in terms:
            try:
                vals += coef * mode_field(grid, ks).values
            except ValueError as exc:
                raise ConfigError(f"[initial] modes: {exc}") from exc
        peak = np.max(np.abs(vals))
        if peak == 0.0:
            raise ConfigError("mode combination is identically zero")
        return project_mean_zero(GridFunction(grid, amplitude * vals / peak))
    if kind == "highenergy":
        factor = _get(cfg, "initial", "mtarget_factor", default="10.0", cast=float)
        if not (math.isfinite(factor) and factor > 1.0):
            raise ConfigError(f"[initial] mtarget_factor must be finite and > 1, got {factor!r}")
        if r.p_minus != r.p_plus:
            raise ConfigError("[initial] kind highenergy needs a constant source exponent, got r "
                              f"in [{r.p_minus!r}, {r.p_plus!r}]")
        if not r.p_minus > p.p_plus:
            raise ConfigError("[initial] kind highenergy needs a depth estimate, hence r_minus > "
                              f"p_plus, got r_minus = {r.p_minus!r}, p_plus = {p.p_plus!r}")
        return factor
    raise ConfigError(f"unknown initial kind {kind!r}")


def _solver_config(cfg) -> SolverConfig:
    """The [solver] section as a SolverConfig: every field is a float, read in
    the order of the fields, and an absent key keeps its default."""
    kw = {}
    for f in dataclasses.fields(SolverConfig):
        value = _get(cfg, "solver", f.name, cast=float)
        if value is not None:
            kw[f.name] = value
    try:
        return SolverConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"[solver]: {exc}") from exc


def _to_jsonable(obj):
    """Plain JSON values of `obj`; a non-finite float becomes None (null),
    since strict JSON has no NaN or Infinity, and a dataclass drops its
    sidecar fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # a field marked sidecar is a counter for meta.json, not the record
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if not f.metadata.get("sidecar")}
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(x) for x in obj]
    return obj


def _out_dir(path) -> Path:
    """`path` as a directory, made with its parents; an OSError when it
    cannot be is an output error (exit 2)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_to_jsonable(payload), sort_keys=True, indent=2,
                               allow_nan=False) + "\n")


def run(config_path, out_dir, seed: int = 0, do_simulate: bool = True,
        quiet: bool = False) -> dict:
    """Execute the pipeline for one config and persist all artifacts.

    Returns the record dictionary (which is also written to record.json).
    """
    t_wall = time.monotonic()
    config_path = Path(config_path)
    cfg = _load_config(config_path)
    run_id = f"{config_path.stem}-s{seed}"
    stage_s: dict[str, float] = {}
    stage, t_stage = "fields", time.monotonic()

    def enter(name: str) -> None:
        nonlocal stage, t_stage
        now = time.monotonic()
        stage_s[stage] = now - t_stage
        stage, t_stage = name, now

    # a bad value in any section is a config error here, before the run
    # directory is made or an estimate runs
    grid = _build_grid(cfg)
    p = _build_exponent(cfg, grid, "p")
    r = _build_exponent(cfg, grid, "r")
    scfg = _solver_config(cfg)
    initial = _read_initial(cfg, grid, p, r)
    run_dir = _out_dir(Path(out_dir) / run_id)

    record: dict = {
        "id": run_id,
        "seed": seed,
        "config_echo": cfg,
        "estimates": {},
        "envelopes": [],
        "events": [],
    }
    meta: dict = {"stage_s": stage_s}
    try:
        enter("hypotheses")
        hyp = check_hypotheses(p, r)
        record["hypotheses"] = hyp
        reg_p, reg_r = check_log_holder(p, r)
        record["regularity"] = {"p": reg_p, "r": reg_r}

        enter("estimates")
        B0 = estimate_embedding(p, "L2", seed=seed)
        record["estimates"]["B0"] = B0
        B = estimate_embedding(p, r, seed=seed + 1)
        record["estimates"]["B"] = B
        depth: Optional[DepthEstimate] = None
        if r.p_minus > p.p_plus:
            depth = estimate_depth(p, r, seed=seed, B_est=B)
            record["estimates"]["depth"] = depth
            meta["depth"] = {"iterations": depth.iterations, "backtracks": depth.backtracks}
            if depth.skipped:
                record["events"].append(
                    f"depth estimate skipped {depth.skipped} witnesses on which lambda* failed")

        enter("initial")
        u0 = (initial if isinstance(initial, GridFunction)
              else construct_high_energy_datum(initial * depth.upper, p, r.p_minus, depth.upper))
        s0 = snapshot(u0, p, r)
        record["initial"] = s0

        enter("classify")
        radii = None
        if depth is not None and s0.J > depth.upper:
            radii = estimate_level_radii(depth, s0.J)
            record["estimates"]["radii"] = radii
        record["verdict"] = classify(s0, hyp, depth, level_radii=radii)

        if do_simulate:
            enter("simulate")
            traj = simulate(u0, p, r, scfg)
            record["outcome"] = traj.outcome
            record["residuals"] = {
                "max_rel_residual": traj.max_rel_residual,
                "residual_sum": traj.residual_sum,
                "step_count": traj.step_count,
                "rejected_steps": traj.rejected_steps,
                "energy_budget_used": traj.energy_budget_used,
            }
            meta["steps"] = _steps_meta(traj)

            contradiction = _contradiction(record)
            if contradiction:
                record["events"].append(contradiction)

            enter("audit")
            d_for_audit = depth.upper if depth is not None else None
            record["audit"] = audit_trajectory(traj, d_hat=d_for_audit)
            record["delta0_hat"] = delta0_hat(traj)

            enter("envelopes")
            env_table = _envelope_table(record, traj, p, r, depth, B0, B)
            (run_dir / "trajectory.csv").write_text(trajectory_csv(traj))
            record["trajectory_ref"] = "trajectory.csv"
            (run_dir / "envelopes.csv").write_text(columns_csv(env_table))
    except Exception as exc:
        record["events"].append(f"pipeline failure at stage {stage}: {exc}")
        _write_json(run_dir / "record.json", record)
        raise PipelineError(f"stage {stage}: {exc}") from exc

    stage_s[stage] = time.monotonic() - t_stage
    _write_json(run_dir / "record.json", record)
    meta["wall_time_s"] = time.monotonic() - t_wall
    _write_json(run_dir / "meta.json", meta)
    if not quiet:
        pred = record["verdict"].prediction
        out = record.get("outcome")
        kindtxt = f", outcome {out.kind}" if out is not None else ""
        print(f"[{run_id}] verdict {pred} ({record['verdict'].rule}){kindtxt}")
    return record


def _contradiction(record) -> Optional[str]:
    """The event of a simulated outcome that contradicts a decided verdict,
    a Global verdict that ends BlowupDetected or a Blowup verdict that ends
    GlobalUntilTend, else None."""
    prediction, kind = record["verdict"].prediction, record["outcome"].kind
    if (prediction, kind) in ((GLOBAL, BLOWUP_DETECTED), (BLOWUP, GLOBAL_UNTIL_TEND)):
        return f"outcome {kind} contradicts verdict {prediction}"
    return None


def _steps_meta(traj) -> dict:
    """meta.json's `steps` block: the totals, then rows of marginals of the
    trial tally.  RK4 trials have no stage count, and `by_dt_limit` counts
    the accepted RKC2 steps outside the blow-up tail, the only ones with a
    limit."""
    def rows(name, counts, columns=("accepted", "rejected")):
        return [{name: key, **dict(zip(columns, n))} for key, n in counts.items()]
    stages = traj.steps_by("stages")
    stages.pop(None, None)
    return {
        "accepted": traj.step_count, "rejected": traj.rejected_steps,
        "kernel_evals": traj.kernel_evals,
        "by_decade": rows("decade", traj.steps_by("decade")),
        "by_stages": rows("stages", stages),
        "by_stepper": rows("stepper", traj.steps_by("stepper", ("rkc2", "rk4"))),
        "by_dt_limit": rows("limit", traj.steps_by("limit", ("error", "energy", "growth")),
                            ("accepted",)),
    }


def _envelope_table(record, traj, p, r, depth, B0, B) -> dict[str, np.ndarray]:
    """Evaluate every closed-form bound applicable to this run.

    Column families share the trajectory's time column, so multiple
    applicable bounds merge into one wide table; with none, the table is
    empty.
    """
    t, J, l2sq = traj.t, traj.J, traj.l2sq
    verdict = record["verdict"]
    hyp = record["hypotheses"]
    d0 = record["delta0_hat"]
    s0 = record["initial"]
    table: dict[str, np.ndarray] = {"t": t}

    if (hyp.condition_H and verdict.prediction == GLOBAL
            and p.p_plus >= 2.0 and 0.0 < d0 < 1.0 and s0.J > 0.0):
        env = decay_envelope(s0.J, p, r, B0.constant, d0, depth.upper)
        record["envelopes"].append({"kind": env.kind, "constants": env.constants})
        bound = env.eval(t)
        table.update({"J": J, "J_bound": bound, "grad_modular": traj.G,
                      "grad_bound": env.constants["grad_multiplier"] * bound})
    if hyp.condition_H and verdict.prediction == BLOWUP:
        bf = blowup_functional(traj, r.p_minus)
        chk = inequality_317_check(traj, depth.upper, r.p_minus)
        record["envelopes"].append({
            "kind": "ConcavityDiagnostic",
            "constants": {"r_minus": r.p_minus, "d_hat_upper": depth.upper},
            "gap_inequality": dataclasses.asdict(chk),
        })
        if s0.J < depth.upper and r.p_minus > 2.0:
            tstar = blowup_tstar(s0.J, depth.upper, p.p_minus, p.p_plus,
                                 r.p_minus, np.sqrt(s0.l2sq), B0.constant)
            record["envelopes"][-1]["constants"]["t_star"] = tstar
        table.update({"M": bf.M, "M_prime": bf.M_prime,
                      "M_second_proxy": bf.M_second_proxy, "diagnostic": bf.diagnostic})
    if hyp.r_plus_below_p_minus:
        w0 = l2sq[0] / B0.constant**2
        env = thm53_envelope(w0, p, r, B.constant, B0.constant)
        record["envelopes"].append({"kind": env.kind, "constants": env.constants})
        table.update({"w": l2sq / B0.constant**2, "w_bound": env.eval(t)})
    if hyp.thm54_regime and s0.J < 0.0 and p.p_plus > r.p_minus:
        lower, upper = thm54_bounds(l2sq[0], s0.J, p, r, B0.constant)
        record["envelopes"].append({"kind": "L2Sandwich", "constants": lower.constants})
        table.update({"G": l2sq, "G_lower": lower.eval(t), "G_upper": upper.eval(t)})

    return table if len(table) > 1 else {}


def _cmd_norm(args) -> int:
    cfg = _load_config(Path(args.config))
    gf = _load_csv(_get(cfg, "norm", "field_csv", required=True), "[norm] field_csv")
    spec = _get(cfg, "norm", "exponent", required=True)
    try:
        q = build_field(spec, gf.grid, label="q")
    except ValueError as exc:
        raise ConfigError(f"[norm] exponent: {exc}") from exc
    tol = _get(cfg, "norm", "tol", default="1e-12", cast=float)
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"[norm] tol must be positive and finite, got {tol!r}")
    out = _out_dir(args.out)
    try:
        result = luxemburg_norm(gf, q, tol=tol)
    except ValueError as exc:
        raise PipelineError(f"luxemburg norm: {exc}") from exc
    if not args.quiet:
        print(f"value={result.value!r} iterations={result.iterations} residual={result.residual!r}")
    _write_json(out / "norm.json", result)
    return 0


def _ode_grid() -> list[ode_bounds.OdeParams]:
    cells = []
    for C1 in (0.5, 1.0, 2.0):
        for C2 in (0.5, 1.0, 2.0):
            for alpha in (1.0, 2.0, 3.0):
                for beta in (0.5, 1.0, 2.0):
                    if beta > alpha:
                        continue
                    threshold = ode_bounds._threshold(C1, C2, alpha, beta)
                    for h0 in (0.1, threshold, 10.0 * threshold):
                        cells.append(ode_bounds.OdeParams(C1, C2, alpha, beta, h0))
    return cells


def _cmd_ode_verify(args) -> int:
    out = _out_dir(args.out)
    batch = _ode_grid()
    counts: dict[str, int] = {}
    try:
        violations = ode_bounds.verify_batch(batch, counts=counts)
    except ValueError as exc:
        raise PipelineError(f"ode falsifier: {exc}") from exc
    lines = ["C1,C2,alpha,beta,h0,branch,max_violation"]
    worst = -np.inf
    for q, v in zip(batch, violations):
        _, branch = ode_bounds.envelope(q)
        lines.append(
            ",".join(repr(float(x)) for x in (q.C1, q.C2, q.alpha, q.beta, q.h0))
            + f",{branch},{float(v)!r}"
        )
        worst = max(worst, float(v))
    (out / "ode_verify.csv").write_text("\n".join(lines) + "\n")
    scale = 1e-6
    if not args.quiet:
        print(f"{len(batch)} cells, {counts['panels']} panels, {counts['bisected']} bisected, "
              f"{counts['evaluations']} evaluations, "
              f"worst signed violation {worst!r} (tolerance {scale})")
    if not worst <= scale:
        raise AssertionError(f"worst signed violation {worst!r} exceeds the tolerance {scale}")
    return 0


def _cmd_poincare(args) -> int:
    out = _out_dir(args.out)
    try:
        rows = radial_gap.quotient_sweep()
        mean = None if args.quiet else radial_gap.profile_mean()
    except ValueError as exc:
        raise PipelineError(f"poincare sweep: {exc}") from exc
    (out / "poincare.csv").write_text(columns_csv(
        {f.name: [getattr(row, f.name) for row in rows]
         for f in dataclasses.fields(radial_gap.SweepRow)}))
    if not args.quiet:
        for row in rows:
            print(f"eps={row.epsilon:g} quotient={row.quotient!r} bound={row.bound!r}")
        print(f"profile mean over the big ball: {mean!r}")
    return 0


def _read_json(path: Path) -> dict:
    """A run's JSON object; a file that does not parse (say, left truncated
    by a run killed while writing it) or holds anything but an object is a
    pipeline error."""
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:
        raise PipelineError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise PipelineError(f"{path}: not a JSON object")
    return obj


def _block(obj: dict, key: str, path: Path) -> dict:
    """The object under `key` of a run's JSON object `obj`, read from `path`:
    absent or null reads as empty, anything else but an object is a
    pipeline error."""
    block = obj.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise PipelineError(f"{path}: {key} is not an object")
    return block


def _cmd_report(args) -> int:
    out = Path(args.out)
    records = sorted(out.glob("*/record.json"))
    if not records:
        print(f"no records under {out}", file=sys.stderr)
        return 3
    lines = ["id,prediction,rule,outcome,J0,I0,accepted,rejected,rk4_accepted,kernel_evals,"
             "audit_rate_err"]
    for rec_path in records:
        rec = _read_json(rec_path)
        if not isinstance(rec.get("id"), str):
            raise PipelineError(f"{rec_path}: no string id")
        verdict, init = _block(rec, "verdict", rec_path), _block(rec, "initial", rec_path)
        outcome = _block(rec, "outcome", rec_path).get("kind", "")
        meta_path = rec_path.with_name("meta.json")
        meta = _read_json(meta_path) if meta_path.exists() else {}
        steps = _block(meta, "steps", meta_path)  # absent for classify-only runs
        rows = steps.get("by_stepper") or []
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            raise PipelineError(f"{meta_path}: steps.by_stepper is not a list of objects")
        rk4 = next((row.get("accepted", "") for row in rows if row.get("stepper") == "rk4"), "")
        # absent for classify-only runs, null where the error is not finite
        rate_err = _block(rec, "audit", rec_path).get("l2_rate_max_rel_err")
        lines.append(
            f"{rec['id']},{verdict.get('prediction','')},{verdict.get('rule','')},"
            f"{outcome},{init.get('J','')},{init.get('I','')},"
            f"{steps.get('accepted','')},{steps.get('rejected','')},{rk4},"
            f"{steps.get('kernel_evals','')},{'' if rate_err is None else rate_err}"
        )
        if not args.quiet:
            print(lines[-1])
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return 0


def _seed(text: str) -> int:
    """A `--seed` value: an integer >= 0, as numpy's generators need."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pxwell",
        description="Variable-exponent diffusion laboratory: simulate, classify, verify.",
    )
    sub = parser.add_subparsers(dest="command")
    configured = ("simulate", "classify", "depth", "norm")
    for name in (*configured, "ode-verify", "poincare", "report"):
        sp = sub.add_parser(name)
        if name in configured:
            sp.add_argument("--config", required=True)
        sp.add_argument("--out", default="runs")
        sp.add_argument("--seed", type=_seed, default=0)
        sp.add_argument("--quiet", action="store_true")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            rec = run(args.config, args.out, seed=args.seed, do_simulate=True, quiet=args.quiet)
            contradiction = _contradiction(rec)
            if contradiction:
                print(f"acceptance failure: {contradiction}", file=sys.stderr)
            return 4 if contradiction else 0
        if args.command == "classify":
            run(args.config, args.out, seed=args.seed, do_simulate=False, quiet=args.quiet)
            return 0
        if args.command == "depth":
            rec = run(args.config, args.out, seed=args.seed, do_simulate=False, quiet=True)
            depth = rec["estimates"].get("depth")
            if depth is None:
                print("depth undefined in this regime (needs r_minus > p_plus)", file=sys.stderr)
                return 3
            if not args.quiet:
                print(f"depth upper={depth.upper!r} lower_formula={depth.lower_formula!r} "
                      f"witnesses={depth.witnesses} residual={depth.residual!r} "
                      f"iterations={depth.iterations} backtracks={depth.backtracks}")
            return 0
        if args.command == "norm":
            return _cmd_norm(args)
        if args.command == "ode-verify":
            return _cmd_ode_verify(args)
        if args.command == "poincare":
            return _cmd_poincare(args)
        if args.command == "report":
            return _cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
