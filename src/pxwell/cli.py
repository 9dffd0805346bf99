"""Batch experiment runner: config parsing, pipeline, persistence.

Configs are flat INI files with a fixed key vocabulary; unknown sections or
keys are hard errors so that a stored config echo pins a run completely.
Given the same config and seed, every artifact is reproduced byte for byte.
The JSON files are strict JSON: a non-finite number is written as null.
Wall times and counters go to the sidecar `meta.json`, never into the
record: the total and per-stage wall times and, for a simulated run, the
stepper's kernel evaluations and its accepted and rejected steps, in total,
binned by the decade floor(log10 ||u||_inf) of the state each trial step
starts from (decade null for the zero state), binned by the stepper (RKL2 or
RK4) and, for RKL2 trials, binned by their stage count.  `report` collects
each run's verdict, outcome, step counts, accepted RK4 steps and kernel
evaluations into `summary.csv`; a `meta.json` written before RK4 steps were
counted leaves that column empty.
The `[solver]` section of a `simulate` config and the `[estimates]` counts
are parsed with the domain and exponents, so a bad value is a config error
before any estimate runs; a negative count is a bad value, zero is not.

The numeric tables of a run (`trajectory.csv`, `envelopes.csv`) and of
`poincare` (`poincare.csv`) are column tables written by one writer,
`solver.columns_csv`; `ode_verify.csv`, with its string `branch` column,
is written in place.

Exit codes: 0 success, 2 config error, 3 pipeline error, 4 assertion or
acceptance failure.
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
from .norms import estimate_embedding, estimate_gn_constant, luxemburg_norm
from .solver import (
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


# the [estimates] counts and their defaults
_ESTIMATE_COUNTS = {"trials": 24, "descent_steps": 50, "ascent_steps": 12, "radii_samples": 48}

_SCHEMA: dict[str, set[str]] = {
    "domain": {"dimension", "cells", "lengths"},
    "exponents": {"p", "r"},
    "initial": {"kind", "amplitude", "modes", "csv", "mtarget_factor"},
    "estimates": set(_ESTIMATE_COUNTS),
    "solver": {f.name for f in dataclasses.fields(SolverConfig)},
    "norm": {"field_csv", "exponent", "tol"},
    "ode": {"t_end"},
    "poincare": {"epsilons", "n_quad"},
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
    """A grid function from a file that the config names."""
    try:
        return load_gridfunction_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


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
    if not terms:
        raise ConfigError("no mode terms given")
    return terms


def _build_initial(cfg, grid: Grid, p: ExponentField, r: ExponentField,
                   depth: Optional[DepthEstimate]) -> GridFunction:
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
        terms = _parse_mode_terms(_get(cfg, "initial", "modes", required=True), grid.dimension)
        vals = np.zeros(grid.shape)
        for ks, coef in terms:
            vals += coef * mode_field(grid, ks).values
        peak = np.max(np.abs(vals))
        if peak == 0.0:
            raise ConfigError("mode combination is identically zero")
        return project_mean_zero(GridFunction(grid, amplitude * vals / peak))
    if kind == "highenergy":
        if depth is None:
            raise PipelineError("highenergy initial data needs a depth estimate (source-dominant regime)")
        factor = _get(cfg, "initial", "mtarget_factor", default="10.0", cast=float)
        if r.p_minus != r.p_plus:
            raise PipelineError("highenergy construction needs a constant source exponent")
        return construct_high_energy_datum(
            factor * depth.upper, grid, p, r.p_minus, depth.upper
        )
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


def _estimate_counts(cfg) -> dict[str, int]:
    """The [estimates] counts, each an integer >= 0; an absent key keeps its
    default."""
    counts = {}
    for key, default in _ESTIMATE_COUNTS.items():
        value = _get(cfg, "estimates", key, default=default, cast=int)
        if value < 0:
            raise ConfigError(f"[estimates] {key} must be >= 0, got {value}")
        counts[key] = value
    return counts


def _to_jsonable(obj):
    """Plain JSON values of `obj`; a non-finite float becomes None (null),
    since strict JSON has no NaN or Infinity."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(x) for x in obj]
    return obj


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
    run_dir = Path(out_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    record: dict = {
        "id": run_id,
        "seed": seed,
        "config_echo": cfg,
        "estimates": {},
        "envelopes": [],
        "events": [],
    }

    stage_s: dict[str, float] = {}
    stage, t_stage = "fields", time.monotonic()

    def enter(name: str) -> None:
        nonlocal stage, t_stage
        now = time.monotonic()
        stage_s[stage] = now - t_stage
        stage, t_stage = name, now

    meta: dict = {"stage_s": stage_s}
    try:
        grid = _build_grid(cfg)
        p = _build_exponent(cfg, grid, "p")
        r = _build_exponent(cfg, grid, "r")
        # a bad [solver] or [estimates] value fails here, before the
        # estimates run
        scfg = _solver_config(cfg) if do_simulate else None
        counts = _estimate_counts(cfg)

        enter("hypotheses")
        hyp = check_hypotheses(p, r)
        record["hypotheses"] = hyp
        reg_p, reg_r = check_log_holder(p, r, seed=seed)
        record["regularity"] = {"p": reg_p, "r": reg_r}

        enter("estimates")
        trials, descent, ascent = counts["trials"], counts["descent_steps"], counts["ascent_steps"]
        B0 = estimate_embedding(grid, p, "L2", trials=trials, seed=seed, ascent_steps=ascent)
        record["estimates"]["B0"] = B0
        B = estimate_embedding(grid, p, r, trials=trials, seed=seed + 1, ascent_steps=ascent)
        record["estimates"]["B"] = B
        depth: Optional[DepthEstimate] = None
        ctilde = None
        if r.p_minus > p.p_plus:
            depth = estimate_depth(grid, p, r, trials=trials, seed=seed,
                                   B_est=B, descent_steps=descent)
            record["estimates"]["depth"] = depth
            if depth.skipped:
                record["events"].append(
                    f"depth estimate skipped {depth.skipped} witnesses or proposals "
                    "on which lambda* failed")
            try:
                ctilde = estimate_gn_constant(grid, p, r, trials=trials, seed=seed + 2)
                record["estimates"]["Ctilde"] = ctilde
            except ValueError as exc:
                record["events"].append(f"interpolation constant unavailable: {exc}")

        enter("initial")
        u0 = _build_initial(cfg, grid, p, r, depth)
        s0 = snapshot(u0, p, r)
        record["initial"] = s0

        enter("classify")
        radii = None
        if depth is not None and s0.J > depth.upper:
            try:
                radii = estimate_level_radii(
                    grid, s0.J, p, r, samples=counts["radii_samples"], seed=seed,
                    depth_upper=depth.upper, ctilde=ctilde,
                )
                record["estimates"]["radii"] = radii
                if radii.skipped:
                    record["events"].append(
                        f"level radii skipped {radii.skipped} samples on which lambda* failed")
            except ValueError as exc:
                record["events"].append(f"level radii unavailable: {exc}")
        record["verdict"] = classify(u0, p, r, depth, level_radii=radii, B_est=B)

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
            meta["steps"] = {
                "accepted": traj.step_count, "rejected": traj.rejected_steps,
                "kernel_evals": traj.kernel_evals,
                "by_decade": [
                    {"decade": k, "accepted": acc, "rejected": rej}
                    for k, (acc, rej) in sorted(
                        traj.steps_by_decade.items(),
                        key=lambda kv: -float("inf") if kv[0] is None else kv[0])
                ],
                "by_stages": [
                    {"stages": s, "accepted": acc, "rejected": rej}
                    for s, (acc, rej) in sorted(traj.steps_by_stages.items())
                ],
                "by_stepper": [
                    {"stepper": name, "accepted": acc, "rejected": rej}
                    for name, (acc, rej) in traj.steps_by_stepper.items()
                ],
            }

            enter("audit")
            d_for_audit = depth.upper if depth is not None else None
            record["audit"] = audit_trajectory(traj, d_hat=d_for_audit)
            record["delta0_hat"] = delta0_hat(traj)

            enter("envelopes")
            env_table = _envelope_table(record, traj, p, r, depth, B0, B)
            (run_dir / "trajectory.csv").write_text(trajectory_csv(traj))
            record["trajectory_ref"] = "trajectory.csv"
            (run_dir / "envelopes.csv").write_text(columns_csv(env_table))
    except (ConfigError,):
        raise
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
            and p.p_plus >= 2.0 and np.isfinite(d0) and 0.0 < d0 < 1.0 and s0.J > 0.0):
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
                                 r.p_minus, np.sqrt(max(s0.l2sq, 0.0)), B0.constant)
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
    try:
        result = luxemburg_norm(gf, q, tol=tol)
    except ValueError as exc:
        raise PipelineError(f"luxemburg norm: {exc}") from exc
    if not args.quiet:
        print(f"value={result.value!r} iterations={result.iterations} residual={result.residual!r}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
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
    cfg = _load_config(Path(args.config)) if args.config else {}
    t_end = _get(cfg, "ode", "t_end", default="12.0", cast=float)
    if not 0.0 < t_end < np.inf:
        raise ConfigError(f"[ode] t_end must be positive and finite, got {t_end!r}")
    batch = _ode_grid()
    violations = ode_bounds.verify_batch(batch, T=t_end)
    out = Path(args.out) if args.out else None
    lines = ["C1,C2,alpha,beta,h0,branch,max_violation"]
    worst = -np.inf
    for q, v in zip(batch, violations):
        _, branch = ode_bounds.envelope(q)
        lines.append(
            ",".join(repr(float(x)) for x in (q.C1, q.C2, q.alpha, q.beta, q.h0))
            + f",{branch},{float(v)!r}"
        )
        worst = max(worst, float(v))
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / "ode_verify.csv").write_text("\n".join(lines) + "\n")
    scale = 1e-6
    if not args.quiet:
        print(f"{len(batch)} cells, worst signed violation {worst!r} (tolerance {scale})")
    return 0 if worst <= scale else 4


def _cmd_poincare(args) -> int:
    cfg = _load_config(Path(args.config)) if args.config else {}
    epsilons = list(_get(cfg, "poincare", "epsilons", default="1e2 1e3 1e4 1e6", cast=_floats))
    n_quad = _get(cfg, "poincare", "n_quad", default="64", cast=int)
    try:
        radial_gap.check_sweep(epsilons, n_quad)
    except ValueError as exc:
        raise ConfigError(f"[poincare] {exc}") from exc
    try:
        rows = radial_gap.quotient_sweep(epsilons, n_quad=n_quad)
    except AssertionError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 4
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "poincare.csv").write_text(columns_csv(
            {f.name: [getattr(row, f.name) for row in rows]
             for f in dataclasses.fields(radial_gap.SweepRow)}))
    if not args.quiet:
        for row in rows:
            print(f"eps={row.epsilon:g} quotient={row.quotient!r} bound={row.bound!r}")
        print(f"profile mean over the big ball: {radial_gap.profile_mean(n_quad)!r}")
    return 0


def _cmd_report(args) -> int:
    out = Path(args.out)
    records = sorted(out.glob("*/record.json"))
    if not records:
        print(f"no records under {out}", file=sys.stderr)
        return 3
    lines = ["id,prediction,rule,outcome,J0,I0,accepted,rejected,rk4_accepted,kernel_evals"]
    for rec_path in records:
        rec = json.loads(rec_path.read_text())
        verdict = rec.get("verdict", {})
        outcome = (rec.get("outcome") or {}).get("kind", "")
        init = rec.get("initial", {})
        meta_path = rec_path.with_name("meta.json")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        steps = meta.get("steps", {})  # absent for classify-only runs
        rk4 = next((row["accepted"] for row in steps.get("by_stepper", ())
                    if row["stepper"] == "rk4"), "")
        lines.append(
            f"{rec['id']},{verdict.get('prediction','')},{verdict.get('rule','')},"
            f"{outcome},{init.get('J','')},{init.get('I','')},"
            f"{steps.get('accepted','')},{steps.get('rejected','')},{rk4},"
            f"{steps.get('kernel_evals','')}"
        )
        if not args.quiet:
            print(lines[-1])
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pxwell",
        description="Variable-exponent diffusion laboratory: simulate, classify, verify.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, needs_config in (
        ("simulate", True), ("classify", True), ("depth", True), ("norm", True),
        ("ode-verify", False), ("poincare", False), ("report", False),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config)
        sp.add_argument("--out", default="runs")
        sp.add_argument("--seed", type=int, default=0)
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
            run(args.config, args.out, seed=args.seed, do_simulate=True, quiet=args.quiet)
            return 0
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
                      f"witnesses={depth.witnesses}")
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
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
