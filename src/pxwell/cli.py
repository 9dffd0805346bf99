"""Batch experiment runner: config parsing, pipeline, persistence.

Configs are flat INI files with a fixed key vocabulary; unknown sections or
keys are hard errors so that a stored config echo pins a run completely.
Given the same config and seed, every artifact is reproduced byte for byte
(wall time goes to a sidecar meta file, never into the record).

Exit codes: 0 success, 2 config error, 3 pipeline error, 4 assertion or
acceptance failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
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
    BLOWUP_DETECTED,
    SolverConfig,
    audit_trajectory,
    blowup_functional,
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
    "estimates": {"trials", "descent_steps", "radii_samples", "ascent_steps"},
    "solver": {
        "dt_init", "dt_min", "dt_max", "t_end", "energy_tol",
        "blowup_threshold", "delta", "record_every",
    },
    "norm": {"field_csv", "exponent", "tol"},
    "ode": {"t_end", "dt"},
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


def _get(cfg, section, key, default=None, required=False):
    try:
        return cfg[section][key]
    except KeyError:
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default


def _build_grid(cfg) -> Grid:
    dim = int(_get(cfg, "domain", "dimension", required=True))
    cells = tuple(int(tok) for tok in _get(cfg, "domain", "cells", required=True).split())
    lengths = tuple(float(tok) for tok in _get(cfg, "domain", "lengths", required=True).split())
    if len(cells) != dim or len(lengths) != dim:
        raise ConfigError("cells/lengths do not match the declared dimension")
    try:
        return Grid(cells, lengths)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_exponent(cfg, grid: Grid, key: str) -> ExponentField:
    spec = _get(cfg, "exponents", key, required=True)
    if spec.endswith(".csv"):
        gf = load_gridfunction_csv(spec)
        if gf.grid != grid:
            raise ConfigError(f"tabulated exponent {spec} does not match the domain grid")
        return build_field(gf.values, grid, label=key)
    try:
        return build_field(spec, grid, label=key)
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
        ks = tuple(int(t) for t in toks[:dim])
        terms.append((ks, float(toks[dim])))
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
        gf = load_gridfunction_csv(path)
        if gf.grid != grid:
            raise ConfigError(f"initial datum {path} does not match the domain grid")
        return project_mean_zero(gf)
    if kind == "modes":
        amplitude = float(_get(cfg, "initial", "amplitude", default="1.0"))
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
        factor = float(_get(cfg, "initial", "mtarget_factor", default="10.0"))
        if r.p_minus != r.p_plus:
            raise PipelineError("highenergy construction needs a constant source exponent")
        return construct_high_energy_datum(
            factor * depth.upper, grid, p, r.p_minus, depth.upper
        )
    raise ConfigError(f"unknown initial kind {kind!r}")


def _solver_config(cfg) -> SolverConfig:
    kw = {}
    for key, cast in (
        ("dt_init", float), ("dt_min", float), ("dt_max", float), ("t_end", float),
        ("energy_tol", float), ("blowup_threshold", float), ("delta", float),
        ("record_every", int),
    ):
        raw = _get(cfg, "solver", key)
        if raw is not None:
            kw[key] = cast(raw)
    try:
        return SolverConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"[solver]: {exc}") from exc


def _to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(x) for x in obj]
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_to_jsonable(payload), sort_keys=True, indent=2) + "\n")


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

    stage = "fields"
    try:
        grid = _build_grid(cfg)
        p = _build_exponent(cfg, grid, "p")
        r = _build_exponent(cfg, grid, "r")

        stage = "hypotheses"
        hyp = check_hypotheses(p, r)
        record["hypotheses"] = hyp
        record["regularity"] = {
            "p": check_log_holder(p, seed=seed),
            "r": check_log_holder(r, seed=seed),
        }

        stage = "estimates"
        trials = int(_get(cfg, "estimates", "trials", default="24"))
        descent = int(_get(cfg, "estimates", "descent_steps", default="50"))
        ascent = int(_get(cfg, "estimates", "ascent_steps", default="12"))
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
            try:
                ctilde = estimate_gn_constant(grid, p, r, trials=trials, seed=seed + 2)
                record["estimates"]["Ctilde"] = ctilde
            except ValueError as exc:
                record["events"].append(f"interpolation constant unavailable: {exc}")

        stage = "initial"
        u0 = _build_initial(cfg, grid, p, r, depth)
        s0 = snapshot(u0, p, r)
        record["initial"] = s0

        stage = "classify"
        radii = None
        if depth is not None:
            band = 1e-3 * (1.0 + depth.upper)
            if s0.J > depth.upper + band:
                samples = int(_get(cfg, "estimates", "radii_samples", default="48"))
                try:
                    radii = estimate_level_radii(
                        grid, s0.J, p, r, samples=samples, seed=seed,
                        depth_upper=depth.upper, ctilde=ctilde,
                    )
                    record["estimates"]["radii"] = radii
                except ValueError as exc:
                    record["events"].append(f"level radii unavailable: {exc}")
            verdict = classify(u0, p, r, depth, level_radii=radii, B_est=B)
        else:
            verdict = classify(u0, p, r,
                               DepthEstimate(float("inf"), float("nan"), 0, "none", seed))
        record["verdict"] = verdict

        if do_simulate:
            stage = "simulate"
            scfg = _solver_config(cfg)
            traj = simulate(u0, p, r, scfg)
            record["outcome"] = traj.outcome
            record["residuals"] = {
                "max_rel_residual": traj.max_rel_residual,
                "residual_sum": traj.residual_sum,
                "step_count": traj.step_count,
                "rejected_steps": traj.rejected_steps,
                "energy_budget_used": traj.energy_budget_used,
            }

            stage = "audit"
            d_for_audit = depth.upper if depth is not None else None
            record["audit"] = audit_trajectory(traj, d_hat=d_for_audit)
            record["delta0_hat"] = delta0_hat(traj)

            stage = "envelopes"
            env_rows = _envelope_rows(record, traj, p, r, depth, B0, B, grid)
            (run_dir / "trajectory.csv").write_text(trajectory_csv(traj))
            record["trajectory_ref"] = "trajectory.csv"
            _write_envelopes_csv(run_dir / "envelopes.csv", env_rows)
    except (ConfigError,):
        raise
    except Exception as exc:
        record["events"].append(f"pipeline failure at stage {stage}: {exc}")
        _write_json(run_dir / "record.json", record)
        raise PipelineError(f"stage {stage}: {exc}") from exc

    _write_json(run_dir / "record.json", record)
    _write_json(run_dir / "meta.json", {"wall_time_s": time.monotonic() - t_wall})
    if not quiet:
        pred = record["verdict"].prediction
        out = record.get("outcome")
        kindtxt = f", outcome {out.kind}" if out is not None else ""
        print(f"[{run_id}] verdict {pred} ({record['verdict'].rule}){kindtxt}")
    return record


def _envelope_rows(record, traj, p, r, depth, B0, B, grid):
    """Evaluate every closed-form bound applicable to this run.

    Column families share the snapshot time grid, so multiple applicable
    bounds merge into one wide table.
    """
    t = traj.times
    J = np.array([s.J for s in traj.snapshots])
    gmod = np.array([s.grad_modular for s in traj.snapshots])
    l2sq = np.array([s.l2sq for s in traj.snapshots])
    verdict = record["verdict"]
    hyp = record["hypotheses"]
    d0 = record["delta0_hat"]
    s0 = record["initial"]
    table: dict[str, np.ndarray] = {"t": t}

    if (hyp.condition_H and depth is not None and verdict.prediction == GLOBAL
            and p.p_plus >= 2.0 and np.isfinite(d0) and 0.0 < d0 < 1.0 and s0.J > 0.0):
        env = decay_envelope(s0.J, p, r, B0.constant, d0, depth.upper)
        record["envelopes"].append({"kind": env.kind, "constants": env.constants})
        bound = env.eval(t)
        table.update({"J": J, "J_bound": bound, "grad_modular": gmod,
                      "grad_bound": env.constants["grad_multiplier"] * bound})
    if hyp.condition_H and depth is not None and verdict.prediction == BLOWUP:
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
        lower, upper = thm54_bounds(l2sq[0], s0.J, p, r, B0.constant, grid.volume)
        record["envelopes"].append({"kind": "L2Sandwich", "constants": lower.constants})
        table.update({"G": l2sq, "G_lower": lower.eval(t), "G_upper": upper.eval(t)})

    if len(table) == 1:
        return []
    cols = list(table.keys())
    return [{c: table[c][k] for c in cols} for k in range(len(t))]


def _write_envelopes_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(float(row[c])) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def _cmd_norm(args) -> int:
    cfg = _load_config(Path(args.config))
    path = _get(cfg, "norm", "field_csv", required=True)
    gf = load_gridfunction_csv(path)
    q = build_field(_get(cfg, "norm", "exponent", required=True), gf.grid, label="q")
    tol = float(_get(cfg, "norm", "tol", default="1e-12"))
    result = luxemburg_norm(gf, q, tol=tol)
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
                    ratio = C2 / C1
                    threshold = ratio ** (1.0 / beta) if C2 >= C1 else ratio ** (1.0 / alpha)
                    for h0 in (0.1, threshold, 10.0 * threshold):
                        cells.append(ode_bounds.OdeParams(C1, C2, alpha, beta, h0))
    return cells


def _cmd_ode_verify(args) -> int:
    cfg = _load_config(Path(args.config)) if args.config else {}
    t_end = float(_get(cfg, "ode", "t_end", default="12.0"))
    dt = float(_get(cfg, "ode", "dt", default="1e-3"))
    batch = _ode_grid()
    violations = ode_bounds.verify_batch(batch, T=t_end, dt=dt)
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
    eps_raw = _get(cfg, "poincare", "epsilons", default="1e2 1e3 1e4 1e6")
    n_quad = int(_get(cfg, "poincare", "n_quad", default="64"))
    epsilons = [float(tok) for tok in eps_raw.split()]
    try:
        rows = radial_gap.quotient_sweep(epsilons, n_quad=n_quad)
    except AssertionError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 4
    lines = ["epsilon,numerator,denominator,quotient,bound"]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in
                              (row.epsilon, row.numerator, row.denominator, row.quotient, row.bound)))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "poincare.csv").write_text("\n".join(lines) + "\n")
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
    lines = ["id,prediction,rule,outcome,J0,I0"]
    for rec_path in records:
        rec = json.loads(rec_path.read_text())
        verdict = rec.get("verdict", {})
        outcome = (rec.get("outcome") or {}).get("kind", "")
        init = rec.get("initial", {})
        lines.append(
            f"{rec['id']},{verdict.get('prediction','')},{verdict.get('rule','')},"
            f"{outcome},{init.get('J','')},{init.get('I','')}"
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
