"""Benchmark of pxwell, driven from outside the program.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload escape --seed 0 --seconds 8 --trace 0

`--workload` is one of escape, well, decay, verify (see workloads.py and
BENCHMARK.json), or `all` to run each in turn.  Each workload runs in fresh worker processes with
the BLAS/OpenMP thread counts set to 1: a few that only set up (to sample
`setup_s`), then one that measures.  Load model: closed loop, one client;
the worker calls the program on one input after another.

The lines printed before the last give every end-to-end metric by name and
unit (and, with `--trace 1`, the per-layer table); the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  `metrics` holds
the `end_to_end` metrics of BENCHMARK.json with `--trace 0` and its
`per_layer` metrics with `--trace 1`.  The full result, the machine it ran on
and, when traced, the spans and the per-layer table are written under
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import WAITING_NOTE, format_value  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6  # set-up-only processes per run, besides the measuring one
TIME_LIMIT_S = 170.0  # every run must end within 180 s
# Metrics that BENCHMARK.json does not gate.  The wall time of the same code
# spreads on a shared host past any bound it may set, so `ref_cpu_s` is gated
# in its place; `host.slowdown` says how slow the host ran; the last three are
# 0 on some workloads by design.  Every run prints them; the traced runs carry
# them as per-layer metrics.
UNGATED = ("wall_s", "host.slowdown", "failed_frac", "audit_fail", "depth_upper")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(args: list[str], result: Path, deadline: float) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", *args,
           "--result", str(result)]
    # the worker's stdout goes to stderr: stdout ends with the JSON result line
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Set-up probes, then the measuring worker; returns the merged result."""
    out_dir = ROOT / ".perfbench" / "runs" / f"{workload}-s{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=ROOT / ".perfbench"))
    try:
        common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        setups = []
        for i in range(SETUP_PROBES):
            probe = scratch / f"probe{i}"
            probe.mkdir()
            setups.append(_spawn(common + ["--scratch", str(probe), "--setup-only"],
                                 scratch / f"setup{i}.json", deadline)["setup_s"])
        result = _spawn(common + ["--trace", str(int(trace)), "--scratch", str(scratch / "main"),
                                  "--spans", str(out_dir / "spans.jsonl.gz")],
                        scratch / "result.json", deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(result["setup_s"])
    result.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  setup_samples=setups, setup_s=statistics.median(setups),
                  failed=len(result["failures"]))
    result["failed_frac"] = result["failed"] / result["attempted"]
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        (out_dir / "layers.txt").write_text("\n".join(layer_lines(result, spec)) + "\n")
    return result


def end_to_end_lines(res: dict, spec: dict) -> list[str]:
    m = res["machine"]
    notes = {
        "ref_cpu_s": f"{res['passes']} pass(es), {res['attempted']} calls",
        "wall_s": "the same calls by the wall clock",
        "host.slowdown": "probe time over its reference time",
        "setup_s": f"median of {len(res['setup_samples'])} set-ups",
        "failed_frac": f"{res['failed']} failed of {res['attempted']} attempted",
        "audit_fail": f"over {res['simulated_runs']} simulated runs",
        "depth_upper": f"over {res['depth_runs']} runs with a depth estimate",
    }
    lines = [
        f"workload {res['workload']}  seed {res['seed']}  seconds {res['seconds']}  trace {res['trace']}",
        f"machine  nproc {m['nproc']}  cpu {m['cpu']}  python {m['python']}  numpy {m['numpy']}",
        "end-to-end (untraced):",
    ]
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    for m in spec["end_to_end"] + [per_layer[name] for name in UNGATED]:
        name = m["name"]
        lines.append(f"  {name:<14} {format_value(res[name]):>12} {m['unit']:<7} {m['better']:<6} "
                     f"{notes.get(name, '')}")
    lines += [f"  failure: {reason}" for reason in res["failures"]]
    return lines


def layer_lines(res: dict, spec: dict) -> list[str]:
    lines = [f"per-layer (traced pass, {res['wall_traced_s']:.4f} s; microbenchmarks untraced):"]
    for m in spec["per_layer"]:
        value = res["per_layer"][m["name"]]
        lines.append(f"  {m['name']:<40} {format_value(value):>12} {m['unit']:<10} {m['better']}")
    lines.append("  " + WAITING_NOTE)
    return lines


def metric_entries(listed: list[dict], source: dict) -> dict:
    out = {}
    for m in listed:
        value = source[m["name"]]
        entry = {"value": value, "unit": m["unit"]}
        if value is None:
            entry["absent"] = True
        out[m["name"]] = entry
    return out


def summary(res: dict, spec: dict) -> dict:
    if res["trace"]:
        metrics = metric_entries(spec["per_layer"], res["per_layer"])
    else:
        metrics = metric_entries(spec["end_to_end"], res)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if Path.cwd().resolve() != ROOT or not (ROOT / "src" / "pxwell" / "cli.py").is_file():
        print("perfbench: run from the root of a pxwell checkout (src/pxwell not found)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = [run_workload(spec, w, args.seed, args.seconds, bool(args.trace), deadline)
                   for w in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for res in results:
        print("\n".join(end_to_end_lines(res, spec)))
        if res["trace"]:
            print("\n".join(layer_lines(res, spec)))
    if len(results) == 1:
        print(json.dumps(summary(results[0], spec)))
    else:
        parts = [summary(res, spec) for res in results]
        print(json.dumps({
            "correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": {f"{res['workload']}.{k}": v
                        for res, p in zip(results, parts) for k, v in p["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
