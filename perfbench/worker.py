"""One workload in one fresh process: set up, time, check, optionally trace.

Started by `perfbench/run.py`, never by hand.  It writes one JSON result to
`--result`.  With `--setup-only` it stops after set-up, so the parent can
sample set-up time several times.

The untraced passes repeat the workload's inputs until `--seconds` have
passed.  Each call is timed by the wall clock and by the process's CPU clock;
its CPU time is rescaled to the reference speed of the CPU (speed.py), which
the probe measures during the call.  Set-up time is the process's CPU time up
to the first call, rescaled the same way.  Every call of an input must write
the same bytes as its first call.  With `--trace 1` one traced pass follows:
it repeats every input under the span wrappers, which checks that tracing
leaves the record unchanged and, where the untraced passes took one pass, that
a repeat writes the same bytes; the microbenchmarks run after it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from .checks import audit_failures, check_output, depth_upper
from .speed import SpeedProbe, cpu_clock
from .workloads import WORKLOADS, Input, materialize


class Runner:
    """Calls the program on inputs, times each call and checks its output."""

    def __init__(self, cli, seed: int, out_root: Path):
        self.cli = cli
        self.seed = seed
        self.out_root = out_root
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ref_cpu_samples: dict[str, list[float]] = defaultdict(list)
        self.speed = SpeedProbe()
        self.first_bytes: dict[str, bytes] = {}
        self.audit: dict[str, int] = {}
        self.depth: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, inp: Input, timed: bool = True) -> float:
        """Run one input; return its wall time.  Failures are counted, not raised."""
        self.attempted += 1
        out = self.out_root / inp.label
        since = len(self.speed.samples)
        cpu_start = cpu_clock()
        start = time.perf_counter()
        try:
            code = self.cli.main(inp.argv(out, self.seed))
            elapsed = time.perf_counter() - start
            cpu = cpu_clock() - cpu_start
            if code != 0:
                raise RuntimeError(f"main returned {code}")
            data = inp.output(out, self.seed).read_bytes()
            reasons = check_output(inp, data)
            if inp.writes_record:
                self.observe(inp, json.loads(data))
        except Exception as exc:  # a failed run is a measured outcome
            self.failures.append(f"{inp.label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        if timed:
            self.samples[inp.label].append(elapsed)
            self.ref_cpu_samples[inp.label].append(self.speed.rescale(cpu, since))
        if data != self.first_bytes.setdefault(inp.label, data):
            reasons.append(f"{inp.output(out, self.seed).name} differs from the first run's bytes")
        if reasons:
            self.failures.append(f"{inp.label}: " + "; ".join(reasons))
        return elapsed

    def observe(self, inp: Input, record: dict) -> None:
        if inp.simulate:
            self.audit.setdefault(inp.label, audit_failures(record))
        upper = depth_upper(record)
        if upper is not None:
            self.depth.setdefault(inp.label, upper)

    def wall_s(self) -> float:
        return sum(statistics.median(s) for s in self.samples.values())

    def ref_cpu_s(self) -> float:
        return sum(statistics.median(s) for s in self.ref_cpu_samples.values())


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def measure(inputs, runner: Runner, seconds: float, seed: int, trace: bool, spans_path: Path):
    """The timed passes, then (with `trace`) the traced pass and microbenchmarks."""
    start = time.perf_counter()
    passes = 0
    with runner.speed:
        while True:
            for inp in inputs:
                runner.call(inp)
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
    result = {
        "passes": passes,
        "ref_cpu_s": runner.ref_cpu_s(),
        "host.slowdown": runner.speed.slowdown(),
        "wall_s": runner.wall_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not trace:
        return result

    from . import micro
    from .metrics import layer_table
    from .tracing import Tracer

    tracer = Tracer()
    wall_traced = 0.0
    with tracer:
        traced = set(tracer.public_functions())
        for inp in inputs:
            tracer.request = inp.label
            wall_traced += runner.call(inp, timed=False)
    tracer.write(spans_path)
    table = layer_table(
        tracer.aggregate(), tracer.counters, traced, micro.run_microbenchmarks(seed),
        wall_traced, result["wall_s"], result["host.slowdown"],
        len(runner.failures) / runner.attempted,
        sum(runner.audit.values()), _mean(runner.depth.values()),
    )
    result["wall_traced_s"] = wall_traced
    result["per_layer"] = table
    return result


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from pxwell import cli

    inputs = [materialize(inp, args.scratch) for inp in WORKLOADS[args.workload]]
    # CPU time from process start: interpreter start-up, imports, config generation
    setup_cpu = time.process_time()
    result = {"setup_s": SpeedProbe().rescale(setup_cpu)}
    if not args.setup_only:
        runner = Runner(cli, args.seed, args.scratch / "out")
        result.update(measure(inputs, runner, args.seconds, args.seed, bool(args.trace), args.spans))
        result.update({
            "attempted": runner.attempted,
            "failures": runner.failures,
            "audit_fail": sum(runner.audit.values()),
            "simulated_runs": len(runner.audit),
            "depth_upper": _mean(runner.depth.values()),
            "depth_runs": len(runner.depth),
            "samples": dict(runner.samples),
            "ref_cpu_samples": dict(runner.ref_cpu_samples),
            "machine": machine_info(),
        })
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
