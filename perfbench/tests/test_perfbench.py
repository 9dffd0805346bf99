"""Tests of the benchmark harness itself.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import configparser
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.checks import check_output
from perfbench.speed import MIN_PROBES, REF_PROBE_S, SENSITIVITY, SpeedProbe
from perfbench.tracing import Tracer
from perfbench.worker import Runner
from perfbench.workloads import WORKLOADS, Input, materialize

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    result = _bench("--workload", "decay", "--seed", "1", "--seconds", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


class _FakeCli:
    """A `main` that writes a record.json with the given verdict and outcome."""

    def __init__(self, prediction, outcome=None):
        self.prediction = prediction
        self.outcome = outcome
        self.extra = {}
        self.code = 0

    def main(self, argv):
        opts = dict(zip(argv[1::2], argv[2::2]))
        record = {"verdict": {"prediction": self.prediction},
                  "estimates": {"depth": {"upper": 1.0}}, **self.extra}
        if self.outcome:
            record["outcome"] = {"kind": self.outcome}
        run_dir = Path(opts["--out"]) / f"{Path(opts['--config']).stem}-s{opts['--seed']}"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "record.json").write_text(json.dumps(record))
        return self.code


def test_faked_wrong_verdict_counts_as_failure(tmp_path):
    global_2d = WORKLOADS["well"][0]
    right = Runner(_FakeCli("Global"), seed=0, out_root=tmp_path / "right")
    right.call(global_2d)
    assert right.failures == [] and right.attempted == 1

    wrong = Runner(_FakeCli("Blowup"), seed=0, out_root=tmp_path / "wrong")
    wrong.call(global_2d)
    assert wrong.attempted == 1 and len(wrong.failures) == 1
    assert "pinned 'Global'" in wrong.failures[0]


def test_nonzero_exit_code_counts_as_failure(tmp_path):
    runner = Runner(_FakeCli("Global"), seed=0, out_root=tmp_path)
    runner.cli.code = 3
    runner.call(WORKLOADS["well"][0])
    assert len(runner.failures) == 1 and "main returned 3" in runner.failures[0]
    assert not runner.samples


def test_outcome_contradicting_verdict_and_changed_bytes_are_failures(tmp_path):
    blowup = WORKLOADS["escape"][0]
    runner = Runner(_FakeCli("Blowup", "GlobalUntilTend"), seed=0, out_root=tmp_path)
    runner.call(blowup)
    assert len(runner.failures) == 1 and "contradicts" in runner.failures[0]

    runner = Runner(_FakeCli("Blowup", "BlowupDetected"), seed=0, out_root=tmp_path / "b")
    runner.call(blowup)
    runner.cli.extra = {"events": ["changed"]}  # same verdict and outcome, other bytes
    runner.call(blowup)
    assert runner.attempted == 2 and len(runner.failures) == 1
    assert "differs from the first run" in runner.failures[0]


def test_lost_depth_estimate_counts_as_failure(tmp_path):
    runner = Runner(_FakeCli("Global"), seed=0, out_root=tmp_path)
    runner.cli.extra = {"estimates": {}}
    runner.call(WORKLOADS["well"][0])
    assert len(runner.failures) == 1 and "depth estimate missing" in runner.failures[0]


@pytest.mark.parametrize("command,text,reason", [
    ("ode-verify", "C1,max_violation\n1.0,np.float64(0.0)\n2.0,np.float64(2e-06)\n",
     "envelope violated"),
    ("poincare", "epsilon,quotient,bound\n100.0,5.0,4.0\n1000.0,3.0,9.0\n"
     "10000.0,2.0,9.0\n1000000.0,1.0,9.0\n", "outside"),
    ("norm", '{"value": 0.6, "iterations": 3, "residual": 0.001}', "residual"),
])
def test_verify_checks_reject_wrong_output(command, text, reason):
    reasons = check_output(Input(command), text.encode())
    assert len(reasons) == 1 and reason in reasons[0]


def test_traced_and_untraced_runs_write_identical_records(tmp_path):
    from pxwell import cli, energy

    original_snapshot = energy.snapshot
    argv = ["simulate", "--config", str(ROOT / "configs/zero.ini"), "--seed", "3", "--quiet"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    with Tracer() as tracer:
        assert cli.snapshot is not original_snapshot
        assert cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
    assert cli.snapshot is original_snapshot

    plain = (tmp_path / "plain" / "zero-s3" / "record.json").read_bytes()
    traced = (tmp_path / "traced" / "zero-s3" / "record.json").read_bytes()
    assert plain == traced

    agg = tracer.aggregate()
    for name in ("cli.main", "cli.run", "solver.simulate", "energy.snapshot", "energy.estimate_depth",
                 "norms.luxemburg_norm", "witnesses.random_field"):
        assert agg[name]["calls"] >= 1, name
    assert tracer.counters["solver.steps_accepted"] > 0
    # self times partition the one top-level span
    top = [end - start for _, start, end, parent, _, _ in tracer.spans if parent < 0]
    assert len(top) == 1
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(top[0], rel=1e-9)


def test_generated_configs_change_only_the_cell_count(tmp_path):
    inp = materialize(WORKLOADS["decay"][0], tmp_path)
    assert Path(inp.config).parent.parent == tmp_path

    def sections(path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(path)
        return {s: dict(parser[s]) for s in parser.sections()}

    shipped = sections(ROOT / "configs/diffusion_dominant.ini")
    generated = sections(inp.config)
    assert generated["domain"].pop("cells") == "64 64"
    shipped["domain"].pop("cells")
    assert generated == shipped


def test_cpu_time_is_rescaled_by_the_probe_times_of_its_stretch():
    speed = SpeedProbe()
    speed.samples = [REF_PROBE_S] * MIN_PROBES
    assert speed.rescale(1.0) == pytest.approx(1.0)
    since = len(speed.samples)
    # a stretch that ran at half speed: 1 s of CPU time besides its probes
    speed.samples += [2 * REF_PROBE_S] * MIN_PROBES
    during = sum(speed.samples[since:])
    half = 0.5 ** SENSITIVITY
    assert speed.rescale(1.0 + during, since) == pytest.approx(half)
    # a stretch with too few probes of its own takes the speed of the latest ones
    assert speed.rescale(1.0, len(speed.samples) - 1) == pytest.approx((1.0 - 2 * REF_PROBE_S) * half)
    with speed:
        sum(i * i for i in range(3_000_000))
    assert len(speed.samples) > 2 * MIN_PROBES
