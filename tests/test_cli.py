from __future__ import annotations

import json
from pathlib import Path

import pytest

from pxwell.cli import ConfigError, _load_config, main, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "[domain]\ndimension = 1\ncells = 8\nlengths = 1.0\nbogus = 3\n")
    with pytest.raises(ConfigError, match="bogus"):
        _load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        _load_config(path)


def test_missing_required_key(tmp_path):
    path = _write(tmp_path, "[domain]\ndimension = 2\ncells = 8 8\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_subcommand_usage():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_zero_config_global_verdict(tmp_path):
    rec = run(CONFIGS / "zero.ini", tmp_path, seed=0, quiet=True)
    assert rec["verdict"].prediction == "Global"
    assert rec["events"] == []
    assert rec["outcome"].kind == "GlobalUntilTend"
    run_dir = tmp_path / "zero-s0"
    assert (run_dir / "record.json").exists()
    assert (run_dir / "trajectory.csv").exists()


def test_blowup_config_agrees(tmp_path):
    rec = run(CONFIGS / "blowup_2d.ini", tmp_path, seed=0, quiet=True)
    assert rec["verdict"].prediction == "Blowup"
    assert rec["outcome"].kind == "BlowupDetected"


def test_determinism_byte_identical(tmp_path):
    run(CONFIGS / "global_2d.ini", tmp_path / "a", seed=3, quiet=True)
    run(CONFIGS / "global_2d.ini", tmp_path / "b", seed=3, quiet=True)
    for name in ("record.json", "trajectory.csv", "envelopes.csv"):
        a = (tmp_path / "a" / "global_2d-s3" / name).read_bytes()
        b = (tmp_path / "b" / "global_2d-s3" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_record_structure(tmp_path):
    run(CONFIGS / "global_2d.ini", tmp_path, seed=1, quiet=True)
    rec = json.loads((tmp_path / "global_2d-s1" / "record.json").read_text())
    assert rec["id"] == "global_2d-s1" and rec["seed"] == 1
    assert rec["verdict"]["certified"] is False
    # every verdict constant traces to an estimate id or config echo
    assert rec["verdict"]["estimates_used"]
    assert "B0" in rec["estimates"] and "depth" in rec["estimates"]
    assert rec["trajectory_ref"] == "trajectory.csv"
    assert "wall_time_s" not in rec  # timing lives in the sidecar meta file
    meta = json.loads((tmp_path / "global_2d-s1" / "meta.json").read_text())
    assert meta["wall_time_s"] > 0


def test_classify_subcommand_no_trajectory(tmp_path):
    code = main(["classify", "--config", str(CONFIGS / "global_2d.ini"),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0
    run_dir = tmp_path / "global_2d-s0"
    assert (run_dir / "record.json").exists()
    assert not (run_dir / "trajectory.csv").exists()


def test_depth_subcommand(tmp_path, capsys):
    code = main(["depth", "--config", str(CONFIGS / "global_2d.ini"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "depth upper=" in out


def test_norm_subcommand(tmp_path, capsys):
    code = main(["norm", "--config", str(CONFIGS / "norm.ini"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "value=" in out and "residual=" in out
    assert (tmp_path / "norm.json").exists()


def test_poincare_subcommand(tmp_path):
    code = main(["poincare", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    text = (tmp_path / "poincare.csv").read_text()
    assert text.startswith("epsilon,numerator,denominator,quotient,bound")
    assert len(text.strip().split("\n")) == 5


def test_report_subcommand(tmp_path):
    run(CONFIGS / "zero.ini", tmp_path, seed=0, quiet=True)
    code = main(["report", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    summary = (tmp_path / "summary.csv").read_text()
    assert "zero-s0,Global" in summary


def test_report_empty_dir(tmp_path):
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == 3


def test_diffusion_dominant_pipeline(tmp_path):
    rec = run(CONFIGS / "diffusion_dominant.ini", tmp_path, seed=0, quiet=True)
    assert rec["verdict"].prediction == "Global"
    assert rec["outcome"].kind == "GlobalUntilTend"
    kinds = [e["kind"] for e in rec["envelopes"]]
    assert "Thm53Bound" in kinds


def test_ode_verify_writes_plain_floats(tmp_path, capsys):
    assert main(["ode-verify", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ode_verify.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    after_branch = header.index("branch") + 1
    assert header[after_branch:] == ["max_violation"]
    for line in lines[1:]:
        for field in line.split(",")[after_branch:]:
            float(field)
    worst = capsys.readouterr().out.split("worst signed violation ")[1].split()[0]
    float(worst)


# estimates at seed 0 from the per-mode witness loop and bisection
# root-finders; all three configs share grid and exponents
_PINNED_SEED0 = {
    "B0": 0.3148619624810213,
    "B": 0.34854009282279924,
    "depth": 28.619535014580052,
    "Ctilde": 1.1610763071797496,
}


@pytest.mark.parametrize("name", ["blowup_2d", "global_2d", "high_energy"])
def test_estimates_pinned(tmp_path, name):
    rec = run(CONFIGS / f"{name}.ini", tmp_path, seed=0, do_simulate=False, quiet=True)
    est = rec["estimates"]
    got = {"B0": est["B0"].constant, "B": est["B"].constant,
           "depth": est["depth"].upper, "Ctilde": est["Ctilde"].constant}
    assert got == pytest.approx(_PINNED_SEED0, rel=1e-9)
    if name == "high_energy":
        radii = est["radii"]
        assert (radii.lambda_s, radii.Lambda_s) == pytest.approx(
            (3.1424048841000793, 3.8465984858323425), rel=1e-9)
        assert radii.kept == 3
    else:
        assert "radii" not in est
