from __future__ import annotations

import dataclasses
import json
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fail_lambda_star_calls
from oracles import log_holder_all_pairs
from pxwell import cli, radial_gap
from pxwell.cli import ConfigError, _load_config, main, run
from pxwell.grid import Grid
from pxwell.witnesses import mode_field

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


def test_every_section_is_set_by_a_shipped_config():
    # a section that no shipped config sets is a knob that nothing uses
    # ([estimates], [ode] and [poincare] were)
    shipped = set()
    for path in CONFIGS.glob("*.ini"):
        shipped.update(_load_config(path))
    assert set(cli._SCHEMA) - shipped == set()


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


_OUTCOME = {"Blowup": "BlowupDetected", "Global": "GlobalUntilTend"}
# the rule that decides each shipped verdict at seed 0: no shipped Global
# verdict rests on the sampled level radii (supercritical-small-data)
_SHIPPED_RULE = {
    "blowup_2d": "subcritical-negative-gap",
    "high_energy": "supercritical-large-data",
    "global_2d": "subcritical-positive-gap",
    "diffusion_dominant": "diffusion-dominant-global",
    "negative_energy": "diffusion-dominant-global",
    "zero": "zero-datum",
}
# the keys of each shipped verdict's constants: the datum's four, the depth's
# two when one was estimated, the critical band under condition H and the
# level radii on a supercritical datum
_DATUM_KEYS = {"J0", "I0", "grad_modular0", "l2_0"}
_DEPTH_KEYS = _DATUM_KEYS | {"d_hat_upper", "d_hat_lower_formula"}
_SHIPPED_CONSTANTS = {
    "blowup_2d": _DEPTH_KEYS | {"critical_band"},
    "high_energy": _DEPTH_KEYS | {"critical_band", "lambda_s", "Lambda_s"},
    "global_2d": _DEPTH_KEYS | {"critical_band"},
    "diffusion_dominant": _DATUM_KEYS,
    "negative_energy": _DATUM_KEYS,
    "zero": _DEPTH_KEYS,
}
# each shipped config's seed-0 step counts from meta.json: accepted,
# rejected, kernel evaluations and accepted RK4 steps
_SHIPPED_COUNTS = {
    "blowup_2d": (266, 0, 969, 218),
    "high_energy": (260, 1, 873, 175),
    "global_2d": (117, 0, 566, 0),
    "diffusion_dominant": (107, 0, 1208, 0),
    "negative_energy": (58, 0, 800, 0),
    "zero": (22, 0, 73, 0),
}


def _strict_json(path):
    """The JSON in `path`, parsed with NaN and Infinity tokens refused."""
    def refuse(token):
        raise ValueError(f"{path.name}: non-strict JSON token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("name, verdict", [
    ("blowup_2d", "Blowup"),
    ("high_energy", "Blowup"),
    ("global_2d", "Global"),
    ("diffusion_dominant", "Global"),
    ("negative_energy", "Global"),
    ("zero", "Global"),
])
def test_shipped_config_agrees(tmp_path, name, verdict):
    # every shipped simulate config: its verdict, the rule that decides it
    # and the constants it records, the simulated outcome that goes with it,
    # a trajectory row for the datum and each accepted step, its step counts,
    # and audit check (b) under the 0.01 at which the solver's error factor
    # aims to hold it; both exponents pass the log-Hölder audit, whose
    # reading on p is the modulus over every pair of cells
    path = CONFIGS / f"{name}.ini"
    rec = run(path, tmp_path, seed=0, quiet=True)
    assert (rec["verdict"].prediction, rec["verdict"].rule) == (verdict, _SHIPPED_RULE[name])
    assert rec["regularity"]["p"].passes and rec["regularity"]["r"].passes
    cfg = _load_config(path)
    p = cli._build_exponent(cfg, cli._build_grid(cfg), "p")
    assert rec["regularity"]["p"].max_log_modulus == pytest.approx(
        log_holder_all_pairs(p), rel=1e-14, abs=0.0)
    assert set(rec["verdict"].constants) == _SHIPPED_CONSTANTS[name]
    assert rec["outcome"].kind == _OUTCOME[verdict]
    assert rec["audit"].l2_rate_max_rel_err < 0.01
    run_dir = tmp_path / f"{name}-s0"
    _strict_json(run_dir / "record.json")
    meta = _strict_json(run_dir / "meta.json")
    header, *rows = (run_dir / "trajectory.csv").read_text().strip().split("\n")
    assert len(rows) == meta["steps"]["accepted"] + 1
    steps = meta["steps"]
    rk4 = [row["accepted"] for row in steps["by_stepper"] if row["stepper"] == "rk4"]
    assert (steps["accepted"], steps["rejected"], steps["kernel_evals"], *rk4) == (
        _SHIPPED_COUNTS[name])


def _contradicts(rec) -> bool:
    """A decided verdict that the simulated outcome contradicts: Global that
    ends BlowupDetected, or Blowup that ends GlobalUntilTend."""
    prediction, kind = rec["verdict"].prediction, rec["outcome"].kind
    return prediction in _OUTCOME and kind in _OUTCOME.values() and kind != _OUTCOME[prediction]


# the verdict ladder: global_2d.ini at 16x16 with only the amplitude changed,
# and the solver settings that resolve each rung's blow-up time
_LADDER_AMPLITUDES = (3, 4, 5, 6, 7, 8, 10, 14)
_LADDER_EDITS = (("cells = 32 32", "cells = 16 16"),
                 ("dt_init = 1e-5", "dt_init = 1e-6\nblowup_threshold = 1e5"))


def test_verdict_ladder(tmp_path):
    # no decided verdict is contradicted by its simulated outcome along the
    # family; Undetermined never fails (amplitudes 6, 7 and 8 were Global by
    # supercritical-small-data and blew up, at t_b 0.02511, 0.01461, 0.01006)
    base = (CONFIGS / "global_2d.ini").read_text()
    for old, new in _LADDER_EDITS:
        assert base.count(old) == 1, old
        base = base.replace(old, new)
    assert base.count("amplitude = 1.8") == 1 and base.count("t_end = 0.1") == 1
    contradicted, undetermined = [], 0
    for amp in _LADDER_AMPLITUDES:
        path = _write(tmp_path, base.replace("amplitude = 1.8", f"amplitude = {amp}"),
                      name=f"ladder{amp}.ini")
        rec = run(path, tmp_path, seed=0, quiet=True)
        undetermined += rec["verdict"].prediction == "Undetermined"
        if _contradicts(rec):
            contradicted.append(f"amplitude {amp}: {rec['verdict'].prediction} "
                                f"({rec['verdict'].rule}) ended {rec['outcome'].kind}")
    assert not contradicted, (f"{contradicted}; {undetermined} of {len(_LADDER_AMPLITUDES)} "
                              "rungs Undetermined")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the decay envelope starts below J0")
def test_small_datum_within_decay_envelopes(tmp_path):
    # global_2d.ini at amplitude 0.3 decays, so its J and gradient modular
    # must stay under the closed-form envelopes on every row; J exceeded
    # J_bound on 61 of 61 rows (worst ratio 50.7) and grad_modular exceeded
    # grad_bound on 59 of 61 (worst 16.2)
    base = (CONFIGS / "global_2d.ini").read_text()
    assert base.count("amplitude = 1.8") == 1
    path = _write(tmp_path, base.replace("amplitude = 1.8", "amplitude = 0.3"), name="small.ini")
    run(path, tmp_path, seed=0, quiet=True)
    table = np.genfromtxt(tmp_path / "small-s0" / "envelopes.csv", delimiter=",", names=True)
    assert table.size > 0
    assert np.all(table["J"] <= table["J_bound"])
    assert np.all(table["grad_modular"] <= table["grad_bound"])


def test_contradicted_verdict_exit_4(tmp_path, monkeypatch, capsys):
    # a Global verdict on blowup_2d, which blows up: the run names the
    # contradiction in its events and exits 4 after writing its record and
    # meta (it exited 0)
    real = cli.classify

    def global_verdict(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), prediction="Global")

    monkeypatch.setattr(cli, "classify", global_verdict)
    assert main(["simulate", "--config", str(CONFIGS / "blowup_2d.ini"),
                 "--out", str(tmp_path), "--quiet"]) == 4
    assert capsys.readouterr().err == (
        "acceptance failure: outcome BlowupDetected contradicts verdict Global\n")
    run_dir = tmp_path / "blowup_2d-s0"
    rec = _strict_json(run_dir / "record.json")
    assert rec["outcome"]["kind"] == "BlowupDetected"
    assert rec["events"] == ["outcome BlowupDetected contradicts verdict Global"]
    assert _strict_json(run_dir / "meta.json")["steps"]["accepted"] > 0


# a zero datum on 8 cells: the [solver] and [initial] sections are read with
# the domain and exponents, before the estimates
_TINY = ("[domain]\ndimension = 1\ncells = 8\nlengths = 1.0\n"
         "[exponents]\np = const:2.0\nr = const:4.0\n")
# an 8 x 8 square with p = 2, r = 4
_SQUARE_8 = ("[domain]\ndimension = 2\ncells = 8 8\nlengths = 1.0 1.0\n"
             "[exponents]\np = const:2.0\nr = const:4.0\n")
# each failed at the audit stage (exit 3) or, for blowup_threshold = nan,
# ran with threshold detection off (exit 0); t_end = inf, which never
# returned, is checked in test_solver.test_config_validation
_BAD_SOLVER_LINES = ("t_end = 0", "t_end = -1", "t_end = nan", "energy_tol = -1",
                     "energy_tol = nan", "blowup_threshold = nan", "delta = -1", "delta = nan")
# kind highenergy with a source exponent that its construction cannot take;
# each exited 3 at the initial stage, after the estimates
_BAD_HIGHENERGY = {
    "highenergy-variable-r": "r = affine:4.0+0.5x",
    "highenergy-r_minus-below-p_plus": "r = const:1.5",
}
# each exited 0 under classify with a null initial J and I, or 3 under
# simulate at the simulate stage blaming delta, or (mtarget_factor) 3 at the
# initial stage after every estimate; nonfinite.csv holds a NaN and an inf
_BAD_INITIAL_LINES = ("kind = modes\nmodes = 1 1.0\namplitude = nan",
                      "kind = modes\nmodes = 1 1.0\namplitude = inf",
                      "kind = modes\nmodes = 1 nan", "kind = highenergy\nmtarget_factor = inf",
                      "kind = highenergy\nmtarget_factor = 0.5", "kind = csv\ncsv = nonfinite.csv")
_BAD_LINES = (*(_TINY + f"[solver]\n{line}\n" for line in _BAD_SOLVER_LINES),
              *(_TINY.replace("r = const:4.0", line) + "[initial]\nkind = highenergy\n"
                for line in _BAD_HIGHENERGY.values()),
              *(_TINY + f"[initial]\n{line}\n" for line in _BAD_INITIAL_LINES))
_BAD_IDS = (*_BAD_SOLVER_LINES,
            *_BAD_HIGHENERGY,
            *(line.split("\n")[-1] for line in _BAD_INITIAL_LINES))


# diffusion_dominant.ini with a non-finite domain length; each passed the
# grid and exited 3 at the estimates stage, "modular is non-finite"
_BAD_LENGTHS = {f"lengths-{v}": (CONFIGS / "diffusion_dominant.ini").read_text()
                .replace("lengths = 1.0 1.0", f"lengths = {v} 1.0") for v in ("nan", "inf")}


def _nonfinite_csv(tmp_path, monkeypatch):
    # the datum that [initial] csv = nonfinite.csv names, in the working
    # directory
    _write(tmp_path, "# grid 8 1.0\n" + "\n".join(["0.5", "-0.5", "nan", "inf"] * 2),
           name="nonfinite.csv")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("command, text", [
    ("simulate", "[domain]\ndimension = 2\ncells = 16 x\nlengths = 1.0 1.0\n"),
    ("simulate", "[domain]\ndimension = 1\ncells = 16\nlengths = 1.0\n"
                 "[exponents]\np = missing.csv\nr = const:4.0\n"),
    ("norm", "[norm]\nfield_csv = missing.csv\nexponent = const:3.0\n"),
    ("norm", f"[norm]\nfield_csv = {CONFIGS / 'sample_field.csv'}\nexponent = bogus:1\n"),
    ("simulate", _TINY + "[solver]\nrecord_every = 5\n"),
    ("simulate", _TINY + "[estimates]\nradii_samples = 48\n"),
    ("simulate", _TINY + "[estimates]\ntrials = 24\nascent_steps = 12\n"),
    ("simulate", _TINY + "[ode]\nt_end = 12.0\n"),
    ("simulate", _TINY + "[poincare]\nn_quad = 64\n"),
    ("simulate", _TINY + "[initial]\nkind = modes\nmodes = 0 1.0\n"),
    # a wavenumber that is an odd multiple of 8 is zero at every center: the
    # datum was rounding noise scaled to the amplitude, and k = 8 exited 0
    # with J0 = 208.6
    *(("classify", _SQUARE_8 + f"[initial]\nkind = modes\nmodes = {k} 0 1.0\namplitude = 5.0\n")
      for k in (8, 24)),
    ("norm", f"[norm]\nfield_csv = {CONFIGS / 'sample_field.csv'}\nexponent = const:3.0\n"
             "tol = -1\n"),
    *(("simulate", text) for text in _BAD_LENGTHS.values()),
    *(("simulate", text) for text in _BAD_LINES),
    *(("classify", _TINY + f"[initial]\n{line}\n") for line in _BAD_INITIAL_LINES),
    *(("classify", _TINY + f"[solver]\n{line}\n") for line in _BAD_SOLVER_LINES),
], ids=["simulate-cells", "simulate-exponent-csv", "norm-field-csv", "norm-exponent",
        "simulate-record_every-removed", "simulate-radii_samples-removed",
        "simulate-estimates-removed", "simulate-ode-removed", "simulate-poincare-removed",
        "simulate-modes-all-zero", "classify-modes-vanishing-8", "classify-modes-vanishing-24",
        "norm-tol-negative",
        *("simulate-" + name for name in _BAD_LENGTHS),
        *("simulate-" + name.replace(" = ", "-") for name in _BAD_IDS),
        *("classify-" + name.replace(" = ", "-") for name in _BAD_IDS[-len(_BAD_INITIAL_LINES):]),
        *("classify-" + name.replace(" = ", "-") for name in _BAD_SOLVER_LINES)])
def test_config_value_errors_exit_2(tmp_path, monkeypatch, capsys, command, text):
    # an unparsable, out-of-range or non-finite value, an unknown key, an
    # unknown exponent spec or a missing file that the config names is a
    # config error, not a traceback or a pipeline error, and leaves no
    # output directory behind (the all-zero mode exited 3 at stage fields,
    # every simulate case left an empty run directory, and classify, which
    # did not read [solver], exited 0 on each bad [solver] value)
    _nonfinite_csv(tmp_path, monkeypatch)
    path = _write(tmp_path, text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["ode-verify", "poincare", "report"])
def test_config_flag_refused_exit_2(tmp_path, capsys, command):
    # these commands read no config: --config is a usage error before
    # anything is written
    out = tmp_path / "o"
    assert main([command, "--config", str(CONFIGS / "zero.ini"), "--out", str(out),
                 "--quiet"]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", ["global_2d", "zero"])
def test_negative_seed_exit_2(tmp_path, capsys, config):
    # numpy's generators take no negative seed: the value is rejected when
    # the arguments are parsed, before anything is written (it was a
    # pipeline error at stage hypotheses that left a record.json)
    out = tmp_path / "o"
    assert main(["classify", "--config", str(CONFIGS / f"{config}.ini"), "--out", str(out),
                 "--seed", "-1", "--quiet"]) == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "ode-verify", "poincare"])
def test_out_path_that_is_a_file_exit_2(tmp_path, monkeypatch, capsys, command):
    # the output directory is made before the work starts, so an --out that
    # names a file is a one-line output error before any work, not a
    # traceback (classify) or one after the whole batch (ode-verify)
    def unreachable(*args, **kwargs):
        raise AssertionError("the work ran before the output directory was made")

    monkeypatch.setattr(cli, "check_hypotheses", unreachable)
    monkeypatch.setattr(cli.ode_bounds, "verify_batch", unreachable)
    monkeypatch.setattr(cli.radial_gap, "quotient_sweep", unreachable)
    out = _write(tmp_path, "taken\n", name="taken")
    config = ["--config", str(CONFIGS / "zero.ini")] if command == "classify" else []
    assert main([command, *config, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1, err
    assert out.read_text() == "taken\n"


@pytest.mark.parametrize("text", _BAD_LINES, ids=_BAD_IDS)
def test_bad_solver_value_fails_before_estimates(tmp_path, monkeypatch, text):
    # each value is a config error before the estimates run, with the
    # classifier's hypotheses: neither is reached
    def unreachable(*args, **kwargs):
        raise AssertionError("the pipeline ran before [solver] and [initial] were checked")

    monkeypatch.setattr(cli, "check_hypotheses", unreachable)
    monkeypatch.setattr(cli, "estimate_embedding", unreachable)
    _nonfinite_csv(tmp_path, monkeypatch)
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"^\[(solver|initial)\]"):
        run(path, tmp_path / "o", quiet=True)


def test_inadmissible_norm_field_exit_3(tmp_path, capsys):
    # |u|^3 overflows on a field of +-1e300: the modular is not finite, a
    # pipeline error rather than a traceback
    csv = _write(tmp_path, "# grid 8 1.0\n" + "\n".join(["1e300", "-1e300"] * 4), name="big.csv")
    path = _write(tmp_path, f"[norm]\nfield_csv = {csv}\nexponent = const:3.0\n")
    assert main(["norm", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline error: ") and "not admissible" in err
    assert not (tmp_path / "o" / "norm.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_norm_field_exit_2(tmp_path, capsys, value):
    # a non-finite value in the field is a config error before the output
    # directory is made (it exited 3, "modular is non-finite", after it)
    csv = _write(tmp_path, "# grid 8 1.0\n" + "\n".join(["0.5", "-0.5", value, "1.0"] * 2),
                 name="field.csv")
    path = _write(tmp_path, f"[norm]\nfield_csv = {csv}\nexponent = const:3.0\n")
    assert main(["norm", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: [norm] field_csv: {csv} holds a non-finite value\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "classify"])
@pytest.mark.parametrize("modes", ["16 0 1.0", "0 -32 1.0", "16 16 1.0; 0 48 2.0"])
def test_mode_constant_on_grid_exit_2(tmp_path, capsys, command, modes):
    # at 8x8 cells a wavenumber that is a multiple of 16 on every axis (0
    # included) samples cos(k pi x / L) = +-1 at every center: the datum
    # projected to zero, and "16 0 1.0" exited 0 with verdict zero-datum
    path = _write(tmp_path,
                  _SQUARE_8 + f"[initial]\nkind = modes\nmodes = {modes}\namplitude = 5.0\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [initial] modes: mode (") and err.count("\n") == 1
    assert "is constant on a grid of (8, 8) cells" in err
    assert not (tmp_path / "o").exists()


def test_mode_aliased_to_a_nonconstant_mode_runs(tmp_path):
    # (16, 1) at 8x8 is minus the mode (0, 1), so the datum stands; k = 8
    # on 3 cells is not a multiple of 6 either
    grid = Grid((8, 8), (1.0, 1.0))
    assert np.allclose(mode_field(grid, (16, 1)).values, -mode_field(grid, (0, 1)).values,
                       rtol=0.0, atol=1e-12)
    assert np.ptp(mode_field(Grid((3, 3), (1.0, 1.0)), (8, 8)).values) > 0.5
    path = _write(tmp_path,
                  _SQUARE_8 + "[initial]\nkind = modes\nmodes = 16 1 1.0\namplitude = 0.1\n")
    rec = run(path, tmp_path / "o", do_simulate=False, quiet=True)
    assert rec["verdict"].rule != "zero-datum"


def test_nonfinite_initial_energy_exit_3(tmp_path, capsys):
    # delta = 0 with p < 2 on a datum flat on half the square: the initial
    # energy is NaN, a pipeline error that names delta and p_minus
    x = (np.arange(16) + 0.5) / 16
    v = np.zeros((16, 16))
    v[8:, :] = np.cos(2.0 * np.pi * x[8:])[:, None]
    csv = _write(tmp_path, "# grid 16 16 1.0 1.0\n" + "\n".join(map(repr, v.ravel().tolist())),
                 name="flat.csv")
    path = _write(tmp_path, "[domain]\ndimension = 2\ncells = 16 16\nlengths = 1.0 1.0\n"
                  "[exponents]\np = const:1.5\nr = const:4.0\n"
                  f"[initial]\nkind = csv\ncsv = {csv}\n[solver]\ndelta = 0.0\n")
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 3
    assert "delta=0.0, p_minus=1.5" in capsys.readouterr().err


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
    # the depth's stationarity residual is in the record, the descent's
    # counters only in the sidecar
    assert 0.0 < rec["estimates"]["depth"]["residual"] < 1e-3
    assert not {"iterations", "backtracks"} & set(rec["estimates"]["depth"])
    assert rec["trajectory_ref"] == "trajectory.csv"
    assert "wall_time_s" not in rec  # timing lives in the sidecar meta file
    meta = json.loads((tmp_path / "global_2d-s1" / "meta.json").read_text())
    assert meta["wall_time_s"] > 0
    assert set(meta["depth"]) == {"iterations", "backtracks"}
    assert meta["depth"]["iterations"] > 0 and meta["depth"]["backtracks"] >= 0
    stages = {"fields", "hypotheses", "estimates", "initial", "classify",
              "simulate", "audit", "envelopes"}
    assert set(meta["stage_s"]) == stages
    assert all(v >= 0 for v in meta["stage_s"].values())
    assert sum(meta["stage_s"].values()) <= meta["wall_time_s"]
    steps = meta["steps"]
    assert steps["accepted"] == rec["residuals"]["step_count"]
    assert steps["rejected"] == rec["residuals"]["rejected_steps"]
    # an s-stage RKC2 trial step costs s kernel evaluations and an RK4 trial
    # step 4; this decaying run takes no RK4 step
    stages = [row["stages"] for row in steps["by_stages"]]
    assert stages == sorted(stages) and len(set(stages)) == len(stages) and stages[0] >= 2
    assert steps["by_stepper"] == [
        {"stepper": "rkc2", "accepted": steps["accepted"], "rejected": steps["rejected"]},
        {"stepper": "rk4", "accepted": 0, "rejected": 0}]
    assert steps["kernel_evals"] == 1 + sum(
        row["stages"] * (row["accepted"] + row["rejected"]) for row in steps["by_stages"])
    assert sum(row["accepted"] for row in steps["by_stages"]) == steps["accepted"]
    assert sum(row["rejected"] for row in steps["by_stages"]) == steps["rejected"]
    # every accepted RKC2 step outside the blow-up tail, here every accepted
    # step, counts once by the factor that set the next dt
    assert [row["limit"] for row in steps["by_dt_limit"]] == ["error", "energy", "growth"]
    assert sum(row["accepted"] for row in steps["by_dt_limit"]) == steps["accepted"]
    decades = [row["decade"] for row in steps["by_decade"]]
    assert decades == sorted(decades) and len(set(decades)) == len(decades)
    assert sum(row["accepted"] for row in steps["by_decade"]) == steps["accepted"]
    assert sum(row["rejected"] for row in steps["by_decade"]) == steps["rejected"]
    assert not {"stage_s", "steps"} & set(rec)


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
    for word in ("residual=", "iterations=", "backtracks="):
        assert word in out


def test_norm_subcommand(tmp_path, capsys):
    code = main(["norm", "--config", str(CONFIGS / "norm.ini"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "value=" in out and "residual=" in out
    assert (tmp_path / "norm.json").exists()


def test_poincare_subcommand(tmp_path, capsys):
    code = main(["poincare", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "poincare.csv").read_text()
    assert text.startswith("epsilon,numerator,denominator,quotient,bound")
    assert len(text.strip().split("\n")) == 5
    # each bound prints as a plain float (it printed as np.float64(...))
    out = capsys.readouterr().out
    assert out.count("bound=") == 4 and "np.float64(" not in out


@pytest.mark.parametrize("command, written", [
    ("norm", "norm.json"), ("ode-verify", "ode_verify.csv"), ("poincare", "poincare.csv")])
def test_empty_out_writes_to_working_directory(tmp_path, monkeypatch, command, written):
    # an empty --out is the working directory, as for classify; it was a mode
    # that wrote nothing
    monkeypatch.chdir(tmp_path)
    norm = f"[norm]\nfield_csv = {CONFIGS / 'sample_field.csv'}\nexponent = const:3.0\n"
    config = ["--config", str(_write(tmp_path, norm))] if command == "norm" else []
    assert main([command, *config, "--out", "", "--quiet"]) == 0
    assert (tmp_path / written).is_file()


def test_poincare_failed_bound_exit_4(tmp_path, monkeypatch, capsys):
    # a quotient above its closed-form bound fails the sweep with exit code 4,
    # before poincare.csv is written
    monkeypatch.setattr(radial_gap, "quotient_bound", lambda eps: 1e-9)
    assert main(["poincare", "--out", str(tmp_path), "--quiet"]) == 4
    assert "assertion failure: quotient" in capsys.readouterr().err
    assert not (tmp_path / "poincare.csv").exists()


def test_poincare_quadrature_failure_exit_3(tmp_path, monkeypatch, capsys):
    # a node-doubling guard that cannot be met is a pipeline error before
    # poincare.csv is written (it escaped main as a ValueError traceback)
    monkeypatch.setattr(radial_gap, "_REL_TOL", 0.0)
    assert main(["poincare", "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline error: poincare sweep: quadrature disagreement")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "poincare.csv").exists()


def test_ode_falsifier_failure_exit_3(tmp_path, monkeypatch, capsys):
    # a panel guard that cannot be met is a pipeline error before
    # ode_verify.csv is written (it escaped main as a ValueError traceback)
    monkeypatch.setattr(cli.ode_bounds, "_AGREEMENT", 0.0)
    monkeypatch.setattr(cli.ode_bounds, "_MAX_BISECTIONS", 0)
    assert main(["ode-verify", "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pipeline error: ode falsifier: quadrature panels disagree")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "ode_verify.csv").exists()


def test_report_subcommand(tmp_path):
    rec = run(CONFIGS / "zero.ini", tmp_path, seed=0, quiet=True)
    run(CONFIGS / "zero.ini", tmp_path, seed=1, do_simulate=False, quiet=True)
    code = main(["report", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    header, *rows = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert header == ("id,prediction,rule,outcome,J0,I0,accepted,rejected,rk4_accepted,"
                      "kernel_evals,audit_rate_err")
    simulated, classified = (dict(zip(header.split(","), row.split(","))) for row in rows)
    assert simulated["id"] == "zero-s0" and simulated["prediction"] == "Global"
    residuals = rec["residuals"]
    meta = json.loads((tmp_path / "zero-s0" / "meta.json").read_text())
    assert (simulated["accepted"], simulated["rejected"], simulated["rk4_accepted"],
            simulated["kernel_evals"]) == (
        str(residuals["step_count"]), str(residuals["rejected_steps"]), "0",
        str(meta["steps"]["kernel_evals"]))
    assert classified["id"] == "zero-s1" and classified["outcome"] == ""
    assert float(simulated["audit_rate_err"]) == rec["audit"].l2_rate_max_rel_err
    assert (classified["accepted"], classified["rejected"], classified["rk4_accepted"],
            classified["kernel_evals"], classified["audit_rate_err"]) == ("", "", "", "", "")
    # the zero datum never leaves the zero state
    assert meta["steps"]["by_decade"] == [
        {"decade": None, "accepted": residuals["step_count"], "rejected": 0}]


def test_report_reads_meta_without_stepper_counts(tmp_path):
    # a meta.json written before steps were counted by stepper still reports,
    # with an empty RK4 column
    run(CONFIGS / "zero.ini", tmp_path, seed=0, quiet=True)
    meta_path = tmp_path / "zero-s0" / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["steps"]["by_stepper"]
    meta_path.write_text(json.dumps(meta))
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == 0
    header, row = (tmp_path / "summary.csv").read_text().strip().split("\n")
    summary = dict(zip(header.split(","), row.split(",")))
    assert summary["rk4_accepted"] == ""
    assert summary["kernel_evals"] == str(meta["steps"]["kernel_evals"])


@pytest.mark.parametrize("name", ["record.json", "meta.json"])
def test_report_truncated_json_exit_3(tmp_path, capsys, name):
    # a run killed while writing leaves a file cut short: a pipeline error
    # naming the file, before summary.csv is written (it exited 1 with a
    # JSONDecodeError traceback)
    run(CONFIGS / "zero.ini", tmp_path, seed=0, do_simulate=False, quiet=True)
    path = tmp_path / "zero-s0" / name
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"pipeline error: {path}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("name, text, message", [
    ("record.json", "{}", "no string id"),
    ("record.json", "[]", "not a JSON object"),
    ("record.json", '{"id": 7}', "no string id"),
    ("meta.json", "[]", "not a JSON object"),
], ids=["record-empty-object", "record-list", "record-numeric-id", "meta-list"])
def test_report_unusable_json_exit_3(tmp_path, capsys, name, text, message):
    # a file that parses but holds no JSON object, or a record without a
    # string id, is a pipeline error naming the file, before summary.csv is
    # written (a record {} exited 1 with a KeyError traceback, and [] with an
    # AttributeError one)
    run(CONFIGS / "zero.ini", tmp_path, seed=0, do_simulate=False, quiet=True)
    path = tmp_path / "zero-s0" / name
    path.write_text(text)
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err == f"pipeline error: {path}: {message}\n"
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("name, block, value, message", [
    ("record.json", "verdict", [], "verdict is not an object"),
    ("record.json", "outcome", "BlowupDetected", "outcome is not an object"),
    ("record.json", "initial", 1.5, "initial is not an object"),
    ("record.json", "audit", [], "audit is not an object"),
    ("meta.json", "steps", [], "steps is not an object"),
    ("meta.json", "steps", {"by_stepper": [5]}, "steps.by_stepper is not a list of objects"),
    ("meta.json", "steps", {"by_stepper": {"rk4": 1}}, "steps.by_stepper is not a list of objects"),
], ids=["verdict-list", "outcome-string", "initial-number", "audit-list", "steps-list",
        "by-stepper-number-row", "by-stepper-object"])
def test_report_malformed_block_exit_3(tmp_path, capsys, name, block, value, message):
    # a block that is neither an object nor null is a pipeline error naming
    # the file, before summary.csv is written ({"id": "x", "verdict": []}
    # exited 1 with an AttributeError traceback)
    run(CONFIGS / "zero.ini", tmp_path, seed=0, quiet=True)
    path = tmp_path / "zero-s0" / name
    obj = json.loads(path.read_text())
    obj[block] = value
    path.write_text(json.dumps(obj))
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == 3
    assert capsys.readouterr().err == f"pipeline error: {path}: {message}\n"
    assert not (tmp_path / "summary.csv").exists()


def test_report_null_blocks_read_as_empty(tmp_path):
    # a null block reads as an absent one: its columns are empty ("audit":
    # null exited 1 with an AttributeError traceback)
    run(CONFIGS / "zero.ini", tmp_path, seed=0, quiet=True)
    run_dir = tmp_path / "zero-s0"
    (run_dir / "record.json").write_text(json.dumps(
        {"id": "x", "verdict": None, "outcome": None, "initial": None, "audit": None}))
    (run_dir / "meta.json").write_text(json.dumps({"steps": {"by_stepper": None}}))
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "summary.csv").read_text().splitlines()[1] == "x" + "," * 10


def test_json_writes_non_finite_as_null(tmp_path):
    path = tmp_path / "x.json"
    cli._write_json(path, {"a": float("nan"), "b": [np.inf, -np.inf, np.float64("nan")],
                           "d": 2.0})
    assert _strict_json(path) == {"a": None, "b": [None, None, None], "d": 2.0}
    # the zero datum's delta0 = S/G is undefined: null in the record, which
    # the report still reads
    run(CONFIGS / "zero.ini", tmp_path, seed=0, do_simulate=False, quiet=True)
    assert _strict_json(tmp_path / "zero-s0" / "record.json")["initial"]["delta0"] is None
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "summary.csv").read_text().splitlines()[1].startswith("zero-s0,Global,")


def test_report_empty_dir(tmp_path):
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == 3


def test_module_entry_point(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pxwell", "report", "--out", str(tmp_path), "--quiet"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("pxwell", run_name="__main__")
    assert exc.value.code == 3


def test_skipped_witnesses_reported(tmp_path, monkeypatch):
    fail_lambda_star_calls(monkeypatch, {0})
    rec = run(CONFIGS / "zero.ini", tmp_path, seed=0, do_simulate=False, quiet=True)
    assert rec["estimates"]["depth"].skipped == 1
    assert rec["events"] == ["depth estimate skipped 1 witnesses on which lambda* failed"]


def test_diffusion_dominant_pipeline(tmp_path):
    rec = run(CONFIGS / "diffusion_dominant.ini", tmp_path, seed=0, quiet=True)
    assert rec["verdict"].prediction == "Global"
    assert rec["outcome"].kind == "GlobalUntilTend"
    kinds = [e["kind"] for e in rec["envelopes"]]
    assert "Thm53Bound" in kinds


@pytest.mark.parametrize("name", ["diffusion_dominant", "negative_energy"])
def test_weak_source_verdict_cites_no_depth(tmp_path, name):
    assert main(["classify", "--config", str(CONFIGS / f"{name}.ini"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    rec = json.loads((tmp_path / f"{name}-s0" / "record.json").read_text())
    verdict = rec["verdict"]
    assert "depth" not in rec["estimates"]
    assert "d_hat_upper" not in verdict["constants"]
    assert not [e for e in verdict["estimates_used"] if e.startswith("depth-")]


# r_minus = p_plus, where no depth is estimated and condition H fails, and
# r_minus just below p_plus, where r_plus < p_minus decides: the prediction
# and rule of each
_SOURCE_ORDER_VERDICT = {
    "const:2.0": ("Undetermined", "hypotheses-not-met"),
    "const:1.999": ("Global", "diffusion-dominant-global"),
}


@pytest.mark.parametrize("r_field", list(_SOURCE_ORDER_VERDICT))
def test_source_order_at_or_below_diffusion_classifies(tmp_path, r_field):
    path = _write(tmp_path, "[domain]\ndimension = 2\ncells = 8 8\nlengths = 1.0 1.0\n"
                  f"[exponents]\np = const:2.0\nr = {r_field}\n"
                  "[initial]\nkind = modes\nmodes = 1 0 1.0\namplitude = 0.5\n",
                  name="edge.ini")
    assert main(["classify", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    verdict = json.loads((tmp_path / "edge-s0" / "record.json").read_text())["verdict"]
    assert (verdict["prediction"], verdict["rule"]) == _SOURCE_ORDER_VERDICT[r_field]


def test_ode_verify_writes_plain_floats(tmp_path, capsys):
    assert main(["ode-verify", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ode_verify.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    after_branch = header.index("branch") + 1
    assert header[after_branch:] == ["max_violation"]
    for line in lines[1:]:
        for field in line.split(",")[after_branch:]:
            float(field)
    out = capsys.readouterr().out
    # the line also gives the falsifier's panels, the bisections among them
    # and the points at which it evaluated dt/dy
    assert re.match(r"216 cells, \d+ panels, \d+ bisected, \d+ evaluations, "
                    r"worst signed violation ", out), out
    worst = out.split("worst signed violation ")[1].split()[0]
    float(worst)


# estimates at seed 0: B0 and B from the witness bank and its ascent, the
# depth from the preconditioned descent; all three configs share grid and
# exponents
_PINNED_SEED0 = {
    "B0": 0.3148619624810213,
    "B": 0.34854009282279924,
    "depth": 7.060845157534284,
}


@pytest.mark.parametrize("name", ["blowup_2d", "global_2d", "high_energy"])
def test_estimates_pinned(tmp_path, name):
    rec = run(CONFIGS / f"{name}.ini", tmp_path, seed=0, do_simulate=False, quiet=True)
    est = rec["estimates"]
    got = {"B0": est["B0"].constant, "B": est["B"].constant,
           "depth": est["depth"].upper}
    assert got == pytest.approx(_PINNED_SEED0, rel=1e-9)
    assert est["depth"].skipped == 0
    if name == "high_energy":
        # lambda_s is the norm of a descent's end (the depth's own Nehari
        # point), Lambda_s that of a bank witness
        radii = est["radii"]
        assert (radii.lambda_s, radii.Lambda_s) == pytest.approx(
            (1.3192325206692523, 3.1424048841000793), rel=1e-9)
        assert (radii.lambda_s, radii.Lambda_s) == (1.3192325206692517, 3.1424048841111163)
        assert radii.kept == 6
    else:
        assert "radii" not in est
