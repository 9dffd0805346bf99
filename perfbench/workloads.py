"""The benchmark's workloads: which inputs each one runs and what it must give.

Every input is one call of the program's command line entry point,
`pxwell.cli.main([command, "--config", ...])`; `simulate` and `classify` run
`pxwell.cli.run`.  The initial data are the shipped configs; the 64x64
variants differ from them only in `[domain] cells` and are generated into a
scratch directory.  The workload seed reaches the program only as `--seed`.
BENCHMARK.json says why each workload exists.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

# Pinned verdicts of the shipped data; a run that disagrees has failed.
PINNED_VERDICT = {
    "blowup_2d": "Blowup",
    "high_energy": "Blowup",
    "global_2d": "Global",
    "diffusion_dominant": "Global",
    "negative_energy": "Global",
}

# The outcome a simulation must reach for each verdict.
OUTCOME_FOR_VERDICT = {"Blowup": "BlowupDetected", "Global": "GlobalUntilTend"}

# The data whose record must carry a depth estimate (r_minus > p_plus); the
# others must not, so a lost estimate is a failed run, not a missing number.
DEPTH_ESTIMATED = {"blowup_2d", "high_energy", "global_2d"}

# The file each command writes under --out (`{run}` is `<config stem>-s<seed>`).
OUTPUT = {
    "simulate": "{run}/record.json",
    "classify": "{run}/record.json",
    "norm": "norm.json",
    "ode-verify": "ode_verify.csv",
    "poincare": "poincare.csv",
}


@dataclass(frozen=True)
class Input:
    """One `pxwell <command> [--config <config>]` call; `cells` is the grid
    of a `simulate` or `classify` config, 0 for the other commands."""

    command: str
    config: str | None = None
    cells: int = 0

    @property
    def stem(self) -> str:
        return Path(self.config).stem if self.config else self.command

    @property
    def label(self) -> str:
        return f"{self.stem}.{self.cells}.{self.command}" if self.cells else self.command

    @property
    def simulate(self) -> bool:
        return self.command == "simulate"

    @property
    def writes_record(self) -> bool:
        return self.command in ("simulate", "classify")

    def argv(self, out: Path, seed: int) -> list[str]:
        config = ["--config", self.config] if self.config else []
        return [self.command, *config, "--out", str(out), "--seed", str(seed), "--quiet"]

    def output(self, out: Path, seed: int) -> Path:
        return out / OUTPUT[self.command].format(run=f"{self.stem}-s{seed}")


WORKLOADS: dict[str, tuple[Input, ...]] = {
    "escape": (
        Input("simulate", "configs/blowup_2d.ini", 32),
        Input("simulate", "configs/high_energy.ini", 32),
    ),
    "well": (
        Input("classify", "configs/global_2d.ini", 32),
        Input("classify", "configs/high_energy.ini", 32),
        Input("classify", "configs/global_2d.ini", 64),
    ),
    "decay": (
        Input("simulate", "configs/diffusion_dominant.ini", 64),
        Input("simulate", "configs/negative_energy.ini", 64),
    ),
    "verify": (
        Input("ode-verify"),
        Input("poincare"),
        Input("norm", "configs/norm.ini"),
    ),
}


def materialize(inp: Input, scratch: Path) -> Input:
    """Return `inp` with its config parsed and, for a grid other than the
    shipped one, rewritten into `scratch` with only `[domain] cells` changed."""
    if not inp.cells:
        return inp
    text = Path(inp.config).read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    shipped = parser.get("domain", "cells").split()
    wanted = [str(inp.cells)] * len(shipped)
    if shipped == wanted:
        return inp
    lines = []
    section = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1]
        elif section == "domain" and stripped.split("=")[0].strip() == "cells":
            line = "cells = " + " ".join(wanted)
        lines.append(line)
    out_dir = scratch / f"cells{inp.cells}"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / Path(inp.config).name
    path.write_text("\n".join(lines) + "\n")
    check = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    check.read(path)
    if check.get("domain", "cells").split() != wanted:
        raise ValueError(f"failed to set cells in {path}")
    return dataclasses.replace(inp, config=str(path))
