"""cli: fresh-interpreter invocations of the polmodes command line.

One op is one `python -m polmodes.cli <command>` process. A pass runs the
six commands dispersion, mode, solve, scatter, lossy and verify on
configs/default_interface.json (the seed moves the `mode` wavevector within
the surface band and the order of the pass), plus one `lossy` whose driven
sheet lies outside the box. That last invocation must exit with code 3,
print no traceback and write no file; until the program does so it is
counted as failed, once per pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks
from . import reference as ref

COMMANDS = ("dispersion", "mode", "solve", "scatter", "lossy", "verify")
OUT_OF_BOX = "lossy-out-of-box"
TIMEOUT_S = 150


@dataclass(frozen=True)
class Item:
    command: str
    config: str


class Cli:
    name = "cli"

    def __init__(self, seed: int, tracer, root: Path, out: Path):
        rng = np.random.default_rng([seed, 4])
        self.root, self.out, self.tr = root, out / "cli", tracer
        self.out.mkdir(parents=True, exist_ok=True)
        with open(root / "configs" / "default_interface.json") as fh:
            cfg = json.load(fh)
        k_mode = float(rng.uniform(2.0, 5.0))
        cfg["mode"]["k_par"] = [k_mode, 0.0]
        self.cfg = cfg
        main = self.out / "config.json"
        main.write_text(json.dumps(cfg, indent=2))
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        bad = dict(cfg, driven={"omega": 1.1, "sheets": [[side * float(rng.uniform(25.0, 60.0)), 1.0, 0.0]]})
        bad_path = self.out / "config-out-of-box.json"
        bad_path.write_text(json.dumps(bad, indent=2))
        order = [COMMANDS[i] for i in rng.permutation(len(COMMANDS))] + [OUT_OF_BOX]
        self.items = [Item(c, str(bad_path if c == OUT_OF_BOX else main)) for c in order]
        self.warmup = Item("dispersion", str(main))
        self.reference = [i for i in self.items if i.command != OUT_OF_BOX]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        layers = cfg["material"]["layers"]
        med = next(lay["medium"] for lay in layers if lay["medium"] is not None)
        self.medium = ref.Medium(med["omega_TO"], med["omega_LO"], med["rho"])
        self.figures: dict[str, float] = {}
        self.peak_rss_kib = 0

    def _invoke(self, command: str, config: str, out_dir: Path):
        """Run one command; its output goes to files so that wait4 can reap it with its rusage."""
        argv = [sys.executable, "-m", "polmodes.cli", command]
        if command != "verify":
            argv += ["--config", config, "--out", str(out_dir)]
        logs = self.out / "logs"
        logs.mkdir(exist_ok=True)
        with open(logs / "stdout", "w+") as out, open(logs / "stderr", "w+") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    def run(self, it: Item) -> int:
        """Returns the eigenpairs written; raises RuntimeError for a failed op."""
        out_dir = self.out / it.command
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        command = "lossy" if it.command == OUT_OF_BOX else it.command
        with self.tr.span(f"cli.{it.command}"):
            code, stdout, stderr = self._invoke(command, it.config, out_dir)
        if it.command == OUT_OF_BOX:
            written = sorted(p.name for p in out_dir.iterdir())
            if code != 3 or "Traceback" in stderr or written:
                last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
                raise RuntimeError(f"lossy with a sheet outside the box: exit {code}, "
                                   f"wrote {written}, stderr ends {last!r}")
            return 0
        if code != 0 or "Traceback" in stderr:
            raise RuntimeError(f"{command}: exit {code}: {stderr.strip()[-300:]}")
        return self._check(command, out_dir, stdout)

    def _check(self, command: str, out_dir: Path, stdout: str) -> int:
        cfg, m = self.cfg, self.medium
        if command == "dispersion":
            self.figures["dispersion"] = checks.dispersion_csv((out_dir / "dispersion.csv").read_text(), m)
        elif command == "mode":
            k = math.hypot(*cfg["mode"]["k_par"])
            self.figures["mode_N"] = checks.mode_json((out_dir / "mode_profile.json").read_text(), m, k)
        elif command == "solve":
            text = (out_dir / "eigenfrequencies.csv").read_text()
            self.figures["solve_surface_error"] = checks.eigenfrequencies_csv(
                text, m, cfg["k_par"], cfg["grid"]["n"], cfg["material"]["box"]["Lz"])
            return text.count("\n") - 1
        elif command == "scatter":
            checks.scattering_csv((out_dir / "scattering.csv").read_text())
        elif command == "lossy":
            b = cfg["bath"]
            self.figures["lossy_eps"] = checks.lossy_csv(
                (out_dir / "lossy_epsilon.csv").read_text(), m, b["upsilon"], b["zeta_min"], b["zeta_max"])
        elif command == "verify":
            checks.verify_stdout(stdout)
        return 0

    def trace_extras(self, it: Item):
        pass
