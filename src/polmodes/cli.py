"""Command-line front end: sweeps, mode profiles, discrete solves, scattering,
lossy response, and the verification suite.

Output files are deterministic: CSV with a header row, comma delimiter, LF
line endings, floats printed with 17 significant digits. Frequency-like
quantities honor the --units flag (see config module for the convention).

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric error.

Each command imports what it runs: `solve` the real-space solver and `verify`
the invariant registry, so importing this module loads no SciPy.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import dispersion as disp
from . import dissipative as diss
from . import media
from . import modes as md
from . import nonlinear as nl
from .config import parse_dispersion, parse_lossy, parse_mode, parse_scatter, parse_solve
from .errors import ConfigError, InvalidGrid, PolmodesError, UnsupportedGeometry


def _fail(msg, code: int):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _finite(artifact) -> bool:
    """Whether every float of an artifact, a JSON dict payload or a (header, rows) CSV
    table, is finite."""
    if isinstance(artifact, dict):
        values = (v for x in artifact.values() for v in (x if isinstance(x, list) else [x]))
    elif isinstance(artifact[1], np.ndarray):
        return bool(np.isfinite(artifact[1]).all())
    else:
        values = (v for row in artifact[1] for v in row)
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _write(fh, artifact):
    """Write one artifact: JSON for a dict payload, else CSV for a (header, rows) pair."""
    if isinstance(artifact, dict):
        fh.write(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
        return
    header, rows = artifact
    for row in [header, *(rows.tolist() if isinstance(rows, np.ndarray) else rows)]:
        fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _run(out_dir: str, parse, compute):
    """Run one command: compute(*parse()) returns ({file name: artifact}, stdout lines).
    The single place where errors become exit codes; numpy overflow, division by zero
    and invalid operations raise. Nothing is written unless every artifact was computed
    and is finite, and a failed write removes the files it opened."""
    out, written = Path(out_dir), []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            artifacts, lines = compute(*parse())
        for name, artifact in artifacts.items():
            if not _finite(artifact):
                raise FloatingPointError(f"{name} would hold a non-finite value")
        out.mkdir(parents=True, exist_ok=True)
        for name, artifact in artifacts.items():
            with open(out / name, "w", newline="\n") as fh:
                written.append(out / name)
                _write(fh, artifact)
    except ConfigError as exc:
        _fail(exc, 2)
    except UnsupportedGeometry as exc:
        _fail(ConfigError(str(exc), "/material/layers"), 2)
    except InvalidGrid as exc:
        _fail(ConfigError(str(exc), "/grid/n"), 2)
    except PolmodesError as exc:
        _fail(exc, 3)
    except ArithmeticError as exc:
        _fail(f"{type(exc).__name__}: {exc}", 3)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        _fail(f"cannot write to --out {out_dir}: {exc.strerror or exc}", 2)
    for line in lines:
        click.echo(line)


def _profile_table(zs, fields):
    """One row per z: z, then the real and imaginary parts of each field's x, y, z
    components."""
    header = ["z"] + [f"{name}_{c}_{part}" for name in fields for c in "xyz"
                      for part in ("re", "im")]
    columns = [zs] + [part(v[:, c]) for v in fields.values() for c in range(3)
                      for part in (np.real, np.imag)]
    return header, np.column_stack(columns)


@click.group()
def main():
    """Polariton modes of layered polar dielectrics."""


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path(), help="JSON run configuration")(fn)
    fn = click.option("--out", "out_dir", default=".", type=click.Path(), help="output directory")(fn)
    fn = click.option("--units", type=click.Choice(["internal", "cm-1"]), default="internal")(fn)
    return fn


@main.command("dispersion")
@_common_options
def dispersion_cmd(config_path, out_dir, units):
    """Sweep the vacuum, bulk and surface dispersion branches to CSV."""

    def compute(ref, medium, k_min, k_max, num):
        k_arr = np.linspace(k_min, k_max, num)
        ol, ou = disp.bulk_branches(medium, k_arr)
        ks = [float(k) for k in k_arr]
        rows = [("TEv", k * ref, 0.0, media.C * k * ref) for k in ks]
        rows += [("TEl", k * ref, 0.0, float(o) * ref) for k, o in zip(ks, ol)]
        rows += [("TEu", k * ref, 0.0, float(o) * ref) for k, o in zip(ks, ou)]
        rows += [("S", k * ref, 0.0, disp.surface_dispersion_omega(medium, k) * ref)
                 for k in ks if media.C * k >= medium.omega_T]
        path = Path(out_dir) / "dispersion.csv"
        return ({path.name: (["class", "k_par", "k_z", "omega"], rows)},
                [f"wrote {path} ({len(rows)} rows)"])

    _run(out_dir, lambda: parse_dispersion(config_path, units), compute)


@main.command("mode")
@_common_options
@click.option("--tol", default=1e-8, type=float,
              help="relative tolerance of the closed-form normalization vs the box integral")
def mode_cmd(config_path, out_dir, units, tol):
    """Emit z-sampled analytic mode profiles plus a JSON sidecar."""

    def compute(geom, ref, idx, z_num):
        mode = md.normalize(md.make_mode(geom, idx), geom, rtol=tol)
        zs = np.linspace(-geom.lz / 2, geom.lz / 2, z_num)
        fields = {
            "theta": mode.theta.profile.evaluate(zs),
            "alpha": mode.hopfield.alpha.evaluate(zs),
            "beta": mode.hopfield.beta.evaluate(zs),
            "gamma": mode.hopfield.gamma.evaluate(zs),
            "eta": mode.hopfield.eta.evaluate(zs),
        }
        sidecar = {
            "omega": mode.omega * ref,
            "N": mode.norm,
            "class": idx.mode_class.value,
            "k_par": [k * ref for k in idx.k_par],
            "k_z": None if idx.k_z is None else idx.k_z * ref,
        }
        return ({"mode_profile.csv": _profile_table(zs, fields), "mode_profile.json": sidecar},
                [f"wrote {Path(out_dir) / 'mode_profile.csv'} and sidecar"])

    _run(out_dir, lambda: parse_mode(config_path, units), compute)


@main.command("solve")
@_common_options
@click.option("--tol", default=1e-10, type=float, help="degenerate-norm detection tolerance")
def solve_cmd(config_path, out_dir, units, tol):
    """Solve the discretized eigensystem; emit eigenfrequencies and profiles."""
    from . import realspace as rs

    def compute(geom, ref, n, k_par, pol, window, n_profiles, strict):
        grid = rs.Grid1D(n, geom.lz)
        op = rs.assemble_operator(geom, grid, k_par, pol, strict_resolution=strict)
        sol = rs.solve_spectrum(op, window=window, norm_tol=tol)
        omegas = [(i, float(w) * ref) for i, w in enumerate(sol.omegas)]
        artifacts = {"eigenfrequencies.csv": (["index", "omega"], omegas)}
        shown = min(n_profiles, sol.omegas.size)
        for i in range(shown):
            fields = rs.reconstruct_node_fields(op, sol.vectors[:, i], float(sol.omegas[i]))
            artifacts[f"mode_{i:04d}.csv"] = _profile_table(grid.nodes, fields)
        return artifacts, [f"wrote {sol.omegas.size} eigenfrequencies"
                           + (f" and {shown} profiles" if n_profiles else "")]

    _run(out_dir, lambda: parse_solve(config_path, units), compute)


@main.command("scatter")
@_common_options
@click.option("--tol", default=1e-9, type=float, help="in-plane momentum selection tolerance")
def scatter_cmd(config_path, out_dir, units, tol):
    """Evaluate scattering coefficients for configured mode tuples."""

    def compute(geom, ref, phi, tuples):
        lines = []
        if phi.symmetrization_defect > 0:
            lines.append(f"symmetrized phi (defect {phi.symmetrization_defect:.3e})")
        rows = []
        for specs in tuples:
            labels, modes = [], []
            for idx, conj in specs:
                mode = md.normalize(md.make_mode(geom, idx), geom)
                modes.append(md.conjugate_mode(mode) if conj else mode)
                kz = "" if idx.k_z is None else f":{idx.k_z * ref:g}"
                labels.append(f"{'~' if conj else ''}{idx.mode_class.value}"
                              f"@{idx.k_par[0] * ref:g}/{idx.k_par[1] * ref:g}{kz}")
            res = nl.scattering_coefficient(modes, phi, geom, momentum_tol=tol)
            rows.append((";".join(labels), float(res.value.real), float(res.value.imag),
                         int(res.momentum_ok)))
        path = Path(out_dir) / "scattering.csv"
        return ({path.name: (["modes", "Re_Xi", "Im_Xi", "momentum_ok"], rows)},
                lines + [f"wrote {path} ({len(rows)} rows)"])

    _run(out_dir, lambda: parse_scatter(config_path, units), compute)


@main.command("lossy")
@_common_options
def lossy_cmd(config_path, out_dir, units):
    """Tabulate the bath-dressed dielectric function; optionally a driven field."""

    def compute(geom, ref, medium, bath, sweep, driven):
        rows = []
        for w in np.linspace(*sweep):
            e = diss.lossy_epsilon(medium, bath, float(w))
            rows.append((float(w) * ref, float(e.real), float(e.imag)))
        out = Path(out_dir)
        artifacts = {"lossy_epsilon.csv": (["omega", "Re_eps", "Im_eps"], rows)}
        lines = [f"wrote {out / 'lossy_epsilon.csv'} ({len(rows)} rows)"]
        if driven is not None:
            w_d, k_d, sheets, z_num = driven
            zs = np.linspace(-geom.lz / 2, geom.lz / 2, z_num)
            th = diss.driven_field(geom, bath, w_d, sheets, k_par=k_d).evaluate(zs)
            field = [(float(z), float(t.real), float(t.imag)) for z, t in zip(zs, th)]
            artifacts["driven_field.csv"] = (["z", "Re_theta", "Im_theta"], field)
            lines.append(f"wrote {out / 'driven_field.csv'}")
        return artifacts, lines

    _run(out_dir, lambda: parse_lossy(config_path, units), compute)


def _positive_finite(ctx, param, value):
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"{value!r} is not a finite number > 0")
    return value


@main.command("verify")
@click.option("--tol", "tol_scale", default=1.0, type=float, callback=_positive_finite,
              help="multiplier applied to every gate tolerance")
def verify_cmd(tol_scale):
    """Run the full invariant suite and print a pass/fail table."""
    from .verify import run_all

    results = run_all(tol_scale)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        failures += not r.passed
        click.echo(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.describe()}")
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    sys.exit(0 if failures == 0 else 1)


if __name__ == "__main__":
    main()
