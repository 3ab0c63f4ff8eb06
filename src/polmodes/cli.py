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
from .config import (
    UnitSystem,
    first_medium,
    load_json,
    parse_bath,
    parse_geometry,
    parse_sweep,
    sole_medium,
    _get,
    _number,
    _optional,
)
from .errors import ConfigError, InvalidGrid, PolmodesError, UnsupportedGeometry


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fail(exc: Exception, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


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
    try:
        cfg = load_json(config_path)
        geom, us = parse_geometry(_get(cfg, "material", "", dict), units, "/material")
        medium = first_medium(geom, "/material")
        k_min, k_max, num = parse_sweep(_get(cfg, "sweep", "", dict), us, "/sweep")
    except ConfigError as exc:
        _fail(exc, 2)
    try:
        rows = []
        ks = np.linspace(k_min, k_max, num)
        for k in ks:
            rows.append(("TEv", us.from_internal(float(k)), 0.0, us.from_internal(media.C * float(k))))
        ol, ou = disp.bulk_branches(medium, ks)
        for k, o in zip(ks, ol):
            rows.append(("TEl", us.from_internal(float(k)), 0.0, us.from_internal(float(o))))
        for k, o in zip(ks, ou):
            rows.append(("TEu", us.from_internal(float(k)), 0.0, us.from_internal(float(o))))
        for k in ks:
            if media.C * k < medium.omega_T:
                continue
            o = disp.surface_dispersion_omega(medium, float(k))
            rows.append(("S", us.from_internal(float(k)), 0.0, us.from_internal(o)))
    except PolmodesError as exc:
        _fail(exc, 3)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "dispersion.csv", ["class", "k_par", "k_z", "omega"], rows)
    click.echo(f"wrote {out / 'dispersion.csv'} ({len(rows)} rows)")


def _parse_mode_spec(spec: dict, pointer: str) -> disp.ModeIndex:
    cls_name = _get(spec, "class", pointer, str)
    try:
        cls = disp.ModeClass(cls_name)
    except ValueError:
        raise ConfigError(f"unknown mode class '{cls_name}'", f"{pointer}/class")
    k_par = _get(spec, "k_par", pointer, list)
    if len(k_par) != 2:
        raise ConfigError("k_par must be a 2-vector", f"{pointer}/k_par")
    k_par = (_number(k_par, 0, f"{pointer}/k_par"), _number(k_par, 1, f"{pointer}/k_par"))
    k_z = None if spec.get("k_z") is None else _number(spec, "k_z", pointer)
    try:
        return disp.ModeIndex(cls, k_par, k_z)
    except ValueError as exc:
        raise ConfigError(str(exc), pointer)


def _write_profile_csv(path: Path, zs, fields):
    """One row per z: z, then the real and imaginary parts of each field's x, y, z components."""
    header = ["z"] + [f"{name}_{c}_{part}" for name in fields for c in "xyz" for part in ("re", "im")]
    rows = []
    for i, z in enumerate(zs):
        row = [float(z)]
        for values in fields.values():
            for c in range(3):
                row += [float(values[i, c].real), float(values[i, c].imag)]
        rows.append(row)
    _write_csv(path, header, rows)


@main.command("mode")
@_common_options
@click.option("--tol", default=1e-8, type=float,
              help="normalization closed-form vs quadrature tolerance")
def mode_cmd(config_path, out_dir, units, tol):
    """Emit z-sampled analytic mode profiles plus a JSON sidecar."""
    try:
        cfg = load_json(config_path)
        geom, us = parse_geometry(_get(cfg, "material", "", dict), units, "/material")
        if any(lay.medium is not None for lay in geom.layers):
            sole_medium(geom, "/material")  # analytic modes hold one medium species
        idx = _parse_mode_spec(_get(cfg, "mode", "", dict), "/mode")
        z_num = _optional(_optional(cfg, "samples", "", dict, {}), "z_num", "/samples", int, 401)
        if z_num < 1:
            raise ConfigError("z_num must be positive", "/samples/z_num")
    except ConfigError as exc:
        _fail(exc, 2)
    try:
        mode = md.normalize(md.make_mode(geom, idx), geom, rtol=tol)
        zs = np.linspace(-geom.lz / 2, geom.lz / 2, z_num)
        fields = {
            "theta": mode.theta.profile.evaluate(zs),
            "alpha": mode.hopfield.alpha.evaluate(zs),
            "beta": mode.hopfield.beta.evaluate(zs),
            "gamma": mode.hopfield.gamma.evaluate(zs),
            "eta": mode.hopfield.eta.evaluate(zs),
        }
    except UnsupportedGeometry as exc:
        _fail(ConfigError(str(exc), "/material/layers"), 2)
    except PolmodesError as exc:
        _fail(exc, 3)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_profile_csv(out / "mode_profile.csv", zs, fields)
    _write_json(out / "mode_profile.json", {
        "omega": us.from_internal(mode.omega),
        "N": mode.norm,
        "class": idx.mode_class.value,
        "k_par": list(idx.k_par),
        "k_z": idx.k_z,
    })
    click.echo(f"wrote {out / 'mode_profile.csv'} and sidecar")


@main.command("solve")
@_common_options
@click.option("--tol", default=1e-10, type=float, help="degenerate-norm detection tolerance")
def solve_cmd(config_path, out_dir, units, tol):
    """Solve the discretized eigensystem; emit eigenfrequencies and profiles."""
    from . import realspace as rs

    try:
        cfg = load_json(config_path)
        geom, us = parse_geometry(_get(cfg, "material", "", dict), units, "/material")
        n = _get(_get(cfg, "grid", "", dict), "n", "/grid", int)
        k_par = _number(cfg, "k_par", "")
        pol = _get(cfg, "polarization", "", str)
        if pol not in ("TE", "TM"):
            raise ConfigError("polarization must be 'TE' or 'TM'", "/polarization")
        window = _optional(cfg, "window", "", list, None)
        if window is not None:
            window = [_number(window, i, "/window") for i in range(len(window))]
            if len(window) != 2 or window[0] >= window[1]:
                raise ConfigError("window must be [lo, hi] with lo < hi", "/window")
        n_profiles = _optional(cfg, "profiles", "", int, 0)
        if n_profiles < 0:
            raise ConfigError("profiles must be non-negative", "/profiles")
    except ConfigError as exc:
        _fail(exc, 2)
    try:
        grid = rs.Grid1D(n, geom.lz)
        op = rs.assemble_operator(geom, grid, us.to_internal(k_par), pol,
                                  strict_resolution=bool(cfg.get("strict_resolution", True)))
        win = None if window is None else (us.to_internal(window[0]), us.to_internal(window[1]))
        sol = rs.solve_spectrum(op, window=win, norm_tol=tol)
    except InvalidGrid as exc:
        _fail(ConfigError(str(exc), "/grid/n"), 2)
    except PolmodesError as exc:
        _fail(exc, 3)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "eigenfrequencies.csv", ["index", "omega"],
               [(i, us.from_internal(float(w))) for i, w in enumerate(sol.omegas)])
    for i in range(min(n_profiles, sol.omegas.size)):
        fields = rs.reconstruct_node_fields(op, sol.vectors[:, i], float(sol.omegas[i]))
        _write_profile_csv(out / f"mode_{i:04d}.csv", grid.nodes, fields)
    click.echo(f"wrote {sol.omegas.size} eigenfrequencies"
               + (f" and {min(n_profiles, sol.omegas.size)} profiles" if n_profiles else ""))


@main.command("scatter")
@_common_options
@click.option("--tol", default=1e-9, type=float, help="in-plane momentum selection tolerance")
def scatter_cmd(config_path, out_dir, units, tol):
    """Evaluate scattering coefficients for configured mode tuples."""
    try:
        cfg = load_json(config_path)
        geom, us = parse_geometry(_get(cfg, "material", "", dict), units, "/material")
        if any(lay.medium is not None for lay in geom.layers):
            sole_medium(geom, "/material")  # analytic modes hold one medium species
        if "phi_path" in cfg:
            phi_cfg = load_json(cfg["phi_path"])
        else:
            phi_cfg = _get(cfg, "phi", "", dict)
        order = _get(phi_cfg, "order", "/phi", int)
        try:
            comps = np.asarray(_get(phi_cfg, "components", "/phi", list), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError("phi components must be a regular array of numbers",
                              "/phi/components") from exc
        if comps.shape != (3,) * order:
            raise ConfigError(f"phi components must have shape {(3,) * order}", "/phi/components")
        phi = nl.NonlinearTensor.from_array(comps)
        tuples_cfg = _get(cfg, "tuples", "", list)
        tuples = []
        for i, tup in enumerate(tuples_cfg):
            if not isinstance(tup, list) or len(tup) != order:
                raise ConfigError(f"tuple must list {order} modes", f"/tuples/{i}")
            specs = []
            for j, spec in enumerate(tup):
                idx = _parse_mode_spec(spec, f"/tuples/{i}/{j}")
                specs.append((idx, bool(spec.get("conjugate", False))))
            tuples.append(specs)
    except ConfigError as exc:
        _fail(exc, 2)
    try:
        rows = []
        if phi.symmetrization_defect > 0:
            click.echo(f"symmetrized phi (defect {phi.symmetrization_defect:.3e})")
        for specs in tuples:
            label_parts = []
            mode_objs = []
            for idx, conj in specs:
                mode = md.normalize(md.make_mode(geom, idx), geom)
                if conj:
                    mode = md.conjugate_mode(mode)
                mode_objs.append(mode)
                kz = "" if idx.k_z is None else f":{idx.k_z:g}"
                label_parts.append(f"{'~' if conj else ''}{idx.mode_class.value}@{idx.k_par[0]:g}/{idx.k_par[1]:g}{kz}")
            res = nl.scattering_coefficient(mode_objs, phi, geom, momentum_tol=tol)
            rows.append((";".join(label_parts), float(res.value.real), float(res.value.imag),
                         int(res.momentum_ok)))
    except UnsupportedGeometry as exc:
        _fail(ConfigError(str(exc), "/material/layers"), 2)
    except PolmodesError as exc:
        _fail(exc, 3)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "scattering.csv", ["modes", "Re_Xi", "Im_Xi", "momentum_ok"], rows)
    click.echo(f"wrote {out / 'scattering.csv'} ({len(rows)} rows)")


@main.command("lossy")
@_common_options
def lossy_cmd(config_path, out_dir, units):
    """Tabulate the bath-dressed dielectric function; optionally a driven field."""
    try:
        cfg = load_json(config_path)
        geom, us = parse_geometry(_get(cfg, "material", "", dict), units, "/material")
        medium = sole_medium(geom, "/material")
        bath = parse_bath(_get(cfg, "bath", "", dict), medium, us, "/bath")
        om_cfg = _get(cfg, "omega", "", dict)
        w_min = us.to_internal(_number(om_cfg, "min", "/omega"))
        w_max = us.to_internal(_number(om_cfg, "max", "/omega"))
        num = _get(om_cfg, "num", "/omega", int)
        if not (0 < w_min < w_max) or num < 2:
            raise ConfigError("omega sweep needs 0 < min < max and num >= 2", "/omega")
        driven_cfg = _optional(cfg, "driven", "", (dict, type(None)), None)
        if driven_cfg is not None:
            w_d = us.to_internal(_number(driven_cfg, "omega", "/driven"))
            k_d = 0.0
            if "k_par" in driven_cfg:
                k_d = us.to_internal(_number(driven_cfg, "k_par", "/driven"))
            sheets = []
            for i, row in enumerate(_get(driven_cfg, "sheets", "/driven", list)):
                rp = f"/driven/sheets/{i}"
                if not isinstance(row, list) or len(row) not in (2, 3):
                    raise ConfigError("sheet rows are [z, Re J] or [z, Re J, Im J]", rp)
                im = _number(row, 2, rp) if len(row) > 2 else 0.0
                sheets.append((_number(row, 0, rp), complex(_number(row, 1, rp), im)))
            z_num = _optional(driven_cfg, "z_num", "/driven", int, 801)
            if z_num < 1:
                raise ConfigError("z_num must be positive", "/driven/z_num")
    except ConfigError as exc:
        _fail(exc, 2)
    try:
        rows = []
        for w in np.linspace(w_min, w_max, num):
            e = diss.lossy_epsilon(medium, bath, float(w))
            rows.append((us.from_internal(float(w)), float(e.real), float(e.imag)))
        if driven_cfg is not None:
            zs = np.linspace(-geom.lz / 2, geom.lz / 2, z_num)
            th = diss.driven_field(geom, bath, w_d, sheets, k_par=k_d).evaluate(zs)
    except PolmodesError as exc:
        _fail(exc, 3)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "lossy_epsilon.csv", ["omega", "Re_eps", "Im_eps"], rows)
    click.echo(f"wrote {out / 'lossy_epsilon.csv'} ({len(rows)} rows)")
    if driven_cfg is not None:
        _write_csv(out / "driven_field.csv", ["z", "Re_theta", "Im_theta"],
                   [(float(z), float(t.real), float(t.imag)) for z, t in zip(zs, th)])
        click.echo(f"wrote {out / 'driven_field.csv'}")


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
