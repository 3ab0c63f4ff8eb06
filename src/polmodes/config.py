"""Run-configuration schema: one parser per CLI command, with JSON-pointer error reporting.

Each `parse_<command>(path, units_mode)` reads the config file and returns a plain
tuple of values already converted to internal units, or raises ConfigError at the
pointer of the first offending entry. Each tuple's `ref` is the output unit of
frequency in internal units: an output frequency is the internal one times ref.
Every count (sweep and sample numbers, grid cells, profiles) is an integer of at
most MAX_COUNT; JSON `true` is not a count.

Frequencies in configs are internal units by default. With units='cm-1' every
frequency-like entry (omega_TO, omega_LO, sweep bounds, bath frequencies,
drive frequencies) is divided by the reference omega_TO of the first matter
layer; lengths are always in units of c/omega_ref. Output frequencies are
converted back by the same reference.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from . import dispersion as disp
from .dissipative import flat_bath, null_bath, ohmic_bath
from .errors import ConfigError
from .media import Layer, LayeredGeometry, from_phonon_frequencies
from .nonlinear import NonlinearTensor

MAX_COUNT = 10**6


def load_json(path: str, pointer: str = "") -> dict:
    """The JSON document at path; pointer locates the path's own entry when it came
    from a config."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}", pointer) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc.msg}", f"/line/{exc.lineno}") from exc


def _get(cfg: Any, key, pointer: str, expect=None):
    """cfg[key] for a dict key or a list index; pointer locates cfg itself."""
    if isinstance(cfg, list):
        present = isinstance(key, int) and 0 <= key < len(cfg)
    else:
        present = isinstance(cfg, dict) and key in cfg
    if not present:
        raise ConfigError(f"missing required key '{key}'", pointer)
    val = cfg[key]
    if expect is not None and not isinstance(val, expect):
        raise ConfigError(f"'{key}' has wrong type {type(val).__name__}", f"{pointer}/{key}")
    return val


def _optional(cfg: dict, key: str, pointer: str, expect, default):
    """Like _get, but an absent key gives default."""
    return _get(cfg, key, pointer, expect) if key in cfg else default


def _number(cfg, key, pointer: str) -> float:
    """cfg[key] as a finite float (JSON's Infinity and NaN, and ints beyond float, are errors)."""
    val = _get(cfg, key, pointer)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{key}' must be a number", f"{pointer}/{key}")
    try:
        val = float(val)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"'{key}' must be finite", f"{pointer}/{key}")
    return val


def _freq(cfg, key, pointer: str, ref: float) -> float:
    """_number converted to internal units, where it must stay finite."""
    val = _number(cfg, key, pointer) / ref
    if not math.isfinite(val):
        raise ConfigError(f"'{key}' is out of range in internal units", f"{pointer}/{key}")
    return val


def _count(cfg, key: str, pointer: str, least: int, default=None) -> int:
    """cfg[key] as an int in [least, MAX_COUNT]; an absent key gives default, unless it is None."""
    if default is not None and key not in cfg:
        return default
    val = _get(cfg, key, pointer)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"'{key}' must be an integer", f"{pointer}/{key}")
    if not least <= val <= MAX_COUNT:
        raise ConfigError(f"'{key}' must lie in [{least}, {MAX_COUNT}]", f"{pointer}/{key}")
    return val


def _load(path: str, units_mode: str) -> tuple[dict, LayeredGeometry, float]:
    """The config at path, its stack at /material, and ref: 1, or in cm-1 units the
    first matter layer's omega_TO."""
    cfg = load_json(path)
    mat = _get(cfg, "material", "", dict)
    layers_cfg = _get(mat, "layers", "/material", list)
    box = _get(mat, "box", "/material", dict)
    lz = _number(box, "Lz", "/material/box")
    area = _number(box, "A", "/material/box")
    if lz <= 0 or area <= 0:
        raise ConfigError("box dimensions must be positive", "/material/box")

    ref = 1.0
    if units_mode == "cm-1":
        for i, lc in enumerate(layers_cfg):
            med = lc.get("medium") if isinstance(lc, dict) else None
            if med is not None:
                ref = _number(med, "omega_TO", f"/material/layers/{i}/medium")
                if ref <= 0:
                    raise ConfigError("omega_TO must be positive",
                                      f"/material/layers/{i}/medium/omega_TO")
                break
        else:
            raise ConfigError("cm-1 units need at least one matter layer", "/material/layers")

    layers = []
    for i, lc in enumerate(layers_cfg):
        lp = f"/material/layers/{i}"
        z_min = _number(lc, "z_min", lp)
        z_max = _number(lc, "z_max", lp)
        med_cfg = _get(lc, "medium", lp)
        medium = None
        if med_cfg is not None:
            to = _freq(med_cfg, "omega_TO", f"{lp}/medium", ref)
            lo = _freq(med_cfg, "omega_LO", f"{lp}/medium", ref)
            rho = _number(med_cfg, "rho", f"{lp}/medium")
            if to <= 0:
                raise ConfigError("omega_TO must be positive", f"{lp}/medium/omega_TO")
            if lo < to:
                raise ConfigError("omega_LO must be >= omega_TO", f"{lp}/medium/omega_LO")
            if rho <= 0:
                raise ConfigError("rho must be positive", f"{lp}/medium/rho")
            medium = from_phonon_frequencies(to, lo, rho)
        try:
            layers.append(Layer(z_min, z_max, medium))
        except ValueError as exc:
            raise ConfigError(str(exc), lp) from exc
    try:
        geom = LayeredGeometry(tuple(layers), area)
    except ValueError as exc:
        raise ConfigError(str(exc), "/material/layers") from exc
    if abs(lz - geom.lz) > 1e-12 * geom.lz:
        raise ConfigError(f"Lz must equal the layers' extent {geom.lz!r}", "/material/box/Lz")
    return cfg, geom, ref


def _first_medium(geom: LayeredGeometry):
    """The first matter medium of the stack."""
    for lay in geom.layers:
        if lay.medium is not None:
            return lay.medium
    raise ConfigError("configuration has no matter layer", "/material/layers")


def _mode_spec(spec: dict, pointer: str) -> disp.ModeIndex:
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


def parse_dispersion(path, units_mode: str):
    """(ref, medium, k_min, k_max, num) of the /sweep over the first matter medium."""
    cfg, geom, ref = _load(path, units_mode)
    medium = _first_medium(geom)
    sweep = _get(cfg, "sweep", "", dict)
    k_min = _freq(sweep, "k_min", "/sweep", ref)
    k_max = _freq(sweep, "k_max", "/sweep", ref)
    num = _count(sweep, "num", "/sweep", 2)
    if not (k_max > k_min >= 0):
        raise ConfigError("sweep bounds must satisfy 0 <= k_min < k_max", "/sweep")
    return ref, medium, k_min, k_max, num


def parse_mode(path, units_mode: str):
    """(geometry, ref, mode index, z samples) of the analytic /mode."""
    cfg, geom, ref = _load(path, units_mode)
    idx = _mode_spec(_get(cfg, "mode", "", dict), "/mode")
    z_num = _count(_optional(cfg, "samples", "", dict, {}), "z_num", "/samples", 1, 401)
    return geom, ref, idx, z_num


def parse_solve(path, units_mode: str):
    """(geometry, ref, grid cells, k_par, polarization, window or None, profiles,
    strict resolution) of the discrete solve."""
    cfg, geom, ref = _load(path, units_mode)
    n = _count(_get(cfg, "grid", "", dict), "n", "/grid", 1)
    k_par = _freq(cfg, "k_par", "", ref)
    pol = _get(cfg, "polarization", "", str)
    if pol not in ("TE", "TM"):
        raise ConfigError("polarization must be 'TE' or 'TM'", "/polarization")
    window = _optional(cfg, "window", "", list, None)
    if window is not None:
        window = tuple(_freq(window, i, "/window", ref) for i in range(len(window)))
        if len(window) != 2 or window[0] >= window[1]:
            raise ConfigError("window must be [lo, hi] with lo < hi", "/window")
    n_profiles = _count(cfg, "profiles", "", 0, 0)
    strict = _optional(cfg, "strict_resolution", "", bool, True)
    return geom, ref, n, k_par, pol, window, n_profiles, strict


def parse_scatter(path, units_mode: str):
    """(geometry, symmetrized phi, tuples of (mode index, conjugate) pairs). phi comes
    from /phi, or from the file named by /phi_path."""
    cfg, geom, _ = _load(path, units_mode)
    if "phi_path" in cfg:
        phi_cfg = load_json(_get(cfg, "phi_path", "", str), "/phi_path")
    else:
        phi_cfg = _get(cfg, "phi", "", dict)
    irregular = ConfigError("phi components must be a regular array of finite numbers",
                            "/phi/components")
    try:
        comps = np.asarray(_get(phi_cfg, "components", "/phi", list))
    except ValueError as exc:  # a ragged array
        raise irregular from exc
    if comps.dtype.kind not in "iuf" or not np.isfinite(comps).all():
        raise irregular
    order = _count(phi_cfg, "order", "/phi", 3)
    if comps.ndim != order or comps.shape != (3,) * order:
        raise ConfigError(f"phi components must have {order} axes of length 3", "/phi/components")
    phi = NonlinearTensor.from_array(comps)
    tuples = []
    for i, tup in enumerate(_get(cfg, "tuples", "", list)):
        if not isinstance(tup, list) or len(tup) != order:
            raise ConfigError(f"tuple must list {order} modes", f"/tuples/{i}")
        tuples.append([(_mode_spec(spec, f"/tuples/{i}/{j}"),
                        _optional(spec, "conjugate", f"/tuples/{i}/{j}", bool, False))
                       for j, spec in enumerate(tup)])
    return geom, phi, tuples


def _bath(cfg: dict, medium, ref: float):
    kind = _get(cfg, "type", "/bath", str)
    if kind == "none":
        return null_bath(medium)
    if kind == "flat":
        ups = _number(cfg, "upsilon", "/bath")
        zmin = _freq(cfg, "zeta_min", "/bath", ref)
        zmax = _freq(cfg, "zeta_max", "/bath", ref)
        if ups < 0:
            raise ConfigError("upsilon must be non-negative", "/bath/upsilon")
        if not 0 <= zmin < zmax:
            raise ConfigError("need 0 <= zeta_min < zeta_max", "/bath")
        return flat_bath(medium, ups, zmin, zmax)
    if kind == "ohmic":
        amp = _number(cfg, "amplitude", "/bath")
        cut = _freq(cfg, "cutoff", "/bath", ref)
        if amp < 0:
            raise ConfigError("amplitude must be non-negative", "/bath/amplitude")
        if cut <= 0:
            raise ConfigError("cutoff must be positive", "/bath/cutoff")
        return ohmic_bath(medium, amp, cut)
    raise ConfigError(f"unknown bath type '{kind}'", "/bath/type")


def parse_lossy(path, units_mode: str):
    """(geometry, ref, medium, bath, (omega_min, omega_max, num), drive), the drive
    (omega, k_par, [(z, J)], z samples) or None. A bath binds one medium, so the
    stack may hold only one distinct medium."""
    cfg, geom, ref = _load(path, units_mode)
    medium = _first_medium(geom)
    if any(lay.medium not in (None, medium) for lay in geom.layers):
        raise ConfigError("the layers hold more than one distinct medium; only one is supported",
                          "/material/layers")
    bath = _bath(_get(cfg, "bath", "", dict), medium, ref)
    om_cfg = _get(cfg, "omega", "", dict)
    w_min = _freq(om_cfg, "min", "/omega", ref)
    w_max = _freq(om_cfg, "max", "/omega", ref)
    num = _count(om_cfg, "num", "/omega", 2)
    if not 0 < w_min < w_max:
        raise ConfigError("omega sweep needs 0 < min < max", "/omega")
    driven = _optional(cfg, "driven", "", (dict, type(None)), None)
    if driven is not None:
        w_d = _freq(driven, "omega", "/driven", ref)
        k_d = _freq(driven, "k_par", "/driven", ref) if "k_par" in driven else 0.0
        sheets = []
        for i, row in enumerate(_get(driven, "sheets", "/driven", list)):
            rp = f"/driven/sheets/{i}"
            if not isinstance(row, list) or len(row) not in (2, 3):
                raise ConfigError("sheet rows are [z, Re J] or [z, Re J, Im J]", rp)
            im = _number(row, 2, rp) if len(row) > 2 else 0.0
            sheets.append((_number(row, 0, rp), complex(_number(row, 1, rp), im)))
        driven = (w_d, k_d, sheets, _count(driven, "z_num", "/driven", 1, 801))
    return geom, ref, medium, bath, (w_min, w_max, num), driven
