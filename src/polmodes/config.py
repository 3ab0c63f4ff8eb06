"""Run-configuration parsing with JSON-pointer error reporting.

Frequencies in configs are internal units by default. With units='cm-1' every
frequency-like entry (omega_TO, omega_LO, sweep bounds, bath frequencies,
drive frequencies) is divided by the reference omega_TO of the first matter
layer; lengths are always in units of c/omega_ref. Output frequencies are
converted back by the same reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from .dissipative import BathModel, flat_bath, null_bath, ohmic_bath
from .errors import ConfigError
from .media import Layer, LayeredGeometry, MediumParams, from_phonon_frequencies


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
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
    val = _get(cfg, key, pointer)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{key}' must be a number", f"{pointer}/{key}")
    return float(val)


@dataclass(frozen=True)
class UnitSystem:
    """Frequency conversion between internal units and cm^-1."""

    mode: str  # 'internal' or 'cm-1'
    omega_ref_cm1: float = 1.0

    def to_internal(self, value: float) -> float:
        return value / self.omega_ref_cm1 if self.mode == "cm-1" else value

    def from_internal(self, value: float) -> float:
        return value * self.omega_ref_cm1 if self.mode == "cm-1" else value


def parse_geometry(cfg: dict, units_mode: str = "internal", pointer: str = "") -> tuple[LayeredGeometry, UnitSystem]:
    layers_cfg = _get(cfg, "layers", pointer, list)
    box = _get(cfg, "box", pointer, dict)
    lz = _number(box, "Lz", f"{pointer}/box")
    area = _number(box, "A", f"{pointer}/box")
    if lz <= 0 or area <= 0:
        raise ConfigError("box dimensions must be positive", f"{pointer}/box")

    ref = 1.0
    if units_mode == "cm-1":
        for i, lc in enumerate(layers_cfg):
            med = lc.get("medium") if isinstance(lc, dict) else None
            if med is not None:
                ref = _number(med, "omega_TO", f"{pointer}/layers/{i}/medium")
                break
        else:
            raise ConfigError("cm-1 units need at least one matter layer", f"{pointer}/layers")
    units = UnitSystem(units_mode, ref)

    layers = []
    for i, lc in enumerate(layers_cfg):
        lp = f"{pointer}/layers/{i}"
        z_min = _number(lc, "z_min", lp)
        z_max = _number(lc, "z_max", lp)
        med_cfg: Optional[dict] = _get(lc, "medium", lp)
        if med_cfg is None:
            medium = None
        else:
            to = units.to_internal(_number(med_cfg, "omega_TO", f"{lp}/medium"))
            lo = units.to_internal(_number(med_cfg, "omega_LO", f"{lp}/medium"))
            rho = _number(med_cfg, "rho", f"{lp}/medium")
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
        raise ConfigError(str(exc), f"{pointer}/layers") from exc
    return geom, units


def first_medium(geom: LayeredGeometry, pointer: str = "") -> MediumParams:
    for lay in geom.layers:
        if lay.medium is not None:
            return lay.medium
    raise ConfigError("configuration has no matter layer", f"{pointer}/layers")


def sole_medium(geom: LayeredGeometry, pointer: str = "") -> MediumParams:
    """The one matter medium of the stack. A bath binds one medium, so a stack
    with more than one distinct medium is a config error."""
    medium = first_medium(geom, pointer)
    if any(lay.medium not in (None, medium) for lay in geom.layers):
        raise ConfigError("a bath binds one medium; the layers hold more than one", f"{pointer}/layers")
    return medium


def parse_bath(cfg: dict, medium: MediumParams, units: UnitSystem, pointer: str = "") -> BathModel:
    kind = _get(cfg, "type", pointer, str)
    if kind == "none":
        return null_bath(medium)
    if kind == "flat":
        ups = _number(cfg, "upsilon", pointer)
        zmin = units.to_internal(_number(cfg, "zeta_min", pointer))
        zmax = units.to_internal(_number(cfg, "zeta_max", pointer))
        if not 0 <= zmin < zmax:
            raise ConfigError("need 0 <= zeta_min < zeta_max", pointer)
        return flat_bath(medium, ups, zmin, zmax)
    if kind == "ohmic":
        amp = _number(cfg, "amplitude", pointer)
        cut = units.to_internal(_number(cfg, "cutoff", pointer))
        if cut <= 0:
            raise ConfigError("cutoff must be positive", f"{pointer}/cutoff")
        return ohmic_bath(medium, amp, cut)
    raise ConfigError(f"unknown bath type '{kind}'", f"{pointer}/type")


def parse_sweep(cfg: dict, units: UnitSystem, pointer: str = "") -> tuple[float, float, int]:
    k_min = _number(cfg, "k_min", pointer)
    k_max = _number(cfg, "k_max", pointer)
    num = _get(cfg, "num", pointer, int)
    if not (k_max > k_min >= 0):
        raise ConfigError("sweep bounds must satisfy 0 <= k_min < k_max", pointer)
    if num < 2:
        raise ConfigError("sweep needs num >= 2", f"{pointer}/num")
    return units.to_internal(k_min), units.to_internal(k_max), num
