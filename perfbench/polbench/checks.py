"""Correctness checks on the program's outputs.

Each check takes plain arrays, numbers or file text, compares them with a
closed form from `reference` or with a property the method must have, and
raises CheckFailed with the measured figure when it does not hold. On
success it returns the measured figure, which the smoke run and the README
report.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import scipy.sparse as sp

from . import reference as ref

# Tier-1 invariant gates of the dense solver
PAIRING_TOL = 1e-10
KREIN_TOL = 1e-8
COMPLETENESS_TOL = 1e-6
RESIDUAL_TOL = 1e-10
SELF_ADJOINT_TOL = 1e-12
# exact discrete spectra of homogeneous boxes (met to ~1e-14)
BOX_SPECTRUM_TOL = 1e-12

# surface eigenvalue: relative error <= SURFACE_H2 * h^2 where the box holds
# the vacuum tail (kappa_v * Lz / 2 >= UNTRUNCATED); measured worst 0.035 h^2
SURFACE_H2 = 0.05
UNTRUNCATED = 8.0
RATIO_RANGE = (3.6, 4.4)

CLOSED_FORM_TOL = 1e-12
PROFILE_NORM_TOL = 1e-8
SYMMETRY_TOL = 1e-12
BATH_TOL = 1e-8
DECAY_TOL = 1e-8


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# dense Krein spectra


def box_spectrum(omegas: np.ndarray, expected: np.ndarray, label: str) -> float:
    pos = np.sort(omegas[omegas > 0])
    _require(pos.size == expected.size,
             f"{label}: {pos.size} positive eigenvalues, expected {expected.size}")
    err = float(np.max(np.abs(pos - expected) / expected))
    _require(err <= BOX_SPECTRUM_TOL, f"{label}: spectrum off by {err:.3e} (tol {BOX_SPECTRUM_TOL:g})")
    return err


def pm_pairing(omegas: np.ndarray) -> float:
    err = float(np.max(np.abs(np.sort(-omegas) - np.sort(omegas))))
    _require(err <= PAIRING_TOL, f"+/- pairing defect {err:.3e} (tol {PAIRING_TOL:g})")
    return err


def krein_orthonormality(vectors: np.ndarray, krein: np.ndarray, omegas: np.ndarray) -> float:
    """<<v_m|v_n>> = sgn(omega_n) delta_mn over every returned pair."""
    gram = vectors.conj().T @ (sp.csr_matrix(krein) @ vectors)
    err = float(np.max(np.abs(gram - np.diag(np.sign(omegas)))))
    _require(err <= KREIN_TOL, f"Krein orthonormality defect {err:.3e} (tol {KREIN_TOL:g})")
    return err


def completeness(max_deviation: float) -> float:
    _require(max_deviation <= COMPLETENESS_TOL,
             f"signed completeness defect {max_deviation:.3e} (tol {COMPLETENESS_TOL:g})")
    return max_deviation


def residual(b0: np.ndarray, vectors: np.ndarray, omegas: np.ndarray) -> float:
    res = np.linalg.norm(b0 @ vectors - vectors * omegas[None, :], axis=0)
    err = float(np.max(res / np.linalg.norm(vectors, axis=0)))
    _require(err <= RESIDUAL_TOL, f"eigen-residual {err:.3e} (tol {RESIDUAL_TOL:g})")
    return err


def self_adjointness(defect: float, scale: float) -> float:
    err = defect / scale
    _require(err <= SELF_ADJOINT_TOL, f"Krein self-adjointness defect {err:.3e} (tol {SELF_ADJOINT_TOL:g})")
    return err


def node_fields(fields: dict, n: int, polarization: str) -> float:
    """Node fields are finite and tangential alpha vanishes on the PEC walls."""
    for name, arr in fields.items():
        _require(arr.shape == (n + 1, 3), f"node field {name} has shape {arr.shape}")
        _require(bool(np.all(np.isfinite(arr))), f"node field {name} is not finite")
    alpha = fields["alpha"]
    tangential = alpha[[0, -1], 1] if polarization == "TE" else alpha[[0, -1], 0]
    wall = float(np.max(np.abs(tangential)))
    _require(wall == 0.0, f"tangential alpha {wall:.3e} on a PEC wall")
    return wall


def vacuum_te_profile(fields: dict, n: int, m: int) -> float:
    """Vacuum TE box: alpha_perp of mode m is sin(m pi j / n) at the nodes."""
    a = fields["alpha"][:, 1]
    s = np.sin(m * np.pi * np.arange(n + 1) / n)
    coef = np.vdot(s, a) / np.vdot(s, s)
    err = float(np.max(np.abs(a - coef * s)) / np.max(np.abs(a)))
    _require(err <= 1e-8, f"vacuum TE profile of mode {m} off the discrete sine by {err:.3e}")
    return err


# ---------------------------------------------------------------------------
# surface sweep


def surface_untruncated(m: ref.Medium, k: float, lz: float) -> bool:
    """The vacuum tail has decayed UNTRUNCATED e-folds before the PEC wall."""
    return ref.surface_decay(m, k)[0] * lz / 2 >= UNTRUNCATED


def surface_error(m: ref.Medium, k: float, n: int, lz: float, omega: float) -> float:
    """Relative error against the surface quartic, within the O(h^2) bound."""
    err = _rel(omega, ref.surface_omega(m, k))
    h = lz / n
    if surface_untruncated(m, k, lz):
        bound = SURFACE_H2 * h * h
        _require(err <= bound, f"surface k={k:.6g} n={n}: error {err:.3e} above {bound:.3e}")
    return err


def convergence_ratio(err_n: float, err_2n: float, label: str) -> float:
    ratio = err_n / err_2n if err_2n > 0 else math.inf
    lo, hi = RATIO_RANGE
    _require(lo <= ratio <= hi, f"{label}: error ratio {ratio:.3f} outside [{lo}, {hi}]")
    return ratio


# ---------------------------------------------------------------------------
# analytic tables


def close(measured: float, expected: float, tol: float, label: str) -> float:
    err = _rel(measured, expected)
    _require(err <= tol, f"{label}: {measured!r} vs {expected!r}, relative {err:.3e} (tol {tol:g})")
    return err


def vieta(m: ref.Medium, k: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    s = m.omega_L**2 + k**2
    p = (k * m.omega_T) ** 2
    err = float(np.max(np.abs(lower**2 + upper**2 - s) / s))
    nz = p > 0
    if nz.any():
        err = max(err, float(np.max(np.abs(lower[nz] ** 2 * upper[nz] ** 2 - p[nz]) / p[nz])))
    _require(err <= CLOSED_FORM_TOL, f"bulk branches miss the Vieta identities by {err:.3e}")
    return err


def surface_quartic(m: ref.Medium, k: float, omega: float) -> float:
    err = ref.surface_quartic(m, k, omega)
    _require(err <= CLOSED_FORM_TOL, f"surface k={k:.6g}: quartic residual {err:.3e}")
    return err


def profile_normalization(m: ref.Medium, omega: float, area: float, segments) -> float:
    """hbar omega eps0 A * sum eps nu Int |theta|^2 = 1 from the benchmark's own quadrature.

    segments: (quadrature weights, theta at the nodes, in_matter) per region.
    """
    total = 0.0
    for w, theta, in_matter in segments:
        dens = np.sum(np.abs(theta) ** 2, axis=1)
        eps_nu = m.eps(omega) * m.nu(omega) if in_matter else 2.0
        total += eps_nu * float(np.dot(w, dens))
    err = abs(omega * area * total - 1.0)
    _require(err <= PROFILE_NORM_TOL, f"surface profile integrates to {omega * area * total!r}, not 1")
    return err


def momentum_zero(value: complex, momentum_ok: bool) -> float:
    _require(not momentum_ok and value == 0, f"non-conserving triple gave {value!r} (flag {momentum_ok})")
    return abs(value)


def permutation_symmetry(base: complex, permuted) -> float:
    scale = max(abs(base), 1e-300)
    err = max(abs(v - base) for v in permuted) / scale
    _require(err <= SYMMETRY_TOL, f"scattering permutation asymmetry {err:.3e} (tol {SYMMETRY_TOL:g})")
    return err


def conjugation_pairing(base: complex, conjugated: complex) -> float:
    err = abs(conjugated - np.conj(base)) / max(abs(base), 1e-300)
    _require(err <= SYMMETRY_TOL, f"scattering conjugation defect {err:.3e} (tol {SYMMETRY_TOL:g})")
    return err


def bath_eps(measured: complex, expected: complex, label: str) -> float:
    err = abs(measured - expected) / abs(expected)
    _require(err <= BATH_TOL, f"{label}: eps {measured!r} vs {expected!r}, relative {err:.3e}")
    _require(measured.imag >= 0.0, f"{label}: Im eps = {measured.imag!r} < 0")
    return err


def driven_decay(zs: np.ndarray, theta: np.ndarray, expected_rate: float) -> float:
    slope = np.polyfit(zs, np.log(np.abs(theta)), 1)[0]
    err = abs(-slope - expected_rate) / expected_rate
    _require(err <= DECAY_TOL, f"driven decay {-slope!r} vs {expected_rate!r}, relative {err:.3e}")
    return err


# ---------------------------------------------------------------------------
# CLI artifacts


def _rows(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def dispersion_csv(text: str, m: ref.Medium) -> float:
    rows = _rows(text)
    by_class: dict = {}
    for r in rows:
        by_class.setdefault(r["class"], []).append((float(r["k_par"]), float(r["omega"])))
    _require(set(by_class) == {"TEv", "TEl", "TEu", "S"}, f"dispersion.csv classes {sorted(by_class)}")
    k = np.array([kk for kk, _ in by_class["TEl"]])
    lower = np.array([w for _, w in by_class["TEl"]])
    upper = np.array([w for _, w in by_class["TEu"]])
    err = vieta(m, k, lower, upper)
    for kk, w in by_class["S"]:
        err = max(err, surface_quartic(m, kk, w))
    for kk, w in by_class["TEv"]:
        _require(w == kk, f"vacuum row omega {w!r} != c k {kk!r}")
    return err


def eigenfrequencies_csv(text: str, m: ref.Medium, k: float, n: int, lz: float) -> float:
    omegas = np.array([float(r["omega"]) for r in _rows(text)])
    _require(omegas.size > 0, "eigenfrequencies.csv is empty")
    ws = ref.surface_omega(m, k)
    nearest = float(omegas[np.argmin(np.abs(omegas - ws))])
    return surface_error(m, k, n, lz, nearest)


def mode_json(text: str, m: ref.Medium, k: float) -> float:
    meta = json.loads(text)
    close(meta["omega"], ref.surface_omega(m, k), CLOSED_FORM_TOL, "mode omega")
    return close(meta["N"], ref.surface_norm(m, k), CLOSED_FORM_TOL, "mode N")


def lossy_csv(text: str, m: ref.Medium, ups: float, a: float, b: float) -> float:
    err = 0.0
    for r in _rows(text):
        w = float(r["omega"])
        eps = complex(float(r["Re_eps"]), float(r["Im_eps"]))
        err = max(err, bath_eps(eps, ref.flat_bath_eps(m, ups, a, b, w), f"lossy.csv omega={w:.6g}"))
    return err


def scattering_csv(text: str) -> float:
    rows = _rows(text)
    _require(len(rows) > 0, "scattering.csv is empty")
    for r in rows:
        xi = complex(float(r["Re_Xi"]), float(r["Im_Xi"]))
        _require(r["momentum_ok"] == "1" and math.isfinite(abs(xi)) and xi != 0,
                 f"scattering row {r['modes']}: {xi!r}, momentum_ok={r['momentum_ok']}")
    return 0.0


def verify_stdout(text: str) -> float:
    last = text.strip().splitlines()[-1] if text.strip() else ""
    _require(last == "24/24 checks passed", f"verify reported {last!r}")
    return 0.0
