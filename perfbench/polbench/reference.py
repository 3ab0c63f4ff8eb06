"""Closed forms the benchmark checks the program against.

Nothing here imports polmodes: every formula is written out again from the
physics, so a fault in the program cannot hide in its own reference. Units
are the program's internal ones (hbar = eps0 = c = 1). A medium is given by
its transverse and longitudinal phonon frequencies and its density rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, expi


@dataclass(frozen=True)
class Medium:
    omega_T: float
    omega_L: float
    rho: float = 1.0

    def eps(self, w):
        return (self.omega_L**2 - w**2) / (self.omega_T**2 - w**2)

    def nu(self, w):
        """1 + (1/eps) d(eps w)/dw for the Lorentz response."""
        de = 2.0 * w * (self.omega_L**2 - self.omega_T**2) / (self.omega_T**2 - w**2) ** 2
        return 2.0 + w * de / self.eps(w)


# ---------------------------------------------------------------------------
# dispersion


def bulk_roots(m: Medium, k2):
    """(lower, upper) positive roots of w^4 - w^2 (wL^2 + k^2) + k^2 wT^2 = 0."""
    k2 = np.asarray(k2, dtype=float)
    b = m.omega_L**2 + k2
    c = k2 * m.omega_T**2
    upper = 0.5 * (b + np.sqrt(b * b - 4.0 * c))
    lower = np.divide(c, upper, out=np.zeros_like(upper), where=upper > 0)
    return np.sqrt(lower), np.sqrt(upper)


def surface_quartic(m: Medium, k: float, w: float) -> float:
    """Relative residual of w^4 - w^2 (wL^2 + 2k^2) + k^2 (wT^2 + wL^2)."""
    b = m.omega_L**2 + 2.0 * k * k
    c = k * k * (m.omega_T**2 + m.omega_L**2)
    return abs(w**4 - w**2 * b + c) / (w**4 + w**2 * b + c)


def surface_omega(m: Medium, k: float) -> float:
    """Lower root w of the surface quartic: the surface branch at k_par = k."""
    b = m.omega_L**2 + 2.0 * k * k
    c = k * k * (m.omega_T**2 + m.omega_L**2)
    return math.sqrt(c / (0.5 * (b + math.sqrt(b * b - 4.0 * c))))


def surface_decay(m: Medium, k: float) -> tuple[float, float]:
    """(vacuum, medium) decay constants of the surface mode at k_par = k."""
    s = math.sqrt(-m.eps(surface_omega(m, k)))
    return k / s, k * s


def surface_norm(m: Medium, k: float, area: float = 1.0) -> float:
    """Closed-form surface normalization constant N_S."""
    w = surface_omega(m, k)
    e = m.eps(w)
    s = math.sqrt(-e)
    n2 = k / (w * area) / (1.0 + m.nu(w) / (2.0 * e)) / (s + 1.0 / s)
    return math.sqrt(n2)


def propagating_norm(w: float, volume: float, eps_nu: float) -> float:
    """N = sqrt(1/(eps0 hbar w V eps_i nu_i)) with the incidence-side weight."""
    return math.sqrt(1.0 / (w * volume * eps_nu))


# ---------------------------------------------------------------------------
# exact spectra of the staggered grid in homogeneous boxes


def _grid_k2(n: int, lz: float, k_par: float, polarization: str) -> np.ndarray:
    h = lz / n
    m = np.arange(1, n) if polarization == "TE" else np.arange(0, n)
    return k_par**2 + (2.0 / h * np.sin(m * np.pi / (2 * n))) ** 2


def vacuum_box_spectrum(n: int, lz: float, k_par: float, polarization: str) -> np.ndarray:
    """Positive discrete eigenfrequencies of a PEC vacuum box, ascending."""
    return np.sort(np.sqrt(_grid_k2(n, lz, k_par, polarization)))


def matter_box_spectrum(m: Medium, n: int, lz: float, k_par: float, polarization: str) -> np.ndarray:
    """Positive discrete eigenfrequencies of a PEC box filled with one medium.

    Every discrete photon wavenumber splits into a lower and an upper bulk
    branch; TM adds n-1 longitudinal matter modes at omega_L.
    """
    lo, up = bulk_roots(m, _grid_k2(n, lz, k_par, polarization))
    parts = [lo, up]
    if polarization == "TM":
        parts.append(np.full(n - 1, m.omega_L))
    return np.sort(np.concatenate(parts))


# ---------------------------------------------------------------------------
# bath-dressed response


def _eps_tilde(m: Medium, wl2: float, w: float, f: complex) -> complex:
    return (wl2 - w * w - f) / (m.omega_T**2 - w * w - f)


def flat_bath_eps(m: Medium, ups: float, a: float, b: float, w: float) -> complex:
    """eps_tilde for a constant coupling ups on [a, b]; closed principal value."""
    re_f = ups**2 / m.rho**2 * ((b - a) + 0.5 * w * math.log(abs((b - w) * (a + w) / ((b + w) * (a - w)))))
    im_f = math.pi * ups**2 * w / (2.0 * m.rho**2) if a <= w <= b else 0.0
    wl2 = m.omega_L**2 + ups**2 * (b - a) / (2.0 * m.rho**2)
    return _eps_tilde(m, wl2, w, re_f + 1j * im_f)


def ohmic_bath_eps(m: Medium, amp: float, cut: float, w: float) -> complex:
    """eps_tilde for ups^2 = amp^2 z exp(-z/cut) on [0, inf).

    P Int_0^inf z^3 e^{-z/c} / (z^2 - w^2) dz
        = c^2 + (w^2/2) (e^{x} E1(x) - e^{-x} Ei(x)),  x = w/c.
    """
    x = w / cut
    re_f = amp**2 / m.rho**2 * (cut**2 + 0.5 * w * w * (math.exp(x) * exp1(x) - math.exp(-x) * expi(x)))
    im_f = math.pi * amp**2 * w * w * math.exp(-x) / (2.0 * m.rho**2)
    wl2 = m.omega_L**2 + amp**2 * cut**2 / (2.0 * m.rho**2)
    return _eps_tilde(m, wl2, w, re_f + 1j * im_f)


def decay_rate(eps: complex, w: float) -> float:
    """Im of the outgoing vertical wavenumber w sqrt(eps)/c at k_par = 0."""
    q = complex(np.sqrt(complex(w * w * eps)))
    return abs(q.imag)
