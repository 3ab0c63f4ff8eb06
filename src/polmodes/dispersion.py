"""Dispersion relations of the planar vacuum / polar-dielectric interface.

Three families of solutions exist for the two half-space problem:

* vacuum photons, omega = c*k, indexed by a 3D wavevector with k_z > 0
  (classes TEv, TMv);
* bulk phonon polaritons inside the dielectric, the two positive roots of
  omega^2 eps(omega) = c^2 k^2, indexed by a 3D wavevector with k_z < 0 and a
  branch label lower/upper (classes TEl, TEu, TMl, TMu);
* surface phonon polaritons bound to the interface, a single branch indexed
  by the in-plane wavevector only (class S), existing for c*k_par >= omega_TO
  and approaching omega_surf = sqrt((omega_TO^2 + omega_LO^2)/2) at large
  k_par, where eps = -1.

Bulk branches are computed from the numerically stable quadratic-in-omega^2
formula; the surface relation also reduces to a quadratic in omega^2, so both
directions are closed form and are cross-validated by residual substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import BelowLightLineEdge, OutsideSurfaceWindow, SolverContractViolation
from .media import C, MediumParams, epsilon


class ModeClass(str, Enum):
    TMv = "TMv"
    TMl = "TMl"
    TMu = "TMu"
    TEv = "TEv"
    TEl = "TEl"
    TEu = "TEu"
    S = "S"

    @property
    def is_te(self) -> bool:
        return self in (ModeClass.TEv, ModeClass.TEl, ModeClass.TEu)

    @property
    def vacuum_incident(self) -> bool:
        return self in (ModeClass.TEv, ModeClass.TMv)

    @property
    def medium_incident(self) -> bool:
        return self in (ModeClass.TEl, ModeClass.TEu, ModeClass.TMl, ModeClass.TMu)


@dataclass(frozen=True)
class ModeIndex:
    """Mode label: class, in-plane wavevector (2-vector), out-of-plane k_z.

    k_z is None for the surface class. Sign conventions: k_z > 0 for waves of
    vacuum origin, k_z < 0 for waves of dielectric origin.
    """

    mode_class: ModeClass
    k_par: Tuple[float, float]
    k_z: Optional[float] = None

    def __post_init__(self):
        cls = self.mode_class
        if cls is ModeClass.S:
            if self.k_z is not None:
                raise ValueError("surface modes carry no k_z")
            if self.k_par_mag <= 0:
                raise ValueError("surface modes need k_par > 0")
        else:
            if self.k_z is None:
                raise ValueError(f"{cls.value} modes need k_z")
            if cls.vacuum_incident and not self.k_z > 0:
                raise ValueError(f"{cls.value} requires k_z > 0")
            if cls.medium_incident and not self.k_z < 0:
                raise ValueError(f"{cls.value} requires k_z < 0")

    @property
    def k_par_vec(self) -> np.ndarray:
        return np.asarray(self.k_par, dtype=float)

    @property
    def k_par_mag(self) -> float:
        return float(np.hypot(*self.k_par))

    @property
    def k_mag(self) -> float:
        """Magnitude of the 3D wavevector in the medium of origin."""
        if self.k_z is None:
            return self.k_par_mag
        return math.hypot(self.k_par_mag, self.k_z)

    @property
    def e_par(self) -> np.ndarray:
        """Unit in-plane vector along k_par (x-hat by convention when k_par=0)."""
        k = self.k_par_mag
        if k == 0:
            return np.array([1.0, 0.0, 0.0])
        return np.array([self.k_par[0] / k, self.k_par[1] / k, 0.0])

    @property
    def e_perp(self) -> np.ndarray:
        """Unit in-plane vector perpendicular to k_par: e_z x e_par."""
        p = self.e_par
        return np.array([-p[1], p[0], 0.0])


def bulk_branches(m: MediumParams, k):
    """Lower and upper bulk polariton frequencies at 3D wavevector magnitude k.

    Positive roots of omega^4 - omega^2 (omega_L^2 + c^2 k^2)
    + c^2 k^2 omega_T^2 = 0, ordered omega_l < omega_T <= omega_L <= omega_u.
    Stable quadratic-in-omega^2 evaluation; vectorized over k. The discriminant
    sqrt(b^2 - 4c) is taken in units of s = 2^e, the power of two at b's exponent.
    Scaling by a power of two is exact, so the result is bit for bit the unscaled
    formula's wherever b^2 is finite (c k below ~1e77), and it stays finite until
    b = omega_L^2 + c^2 k^2 itself overflows (c k ~ 1e154).
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("k must be >= 0")
    b = m.omega_L**2 + (C * k) ** 2
    c = (C * k * m.omega_T) ** 2
    s = np.ldexp(1.0, np.frexp(b)[1])
    disc = s * np.sqrt((b / s) ** 2 - 4.0 * (c / s) / s)
    q = 0.5 * (b + disc)
    x_upper = q
    x_lower = np.divide(c, q, out=np.zeros_like(q), where=q > 0)
    ol, ou = np.sqrt(x_lower), np.sqrt(x_upper)
    if ol.ndim == 0:
        return float(ol), float(ou)
    return ol, ou


def surface_window_top(m: MediumParams) -> float:
    """Upper edge of the surface band: the eps(omega) = -1 root sqrt((omega_T^2+omega_L^2)/2)."""
    return math.sqrt(0.5 * (m.omega_T**2 + m.omega_L**2))


def surface_dispersion_kpar(m: MediumParams, omega: float) -> float:
    """In-plane wavevector of the surface branch at frequency omega.

    k_par = (omega/c) sqrt(eps/(1+eps)), defined on the window where
    eps(omega) < -1, i.e. omega in (omega_TO, omega_surf).
    """
    e = epsilon(m, omega)
    if e >= -1.0:
        raise OutsideSurfaceWindow(
            f"eps({omega}) = {e} >= -1; surface band is ({m.omega_T}, {surface_window_top(m)})"
        )
    return (omega / C) * math.sqrt(e / (1.0 + e))


def surface_dispersion_omega(m: MediumParams, k_par: float) -> float:
    """Frequency of the surface branch at in-plane wavevector k_par.

    Inverts surface_dispersion_kpar. The relation reduces to a quadratic in
    omega^2 whose lower root is the surface branch; evaluated in the stable
    form and verified by the forward relation to 1e-12 relative residual; where
    that fails (the quartic's terms overflow from c*k_par ~ 1e77 on), raises
    SolverContractViolation.
    """
    ck = C * k_par
    if ck < m.omega_T:
        raise BelowLightLineEdge(f"c*k_par = {ck} < omega_TO = {m.omega_T}")
    if ck == m.omega_T:
        return m.omega_T
    try:
        b = 2.0 * ck**2 + m.omega_L**2
        c = ck**2 * (m.omega_T**2 + m.omega_L**2)
    except OverflowError as exc:
        raise SolverContractViolation(f"surface dispersion overflows at c*k_par = {ck}") from exc
    q = 0.5 * (b + math.sqrt(b * b - 4.0 * c))
    omega = math.sqrt(c / q)
    # residual polish via one Newton step on the quartic, then verify
    f = omega**4 - omega**2 * b + c
    df = 4.0 * omega**3 - 2.0 * omega * b
    if df != 0.0:
        omega -= f / df
    resid = abs(omega**4 - omega**2 * b + c) / (omega**4 + omega**2 * b + c)
    if not resid <= 1e-12:
        raise SolverContractViolation(f"surface dispersion residual {resid} exceeds 1e-12 at c*k_par = {ck}")
    return omega
