"""Material parameters and dielectric response of lossless polar media.

Internal unit system: hbar = eps0 = mu0 = c = 1. Frequencies are measured in
units of a reference angular frequency (by convention the transverse resonance
of the first matter layer) and lengths in c / omega_ref. The CLI offers cm^-1
conversion on input and output; the core never sees dimensional constants.

A medium is described by three positive parameters: the transverse resonance
omega_T, the oscillator mass density rho, and the light-matter coupling
density kappa. The derived longitudinal frequency is

    omega_L^2 = omega_T^2 + kappa^2 / (eps0 * rho),

and the lossless dielectric function is the single-oscillator form

    epsilon(omega) = (omega_L^2 - omega^2) / (omega_T^2 - omega^2),

negative exactly on the reststrahlen band (omega_T, omega_L) and satisfying
the Lyddane-Sachs-Teller relation epsilon(0) = omega_L^2 / omega_T^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import PoleAtResonance, ZeroEpsilon

HBAR = 1.0
EPS0 = 1.0
MU0 = 1.0
C = 1.0

# Pole guard, as a frequency distance relative to omega_T.
POLE_GUARD_REL = 1e-9


@dataclass(frozen=True)
class MediumParams:
    """Matter parameters of one homogeneous polar layer."""

    omega_T: float
    rho: float
    kappa: float

    def __post_init__(self):
        if not self.omega_T > 0:
            raise ValueError("omega_T must be strictly positive (stability)")
        if not self.rho > 0:
            raise ValueError("rho must be strictly positive")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")

    @property
    def omega_L(self) -> float:
        return longitudinal_frequency(self)


def from_phonon_frequencies(omega_TO: float, omega_LO: float, rho: float = 1.0) -> MediumParams:
    """Build medium parameters from the experimentally natural (omega_TO, omega_LO) pair.

    Uses kappa^2 / (eps0 * rho) = omega_LO^2 - omega_TO^2.
    """
    if omega_LO < omega_TO:
        raise ValueError("omega_LO must be >= omega_TO")
    kappa = math.sqrt(EPS0 * rho * (omega_LO**2 - omega_TO**2))
    return MediumParams(omega_T=omega_TO, rho=rho, kappa=kappa)


def default_medium() -> MediumParams:
    """Default test medium omega_TO=1, omega_LO=1.2 (SiC-like ratio).

    A configuration choice for examples and self-tests, not a tabulated material.
    """
    return from_phonon_frequencies(1.0, 1.2, rho=1.0)


def longitudinal_frequency(m: MediumParams) -> float:
    """omega_L = sqrt(omega_T^2 + kappa^2/(eps0*rho))."""
    return math.sqrt(m.omega_T**2 + m.kappa**2 / (EPS0 * m.rho))


def _real(omega):
    """omega as a float if it is a scalar, else as a float array.

    The bodies of epsilon, epsilon_derivative and nu are plain arithmetic, so a
    float runs them in Python floats and an array runs them in numpy, with the
    same IEEE operations in the same order (w * w, not w**2, which Python
    evaluates through pow).
    """
    return float(omega) if np.isscalar(omega) else np.asarray(omega, dtype=float)


def _near(w, center: float, g: float) -> bool:
    """True when some |w| lies within g of center."""
    hit = abs(abs(w) - center) < g
    return hit if isinstance(hit, bool) else bool(hit.any())


def epsilon(m: MediumParams, omega):
    """Lossless Lorentz dielectric function (omega_L^2 - omega^2)/(omega_T^2 - omega^2).

    Accepts scalars (returns a float) or arrays. Raises PoleAtResonance when any
    |omega| is within POLE_GUARD_REL * omega_T of the pole at omega_T; callers must
    handle the pole explicitly because the coefficient maps diverge there.
    """
    g = POLE_GUARD_REL * m.omega_T
    w = _real(omega)
    if _near(w, m.omega_T, g):
        raise PoleAtResonance(f"omega within {g} of the resonance at {m.omega_T}")
    w2 = w * w
    return (m.omega_L**2 - w2) / (m.omega_T**2 - w2)


def epsilon_derivative(m: MediumParams, omega):
    """Closed-form d(epsilon)/d(omega) = 2*omega*(omega_L^2-omega_T^2)/(omega_T^2-omega^2)^2."""
    g = POLE_GUARD_REL * m.omega_T
    w = _real(omega)
    if _near(w, m.omega_T, g):
        raise PoleAtResonance(f"omega within {g} of the resonance at {m.omega_T}")
    den = m.omega_T**2 - w * w
    return 2.0 * w * (m.omega_L**2 - m.omega_T**2) / (den * den)


def nu(m: MediumParams, omega):
    """Normalization weight nu(omega) = 1 + (1/eps) d[eps*omega]/d(omega).

    Evaluated with the closed-form derivative of the Lorentz epsilon; no
    numerical differentiation on the production path. Equals 2 for vacuum-like
    response (eps identically 1). Raises ZeroEpsilon at the longitudinal zero.
    Accepts scalars (returns a float) or arrays.
    """
    w = _real(omega)
    if _near(w, m.omega_L, POLE_GUARD_REL * m.omega_T):
        raise ZeroEpsilon(f"epsilon vanishes at omega_L = {m.omega_L}")
    e = epsilon(m, w)
    de = epsilon_derivative(m, w)
    return 2.0 + w * de / e


def nu_vacuum(omega=None) -> float:
    """nu for vacuum: 1 + d(omega)/d(omega) = 2, independent of frequency."""
    return 2.0


def locate(z, lower, upper) -> np.ndarray:
    """Index of the region [lower_i, upper_i] holding each point of z.

    The regions are sorted and touch end to end. A point on an interior edge
    belongs to the upper region. Raises ValueError for a point outside
    [lower_0, upper_-1] or NaN.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    idx = np.searchsorted(upper[:-1], z, side="right")
    inside = (z >= lower[idx]) & (z <= upper[idx])
    if not inside.all():
        raise ValueError(f"z={z[~inside][0]} outside the support [{lower[0]}, {upper[-1]}]")
    return idx


def exp_integral(d: complex, lo: float, hi: float) -> complex:
    """Int_lo^hi exp(d z) dz, the primitive of every piecewise-exponential z-integral.

    Where |d| (hi - lo) < 1e-12 the integrand is constant to working precision
    and the limit hi - lo is returned.
    """
    if abs(d) * (hi - lo) < 1e-12:
        return hi - lo
    return (cmath.exp(d * hi) - cmath.exp(d * lo)) / d


@dataclass(frozen=True)
class Layer:
    """One slab [z_min, z_max]; medium=None means vacuum."""

    z_min: float
    z_max: float
    medium: Optional[MediumParams]

    def __post_init__(self):
        if not self.z_max > self.z_min:
            raise ValueError("layer must have z_max > z_min")


@dataclass(frozen=True)
class LayeredGeometry:
    """Stack of layers partitioning the quantization box [-Lz/2, Lz/2] along z.

    area is the transverse quantization area. Matter integrals are restricted
    to layers whose medium is not None.
    """

    layers: tuple
    area: float

    def __post_init__(self):
        if not self.layers:
            raise ValueError("geometry needs at least one layer")
        if not self.area > 0:
            raise ValueError("area must be positive")
        zs = sorted(self.layers, key=lambda l: l.z_min)
        for a, b in zip(zs[:-1], zs[1:]):
            if abs(a.z_max - b.z_min) > 1e-12 * max(1.0, abs(a.z_max)):
                raise ValueError("layers must partition the box with no gaps/overlaps")
        # close the gaps and overlaps below the tolerance, so that every z of the box lies
        # in a layer
        zs = zs[:1] + [replace(b, z_min=a.z_max) for a, b in zip(zs, zs[1:])]
        object.__setattr__(self, "layers", tuple(zs))
        lz = zs[-1].z_max - zs[0].z_min
        if abs(zs[0].z_min + lz / 2) > 1e-12 * lz or abs(zs[-1].z_max - lz / 2) > 1e-12 * lz:
            raise ValueError("layers must cover [-Lz/2, Lz/2] symmetrically")

    @property
    def lz(self) -> float:
        return self.layers[-1].z_max - self.layers[0].z_min

    @property
    def volume(self) -> float:
        return self.area * self.lz

    def medium_at(self, z: float) -> Optional[MediumParams]:
        for lay in self.layers:
            if lay.z_min <= z <= lay.z_max:
                if z == lay.z_max and lay is not self.layers[-1]:
                    continue  # boundary points belong to the upper layer
                return lay.medium
        raise ValueError(f"z={z} outside the quantization box")


def homogeneous_box(medium: Optional[MediumParams], lz: float, area: float = 1.0) -> LayeredGeometry:
    """A box filled with a single medium (or vacuum if medium is None)."""
    return LayeredGeometry((Layer(-lz / 2, lz / 2, medium),), area)


def vacuum_interface(medium: MediumParams, lz: float, area: float = 1.0) -> LayeredGeometry:
    """Canonical planar interface: medium fills z<0, vacuum fills z>0."""
    return LayeredGeometry(
        (Layer(-lz / 2, 0.0, medium), Layer(0.0, lz / 2, None)), area
    )
