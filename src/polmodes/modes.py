"""Analytic polariton mode profiles for the planar interface and homogeneous boxes.

Every profile is a piecewise sum of vector plane waves

    theta(r_par, z) = sum_t  a_t * exp(i * (-k_par . r_par + w_t * z)),

one term list per layer, so curls, divergences and overlap integrals are exact
algebra on the (a_t, w_t) pairs. A layer holds at most three terms, each a
3-tuple amplitude and one wavenumber, so the per-wave algebra (curl,
conjugation, scaling, the Hopfield maps, the region overlap integrals) is
scalar complex arithmetic on Python numbers; numpy runs only on arrays of z
points (`evaluate`, `evaluate_region`, `divergence` and the residual checks).
The in-plane phase convention is
exp(-i k_par . r_par) throughout; conjugating a profile therefore flips the
in-plane wavevector, which is how negative-energy partners acquire opposite
momentum.

Vertical wavenumber branch, one rule for every propagating class: the
transmitted wavenumber is q = sign(k_z) * w_d, with w_d the root of
eps_t omega^2/c^2 - k_par^2 (eps_t of the transmission side) for which
exp(+i w_d z) decays into z < 0 (Im w_d <= 0, Re w_d >= 0 when real).
Vacuum-incident classes (k_z > 0) transmit into the medium below z = 0;
medium-incident classes (k_z < 0) are the z -> -z mirror image and transmit
into the vacuum above, where q decays (Im q >= 0).

Hopfield coefficient map (matter regions only for gamma, eta):

    alpha = theta           (transverse within each homogeneous region)
    beta  = (i/omega) curl theta
    gamma = i kappa omega / (rho (omega_T^2 - omega^2)) theta
    eta   = kappa omega^2 / (omega_T^2 - omega^2) theta

Normalization fixes N so that

    hbar*omega*eps0 * Int eps(omega) nu(omega) theta . conj(theta) dr = sgn(omega).

For the surface class the z-integral converges and the closed form

    N_S = sqrt(k_par / (eps0 hbar omega A)) * [1 + nu_L/(2 eps_L)]^(-1/2)
          * [s + 1/s]^(-1/2),          s = sqrt(-eps_L),

is cross-checked against the box integral summed region by region from the
exponential primitives (the two routes stay independent; disagreement raises).
For propagating classes the integral is a box-regularized continuum bookkeeping
and the closed form is N = sqrt(1/(eps0 hbar omega V eps_i nu_i)) with
(eps_i, nu_i) of the incidence side; it is exact for homogeneous boxes (checked
against the same box integral) and its interface consistency is the flux
unitarity of the Fresnel coefficients. Adaptive quadrature of the pointwise
density, a third route, is kept in the `polmodes verify` registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from .dispersion import ModeClass, ModeIndex, bulk_branches, surface_dispersion_omega
from .errors import (
    EvanescentBranchAmbiguity,
    PoleAtResonance,
    QuadratureDisagreement,
    UnsupportedGeometry,
)
from .media import (
    C,
    EPS0,
    HBAR,
    MU0,
    POLE_GUARD_REL,
    LayeredGeometry,
    MediumParams,
    epsilon,
    exp_integral,
    locate,
    nu,
    nu_vacuum,
)

Vec3 = Tuple[complex, complex, complex]
E_Z = (0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# piecewise plane-wave machinery


class PlaneTerm(NamedTuple):
    """One vector plane-wave term a * exp(i w z) within a layer; a is a 3-tuple."""

    amplitude: Vec3
    w: complex


def _scale(f: complex, a: Vec3) -> Vec3:
    return (f * a[0], f * a[1], f * a[2])


def _axpy(f: complex, a: Vec3, b: Vec3) -> Vec3:
    return (f * a[0] + b[0], f * a[1] + b[1], f * a[2] + b[2])


def _curl(k0: complex, k1: complex, a: Vec3, w: complex) -> Vec3:
    """i k x a for the wavevector k = (k0, k1, w), in complex arithmetic throughout
    (a real amplitude still gets the signed zeros of a complex product)."""
    a0, a1, a2 = a
    w = complex(w)
    return (1j * (k1 * a2 - w * a1), 1j * (w * a0 - k0 * a2), 1j * (k0 * a1 - k1 * a0))


def _conj(a: Vec3) -> Vec3:
    return (a[0].conjugate(), a[1].conjugate(), a[2].conjugate())


def _overlap(a: Vec3, b: Vec3) -> complex:
    """a . conj(b)."""
    return a[0] * b[0].conjugate() + a[1] * b[1].conjugate() + a[2] * b[2].conjugate()


class ProfileRegion(NamedTuple):
    """The plane-wave terms of a profile on the layer [z_min, z_max]."""

    z_min: float
    z_max: float
    medium: Optional[MediumParams]
    terms: Tuple[PlaneTerm, ...]

    def with_terms(self, terms) -> "ProfileRegion":
        return ProfileRegion(self.z_min, self.z_max, self.medium, tuple(terms))


@dataclass(frozen=True)
class VectorProfile:
    """Piecewise-exponential complex vector field of (r_par, z)."""

    k_inplane: Tuple[float, float]
    regions: Tuple[ProfileRegion, ...]

    def region_indices(self, z) -> np.ndarray:
        """Region index of each point of z; an interface point belongs to the upper region."""
        return locate(z, [r.z_min for r in self.regions], [r.z_max for r in self.regions])

    def _split(self, z):
        """(i, mask) for each region i that holds some of the points z (a 1-D array)."""
        idx = self.region_indices(z)
        for i in range(len(self.regions)):
            mask = idx == i
            if mask.any():
                yield i, mask

    def _phase(self, r_par) -> complex:
        return np.exp(-1j * (self.k_inplane[0] * r_par[0] + self.k_inplane[1] * r_par[1]))

    def _sum_terms(self, i: int, z: np.ndarray) -> np.ndarray:
        """The terms of region i summed on the points z, without the in-plane phase."""
        out = np.zeros((z.size, 3), dtype=complex)
        for a, w in self.regions[i].terms:
            out += np.array(a)[None, :] * np.exp(1j * w * z)[:, None]
        return out

    def evaluate_region(self, i: int, z, r_par=(0.0, 0.0)) -> np.ndarray:
        return self._sum_terms(i, np.atleast_1d(np.asarray(z, dtype=float))) * self._phase(r_par)

    def evaluate(self, z, r_par=(0.0, 0.0)) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.zeros((z.size, 3), dtype=complex)
        phase = self._phase(r_par)
        for i, mask in self._split(z):
            out[mask] = self._sum_terms(i, z[mask]) * phase
        return out

    def _map(
        self, terms_of: Callable[[ProfileRegion], Iterable[PlaneTerm]], k_inplane=None
    ) -> "VectorProfile":
        """Profile with the terms terms_of(region) in each region, at k_inplane (default: this one)."""
        k = self.k_inplane if k_inplane is None else k_inplane
        return VectorProfile(k, tuple([reg.with_terms(terms_of(reg)) for reg in self.regions]))

    def curl(self) -> "VectorProfile":
        k0, k1 = complex(-self.k_inplane[0]), complex(-self.k_inplane[1])
        return self._map(lambda reg: [PlaneTerm(_curl(k0, k1, a, w), w) for a, w in reg.terms])

    def divergence(self, z, r_par=(0.0, 0.0)) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.zeros(z.size, dtype=complex)
        k0, k1 = -self.k_inplane[0], -self.k_inplane[1]
        for i, mask in self._split(z):
            for (a0, a1, a2), w in self.regions[i].terms:
                out[mask] += 1j * (k0 * a0 + k1 * a1 + w * a2) * np.exp(1j * w * z[mask])
        return out * self._phase(r_par)

    def conj(self) -> "VectorProfile":
        return self._map(lambda reg: [PlaneTerm(_conj(a), -w.conjugate()) for a, w in reg.terms],
                         (-self.k_inplane[0], -self.k_inplane[1]))

    def _conj_mapped(self, func: Callable[[ProfileRegion], complex]) -> "VectorProfile":
        """conj().mapped(func) in one pass."""

        def terms_of(reg):
            f = func(reg)
            return () if f == 0 else [PlaneTerm(_scale(f, _conj(a)), -w.conjugate()) for a, w in reg.terms]

        return self._map(terms_of, (-self.k_inplane[0], -self.k_inplane[1]))

    def scaled(self, factor: complex) -> "VectorProfile":
        return self._map(lambda reg: [PlaneTerm(_scale(factor, a), w) for a, w in reg.terms])

    def mapped(self, func: Callable[[ProfileRegion], complex]) -> "VectorProfile":
        """Scale each region by a region-dependent factor (zero drops its terms)."""

        def terms_of(reg):
            f = func(reg)
            return () if f == 0 else [PlaneTerm(_scale(f, a), w) for a, w in reg.terms]

        return self._map(terms_of)


@dataclass(frozen=True)
class ThetaProfile:
    """Auxiliary field theta of one mode, with its class and eigenfrequency."""

    profile: VectorProfile
    mode_class: ModeClass
    omega: float
    index: ModeIndex

    def evaluate(self, z, r_par=(0.0, 0.0)) -> np.ndarray:
        return self.profile.evaluate(z, r_par)


@dataclass(frozen=True)
class HopfieldProfile:
    """Real-space Hopfield coefficients (alpha, beta, gamma, eta) of one mode."""

    alpha: VectorProfile
    beta: VectorProfile
    gamma: VectorProfile
    eta: VectorProfile
    omega: float
    index: ModeIndex

    def each(self, func: Callable[[VectorProfile], VectorProfile], omega: float) -> "HopfieldProfile":
        """The four coefficient profiles mapped by func, at eigenfrequency omega."""
        return HopfieldProfile(func(self.alpha), func(self.beta), func(self.gamma), func(self.eta),
                               omega, self.index)


@dataclass(frozen=True)
class PolaritonMode:
    index: ModeIndex
    omega: float
    norm: float  # normalization constant N already folded into the profiles
    theta: ThetaProfile
    hopfield: HopfieldProfile


# ---------------------------------------------------------------------------
# vertical wavenumbers and Fresnel coefficients


def _branch_down(radicand: float, scale: float, tol: float = 1e-12) -> complex:
    """Vertical wavenumber for exp(+i w z) decaying/outgoing into z < 0 (Im <= 0)."""
    if abs(radicand) < tol * scale:
        raise EvanescentBranchAmbiguity(
            f"vertical wavenumber radicand {radicand} within tolerance of zero"
        )
    if radicand > 0:
        return complex(math.sqrt(radicand))
    return -1j * math.sqrt(-radicand)


def _fresnel(k_z: float, q: complex, a_inc: complex, a_trn: complex) -> Tuple[complex, complex]:
    """Reflection and transmission of theta at a planar interface.

    k_z is the incident and q the transmitted vertical wavenumber; a = 1 on both
    sides for TE and a = eps of each side for TM. Matching tangential theta and
    tangential curl theta (TE), or tangential theta and normal eps*theta (TM),
    gives r = (a_t k_z - a_i q)/(a_t k_z + a_i q) and t = a_i (1 + r)/a_t. t is
    evaluated as 2 a_i k_z/(a_t k_z + a_i q), which does not cancel where r -> -1
    (grazing incidence).
    """
    den = a_trn * k_z + a_inc * q
    return (a_trn * k_z - a_inc * q) / den, 2 * a_inc * k_z / den


def _vacuum_incidence(m: MediumParams, k) -> Tuple[float, complex, float]:
    """(k_z, q, eps_L) for a vacuum wave with wavevector k, k_z > 0, incident on m."""
    kv = np.asarray(k, dtype=float)
    k_par2 = kv[0] ** 2 + kv[1] ** 2
    k_z = kv[2]
    if not k_z > 0:
        raise ValueError("vacuum incidence requires k_z > 0")
    k2 = k_par2 + k_z**2
    eL = epsilon(m, C * math.sqrt(k2))
    return k_z, _branch_down(eL * k2 - k_par2, k2), eL


def fresnel_te(m: MediumParams, k) -> Tuple[complex, complex]:
    """TE Fresnel coefficients for vacuum-side incidence with wavevector k.

    k is the 3-vector (or (kx, ky, kz)) of the incident vacuum wave, k_z > 0.
    Returns (r, t) with r = (k_z - q)/(k_z + q), t = 2 k_z/(k_z + q),
    q = sqrt(eps_L k^2 - k_par^2) on the decaying branch. r + 1 = t exactly.
    """
    k_z, q, _ = _vacuum_incidence(m, k)
    return _fresnel(k_z, q, 1.0, 1.0)


def fresnel_tm(m: MediumParams, k) -> Tuple[complex, complex]:
    """TM (magnetic-field convention) Fresnel coefficients for vacuum-side incidence.

    r = (eps_L k_z - q)/(eps_L k_z + q), t = 2 eps_L k_z/(eps_L k_z + q);
    r + 1 = t exactly, and the surface-mode pole sits at eps_L k_z + q = 0.
    """
    k_z, q, eL = _vacuum_incidence(m, k)
    r, t = _fresnel(k_z, q, 1.0, eL)
    return r, eL * t  # the magnetic field carries eps_L times the transmitted theta


# ---------------------------------------------------------------------------
# geometry classification and frequency lookup


def _classify(geom: LayeredGeometry):
    """Return ('vacuum'|'matter'|'interface', medium) for supported geometries."""
    mats = [l.medium for l in geom.layers]
    present = [m for m in mats if m is not None]
    if not present:
        return "vacuum", None
    if len({(m.omega_T, m.rho, m.kappa) for m in present}) > 1:
        raise UnsupportedGeometry("analytic modes support a single medium species")
    medium = present[0]
    if len(present) == len(mats):
        return "matter", medium
    if (
        len(mats) == 2
        and mats[0] is not None
        and mats[1] is None
        and abs(geom.layers[0].z_max) < 1e-12 * geom.lz
    ):
        return "interface", medium
    raise UnsupportedGeometry(
        "unsupported geometry for analytic modes (need medium below z=0, vacuum above)"
    )


def _frequency(kind: str, medium: Optional[MediumParams], idx: ModeIndex) -> float:
    cls = idx.mode_class
    if cls is ModeClass.S:
        if kind != "interface":
            raise UnsupportedGeometry("surface modes require the vacuum/medium interface")
        return surface_dispersion_omega(medium, idx.k_par_mag)
    if cls.vacuum_incident:
        if kind == "matter":
            raise UnsupportedGeometry("vacuum-incident classes need a vacuum region")
        return C * idx.k_mag
    # medium-incident bulk branches
    if medium is None:
        raise UnsupportedGeometry("bulk polariton classes need a matter region")
    ol, ou = bulk_branches(medium, idx.k_mag)
    return ol if cls in (ModeClass.TEl, ModeClass.TMl) else ou


# ---------------------------------------------------------------------------
# theta construction


def _region_split(geom: LayeredGeometry, medium, vac_terms, med_terms) -> Tuple[ProfileRegion, ...]:
    lz = geom.lz
    return (
        ProfileRegion(-lz / 2, 0.0, medium, tuple(med_terms)),
        ProfileRegion(0.0, lz / 2, None, tuple(vac_terms)),
    )


def build_theta(geom: LayeredGeometry, idx: ModeIndex) -> ThetaProfile:
    """Unnormalized (N=1) theta profile of the labelled mode.

    Every propagating class is one scattering state: the incident wave and its
    reflection on the incidence side, the transmitted wave on the other, with
    (r, t) from `_fresnel`. A homogeneous box keeps the incident wave alone
    (the no-interface limit, r=0, t=1).
    """
    kind, medium = _classify(geom)
    omega = _frequency(kind, medium, idx)
    cls = idx.mode_class
    k_inplane = (float(idx.k_par[0]), float(idx.k_par[1]))
    px, py, _ = idx.e_par.tolist()
    e_par = (px, py, 0.0)
    k_par = idx.k_par_mag
    u = (omega / C) ** 2

    if cls is ModeClass.S:
        eL = epsilon(medium, omega)
        s = math.sqrt(-eL)
        kv = k_par / s
        km = k_par * s
        vac = [PlaneTerm(_axpy(1j / s, e_par, E_Z), 1j * kv)]
        med = [PlaneTerm(_scale(1.0 / eL, _axpy(-1j * s, e_par, E_Z)), -1j * km)]
        profile = VectorProfile(k_inplane, _region_split(geom, medium, vac, med))
        return ThetaProfile(profile, cls, omega, idx)

    k_z = idx.k_z
    kmag = idx.k_mag
    e_perp = (complex(-py), complex(px), 0j)

    def wave(w):
        """Transverse amplitude of a plane wave with vertical wavenumber w."""
        if cls.is_te:
            return e_perp
        return tuple(c / kmag for c in _axpy(w, e_par, _scale(k_par, E_Z)))

    if kind != "interface":
        region = ProfileRegion(-geom.lz / 2, geom.lz / 2, medium, (PlaneTerm(wave(k_z), k_z),))
        return ThetaProfile(VectorProfile(k_inplane, (region,)), cls, omega, idx)

    eL = epsilon(medium, omega)
    eps_inc, eps_trn = (1.0, eL) if cls.vacuum_incident else (eL, 1.0)
    q = math.copysign(1.0, k_z) * _branch_down(eps_trn * u - k_par**2, max(u, k_par**2))
    a_inc, a_trn = (1.0, 1.0) if cls.is_te else (eps_inc, eps_trn)
    r, t = _fresnel(k_z, q, a_inc, a_trn)
    incident = [PlaneTerm(wave(k_z), k_z), PlaneTerm(_scale(r, wave(-k_z)), -k_z)]
    transmitted = [PlaneTerm(_scale(t, wave(q)), q)]
    vac, med = (incident, transmitted) if cls.vacuum_incident else (transmitted, incident)
    profile = VectorProfile(k_inplane, _region_split(geom, medium, vac, med))
    return ThetaProfile(profile, cls, omega, idx)


# ---------------------------------------------------------------------------
# Hopfield coefficients, modes, normalization


def hopfield_from_theta(theta: ThetaProfile, guard: Optional[float] = None) -> HopfieldProfile:
    """Map theta to the coefficient profiles (alpha, beta, gamma, eta)."""
    omega = theta.omega
    for reg in theta.profile.regions:
        if reg.medium is not None:
            g = POLE_GUARD_REL * reg.medium.omega_T if guard is None else guard
            if abs(abs(omega) - reg.medium.omega_T) < g:
                raise PoleAtResonance(
                    f"|omega|={abs(omega)} within guard of omega_T={reg.medium.omega_T}"
                )
    alpha = theta.profile
    beta = theta.profile.curl().scaled(1j / omega)

    def gamma_factor(reg: ProfileRegion) -> complex:
        if reg.medium is None:
            return 0.0
        m = reg.medium
        return 1j * m.kappa * omega / (m.rho * (m.omega_T**2 - omega**2))

    def eta_factor(reg: ProfileRegion) -> complex:
        if reg.medium is None:
            return 0.0
        m = reg.medium
        return m.kappa * omega**2 / (m.omega_T**2 - omega**2)

    gamma = theta.profile.mapped(gamma_factor)
    eta = theta.profile.mapped(eta_factor)
    return HopfieldProfile(alpha, beta, gamma, eta, omega, theta.index)


def make_mode(geom: LayeredGeometry, idx: ModeIndex) -> PolaritonMode:
    """Build the unnormalized (N=1) positive-energy mode."""
    theta = build_theta(geom, idx)
    hop = hopfield_from_theta(theta)
    return PolaritonMode(idx, theta.omega, 1.0, theta, hop)


def _eps_nu(medium: Optional[MediumParams], omega: float) -> float:
    if medium is None:
        return 1.0 * nu_vacuum()
    return epsilon(medium, omega) * nu(medium, omega)


def _exact_region_integral(reg: ProfileRegion) -> complex:
    """Integral of |theta|^2 over the region from the exponential primitives."""
    total = 0.0 + 0.0j
    for ai, wi in reg.terms:
        for aj, wj in reg.terms:
            total += _overlap(ai, aj) * exp_integral(1j * (wi - wj.conjugate()), reg.z_min, reg.z_max)
    return total


def normalization_integral(mode: PolaritonMode, geom: LayeredGeometry) -> float:
    """eps0 * Int_box eps(omega) nu(omega) theta . conj(theta) dr for the given mode,
    summed region by region from the closed exponential primitives."""
    omega = abs(mode.omega)
    total = 0.0
    for reg in mode.theta.profile.regions:
        total += _eps_nu(reg.medium, omega) * _exact_region_integral(reg).real
    return EPS0 * geom.area * total


def _map_mode(mode: PolaritonMode, func: Callable[[VectorProfile], VectorProfile], omega: float,
              norm: float) -> PolaritonMode:
    """The mode with func applied to theta and to each Hopfield profile, at omega and N = norm.
    A Hopfield profile that is theta itself (alpha) is mapped once."""
    theta = mode.theta.profile
    mapped = func(theta)
    hop = mode.hopfield.each(lambda prof: mapped if prof is theta else func(prof), omega)
    theta_out = ThetaProfile(mapped, mode.theta.mode_class, omega, mode.index)
    return PolaritonMode(mode.index, omega, norm, theta_out, hop)


def _scaled_mode(mode: PolaritonMode, n: float) -> PolaritonMode:
    return _map_mode(mode, lambda prof: prof.scaled(n), mode.omega, mode.norm * n)


def surface_norm_constant(m: MediumParams, omega: float, k_par: float, area: float) -> float:
    """Closed-form surface-mode normalization constant N_S.

    Derived by exact integration of the normalization density over z:

        N_S^2 = k_par / (eps0 hbar omega A) * [1 + nu_L/(2 eps_L)]^(-1)
                * [s + 1/s]^(-1),     s = sqrt(-eps_L).
    """
    eL = epsilon(m, omega)
    s = math.sqrt(-eL)
    bracket = 1.0 + nu(m, omega) / (2.0 * eL)
    if bracket <= 0:
        raise QuadratureDisagreement("surface normalization bracket not positive")
    n2 = k_par / (EPS0 * HBAR * omega * area) / bracket / (s + 1.0 / s)
    return math.sqrt(n2)


def _check_against_box_integral(mode: PolaritonMode, geom: LayeredGeometry, n_closed: float,
                                rtol: float, what: str) -> None:
    """Raise QuadratureDisagreement if n_closed and the N of the box integral differ beyond rtol."""
    n_box = 1.0 / math.sqrt(HBAR * abs(mode.omega) * normalization_integral(mode, geom))
    if abs(n_closed - n_box) > rtol * n_closed:
        raise QuadratureDisagreement(f"{what} N closed={n_closed!r} vs box integral={n_box!r}")


def normalize(mode: PolaritonMode, geom: LayeredGeometry, rtol: float = 1e-8) -> PolaritonMode:
    """Fix N so the bosonic normalization integral equals sgn(omega).

    Surface modes: closed form cross-checked against the box integral of the
    exponential primitives (`normalization_integral`); QuadratureDisagreement
    beyond rtol signals a convention bug or a box too short for the decay.
    Homogeneous boxes: closed form N = sqrt(1/(eps0 hbar omega V eps_i nu_i))
    cross-checked the same way. Interface propagating classes: the box
    integral is continuum bookkeeping, so the closed form is used and the
    Fresnel identity r + 1 = t plus flux unitarity stand in for the second
    route (see module docstring).
    """
    if mode.norm != 1.0:
        raise ValueError("normalize expects an N=1 mode")
    kind, medium = _classify(geom)
    omega = abs(mode.omega)
    cls = mode.index.mode_class

    if cls is ModeClass.S:
        n_closed = surface_norm_constant(medium, omega, mode.index.k_par_mag, geom.area)
        _check_against_box_integral(mode, geom, n_closed, rtol, "surface")
        return _scaled_mode(mode, n_closed)

    # propagating classes: incidence-side epsilon*nu weight
    inc_medium = None if cls.vacuum_incident else medium
    weight = _eps_nu(inc_medium, omega)
    n_closed = math.sqrt(1.0 / (EPS0 * HBAR * omega * geom.volume * weight))
    if kind != "interface":
        _check_against_box_integral(mode, geom, n_closed, rtol, "homogeneous")
    return _scaled_mode(mode, n_closed)


def conjugate_mode(mode: PolaritonMode) -> PolaritonMode:
    """Negative-energy partner: conjugated profiles, eigenfrequency -omega."""
    return _map_mode(mode, VectorProfile.conj, -mode.omega, mode.norm)


def field_expansion_coefficients(mode: PolaritonMode) -> Dict[str, VectorProfile]:
    """Coefficients with which this mode's operator enters D, H, P, X.

    f_D = -i (hbar/mu0) curl conj(beta),  f_H = i (hbar/mu0) curl conj(alpha),
    f_P = -i hbar conj(eta),              f_X = i hbar conj(gamma).
    """
    hop = mode.hopfield
    return {
        "D": hop.beta.conj().curl().scaled(-1j * HBAR / MU0),
        "H": hop.alpha.conj().curl().scaled(1j * HBAR / MU0),
        "P": hop.eta.conj().scaled(-1j * HBAR),
        "X": hop.gamma.conj().scaled(1j * HBAR),
    }


# ---------------------------------------------------------------------------
# verification helpers


def wave_equation_residual(theta: ThetaProfile, geom: LayeredGeometry, z_points) -> float:
    """Max pointwise |curl curl theta - (omega^2 eps / c^2) theta| / scale.

    Curls are evaluated by exact term algebra; the scale is
    (omega/c)^2 * max|theta| over the sample points.
    """
    u = (theta.omega / C) ** 2
    cc = theta.profile.curl().curl()
    z = np.atleast_1d(np.asarray(z_points, dtype=float))
    res_max = 0.0
    th_max = 0.0
    for i, mask in theta.profile._split(z):
        med = theta.profile.regions[i].medium
        eps_here = 1.0 if med is None else epsilon(med, theta.omega)
        lhs = cc.evaluate_region(i, z[mask])
        th = theta.profile.evaluate_region(i, z[mask])
        res_max = max(res_max, float(np.max(np.abs(lhs - u * eps_here * th))))
        th_max = max(th_max, float(np.max(np.abs(th))))
    return res_max / (abs(u) * th_max) if th_max > 0 else res_max


def interface_continuity(mode: PolaritonMode, geom: LayeredGeometry) -> Dict[str, float]:
    """Jump magnitudes of the matching fields at z = 0 (normalized to field scale).

    TE: tangential theta and tangential curl theta. TM/S: tangential theta
    (E-like), normal eps*theta (D-like), and tangential curl theta (H-like).
    """
    kind, medium = _classify(geom)
    if kind != "interface":
        raise ValueError("continuity check requires the interface geometry")
    prof = mode.theta.profile
    curl = prof.curl()
    below = prof.evaluate_region(0, 0.0)[0]
    above = prof.evaluate_region(1, 0.0)[0]
    cbelow = curl.evaluate_region(0, 0.0)[0]
    cabove = curl.evaluate_region(1, 0.0)[0]
    scale = max(np.max(np.abs(below)), np.max(np.abs(above)), 1e-300)
    cscale = max(np.max(np.abs(cbelow)), np.max(np.abs(cabove)), 1e-300)
    e_par = mode.index.e_par
    e_perp = mode.index.e_perp
    eL = epsilon(medium, abs(mode.omega))
    jumps = {
        "theta_par": abs(np.dot(e_par, above - below)) / scale,
        "theta_perp": abs(np.dot(e_perp, above - below)) / scale,
        "eps_theta_z": abs(above[2] - eL * below[2]) / scale,
        "curl_par": abs(np.dot(e_par, cabove - cbelow)) / cscale,
        "curl_perp": abs(np.dot(e_perp, cabove - cbelow)) / cscale,
    }
    return jumps
