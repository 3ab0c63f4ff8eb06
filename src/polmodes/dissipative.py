"""Bath-dressed response: lossy dielectric function and driven field solutions.

Coupling the matter oscillator to a continuum of bath oscillators with
coupling spectrum upsilon(zeta) renormalizes the longitudinal frequency,

    omega_L_tilde^2 = omega_T^2 + kappa^2/(eps0 rho)
                      + Int_0^inf dzeta upsilon(zeta)^2 / (2 rho^2),

and, after eliminating the bath (principal-value channel plus the on-shell
delta channel), replaces the lossless dielectric function by

    eps_tilde(omega) = (omega_L_tilde^2 - omega^2 - F(omega))
                     / (omega_T^2     - omega^2 - F(omega)),

    F(omega) = P Int_0^inf dzeta upsilon^2 zeta^2 / (rho^2 (zeta^2 - omega^2))
               + i pi upsilon(omega)^2 omega / (2 rho^2).

The imaginary part is the retarded (+i0) prescription of the same integral;
its prefactor is pinned operationally by the Kramers-Kronig and damped-Lorentz
checks in the test suite. Im eps_tilde >= 0 for omega > 0 follows structurally
because Im F >= 0 and omega_L_tilde >= omega_T.

Every bath carries its own F(omega) and omega_L shift: the flat, ohmic and
null baths in closed form, `quadrature_bath` by quadrature of any upsilon,
which also cross-checks the closed forms in `polmodes verify`. F is even in
omega, with F(0) = Int upsilon^2 / rho^2, twice the shift.

The principal value is computed by singular subtraction: the numerator is
frozen at the pole, the difference integrated as an ordinary (smooth)
integrand, and the frozen part integrated by the analytic primitive

    P Int_a^b dzeta / (zeta^2 - w^2)
        = (1/2w) ln | (b - w)(a + w) / ((b + w)(a - w)) |.

Driven solutions of the inhomogeneous wave equation at fixed k_par are
computed for TE polarization and sheet currents by a layer solve with
outgoing/decaying radiation conditions: each layer carries two exponentials
anchored at its own edges (so no growing factor is ever formed), continuity
and source-jump conditions close a small well-conditioned linear system.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BathMediumMismatch,
    DivergentBathIntegral,
    InvalidDrive,
    NonConvergentTransfer,
    PoleAtResonance,
    SingularEndpoint,
)
from .media import C, EPS0, LayeredGeometry, MediumParams, exp_integral, locate

_ENDPOINT_TOL = 1e-9


@dataclass(frozen=True)
class BathModel:
    """Bath coupling spectrum upsilon(zeta) >= 0 on [zeta_min, zeta_max], with its
    principal-value kernel `kernel(omega)` = F(omega) at omega > 0 and its omega_L^2 shift
    Int upsilon^2 / (2 rho^2). `flat_bath`, `ohmic_bath` and `null_bath` set closed forms,
    `quadrature_bath` integrates any other upsilon.
    """

    medium: MediumParams
    upsilon: Callable[[float], float]
    zeta_min: float
    zeta_max: float  # may be math.inf
    kernel: Callable[[float], float]
    shift: float

    def __post_init__(self):
        if self.zeta_min < 0 or not self.zeta_max > self.zeta_min:
            raise ValueError("bath support must satisfy 0 <= zeta_min < zeta_max")

    def upsilon_at(self, zeta: float) -> float:
        if zeta < self.zeta_min or zeta > self.zeta_max:
            return 0.0
        v = self.upsilon(zeta)
        if v < 0:
            raise ValueError("upsilon must be non-negative")
        return v


def _no_coupling(omega: float) -> float:
    return 0.0


def flat_bath(medium: MediumParams, upsilon0: float, zeta_min: float, zeta_max: float) -> BathModel:
    """Constant coupling upsilon0 >= 0 on a finite band [a, b], with the closed forms

        F(omega) = upsilon0^2/rho^2 [(b - a) + (omega/2) ln|(b - omega)(a + omega) / ((b + omega)(a - omega))|],
        shift    = upsilon0^2 (b - a) / (2 rho^2).

    F raises SingularEndpoint for omega on a band edge (to 1e-9 relative), where it diverges;
    a shift beyond the float range raises OverflowError.
    """
    if not (upsilon0 >= 0 and math.isfinite(zeta_max)):
        raise ValueError("a flat bath needs upsilon0 >= 0 on a finite band")
    c = (upsilon0 / medium.rho) ** 2
    shift = c * (zeta_max - zeta_min) / 2
    if shift == math.inf:
        raise OverflowError(f"the shift of the flat bath {upsilon0} on [{zeta_min}, {zeta_max}]")
    edge = _ENDPOINT_TOL * zeta_max

    def kernel(omega):
        if zeta_min <= omega <= zeta_max and min(omega - zeta_min, zeta_max - omega) < edge:
            raise SingularEndpoint(f"omega={omega} on an edge of the band [{zeta_min}, {zeta_max}]")
        return c * ((zeta_max - zeta_min) + omega**2 * _pv_log_primitive(zeta_min, zeta_max, omega))

    return BathModel(medium, lambda z: upsilon0, zeta_min, zeta_max,
                     kernel if c > 0 else _no_coupling, shift)


_ASYMPTOTIC_X = 60.0


def ohmic_bath(medium: MediumParams, amplitude: float, cutoff: float) -> BathModel:
    """Ohmic spectrum with exponential cutoff: upsilon^2 = amplitude^2 zeta exp(-zeta/cutoff),
    for amplitude >= 0 and a finite cutoff > 0.

    With x = omega/cutoff, E1 and Ei the exponential integrals and A = amplitude,

        F(omega) = A^2/rho^2 [cutoff^2 + (omega^2/2)(e^x E1(x) - e^-x Ei(x))],
        shift    = A^2 cutoff^2 / (2 rho^2).

    The bracket cancels to -sum_{j>=1} (2j+1)!/x^(2j) of order 6/x^2, so from
    x = 60 on, where the leading cancellation would cost digits and e^x later
    overflows, the asymptotic series is summed instead (accurate to ~1e-16 there).
    """
    if not (amplitude >= 0 and 0 < cutoff < math.inf):
        raise ValueError("an ohmic bath needs amplitude >= 0 and a finite cutoff > 0")
    c = (amplitude * cutoff / medium.rho) ** 2

    def kernel(omega):
        x = omega / cutoff
        if x >= _ASYMPTOTIC_X:
            inv_x2, term, total, j = 1.0 / (x * x), 1.0, 0.0, 0
            while True:
                j += 1
                term *= (2 * j) * (2 * j + 1) * inv_x2
                total += term
                if term <= 1e-17 * total:
                    return -c * total
        from scipy.special import exp1, expi

        return c * (1.0 + 0.5 * x * x * (math.exp(x) * exp1(x) - math.exp(-x) * expi(x)))

    return BathModel(medium, lambda z: amplitude * math.sqrt(z) * math.exp(-z / (2.0 * cutoff)),
                     0.0, math.inf, kernel if c > 0 else _no_coupling, c / 2)


def null_bath(medium: MediumParams) -> BathModel:
    """Zero coupling: the lossless limit."""
    return BathModel(medium, lambda z: 0.0, 0.0, 1.0, _no_coupling, 0.0)


def quadrature_bath(medium: MediumParams, upsilon: Callable[[float], float],
                    zeta_min: float, zeta_max: float) -> BathModel:
    """A bath of any coupling upsilon on [zeta_min, zeta_max] (zeta_max may be math.inf):
    F(omega) by quadrature on every call (`_quadrature_kernel_F`), and the omega-independent
    shift integrated once, here. A divergent shift raises DivergentBathIntegral."""
    support = BathModel(medium, upsilon, zeta_min, zeta_max, _no_coupling, 0.0)
    return replace(support, kernel=functools.partial(_quadrature_kernel_F, support),
                   shift=_bath_shift_integral(support))


def _pv_log_primitive(a: float, b: float, w: float) -> float:
    """P Int_a^b dzeta/(zeta^2 - w^2) for w inside or outside (a, b)."""
    return (1.0 / (2.0 * w)) * math.log(abs((b - w) * (a + w) / ((b + w) * (a - w))))


def principal_value_integral(g: Callable[[float], float], a: float, b: float, w: float) -> float:
    """P Int_a^b g(zeta)/(zeta^2 - w^2) dzeta with the pole possibly inside (a, b).

    Subtracts g(w) at the pole, integrates the smooth remainder adaptively,
    and adds the analytic primitive for the frozen part. Raises
    SingularEndpoint when w coincides with an endpoint.
    """
    from scipy.integrate import quad

    scale = max(abs(a), abs(b), w)
    at_end = min(abs(w - a), abs(w - b)) < _ENDPOINT_TOL * scale
    gw = g(w) if w > 0 else 0.0
    if at_end and gw != 0.0:
        raise SingularEndpoint(f"pole at {w} coincides with an integration endpoint")
    if w <= 0 or at_end or not a < w < b:
        # no pole inside (a, b), or one on an end where g vanishes: a regular integrand
        val, _ = quad(lambda z: g(z) / (z**2 - w**2), a, b, limit=400, epsabs=0)
        return val

    def smooth(z):
        if abs(z - w) < 1e-14 * scale:
            # limit of (g(z) - g(w))/(z^2 - w^2): finite, approach numerically
            z = w + 1e-9 * scale
        return (g(z) - gw) / (z**2 - w**2)

    val, _ = quad(smooth, a, b, limit=400, points=[w], epsabs=0)
    return val + gw * _pv_log_primitive(a, b, w)


def renormalized_omega_L(m: MediumParams, bath: BathModel) -> float:
    """Bath-shifted longitudinal frequency omega_L_tilde; m must be the bath's medium."""
    if bath.medium != m:
        raise BathMediumMismatch(f"bath bound to {bath.medium} used with medium {m}")
    return math.sqrt(m.omega_T**2 + m.kappa**2 / (EPS0 * m.rho) + bath.shift)


def _bath_shift_integral(bath: BathModel) -> float:
    """Int upsilon^2 / (2 rho^2) over the bath support, or DivergentBathIntegral."""
    from scipy.integrate import IntegrationWarning, quad

    rho2 = bath.medium.rho**2
    hi = np.inf if math.isinf(bath.zeta_max) else bath.zeta_max
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(lambda z: bath.upsilon_at(z) ** 2 / (2 * rho2),
                            bath.zeta_min, hi, limit=400, epsabs=0, epsrel=1e-10)
        except IntegrationWarning as exc:
            raise DivergentBathIntegral(f"renormalization integral: {exc}") from exc
    if not math.isfinite(val) or err > 1e-8 * max(abs(val), 1e-30) + 1e-12:
        raise DivergentBathIntegral(f"renormalization integral value={val}, err={err}")
    return val


def bath_kernel_F(bath: BathModel, omega: float) -> float:
    """Real principal-value kernel F(omega) of the bath elimination.

    F depends on omega^2 only, so this is the bath's kernel at |omega|; at omega = 0,
    where F = Int upsilon^2 / rho^2, it is twice the bath's shift.
    """
    if not math.isfinite(omega):
        raise ValueError(f"bath_kernel_F needs a finite omega, got {omega}")
    return bath.kernel(abs(omega)) if omega else 2.0 * bath.shift


def _quadrature_kernel_F(bath: BathModel, omega: float) -> float:
    """F(omega) at omega > 0 by quadrature of upsilon: the principal value by singular
    subtraction on [zeta_min, b], where b is zeta_max or, for an infinite support, a split
    point past which a plain tail integral is regular."""
    from scipy.integrate import quad

    rho2 = bath.medium.rho**2

    def g(z):
        return bath.upsilon_at(z) ** 2 * z**2 / rho2

    if math.isinf(bath.zeta_max):
        b = max(4.0 * omega, 4.0 * bath.zeta_min + 1.0)
        tail, _ = quad(lambda z: g(z) / (z**2 - omega**2), b, np.inf, limit=400, epsabs=0)
        return principal_value_integral(g, bath.zeta_min, b, omega) + tail
    return principal_value_integral(g, bath.zeta_min, bath.zeta_max, omega)


def lossy_epsilon(m: MediumParams, bath: BathModel, omega: float) -> complex:
    """Complex bath-dressed dielectric function eps_tilde(omega); m must be the bath's medium."""
    if omega <= 0:
        raise ValueError("lossy_epsilon is defined for omega > 0")
    wl2 = renormalized_omega_L(m, bath) ** 2
    f_re = bath_kernel_F(bath, omega)
    f_im = math.pi * bath.upsilon_at(omega) ** 2 * omega / (2.0 * m.rho**2)
    f = f_re + 1j * f_im
    den = m.omega_T**2 - omega**2 - f
    if den == 0:
        raise PoleAtResonance(f"eps_tilde has a pole at omega={omega}: the bath does not damp it")
    return (wl2 - omega**2 - f) / den


def y_to_source_current(m: MediumParams, bath: BathModel, omega: float, y: complex) -> complex:
    """Source amplitude j(omega) for a given bath normalization function y(omega)."""
    eps_t = lossy_epsilon(m, bath, omega)
    return bath.upsilon_at(omega) / (m.kappa * m.rho * C**2) * (eps_t - 1.0) * y


# ---------------------------------------------------------------------------
# driven field


@dataclass(frozen=True)
class _Segment:
    z_lo: float
    z_hi: float
    q: complex
    a: complex  # coefficient of exp(+iq(z - z_lo))
    b: complex  # coefficient of exp(-iq(z - z_hi))
    eps: complex


@dataclass(frozen=True)
class DrivenFieldSolution:
    """Piecewise solution theta_perp(z) of the driven TE wave equation."""

    omega: float
    k_par: float
    segments: Tuple[_Segment, ...]

    def evaluate(self, z) -> np.ndarray:
        _, up, down = self._waves(z)
        return up + down

    def derivative(self, z) -> np.ndarray:
        q, up, down = self._waves(z)
        return 1j * q * (up - down)

    def _waves(self, z):
        """q, a exp(iq(z - z_lo)) and b exp(-iq(z - z_hi)) at each point, from its segment."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        z_lo = np.array([s.z_lo for s in self.segments])
        z_hi = np.array([s.z_hi for s in self.segments])
        i = locate(z, z_lo, z_hi)
        q, a, b = (np.array([(s.q, s.a, s.b) for s in self.segments])[i]).T
        return q, a * np.exp(1j * q * (z - z_lo[i])), b * np.exp(-1j * q * (z - z_hi[i]))


def driven_field(
    geom: LayeredGeometry,
    bath: BathModel,
    omega: float,
    sheets: Sequence[Tuple[float, complex]],
    k_par: float = 0.0,
) -> DrivenFieldSolution:
    """Solve the driven TE wave equation with sheet currents at fixed k_par.

    Each (z_s, J) adds i omega J delta(z - z_s) e_perp to the right-hand side.
    Radiation conditions: purely outgoing/decaying waves in the outermost
    layers. With Im eps_tilde > 0 the operator is invertible for every
    omega > 0 (no resonance catastrophe); a singular layer system raises
    NonConvergentTransfer, and omega <= 0 or a sheet outside the box raises
    InvalidDrive.
    """
    if omega <= 0:
        raise InvalidDrive("driven_field requires omega > 0")
    u = (omega / C) ** 2
    z_breaks = sorted({lay.z_min for lay in geom.layers}
                      | {lay.z_max for lay in geom.layers}
                      | {float(z) for z, _ in sheets})
    lo, hi = z_breaks[0], z_breaks[-1]
    for z_s, _ in sheets:
        if not (lo < z_s < hi):
            raise InvalidDrive("source sheets must lie strictly inside the box")
    segs: List[Tuple[float, float, complex]] = []
    for z0, z1 in zip(z_breaks[:-1], z_breaks[1:]):
        zc = 0.5 * (z0 + z1)
        med = geom.medium_at(zc)
        eps_here = 1.0 + 0.0j if med is None else lossy_epsilon(med, bath, omega)
        segs.append((z0, z1, eps_here))
    n_seg = len(segs)
    qs = [np.sqrt(complex(u * e - k_par**2)) for _, _, e in segs]
    qs = [q if (q.imag > 0 or (q.imag == 0 and q.real >= 0)) else -q for q in qs]

    # rows 2i and 2i + 1: continuity of theta and the derivative jump
    # theta'(+) - theta'(-) = -i omega J at boundary i, over the columns (a_i, b_i, a_i+1, b_i+1)
    # of the unknowns (a_0, b_0, a_1, b_1, ...)
    dim = 2 * n_seg - 2
    full = np.zeros((dim, dim + 2), dtype=complex)
    rhs = np.zeros(dim, dtype=complex)
    sheet_at: Dict[float, complex] = {}  # the summed current of the sheets at each z
    for z, j in sheets:
        z, j = float(z), complex(j)
        sheet_at[z] = sheet_at[z] + j if z in sheet_at else j
    for i in range(n_seg - 1):
        qi, qj = qs[i], qs[i + 1]
        e_i = np.exp(1j * qi * (segs[i][1] - segs[i][0]))
        e_j = np.exp(1j * qj * (segs[i + 1][1] - segs[i + 1][0]))
        full[2 * i:2 * i + 2, 2 * i:2 * i + 4] = (
            (e_i, 1.0, -1.0, -e_j),
            (-1j * qi * e_i, 1j * qi, 1j * qj, -1j * qj * e_j),
        )
        rhs[2 * i + 1] = -1j * omega * sheet_at.get(segs[i][1], 0.0)
    # the radiation conditions remove a_0 and b_n-1: no wave comes in from outside the box
    mat = full[:, 1:-1]

    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergentTransfer("layer system singular") from exc
    resid = np.linalg.norm(mat @ sol - rhs)
    if resid > 1e-8 * max(np.linalg.norm(rhs), 1e-300):
        raise NonConvergentTransfer(f"layer system ill-conditioned, residual {resid}")

    coef = [0.0, *sol.tolist(), 0.0]  # (a_0, b_0, ..., a_n-1, b_n-1)
    segments = [_Segment(z0, z1, q, complex(coef[2 * i]), complex(coef[2 * i + 1]), e)
                for i, ((z0, z1, e), q) in enumerate(zip(segs, qs))]
    return DrivenFieldSolution(omega, k_par, tuple(segments))


def _segment_abs2_integral(seg: _Segment, lo: float, hi: float) -> float:
    """Exact Int_lo^hi |theta|^2 dz within one segment.

    Each pair of waves c exp(i w (z - r)) is integrated in the first wave's own
    coordinate z - r_i, where every factor is bounded for a decaying wave: the
    coefficient c_i conj(c_j) exp(-i conj(w_j) (r_i - r_j)) and exp(i (w_i - conj(w_j)) t)
    over [lo - r_i, hi - r_i].
    """
    terms = ((seg.a, seg.q, seg.z_lo), (seg.b, -seg.q, seg.z_hi))
    total = 0.0
    for ci, wi, ri in terms:
        for cj, wj, rj in terms:
            coef = ci * np.conj(cj) * np.exp(-1j * np.conj(wj) * (ri - rj))
            total += (coef * exp_integral(1j * (wi - np.conj(wj)), lo - ri, hi - ri)).real
    return total


def power_balance(
    sol: DrivenFieldSolution,
    geom: LayeredGeometry,
    bath: BathModel,
    sheets: Sequence[Tuple[float, complex]],
    z1: float,
    z2: float,
) -> Tuple[float, float]:
    """Energy audit over [z1, z2]: boundary flux difference vs absorbed + injected.

    Returns (lhs, rhs) of
        F(z2) - F(z1) = -u Int Im eps |theta|^2 dz - omega Sum Re(conj(theta) J),
    with F(z) = Im(conj(theta) theta'). The absorbed-power integral is
    evaluated by exact exponential primitives per segment.
    """
    u = (sol.omega / C) ** 2
    th1, th2 = sol.evaluate([z1, z2])
    d1, d2 = sol.derivative([z1, z2])
    lhs = float(np.imag(np.conj(th2) * d2) - np.imag(np.conj(th1) * d1))
    absorbed = 0.0
    for seg in sol.segments:
        lo, hi = max(seg.z_lo, z1), min(seg.z_hi, z2)
        if hi <= lo or seg.eps.imag == 0.0:
            continue
        absorbed += u * seg.eps.imag * _segment_abs2_integral(seg, lo, hi)
    injected = 0.0
    for z_s, j_s in sheets:
        if z1 < z_s < z2:
            th = sol.evaluate(z_s)[0]
            injected += sol.omega * float(np.real(np.conj(th) * j_s))
    rhs = -absorbed - injected
    return lhs, rhs


def kramers_kronig_real(
    im_eval: Callable[[float], float],
    support: Tuple[float, float],
    omega: float,
    breakpoints: Optional[Sequence[float]] = None,
) -> float:
    """Reconstruct Re eps(omega) - 1 from Im eps via the dispersion integral.

    (2/pi) P Int_0^inf zeta Im eps(zeta) / (zeta^2 - omega^2) dzeta over the
    Im support. Optional breakpoints split the interval around sharp features.
    """
    a, b = support
    pts = sorted(set([a, b] + list(breakpoints or [])))
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += principal_value_integral(lambda z: (2.0 / math.pi) * z * im_eval(z), lo, hi, omega)
    return total
