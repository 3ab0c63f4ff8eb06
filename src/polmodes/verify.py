"""Invariant registry behind `polmodes verify` and the acceptance tests.

Each `check_*` function computes one invariant and returns a `VerifyResult`
that carries every gate the invariant is held to, each a (label, measured,
tolerance) `Gate`. A gate passes when its measured value is below its
tolerance or exactly zero, so a zero tolerance demands an exact zero; a
result passes exactly when all of its gates do.

A check takes as arguments the sizes in which its callers differ: grid size,
sample or point count, seed, frequency band and the media sampler. The
defaults are the sizes of `polmodes verify`; `tests/test_acceptance.py` calls
the same functions at its pinned sizes, so each invariant is computed in one
place. Where the callers once sampled differently and a sample costs little,
the check runs the union (the two surface modes of `_sample_modes`). `run_all` runs
`ALL_CHECKS` at their defaults and scales the tolerance of every gate by
`tol_scale`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import dispersion as disp
from . import dissipative as diss
from . import media
from . import modes as md
from . import nonlinear as nl
from . import realspace as rs
from .errors import PoleAtResonance


@dataclass(frozen=True)
class Gate:
    label: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured < self.tolerance or self.measured == 0.0


@dataclass(frozen=True)
class VerifyResult:
    name: str
    gates: Tuple[Gate, ...]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    def scaled(self, factor: float) -> "VerifyResult":
        """The same result with the tolerance of every gate multiplied by `factor`."""
        return replace(self, gates=tuple(replace(g, tolerance=g.tolerance * factor) for g in self.gates))

    def describe(self) -> str:
        """`measured ... tol ...` for the first gate, then the other gates in brackets."""
        first, *rest = self.gates
        text = f"measured {first.measured:.3e}"
        if first.tolerance > 0:
            text += f"  tol {first.tolerance:.1e}"
        notes = [f"{g.label} {g.measured:.1e} (tol {g.tolerance:.1e})" for g in rest]
        if notes:
            text += f"  [{'; '.join(notes)}]"
        return text


def _result(name: str, *gates: Tuple[str, float, float]) -> VerifyResult:
    return VerifyResult(name, tuple(Gate(label, float(measured), tol) for label, measured, tol in gates))


def _random_media(rng, count):
    w_t = rng.uniform(0.3, 3.0, count)
    ratio = rng.uniform(1.0 + 1e-6, 2.5, count)
    rho = rng.uniform(0.1, 10.0, count)
    return [media.from_phonon_frequencies(t, t * r, p) for t, r, p in zip(w_t, ratio, rho)]


def check_lst_relation(samples: int = 1000, tol: float = 1e-12) -> VerifyResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for m in _random_media(rng, samples):
        lhs = media.epsilon(m, 0.0) * m.omega_T**2
        worst = max(worst, abs(lhs - m.omega_L**2) / m.omega_L**2)
    return _result("media: Lyddane-Sachs-Teller identity", ("relative error", worst, tol))


def check_reststrahlen_sign(samples: int = 1000) -> VerifyResult:
    rng = np.random.default_rng(12)
    bad = 0
    for m in _random_media(rng, samples):
        w = rng.uniform(0.01 * m.omega_T, 2.0 * m.omega_L)
        if abs(w - m.omega_T) < 1e-6 * m.omega_T or abs(w - m.omega_L) < 1e-6 * m.omega_T:
            continue
        inside = m.omega_T < w < m.omega_L
        if (media.epsilon(m, w) < 0) != inside:
            bad += 1
    return _result("media: eps < 0 exactly on the reststrahlen band", ("sign errors", bad, 0.0))


def check_epsilon_monotonic(samples: int = 1000) -> VerifyResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for m in _random_media(rng, samples):
        w = rng.uniform(0.01 * m.omega_T, 3.0 * m.omega_L)
        if abs(w - m.omega_T) < 1e-3 * m.omega_T:
            continue
        worst = max(worst, -media.epsilon_derivative(m, w))
    return _result("media: d(eps)/d(omega) > 0 on each branch", ("steepest decrease", worst, 0.0))


def check_nu_closed_form(samples: int = 1000, tol: float = 1e-6) -> VerifyResult:
    rng = np.random.default_rng(14)
    h = 1e-6
    worst = 0.0
    for m in _random_media(rng, samples):
        w = rng.uniform(0.05 * m.omega_T, 3.0 * m.omega_L)
        if min(abs(w - m.omega_T), abs(w - m.omega_L)) < 1e-2 * m.omega_T:
            continue
        fd = 1.0 + (media.epsilon(m, w + h) * (w + h) - media.epsilon(m, w - h) * (w - h)) / (
            2 * h * media.epsilon(m, w)
        )
        worst = max(worst, abs(media.nu(m, w) - fd) / abs(fd))
    return _result("media: closed-form nu matches finite differences", ("relative error", worst, tol))


def check_vieta(samples: int = 1000, seed: int = 15, sampler: Callable = _random_media,
                tol: float = 1e-12) -> VerifyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in sampler(rng, samples):
        k = rng.uniform(0.0, 10.0 * m.omega_L)
        ol, ou = disp.bulk_branches(m, k)
        s = m.omega_L**2 + k**2
        p = (k * m.omega_T) ** 2
        worst = max(worst, abs(ol**2 + ou**2 - s) / s)
        if p > 0:
            worst = max(worst, abs(ol**2 * ou**2 - p) / p)
    return _result("dispersion: bulk-branch Vieta identities", ("relative error", worst, tol))


def check_branch_ordering(samples: int = 1000) -> VerifyResult:
    rng = np.random.default_rng(16)
    bad = 0
    for m in _random_media(rng, samples):
        k = rng.uniform(1e-6, 10.0 * m.omega_L)
        ol, ou = disp.bulk_branches(m, k)
        bad += not ol < m.omega_T <= m.omega_L <= ou
    return _result("dispersion: branch ordering omega_l < omega_T <= omega_L <= omega_u",
                   ("misordered samples", bad, 0.0))


def check_surface_roundtrip(samples: int = 200, tol: float = 1e-10) -> VerifyResult:
    rng = np.random.default_rng(17)
    worst = 0.0
    for m in _random_media(rng, samples):
        top = disp.surface_window_top(m)
        w = m.omega_T + rng.uniform(1e-3, 0.999) * (top - m.omega_T)
        k = disp.surface_dispersion_kpar(m, w)
        w2 = disp.surface_dispersion_omega(m, k)
        worst = max(worst, abs(w2 - w) / w)
    return _result("dispersion: surface branch round-trip", ("relative error", worst, tol))


def check_surface_monotone(points: int = 400) -> VerifyResult:
    m = media.default_medium()
    ks = np.linspace(m.omega_T * 1.0001, 40 * m.omega_T, points)
    ws = np.array([disp.surface_dispersion_omega(m, k) for k in ks])
    return _result("dispersion: surface omega(k_par) strictly increasing",
                   ("non-increasing steps", np.sum(np.diff(ws) <= 0), 0.0))


def _sample_modes(geom, m):
    surface = [disp.ModeIndex(disp.ModeClass.S, (disp.surface_dispersion_kpar(m, w * m.omega_T), 0.0))
               for w in (1.08, 1.1)]
    return [
        *(md.make_mode(geom, idx) for idx in surface),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TEv, (0.4, 0.1), 0.5)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TMv, (0.3, 0.0), 1.0)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TEl, (0.5, 0.0), -0.8)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TEu, (0.5, 0.0), -0.8)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TMl, (0.2, 0.4), -0.7)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TMu, (0.2, 0.4), -0.7)),
    ]


def check_wave_equation_residuals(points: int = 1000, tol: float = 1e-8) -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    zs = np.linspace(-19.9, 19.9, points)
    worst = 0.0
    for mode in _sample_modes(geom, m):
        worst = max(worst, md.wave_equation_residual(mode.theta, geom, zs))
        worst = max(worst, md.wave_equation_residual(md.conjugate_mode(mode).theta, geom, zs))
    return _result("modes: wave-equation residuals (all classes, +/- energy)", ("residual", worst, tol))


def check_interface_continuity(tol: float = 1e-10) -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    worst = 0.0
    for mode in _sample_modes(geom, m):
        worst = max(worst, max(md.interface_continuity(mode, geom).values()))
    return _result("modes: interface matching conditions", ("jump", worst, tol))


def _abs2_density(reg: md.ProfileRegion) -> Callable[[float], float]:
    """Pointwise |theta(z)|^2 within the region, in scalar complex arithmetic."""
    terms = [(complex(t.w), tuple(complex(a) for a in t.amplitude)) for t in reg.terms]

    def dens(z: float) -> float:
        x = y = zc = 0j
        for w, (ax, ay, az) in terms:
            e = cmath.exp(1j * w * z)
            x += ax * e
            y += ay * e
            zc += az * e
        return x.real**2 + x.imag**2 + y.real**2 + y.imag**2 + zc.real**2 + zc.imag**2

    return dens


def quadrature_norm(mode: md.PolaritonMode, geom: media.LayeredGeometry) -> float:
    """N of an N=1 mode from adaptive quadrature of the pointwise density over the box:
    a route independent of both the closed forms and the exponential primitives of
    `modes.normalization_integral`."""
    from scipy.integrate import quad

    omega = abs(mode.omega)
    total = 0.0
    for reg in mode.theta.profile.regions:
        val, _ = quad(_abs2_density(reg), reg.z_min, reg.z_max, limit=400)
        total += md._eps_nu(reg.medium, omega) * val
    return 1.0 / math.sqrt(media.HBAR * omega * media.EPS0 * geom.area * total)


def surface_norm_quadrature_error(m, omega: float) -> float:
    """Relative mismatch between the closed-form surface N and the quadrature route.

    The box is sized so the slowest decay accumulates >= 16 e-foldings, which
    keeps the truncated tail below the comparison tolerance.
    """
    k = disp.surface_dispersion_kpar(m, omega)
    e_l = media.epsilon(m, omega)
    kappa_v = k * math.sqrt(-1.0 / e_l)
    lz = max(40.0, 32.0 / min(kappa_v, k * math.sqrt(-e_l)))
    geom = media.vacuum_interface(m, lz)
    mode = md.make_mode(geom, disp.ModeIndex(disp.ModeClass.S, (k, 0.0)))
    n_closed = md.surface_norm_constant(m, mode.omega, k, geom.area)
    return abs(n_closed - quadrature_norm(mode, geom)) / n_closed


def check_surface_normalization(points: int = 12, band: Tuple[float, float] = (1.01, 0.995),
                                tol: float = 1e-8) -> VerifyResult:
    """`points` frequencies from band[0]*omega_T to band[1] times the top of the surface window."""
    m = media.default_medium()
    top = disp.surface_window_top(m)
    worst = 0.0
    for w in np.linspace(m.omega_T * band[0], top * band[1], points):
        worst = max(worst, surface_norm_quadrature_error(m, float(w)))
    return _result("modes: surface normalization closed form vs quadrature", ("relative gap", worst, tol))


def check_homogeneous_normalization(tol: float = 1e-10) -> VerifyResult:
    """Matter (TMl, TEu) and vacuum (TEv) box modes: the normalized integral is 1 by the
    exponential primitives, TEv's N is its closed form, and every N matches adaptive quadrature."""
    m = media.default_medium()
    geom_m = media.homogeneous_box(m, 12.0)
    geom_v = media.homogeneous_box(None, 12.0)
    cases = ((geom_m, disp.ModeIndex(disp.ModeClass.TMl, (0.3, 0.0), -0.6)),
             (geom_m, disp.ModeIndex(disp.ModeClass.TEu, (0.3, 0.0), -0.6)),
             (geom_v, disp.ModeIndex(disp.ModeClass.TEv, (0.3, 0.0), 0.7)))
    worst = quad_gap = 0.0
    for geom, idx in cases:
        mode = md.make_mode(geom, idx)
        mm = md.normalize(mode, geom)
        worst = max(worst, abs(media.HBAR * mm.omega * md.normalization_integral(mm, geom) - 1.0))
        quad_gap = max(quad_gap, abs(mm.norm - quadrature_norm(mode, geom)) / mm.norm)
    tev = mm  # the last case
    expected = math.sqrt(1.0 / (2 * media.EPS0 * media.HBAR * tev.omega * geom_v.volume))
    return _result("modes: homogeneous-box normalization", ("norm error", worst, tol),
                   ("TEv closed form", abs(tev.norm - expected) / expected, 1e-14),
                   ("closed form vs quadrature", quad_gap, tol))


def check_flux_unitarity(samples: int = 50, tol: float = 1e-12) -> VerifyResult:
    m = media.default_medium()
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(samples):
        k_par = rng.uniform(0.0, 2.0)
        k_z = rng.uniform(0.05, 3.0)
        k2 = k_par**2 + k_z**2
        omega = math.sqrt(k2)
        try:
            e_l = media.epsilon(m, omega)
        except PoleAtResonance:
            continue
        q2 = e_l * k2 - k_par**2
        r, t = md.fresnel_te(m, (k_par, 0.0, k_z))
        if q2 > 0:
            q = math.sqrt(q2)
            worst = max(worst, abs(abs(r) ** 2 + (q / k_z) * abs(t) ** 2 - 1.0))
        else:
            worst = max(worst, abs(abs(r) - 1.0))
    return _result("modes: TE Fresnel flux unitarity / unimodularity", ("flux defect", worst, tol))


def _interface_operator(n: int, polarization: str, k_par: float):
    geom = media.vacuum_interface(media.default_medium(), 40.0)
    return rs.assemble_operator(geom, rs.Grid1D(n, 40.0), k_par, polarization, strict_resolution=False)


def check_realspace_self_adjoint(n: int = 128, cases: Sequence[Tuple[str, float]] = (("TE", 2.0), ("TM", 2.0)),
                                 tol: float = 1e-12) -> VerifyResult:
    """Defect of K B0 = (K B0)^H relative to max|K B0s| of the sparse assembly (max|K B0| to
    roundoff, since the projection removes a gradient, which the curl annihilates), per
    (polarization, k_par) case."""
    worst = 0.0
    for pol, k_par in cases:
        op = _interface_operator(n, pol, k_par)
        scale = abs(op.krein @ op.b0_sparse).max()
        worst = max(worst, rs.self_adjointness_defect(op) / scale)
    return _result("realspace: Krein self-adjointness of B0", ("relative defect", worst, tol))


def check_realspace_spectrum(n: int = 96, cases: Sequence[Tuple[str, float]] = (("TE", 0.8), ("TM", 0.8)),
                             vectors: int = 4, seed: int = 19) -> VerifyResult:
    """Full spectrum per (polarization, k_par) case, completeness on `vectors` random test vectors."""
    omega_t = media.default_medium().omega_T
    rng = np.random.default_rng(seed)
    pairing = offdiag = diag = comp = resid = inverse_floor = 0.0
    for pol, k_par in cases:
        op = _interface_operator(n, pol, k_par)
        sol = rs.solve_spectrum(op)
        gram = sol.vectors.conj().T @ (op.krein @ sol.vectors)
        tv = rng.standard_normal((op.layout.dim, vectors)) + 1j * rng.standard_normal((op.layout.dim, vectors))
        res = np.linalg.norm(op.apply(sol.vectors) - sol.vectors * sol.omegas[None, :], axis=0)
        pairing = max(pairing, np.max(np.abs(np.sort(-sol.omegas) - np.sort(sol.omegas))))
        offdiag = max(offdiag, np.max(np.abs(gram - np.diag(np.diag(gram)))))
        diag = max(diag, np.max(np.abs(np.diag(gram) - np.sign(sol.omegas))))
        comp = max(comp, rs.completeness_check(sol, tv).max_deviation)
        resid = max(resid, np.max(res / np.linalg.norm(sol.vectors, axis=0)))
        inverse_floor = max(inverse_floor, omega_t / np.min(np.abs(sol.omegas)))
    return _result("realspace: +/- pairing, orthonormality, completeness, residuals",
                   ("+/- pairing", pairing, 0.0), ("Krein off-diagonal", offdiag, 1e-8),
                   ("Krein diagonal - sgn(omega)", diag, 1e-8), ("completeness", comp, 1e-6),
                   ("residual", resid, 1e-10), ("omega_T / min|omega|", inverse_floor, 1e6))


def check_surface_eigenvalue(n: int = 1200, ratio_grids: Sequence[int] = (),
                             tol: float = 5e-3) -> VerifyResult:
    """Surface eigenvalue at k_par = 2 on n points; with `ratio_grids` (each twice the last) also
    the O(h^2) error ratios, held to within 0.4 of 4."""
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    ws = disp.surface_dispersion_omega(m, 2.0)

    def error(points):
        w_num = rs.surface_mode_frequency(geom, rs.Grid1D(points, 40.0), 2.0, sigma=ws * 1.001,
                                          strict_resolution=False)
        return abs(w_num - ws) / ws

    gates = [("relative error", error(n), tol)]
    if ratio_grids:
        errs = [error(points) for points in ratio_grids]
        gates.append(("O(h^2) ratio |r - 4|", max(abs(a / b - 4.0) for a, b in zip(errs, errs[1:])), 0.4))
    return _result("realspace: surface eigenvalue vs analytic dispersion", *gates)


def scattering_setup():
    """The diagonal chi tensor and the tuple (S at +k, S at -k, normal TMv) of the scattering checks."""
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    arr = np.zeros((3, 3, 3))
    for j in range(3):
        arr[j, j, j] = 1.0
    k = disp.surface_dispersion_kpar(m, 1.05)
    idx = (disp.ModeIndex(disp.ModeClass.S, (k, 0.0)), disp.ModeIndex(disp.ModeClass.S, (-k, 0.0)),
           disp.ModeIndex(disp.ModeClass.TMv, (0.0, 0.0), 0.7))
    return geom, nl.NonlinearTensor.from_array(arr), [md.normalize(md.make_mode(geom, i), geom) for i in idx]


def check_momentum_selection() -> VerifyResult:
    geom, diagonal, (s1, _, t3) = scattering_setup()
    full = nl.NonlinearTensor.from_array(np.eye(3)[:, :, None] * np.ones(3))
    results = [nl.scattering_coefficient([s1, s1, t3], phi, geom) for phi in (full, diagonal)]
    return _result("nonlinear: exact momentum selection (flagged zero)",
                   ("|Xi|", max(abs(r.value) for r in results), 0.0),
                   ("flagged momentum_ok", sum(r.momentum_ok for r in results), 0.0))


def check_scattering_symmetries(tol: float = 1e-12) -> VerifyResult:
    import itertools

    geom, phi, modes = scattering_setup()
    base = nl.scattering_coefficient(modes, phi, geom).value
    scale = max(abs(base), 1e-300)
    perm = max(abs(nl.scattering_coefficient(list(p), phi, geom).value - base)
               for p in itertools.permutations(modes))
    conj = nl.scattering_coefficient([md.conjugate_mode(mode) for mode in modes], phi, geom).value
    return _result("nonlinear: permutation symmetry and conjugation pairing",
                   ("permutation", perm / scale, tol), ("conjugation", abs(conj - np.conj(base)) / scale, tol))


def check_lossless_limit(tol: float = 1e-12) -> VerifyResult:
    """eps_tilde -> eps as the bath coupling upsilon -> 0: the null bath and
    upsilon = 5e-8 agree to tol in absolute terms, and the deviation follows the exact upsilon^2
    law (a ratio of 100 from upsilon = 5e-7 to 5e-6, held to within 1)."""
    m = media.default_medium()
    worst = 0.0
    ratios = []
    for w in (0.4, 0.6, 1.1, 1.9):
        e0 = media.epsilon(m, w)
        dev = {ups: abs(diss.lossy_epsilon(m, diss.flat_bath(m, ups, 0.5, 3.0), w) - e0)
               for ups in (5e-6, 5e-7, 5e-8)}
        worst = max(worst, abs(diss.lossy_epsilon(m, diss.null_bath(m), w) - e0), dev[5e-8])
        ratios.append(dev[5e-6] / dev[5e-7])
    return _result("dissipative: lossless limit as coupling -> 0", ("deviation", worst, tol),
                   ("upsilon^2 ratio |r - 100|", max(abs(r - 100.0) for r in ratios), 1.0))


def check_pv_closed_form(tol: float = 1e-8) -> VerifyResult:
    """The closed-form kernel F and omega_L^2 shift of the flat bath (0.05 on [0.5, 3])
    and of three ohmic baths against `quadrature_bath` on the same upsilon, at omega
    below, inside and above the flat band, on both sides of an ohmic cutoff, and far
    above a low cutoff (where F is ~1e-11, far below quad's default absolute tolerance)."""
    m = media.default_medium()
    cases = ((diss.flat_bath(m, 0.05, 0.5, 3.0), (0.2, 0.8, 1.3, 2.2, 5.0)),
             (diss.ohmic_bath(m, 0.1, 2.0), (0.4, 1.1, 1.9, 7.0)),
             (diss.ohmic_bath(m, 0.02, 0.3), (0.8, 1.9)),
             (diss.ohmic_bath(m, 0.1, 0.01), (2.0, 5.0)))
    worst = 0.0
    for bath, omegas in cases:
        quadrature = diss.quadrature_bath(bath.medium, bath.upsilon, bath.zeta_min, bath.zeta_max)
        for w in omegas:
            closed, numeric = diss.bath_kernel_F(bath, w), diss.bath_kernel_F(quadrature, w)
            worst = max(worst, abs(closed - numeric) / abs(numeric))
        shift = diss.renormalized_omega_L(m, quadrature) ** 2 - m.omega_L**2
        worst = max(worst, abs(bath.shift - shift) / bath.shift)
    return _result("dissipative: closed-form bath kernels & renormalization vs quadrature",
                   ("relative error", worst, tol))


def check_passivity(samples: int = 40) -> VerifyResult:
    m = media.default_medium()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(samples):
        bath = diss.flat_bath(m, rng.uniform(0.0, 0.2), rng.uniform(0.1, 1.0), rng.uniform(1.5, 5.0))
        w = rng.uniform(0.05, 6.0)
        worst = max(worst, -diss.lossy_epsilon(m, bath, w).imag)
    return _result("dissipative: passivity Im(eps) >= 0", ("gain -Im(eps)", worst, 1e-15))


def check_kramers_kronig(points: int = 15, tol: float = 1e-2) -> VerifyResult:
    from scipy.optimize import brentq

    m = media.default_medium()
    bath = diss.flat_bath(m, 0.05, 0.5, 3.0)
    w_res = brentq(lambda w: m.omega_T**2 - w**2 - diss.bath_kernel_F(bath, w), 0.6, 1.4)
    worst = 0.0
    for w in np.linspace(0.2, 3.0, points):
        if abs(w - w_res) < 0.03 or min(abs(w - 0.5), abs(w - 3.0)) < 1e-9:
            continue
        target = diss.lossy_epsilon(m, bath, float(w)).real - 1.0
        rec = diss.kramers_kronig_real(
            lambda z: diss.lossy_epsilon(m, bath, z).imag, (0.5, 3.0), float(w),
            breakpoints=[w_res - 0.02, w_res + 0.02],
        )
        worst = max(worst, abs(rec - target) / (1.0 + abs(target)))
    return _result("dissipative: Kramers-Kronig reconstruction", ("relative error", worst, tol))


def check_driven_decay(tol: float = 1e-8) -> VerifyResult:
    m = media.default_medium()
    bath = diss.flat_bath(m, 0.05, 0.5, 3.0)
    geom = media.homogeneous_box(m, 100.0)
    omega = 1.1
    sol = diss.driven_field(geom, bath, omega, [(0.0, 1.0)])
    k = np.sqrt(complex(omega**2 * diss.lossy_epsilon(m, bath, omega)))
    if k.imag < 0:
        k = -k
    zs = np.linspace(2.0, 18.0, 33)
    th = sol.evaluate(zs)
    slope = np.polyfit(zs, np.log(np.abs(th)), 1)[0]
    lhs, rhs = diss.power_balance(sol, geom, bath, [(0.0, 1.0)], -30.0, 30.0)
    scale = max(abs(lhs), abs(rhs), omega * abs(sol.evaluate(0.0)[0]))
    return _result("dissipative: driven decay rate & power balance",
                   ("decay error", abs(-slope - k.imag) / k.imag, tol),
                   ("power balance", abs(lhs - rhs) / scale, 1e-6))


def check_driven_lossless_scattering(tol: float = 1e-10) -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 60.0)
    omega, k_par = 0.5, 0.2
    k_z = math.sqrt(omega**2 - k_par**2)
    sol = diss.driven_field(geom, diss.null_bath(m), omega, [(10.0, 1.0)], k_par=k_par)
    zs = np.array([1.0, 2.0])
    th = sol.evaluate(zs)
    a = np.array([[np.exp(-1j * k_z * z), np.exp(1j * k_z * z)] for z in zs])
    inc, ref = np.linalg.solve(a, th)
    r_ana, _ = md.fresnel_te(m, (k_par, 0.0, k_z))
    return _result("dissipative: lossless driven field reproduces TE reflection",
                   ("reflection error", abs(ref / inc - r_ana), tol))


ALL_CHECKS: List[Callable[[], VerifyResult]] = [
    check_lst_relation,
    check_reststrahlen_sign,
    check_epsilon_monotonic,
    check_nu_closed_form,
    check_vieta,
    check_branch_ordering,
    check_surface_roundtrip,
    check_surface_monotone,
    check_wave_equation_residuals,
    check_interface_continuity,
    check_surface_normalization,
    check_homogeneous_normalization,
    check_flux_unitarity,
    check_realspace_self_adjoint,
    check_realspace_spectrum,
    check_surface_eigenvalue,
    check_momentum_selection,
    check_scattering_symmetries,
    check_lossless_limit,
    check_pv_closed_form,
    check_passivity,
    check_kramers_kronig,
    check_driven_decay,
    check_driven_lossless_scattering,
]


def run_all(tol_scale: float = 1.0) -> List[VerifyResult]:
    """Every check at its defaults, with each gate's tolerance multiplied by `tol_scale`."""
    import warnings

    results = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*under-resolved.*")
        for check in ALL_CHECKS:
            try:
                results.append(check().scaled(tol_scale))
            except Exception as exc:  # a crashed check is a failed check
                results.append(VerifyResult(f"{check.__name__} raised {exc!r}", (Gate("raised", math.nan, 0.0),)))
    return results
