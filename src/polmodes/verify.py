"""Invariant suite behind the `verify` CLI command.

Every check returns its measured value together with the tolerance it was
held to; `run_all` executes the full list on the default test medium. The
acceptance tests in the repository reuse these helpers at their own sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import dispersion as disp
from . import dissipative as diss
from . import media
from . import modes as md
from . import nonlinear as nl
from . import realspace as rs
from .errors import PoleAtResonance


@dataclass
class VerifyResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


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
    return VerifyResult("media: Lyddane-Sachs-Teller identity", worst < tol, worst, tol)


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
    return VerifyResult("media: eps < 0 exactly on the reststrahlen band", bad == 0, bad, 0.0)


def check_epsilon_monotonic(samples: int = 1000) -> VerifyResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for m in _random_media(rng, samples):
        w = rng.uniform(0.01 * m.omega_T, 3.0 * m.omega_L)
        if abs(w - m.omega_T) < 1e-3 * m.omega_T:
            continue
        worst = min(worst, media.epsilon_derivative(m, w))
    return VerifyResult("media: d(eps)/d(omega) > 0 on each branch", worst >= 0.0, worst, 0.0)


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
    return VerifyResult("media: closed-form nu matches finite differences", worst < tol, worst, tol)


def check_vieta(samples: int = 1000, tol: float = 1e-12) -> VerifyResult:
    rng = np.random.default_rng(15)
    worst = 0.0
    for m in _random_media(rng, samples):
        k = rng.uniform(0.0, 10.0 * m.omega_L)
        ol, ou = disp.bulk_branches(m, k)
        s = m.omega_L**2 + k**2
        p = (k * m.omega_T) ** 2
        worst = max(worst, abs(ol**2 + ou**2 - s) / s)
        if p > 0:
            worst = max(worst, abs(ol**2 * ou**2 - p) / p)
    return VerifyResult("dispersion: bulk-branch Vieta identities", worst < tol, worst, tol)


def check_branch_ordering(samples: int = 1000) -> VerifyResult:
    rng = np.random.default_rng(16)
    ok = True
    for m in _random_media(rng, samples):
        k = rng.uniform(1e-6, 10.0 * m.omega_L)
        ol, ou = disp.bulk_branches(m, k)
        ok &= ol < m.omega_T <= m.omega_L <= ou
    return VerifyResult("dispersion: branch ordering omega_l < omega_T <= omega_L <= omega_u", ok, 0.0, 0.0)


def check_surface_roundtrip(samples: int = 200, tol: float = 1e-10) -> VerifyResult:
    rng = np.random.default_rng(17)
    worst = 0.0
    for m in _random_media(rng, samples):
        top = disp.surface_window_top(m)
        w = m.omega_T + rng.uniform(1e-3, 0.999) * (top - m.omega_T)
        k = disp.surface_dispersion_kpar(m, w)
        w2 = disp.surface_dispersion_omega(m, k)
        worst = max(worst, abs(w2 - w) / w)
    return VerifyResult("dispersion: surface branch round-trip", worst < tol, worst, tol)


def check_surface_monotone(points: int = 400) -> VerifyResult:
    m = media.default_medium()
    ks = np.linspace(m.omega_T * 1.0001, 40 * m.omega_T, points)
    ws = np.array([disp.surface_dispersion_omega(m, k) for k in ks])
    ok = bool(np.all(np.diff(ws) > 0))
    return VerifyResult("dispersion: surface omega(k_par) strictly increasing", ok, 0.0, 0.0)


def _sample_modes(geom, m):
    k_s = disp.surface_dispersion_kpar(m, 1.08 * m.omega_T)
    return [
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.S, (k_s, 0.0))),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TEv, (0.4, 0.1), 0.5)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TMv, (0.3, 0.0), 1.0)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TEl, (0.5, 0.0), -0.8)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TEu, (0.5, 0.0), -0.8)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TMl, (0.2, 0.4), -0.7)),
        md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TMu, (0.2, 0.4), -0.7)),
    ]


def check_wave_equation_residuals(tol: float = 1e-8, points: int = 1000) -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    zs = np.linspace(-19.9, 19.9, points)
    worst = 0.0
    for mode in _sample_modes(geom, m):
        worst = max(worst, md.wave_equation_residual(mode.theta, geom, zs))
        worst = max(worst, md.wave_equation_residual(md.conjugate_mode(mode).theta, geom, zs))
    return VerifyResult("modes: wave-equation residuals (all classes, +/- energy)", worst < tol, worst, tol)


def check_interface_continuity(tol: float = 1e-10) -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    worst = 0.0
    for mode in _sample_modes(geom, m):
        worst = max(worst, max(md.interface_continuity(mode, geom).values()))
    return VerifyResult("modes: interface matching conditions", worst < tol, worst, tol)


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
    i_quad = md.normalization_integral(mode, geom, method="quad")
    n_quad = 1.0 / math.sqrt(media.HBAR * mode.omega * i_quad)
    return abs(n_closed - n_quad) / n_closed


def check_surface_normalization(points: int = 12, tol: float = 1e-8) -> VerifyResult:
    m = media.default_medium()
    top = disp.surface_window_top(m)
    worst = 0.0
    for w in np.linspace(m.omega_T * 1.01, top * 0.995, points):
        worst = max(worst, surface_norm_quadrature_error(m, float(w)))
    return VerifyResult("modes: surface normalization closed form vs quadrature", worst < tol, worst, tol)


def check_homogeneous_normalization(tol: float = 1e-10) -> VerifyResult:
    m = media.default_medium()
    worst = 0.0
    geom_v = media.homogeneous_box(None, 12.0)
    mode = md.normalize(md.make_mode(geom_v, disp.ModeIndex(disp.ModeClass.TEv, (0.3, 0.0), 0.7)), geom_v)
    expected = math.sqrt(1.0 / (2 * media.EPS0 * media.HBAR * mode.omega * geom_v.volume))
    worst = max(worst, abs(mode.norm - expected) / expected)
    geom_m = media.homogeneous_box(m, 12.0)
    for cls, kz in ((disp.ModeClass.TMl, -0.6), (disp.ModeClass.TEu, -0.6)):
        mm = md.normalize(md.make_mode(geom_m, disp.ModeIndex(cls, (0.3, 0.0), kz)), geom_m)
        integral = md.normalization_integral(mm, geom_m, method="exact")
        worst = max(worst, abs(media.HBAR * mm.omega * integral - 1.0))
    return VerifyResult("modes: homogeneous-box normalization", worst < tol, worst, tol)


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
    return VerifyResult("modes: TE Fresnel flux unitarity / unimodularity", worst < tol, worst, tol)


def check_realspace_self_adjoint(n: int = 128, tol: float = 1e-12) -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    grid = rs.Grid1D(n, 40.0)
    worst = 0.0
    for pol in ("TE", "TM"):
        op = rs.assemble_operator(geom, grid, 2.0, pol, strict_resolution=False)
        scale = np.max(np.abs(op.krein @ op.b0))
        worst = max(worst, rs.self_adjointness_defect(op) / scale)
    return VerifyResult("realspace: Krein self-adjointness of B0", worst < tol, worst, tol)


def check_realspace_spectrum(n: int = 96) -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    grid = rs.Grid1D(n, 40.0)
    ok = True
    worst = 0.0
    detail = []
    rng = np.random.default_rng(19)
    for pol, kp in (("TE", 0.8), ("TM", 0.8)):
        op = rs.assemble_operator(geom, grid, kp, pol, strict_resolution=False)
        sol = rs.solve_spectrum(op)
        pairing = float(np.max(np.abs(np.sort(-sol.omegas) - np.sort(sol.omegas))))
        gram = sol.vectors.conj().T @ (op.krein @ sol.vectors)
        offdiag = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        diag = float(np.max(np.abs(np.diag(gram) - np.sign(sol.omegas))))
        floor = float(np.min(np.abs(sol.omegas)))
        tv = rng.standard_normal((op.layout.dim, 4)) + 1j * rng.standard_normal((op.layout.dim, 4))
        comp = rs.completeness_check(sol, tv).max_deviation
        resid = float(np.max(np.linalg.norm(op.b0 @ sol.vectors - sol.vectors * sol.omegas[None, :], axis=0)
                             / np.linalg.norm(sol.vectors, axis=0)))
        ok &= (pairing < 1e-10) and (offdiag < 1e-8) and (diag < 1e-8)
        ok &= (comp < 1e-6) and (floor > 1e-6 * m.omega_T) and (resid < 1e-10)
        worst = max(worst, pairing, offdiag, comp)
        detail.append(f"{pol}: pair {pairing:.1e} offdiag {offdiag:.1e} comp {comp:.1e} "
                      f"resid {resid:.1e} floor {floor:.2e}")
    return VerifyResult("realspace: +/- pairing, orthonormality, completeness, residuals",
                        ok, worst, 1e-6, "; ".join(detail))


def check_surface_eigenvalue(n: int = 1200, tol: float = 5e-3) -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    ws = disp.surface_dispersion_omega(m, 2.0)
    w_num = rs.surface_mode_frequency(geom, rs.Grid1D(n, 40.0), 2.0, sigma=ws * 1.001,
                                      strict_resolution=False)
    err = abs(w_num - ws) / ws
    return VerifyResult("realspace: surface eigenvalue vs analytic dispersion", err < tol, err, tol)


def check_momentum_selection() -> VerifyResult:
    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    phi = nl.NonlinearTensor.from_array(np.eye(3)[:, :, None] * np.ones(3))
    k = disp.surface_dispersion_kpar(m, 1.05)
    s1 = md.normalize(md.make_mode(geom, disp.ModeIndex(disp.ModeClass.S, (k, 0.0))), geom)
    t3 = md.normalize(md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TMv, (0.0, 0.0), 0.7)), geom)
    res = nl.scattering_coefficient([s1, s1, t3], phi, geom)
    ok = (res.value == 0) and (not res.momentum_ok)
    return VerifyResult("nonlinear: exact momentum selection (flagged zero)", ok, abs(res.value), 0.0)


def check_scattering_symmetries(tol: float = 1e-12) -> VerifyResult:
    import itertools

    m = media.default_medium()
    geom = media.vacuum_interface(m, 40.0)
    arr = np.zeros((3, 3, 3))
    for j in range(3):
        arr[j, j, j] = 1.0
    phi = nl.NonlinearTensor.from_array(arr)
    k = disp.surface_dispersion_kpar(m, 1.05)
    s1 = md.normalize(md.make_mode(geom, disp.ModeIndex(disp.ModeClass.S, (k, 0.0))), geom)
    s2 = md.normalize(md.make_mode(geom, disp.ModeIndex(disp.ModeClass.S, (-k, 0.0))), geom)
    t3 = md.normalize(md.make_mode(geom, disp.ModeIndex(disp.ModeClass.TMv, (0.0, 0.0), 0.7)), geom)
    base = nl.scattering_coefficient([s1, s2, t3], phi, geom).value
    worst = 0.0
    for perm in itertools.permutations([s1, s2, t3]):
        worst = max(worst, abs(nl.scattering_coefficient(list(perm), phi, geom).value - base))
    conj = nl.scattering_coefficient(
        [md.conjugate_mode(s1), md.conjugate_mode(s2), md.conjugate_mode(t3)], phi, geom
    ).value
    worst = max(worst, abs(conj - np.conj(base)))
    worst /= max(abs(base), 1e-300)
    return VerifyResult("nonlinear: permutation symmetry and conjugation pairing", worst < tol, worst, tol)


def check_lossless_limit(tol: float = 1e-12) -> VerifyResult:
    """eps_tilde -> eps as the bath coupling upsilon -> 0: the null bath and
    upsilon = 5e-8 agree to tol, and the deviation follows the exact upsilon^2
    law (a ratio of 100 from upsilon = 5e-7 to 5e-6, held to [99, 101])."""
    m = media.default_medium()
    worst = 0.0
    ratios = []
    for w in (0.4, 1.1, 1.9):
        e0 = media.epsilon(m, w)
        dev = {ups: abs(diss.lossy_epsilon(m, diss.flat_bath(m, ups, 0.5, 3.0), w) - e0) / max(abs(e0), 1.0)
               for ups in (5e-6, 5e-7, 5e-8)}
        worst = max(worst, abs(diss.lossy_epsilon(m, diss.null_bath(m), w) - e0), dev[5e-8])
        ratios.append(dev[5e-6] / dev[5e-7])
    ok = worst < tol and all(99.0 <= r <= 101.0 for r in ratios)
    return VerifyResult("dissipative: lossless limit as coupling -> 0", ok, worst, tol,
                        f"upsilon^2 ratio {min(ratios):.2f} to {max(ratios):.2f} (gate [99, 101])")


def check_pv_closed_form(tol: float = 1e-8) -> VerifyResult:
    m = media.default_medium()
    ups, a, b = 0.05, 0.5, 3.0
    bath = diss.flat_bath(m, ups, a, b)
    worst = 0.0
    for w in (0.8, 1.3, 2.2):
        exact = ups**2 / m.rho**2 * ((b - a) + (w / 2) * math.log(abs((b - w) * (a + w) / ((b + w) * (a - w)))))
        worst = max(worst, abs(diss.bath_kernel_F(bath, w) - exact) / max(abs(exact), 1e-30))
    shift = diss.renormalized_omega_L(m, bath) ** 2 - m.omega_L**2
    worst = max(worst, abs(shift - ups**2 * (b - a) / (2 * m.rho**2)))
    return VerifyResult("dissipative: flat-bath principal value & renormalization", worst < tol, worst, tol)


def check_passivity(samples: int = 40) -> VerifyResult:
    m = media.default_medium()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(samples):
        bath = diss.flat_bath(m, rng.uniform(0.0, 0.2), rng.uniform(0.1, 1.0), rng.uniform(1.5, 5.0))
        w = rng.uniform(0.05, 6.0)
        worst = min(worst, diss.lossy_epsilon(m, bath, w).imag)
    return VerifyResult("dissipative: passivity Im(eps) >= 0", worst >= -1e-15, worst, 0.0)


def check_kramers_kronig(tol: float = 1e-2) -> VerifyResult:
    from scipy.optimize import brentq

    m = media.default_medium()
    bath = diss.flat_bath(m, 0.05, 0.5, 3.0)
    w_res = brentq(lambda w: m.omega_T**2 - w**2 - diss.bath_kernel_F(bath, w), 0.6, 1.4)
    worst = 0.0
    for w in np.linspace(0.2, 3.0, 15):
        if abs(w - w_res) < 0.03 or min(abs(w - 0.5), abs(w - 3.0)) < 1e-6:
            continue
        target = diss.lossy_epsilon(m, bath, w).real - 1.0
        rec = diss.kramers_kronig_real(
            lambda z: diss.lossy_epsilon(m, bath, z).imag, (0.5, 3.0), float(w),
            breakpoints=[w_res - 0.02, w_res + 0.02],
        )
        worst = max(worst, abs(rec - target) / (1.0 + abs(target)))
    return VerifyResult("dissipative: Kramers-Kronig reconstruction", worst < tol, worst, tol)


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
    err = abs(-slope - k.imag) / k.imag
    lhs, rhs = diss.power_balance(sol, geom, bath, [(0.0, 1.0)], -30.0, 30.0)
    scale = max(abs(lhs), abs(rhs), omega * abs(sol.evaluate(0.0)[0]))
    balance = abs(lhs - rhs) / scale
    return VerifyResult("dissipative: driven decay rate & power balance", err < tol and balance < 1e-6, err, tol,
                        f"power balance {balance:.1e} (gate 1e-6)")


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
    r_num = ref / inc
    r_ana, _ = md.fresnel_te(m, (k_par, 0.0, k_z))
    err = abs(r_num - r_ana)
    return VerifyResult("dissipative: lossless driven field reproduces TE reflection", err < tol, err, tol)


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
    import warnings

    results = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*under-resolved.*")
        for check in ALL_CHECKS:
            try:
                res = check()
                if tol_scale != 1.0 and res.tolerance > 0:
                    res.passed = res.measured < res.tolerance * tol_scale
                    res.tolerance *= tol_scale
                results.append(res)
            except Exception as exc:  # a crashed check is a failed check
                results.append(VerifyResult(check.__name__, False, math.nan, 0.0, f"raised {exc!r}"))
    return results
