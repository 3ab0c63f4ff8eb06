import math

import numpy as np
import pytest

from polmodes import (
    C,
    EPS0,
    HBAR,
    MediumParams,
    ModeClass,
    ModeIndex,
    build_theta,
    conjugate_mode,
    epsilon,
    field_expansion_coefficients,
    fresnel_te,
    fresnel_tm,
    homogeneous_box,
    hopfield_from_theta,
    make_mode,
    normalization_integral,
    normalize,
    nu,
    surface_dispersion_kpar,
    vacuum_interface,
)
from polmodes.errors import EvanescentBranchAmbiguity, PoleAtResonance, QuadratureDisagreement
from polmodes.modes import (
    VectorProfile,
    interface_continuity,
    surface_norm_constant,
    wave_equation_residual,
)
from polmodes.verify import _abs2_density, quadrature_norm

from helpers import epsilon_at

ALL_CLASS_INDICES = [
    ModeIndex(ModeClass.TEv, (0.4, 0.1), 0.5),
    ModeIndex(ModeClass.TMv, (0.3, 0.0), 1.0),
    ModeIndex(ModeClass.TEl, (0.5, 0.0), -0.8),
    ModeIndex(ModeClass.TEu, (0.5, 0.0), -0.8),
    ModeIndex(ModeClass.TMl, (0.2, 0.4), -0.7),
    ModeIndex(ModeClass.TMu, (0.2, 0.4), -0.7),
]


def surface_index(medium, omega=1.1, direction=(1.0, 0.0)):
    k = surface_dispersion_kpar(medium, omega)
    return ModeIndex(ModeClass.S, (k * direction[0], k * direction[1]))


class TestFresnel:
    def test_no_contrast(self):
        m = MediumParams(omega_T=1.0, rho=1.0, kappa=0.0)  # eps identically 1
        r, t = fresnel_te(m, (0.3, 0.0, 0.4))
        assert r == pytest.approx(0.0, abs=1e-15)
        assert t == pytest.approx(1.0, rel=1e-15)

    def test_normal_incidence_value(self, medium):
        # omega = 0.5, eps = 1.19/0.75; r = (1 - sqrt(eps))/(1 + sqrt(eps))
        n = math.sqrt((1.44 - 0.25) / (1.0 - 0.25))
        r, t = fresnel_te(medium, (0.0, 0.0, 0.5))
        assert r == pytest.approx((1 - n) / (1 + n), rel=1e-14)
        assert t == pytest.approx(2 / (1 + n), rel=1e-14)
        assert r == pytest.approx(-0.11489917552473082, rel=1e-13)

    def test_identity_r_plus_one_is_t(self, medium, rng):
        for _ in range(50):
            k = (rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0.05, 3))
            r, t = fresnel_te(medium, k)
            assert r + 1 == pytest.approx(t, rel=1e-14)
            rh, th = fresnel_tm(medium, k)
            assert rh + 1 == pytest.approx(th, rel=1e-14)

    def test_reststrahlen_unimodular(self, medium):
        # omega inside (omega_TO, omega_LO): eps < 0, q imaginary, |r| = 1
        k = (0.0, 0.0, 1.1)
        r, _ = fresnel_te(medium, k)
        assert abs(r) == pytest.approx(1.0, rel=1e-14)
        rh, _ = fresnel_tm(medium, k)
        assert abs(rh) == pytest.approx(1.0, rel=1e-14)

    def test_vacuum_incidence_required(self, medium):
        with pytest.raises(ValueError):
            fresnel_te(medium, (0.3, 0.0, -0.4))


class TestBuildTheta:
    def test_homogeneous_vacuum_plane_wave(self, vacuum_box):
        idx = ModeIndex(ModeClass.TEv, (0.3, 0.0), 0.4)
        theta = build_theta(vacuum_box, idx)
        assert theta.omega == pytest.approx(0.5)
        assert len(theta.profile.regions) == 1
        assert len(theta.profile.regions[0].terms) == 1  # r = 0, t = 1: pure plane wave
        val = theta.profile.evaluate(np.array([0.7]))[0]
        np.testing.assert_allclose(np.abs(val), np.abs(idx.e_perp), atol=1e-15)

    def test_tev_reflection_matches_fresnel(self, medium, interface):
        idx = ModeIndex(ModeClass.TEv, (0.0, 0.0), 0.5)
        theta = build_theta(interface, idx)
        vac_terms = theta.profile.regions[1].terms
        r_coef = vac_terms[1].amplitude[1] / vac_terms[0].amplitude[1]
        r, _ = fresnel_te(medium, (0.0, 0.0, 0.5))
        assert r_coef == pytest.approx(r, rel=1e-14)

    def test_surface_decay_lengths(self, medium, interface):
        theta = build_theta(interface, surface_index(medium))
        vac_w = theta.profile.regions[1].terms[0].w
        med_w = theta.profile.regions[0].terms[0].w
        # frozen oracle values at omega = 1.1 (kappa_v = k sqrt(-1/eps), kappa_m = k sqrt(-eps))
        assert vac_w == pytest.approx(1j * 3.564407384124363, rel=1e-12)
        assert 1.0 / vac_w.imag == pytest.approx(0.2805515453856185, rel=1e-12)
        assert med_w == pytest.approx(-1j * 3.9038747540409613, rel=1e-12)

    def test_surface_profile_decays_both_sides(self, medium, interface):
        theta = build_theta(interface, surface_index(medium))
        zs = np.array([-8.0, -2.0, -0.5, 0.5, 2.0, 8.0])
        mags = np.abs(theta.profile.evaluate(zs)).max(axis=1)
        assert mags[0] < mags[1] < mags[2] and mags[3] > mags[4] > mags[5]

    def test_reststrahlen_tev_evanescent_tail(self, medium, interface):
        idx = ModeIndex(ModeClass.TEv, (0.0, 0.0), 1.1)
        theta = build_theta(interface, idx)
        q = theta.profile.regions[0].terms[0].w
        assert q.imag < 0  # exp(iqz) decays into z < 0
        mags = np.abs(theta.profile.evaluate(np.array([-1.0, -5.0]))).max(axis=1)
        assert mags[1] < mags[0]

    def test_grazing_raises(self, medium, interface):
        # eps(2) * 4 = k_par^2 exactly: the transmitted radicand vanishes
        k_par = math.sqrt(epsilon(medium, 2.0)) * 2.0
        k_z = math.sqrt(4.0 - k_par**2)
        with pytest.raises(EvanescentBranchAmbiguity):
            build_theta(interface, ModeIndex(ModeClass.TEv, (k_par, 0.0), k_z))

    def test_transversality_within_regions(self, medium, interface):
        for idx in ALL_CLASS_INDICES + [surface_index(medium)]:
            theta = build_theta(interface, idx)
            div = theta.profile.divergence(np.array([-3.3, -0.7, 0.9, 4.1]))
            scale = np.abs(theta.profile.evaluate(np.array([0.0]))).max() * theta.omega
            assert np.max(np.abs(div)) < 1e-13 * scale


def decaying_root(rad):
    """Root w of rad for which exp(+i w z) decays into z < 0 (Im w <= 0, Re w >= 0 when real)."""
    return complex(math.sqrt(rad)) if rad > 0 else -1j * math.sqrt(-rad)


def reference_fresnel(idx, eps, omega):
    """(q, r, t) of theta for one propagating class, each class written out on its own."""
    k_par, k_z = idx.k_par_mag, idx.k_z
    u = (omega / C) ** 2
    cls = idx.mode_class
    if cls is ModeClass.TEv:
        q = decaying_root(eps * u - k_par**2)
        return q, (k_z - q) / (k_z + q), 2 * k_z / (k_z + q)
    if cls is ModeClass.TMv:
        q = decaying_root(eps * u - k_par**2)
        t_h = 2 * eps * k_z / (eps * k_z + q)
        return q, (eps * k_z - q) / (eps * k_z + q), t_h / eps
    w = -decaying_root(u - k_par**2)  # medium incidence: transmitted upward into vacuum
    if cls.is_te:
        return w, (k_z - w) / (k_z + w), 2 * k_z / (k_z + w)
    r = (k_z - eps * w) / (k_z + eps * w)
    return w, r, eps * (1 + r)


FRESNEL_INDICES = [
    ModeIndex(cls, k_par, k_z)
    for cls in (ModeClass.TEv, ModeClass.TMv)
    for k_par, k_z in [((0.3, 0.1), 0.5),    # below omega_T
                       ((0.2, 0.0), 1.05),   # reststrahlen band: eps < 0, evanescent q
                       ((0.5, 0.3), 1.4),    # above omega_L, propagating q
                       ((1.5, 0.0), 0.3)]    # above omega_L, evanescent q
] + [
    ModeIndex(cls, k_par, k_z)
    for cls in (ModeClass.TEl, ModeClass.TEu, ModeClass.TMl, ModeClass.TMu)
    for k_par, k_z in [((0.5, 0.0), -0.8), ((0.2, 0.4), -0.7), ((2.0, 0.5), -0.6), ((1.0, 1.0), -0.3)]
]


@pytest.mark.parametrize("idx", FRESNEL_INDICES,
                         ids=lambda idx: f"{idx.mode_class.value}{idx.k_par}{idx.k_z}")
def test_build_theta_matches_per_class_fresnel(medium, interface, idx):
    theta = build_theta(interface, idx)
    vac, med = theta.profile.regions[1].terms, theta.profile.regions[0].terms
    (inc, refl), (trn,) = (vac, med) if idx.mode_class.vacuum_incident else (med, vac)
    # TE amplitudes lie along e_perp; TM amplitudes are c (w e_par + k_par e_z)/|k|, k_par > 0
    axis = idx.e_perp if idx.mode_class.is_te else np.array([0.0, 0.0, 1.0])
    q, r, t = reference_fresnel(idx, epsilon(medium, theta.omega), theta.omega)
    assert trn.w == pytest.approx(q, rel=1e-14)
    assert np.dot(axis, refl.amplitude) / np.dot(axis, inc.amplitude) == pytest.approx(r, rel=1e-14)
    assert np.dot(axis, trn.amplitude) / np.dot(axis, inc.amplitude) == pytest.approx(t, rel=1e-14)


class TestWaveEquationAndContinuity:
    def test_residuals_all_classes(self, medium, interface):
        zs = np.linspace(-19.9, 19.9, 1000)
        for idx in ALL_CLASS_INDICES + [surface_index(medium)]:
            theta = build_theta(interface, idx)
            assert wave_equation_residual(theta, interface, zs) < 1e-8

    def test_residual_by_finite_differences(self, medium, interface):
        # independent spot check: second differences of the evaluated profile
        idx = surface_index(medium)
        theta = build_theta(interface, idx)
        h = 1e-5
        for z0 in (-1.3, 0.8):
            f = lambda z: theta.profile.evaluate(np.array([z]))[0]
            d2 = (f(z0 + h) - 2 * f(z0) + f(z0 - h)) / h**2
            k2 = theta.index.k_par_mag**2
            eps_here = epsilon_at(interface, theta.omega, z0)
            # TM: curl curl theta = (k_par^2 - d2/dz2 terms); use the scalar
            # Helmholtz residual on each Cartesian component of e_par, e_z
            lhs = -d2 + k2 * f(z0)
            rhs = theta.omega**2 * eps_here * f(z0)
            # the par/z components mix through the gradient of div for TM;
            # for this divergence-free profile the vector Helmholtz reduces
            # componentwise, so compare directly
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5)

    def test_interface_continuity_all_classes(self, medium, interface):
        for idx in ALL_CLASS_INDICES + [surface_index(medium)]:
            mode = make_mode(interface, idx)
            jumps = interface_continuity(mode, interface)
            assert max(jumps.values()) < 1e-10

    def test_conjugate_solves_at_negative_omega(self, medium, interface):
        zs = np.linspace(-15, 15, 301)
        for idx in (surface_index(medium), ALL_CLASS_INDICES[0]):
            mode = make_mode(interface, idx)
            partner = conjugate_mode(mode)
            assert partner.omega == -mode.omega
            assert wave_equation_residual(partner.theta, interface, zs) < 1e-8


class TestHopfield:
    def test_vacuum_regions_have_no_matter_fields(self, medium, interface):
        mode = make_mode(interface, ModeIndex(ModeClass.TEv, (0.3, 0.0), 0.4))
        zs = np.array([1.0, 5.0, 15.0])
        assert np.all(mode.hopfield.gamma.evaluate(zs) == 0)
        assert np.all(mode.hopfield.eta.evaluate(zs) == 0)

    def test_te_plane_wave_beta_magnitude(self, vacuum_box):
        idx = ModeIndex(ModeClass.TEv, (0.3, 0.0), 0.4)
        mode = make_mode(vacuum_box, idx)
        zs = np.array([0.0, 1.0])
        th = np.abs(mode.theta.profile.evaluate(zs)).max()
        be = np.linalg.norm(mode.hopfield.beta.evaluate(zs), axis=1).max()
        assert be == pytest.approx(th, rel=1e-13)  # |beta| = |k|/omega |theta| = |theta|/c

    def test_surface_eta_theta_ratio(self, medium, interface):
        mode = make_mode(interface, surface_index(medium))
        z = np.array([-0.7])
        th = mode.theta.profile.evaluate(z)[0]
        et = mode.hopfield.eta.evaluate(z)[0]
        expected = medium.kappa * 1.21 / (1.0 - 1.21)
        np.testing.assert_allclose(et, expected * th, rtol=1e-13)
        assert expected == pytest.approx(-5.761904761904762 * medium.kappa, rel=1e-14)

    def test_gamma_eta_relation(self, medium, interface):
        # omega * gamma = i eta / rho pointwise in matter
        mode = make_mode(interface, surface_index(medium))
        z = np.array([-1.1])
        ga = mode.hopfield.gamma.evaluate(z)[0]
        et = mode.hopfield.eta.evaluate(z)[0]
        np.testing.assert_allclose(mode.omega * ga, 1j * et / medium.rho, rtol=1e-13)

    def test_beta_matches_finite_difference_curl(self, medium, interface):
        h = 1e-6
        for idx in (surface_index(medium), ALL_CLASS_INDICES[1]):
            mode = make_mode(interface, idx)
            prof = mode.theta.profile

            def field(x, z):
                return prof.evaluate(np.array([z]), r_par=(x, 0.0))[0]

            x0, z0 = 0.3, -0.9
            dz = (field(x0, z0 + h) - field(x0, z0 - h)) / (2 * h)
            dx = (field(x0 + h, z0) - field(x0 - h, z0)) / (2 * h)
            curl_fd = np.array([
                -dz[1],
                dz[0] - dx[2],
                dx[1],
            ])
            beta = mode.hopfield.beta.evaluate(np.array([z0]), r_par=(x0, 0.0))[0]
            np.testing.assert_allclose((1j / mode.omega) * curl_fd, beta,
                                       rtol=1e-6, atol=1e-9 * np.abs(beta).max())

    def test_pole_guard(self, medium, interface):
        # in a matter box nothing evaluates epsilon before the coefficient map: a TEl mode
        # 2.2e-9 below omega_T builds, one 2.4e-10 below (inside the guard) is rejected there
        box = homogeneous_box(medium, 10.0)
        hopfield_from_theta(build_theta(box, ModeIndex(ModeClass.TEl, (0.0, 0.0), -1e4)))
        theta = build_theta(box, ModeIndex(ModeClass.TEl, (0.0, 0.0), -3e4))
        with pytest.raises(PoleAtResonance):
            hopfield_from_theta(theta)
        with pytest.raises(PoleAtResonance):
            build_theta(interface, ModeIndex(ModeClass.TEv, (0.0, 0.0), 1.0 + 1e-12))


class TestNormalization:
    def test_homogeneous_vacuum_closed_form(self, vacuum_box):
        mode = normalize(make_mode(vacuum_box, ModeIndex(ModeClass.TEv, (0.3, 0.0), 0.7)), vacuum_box)
        expected = math.sqrt(1.0 / (2 * EPS0 * HBAR * mode.omega * vacuum_box.volume))
        assert mode.norm == pytest.approx(expected, rel=1e-14)
        # hbar*omega*eps0*2*N^2*V = 1 exactly
        integral = normalization_integral(mode, vacuum_box)
        assert HBAR * mode.omega * integral == pytest.approx(1.0, rel=1e-12)

    def test_surface_closed_form_vs_quadrature(self, medium):
        for w in (1.02, 1.06, 1.1):
            k = surface_dispersion_kpar(medium, w)
            kappa_v = k * math.sqrt(-1.0 / epsilon(medium, w))
            geom = vacuum_interface(medium, max(40.0, 32.0 / kappa_v))
            mode = make_mode(geom, ModeIndex(ModeClass.S, (k, 0.0)))
            n_closed = surface_norm_constant(medium, mode.omega, k, geom.area)
            assert n_closed == pytest.approx(quadrature_norm(mode, geom), rel=1e-8)

    def test_surface_reference_value(self, medium, interface):
        # frozen from the adaptive-quadrature oracle at omega = 1.1, A = 1
        mode = normalize(make_mode(interface, surface_index(medium)), interface)
        assert mode.norm == pytest.approx(0.4084845149392755, rel=1e-10)

    def test_normalized_integral_is_unity(self, medium, interface):
        mode = normalize(make_mode(interface, surface_index(medium)), interface)
        integral = normalization_integral(mode, interface)
        assert HBAR * mode.omega * integral == pytest.approx(1.0, rel=1e-10)

    def test_negative_partner_sign(self, medium, interface):
        mode = normalize(make_mode(interface, surface_index(medium)), interface)
        partner = conjugate_mode(mode)
        assert partner.norm == mode.norm
        integral = normalization_integral(partner, interface)
        assert HBAR * partner.omega * integral == pytest.approx(-1.0, rel=1e-10)

    def test_matter_box_closed_form(self, medium):
        geom = homogeneous_box(medium, 12.0)
        mode = normalize(make_mode(geom, ModeIndex(ModeClass.TMl, (0.3, 0.0), -0.6)), geom)
        weight = epsilon(medium, mode.omega) * nu(medium, mode.omega)
        expected = math.sqrt(1.0 / (EPS0 * HBAR * mode.omega * geom.volume * weight))
        assert mode.norm == pytest.approx(expected, rel=1e-12)

    def test_quadrature_density_matches_profile(self, medium, interface, rng):
        zs = rng.uniform(-20.0, 20.0, 50)
        for idx in [surface_index(medium)] + ALL_CLASS_INDICES:
            prof = make_mode(interface, idx).theta.profile
            for i, reg in enumerate(prof.regions):
                dens = _abs2_density(reg)
                for z in zs:
                    th = prof.evaluate_region(i, z)[0]
                    assert dens(float(z)) == pytest.approx(float(np.vdot(th, th).real), rel=1e-13)

    @pytest.mark.parametrize("k_par,lz,rejected", [(2.0, 4.0, True), (2.0, 8.0, True),
                                                   (1.05, 40.0, True), (1.2, 40.0, False)])
    def test_surface_box_integral_check(self, medium, k_par, lz, rejected):
        # the closed-form N_S assumes full decay; the box integral departs from it in a short box
        geom = vacuum_interface(medium, lz)
        mode = make_mode(geom, ModeIndex(ModeClass.S, (k_par, 0.0)))
        if rejected:
            with pytest.raises(QuadratureDisagreement):
                normalize(mode, geom)
        else:
            assert normalize(mode, geom).norm == surface_norm_constant(medium, mode.omega, k_par, geom.area)

    def test_normalize_rejects_prescaled(self, medium, interface):
        mode = normalize(make_mode(interface, surface_index(medium)), interface)
        with pytest.raises(ValueError):
            normalize(mode, interface)


class TestFieldExpansion:
    def test_matter_coefficients_vanish_in_vacuum(self, medium, interface):
        mode = normalize(make_mode(interface, surface_index(medium)), interface)
        coeffs = field_expansion_coefficients(mode)
        zs = np.array([0.5, 3.0])
        assert np.all(coeffs["P"].evaluate(zs) == 0)
        assert np.all(coeffs["X"].evaluate(zs) == 0)

    def test_displacement_identity(self, medium, interface):
        # f_D = -i (hbar/mu0) curl conj(beta) must equal -hbar omega eps0 eps(z) conj(theta)
        mode = normalize(make_mode(interface, surface_index(medium)), interface)
        coeffs = field_expansion_coefficients(mode)
        for z0, eps_here in ((-1.2, epsilon(medium, mode.omega)), (0.8, 1.0)):
            fd = coeffs["D"].evaluate(np.array([z0]))[0]
            direct = -HBAR * mode.omega * EPS0 * eps_here * np.conj(
                mode.theta.profile.evaluate(np.array([z0]))[0])
            np.testing.assert_allclose(fd, direct, rtol=1e-12)

    def test_vacuum_photon_amplitude(self, vacuum_box):
        mode = normalize(make_mode(vacuum_box, ModeIndex(ModeClass.TEv, (0.0, 0.0), 0.8)), vacuum_box)
        fd = field_expansion_coefficients(mode)["D"].evaluate(np.array([0.0]))[0]
        textbook = EPS0 * math.sqrt(HBAR * mode.omega / (2 * EPS0 * vacuum_box.volume))
        assert np.abs(fd).max() == pytest.approx(textbook, rel=1e-12)

    def test_surface_x_coefficient_discontinuous(self, medium, interface):
        mode = normalize(make_mode(interface, surface_index(medium)), interface)
        fx = field_expansion_coefficients(mode)["X"]
        below = fx.evaluate(np.array([-1e-9]))[0]
        above = fx.evaluate(np.array([+1e-9]))[0]
        assert np.abs(below).max() > 0 and np.abs(above).max() == 0
        # while the tangential displacement over eps stays continuous
        fd = field_expansion_coefficients(mode)["D"]
        e_par = mode.index.e_par
        below_d = np.dot(e_par, fd.evaluate(np.array([-1e-12]))[0]) / epsilon(medium, mode.omega)
        above_d = np.dot(e_par, fd.evaluate(np.array([+1e-12]))[0])
        np.testing.assert_allclose(below_d, above_d, rtol=1e-9)


def region_index_per_point(profile: VectorProfile, z: float) -> int:
    """Reference lookup: the first region holding z, an interface point going up."""
    for i, reg in enumerate(profile.regions):
        if reg.z_min <= z <= reg.z_max:
            if z == reg.z_max and i + 1 < len(profile.regions):
                continue
            return i
    raise ValueError(f"z={z} outside profile support")


class TestRegionLookup:
    def test_matches_per_point_lookup(self, medium, interface, vacuum_box, rng):
        z_wall = interface.lz / 2
        zs = np.concatenate([rng.uniform(-z_wall, z_wall, 500),
                             [-z_wall, z_wall, 0.0, -0.0, np.nextafter(0.0, -1.0), 5e-324]])
        for geom, idx in ((interface, surface_index(medium)), (interface, ALL_CLASS_INDICES[2]),
                          (vacuum_box, ModeIndex(ModeClass.TEv, (0.3, 0.0), 0.7))):
            prof = make_mode(geom, idx).theta.profile
            z = zs * geom.lz / interface.lz
            got = prof.region_indices(z)
            assert got.tolist() == [region_index_per_point(prof, float(zz)) for zz in z]
        prof = make_mode(interface, surface_index(medium)).theta.profile
        assert prof.region_indices(0.0).tolist() == [1]  # the interface belongs to the upper region

    @pytest.mark.parametrize("bad", [-20.0 - 1e-12, 20.0 + 1e-9, np.nan, np.inf, -np.inf])
    def test_outside_support_raises(self, medium, interface, bad):
        prof = make_mode(interface, surface_index(medium)).theta.profile
        with pytest.raises(ValueError):
            prof.region_indices([0.0, bad])
        with pytest.raises(ValueError):
            prof.evaluate([1.0, bad])
        with pytest.raises(ValueError):
            prof.divergence(bad)
        with pytest.raises(ValueError):
            wave_equation_residual(make_mode(interface, surface_index(medium)).theta, interface, [bad])

    def test_array_paths_match_per_point_reference(self, medium, interface, rng):
        zs = np.concatenate([rng.uniform(-20.0, 20.0, 101), [-20.0, 0.0, 20.0]])
        for idx in [surface_index(medium)] + ALL_CLASS_INDICES:
            mode = make_mode(interface, idx)
            for prof in (mode.theta.profile, mode.hopfield.beta, mode.hopfield.gamma, mode.hopfield.eta):
                r_par = (0.3, -1.2)
                ref = np.array([prof.evaluate_region(region_index_per_point(prof, zz), zz, r_par)[0]
                                for zz in zs])
                np.testing.assert_array_equal(prof.evaluate(zs, r_par), ref)
                ref_div = np.zeros(zs.size, dtype=complex)
                for j, zz in enumerate(zs):
                    for t in prof.regions[region_index_per_point(prof, zz)].terms:
                        k3 = np.array([-prof.k_inplane[0], -prof.k_inplane[1], t.w], dtype=complex)
                        ref_div[j] += 1j * np.dot(k3, t.amplitude) * np.exp(1j * t.w * zz)
                phase = np.exp(-1j * (prof.k_inplane[0] * r_par[0] + prof.k_inplane[1] * r_par[1]))
                np.testing.assert_allclose(prof.divergence(zs, r_par), ref_div * phase,
                                           rtol=1e-14, atol=1e-14 * np.max(np.abs(ref)))
            theta = mode.theta
            u = (theta.omega / C) ** 2
            cc = theta.profile.curl().curl()
            res = th = 0.0
            for zz in zs:
                i = region_index_per_point(theta.profile, zz)
                med = theta.profile.regions[i].medium
                eps_here = 1.0 if med is None else epsilon(med, theta.omega)
                v = theta.profile.evaluate_region(i, zz)[0]
                res = max(res, np.max(np.abs(cc.evaluate_region(i, zz)[0] - u * eps_here * v)))
                th = max(th, np.max(np.abs(v)))
            assert wave_equation_residual(theta, interface, zs) == pytest.approx(res / (u * th), abs=1e-14)
