import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from polmodes import (
    default_medium,
    epsilon,
    fresnel_te,
    from_phonon_frequencies,
    homogeneous_box,
    vacuum_interface,
)
from polmodes.media import Layer, LayeredGeometry
from polmodes.dissipative import (
    BathModel,
    ComplexDielectric,
    bath_kernel_F,
    driven_field,
    flat_bath,
    kramers_kronig_real,
    lossy_epsilon,
    null_bath,
    ohmic_bath,
    power_balance,
    principal_value_integral,
    renormalized_omega_L,
    source_current_to_y,
    y_to_source_current,
)
from polmodes.errors import BathMediumMismatch, DivergentBathIntegral, SingularEndpoint


@pytest.fixture
def bath(medium):
    return flat_bath(medium, 0.05, 0.5, 3.0)


class TestRenormalization:
    def test_zero_coupling(self, medium):
        assert renormalized_omega_L(medium, null_bath(medium)) == pytest.approx(
            medium.omega_L, rel=1e-14)

    def test_flat_closed_form(self, medium, bath):
        # Int upsilon^2/(2 rho^2) = upsilon0^2 (b-a)/(2 rho^2)
        shift = 0.05**2 * 2.5 / 2.0
        expected = math.sqrt(medium.omega_L**2 + shift)
        assert renormalized_omega_L(medium, bath) == pytest.approx(expected, rel=1e-10)

    def test_quadrature_vs_closed_form(self, medium, bath):
        got = renormalized_omega_L(medium, bath) ** 2 - medium.omega_L**2
        assert got == pytest.approx(0.05**2 * 2.5 / 2.0, rel=1e-10)

    def test_ohmic_converges(self, medium):
        b = ohmic_bath(medium, 0.1, 2.0)
        # Int amplitude^2 zeta exp(-zeta/cutoff) / (2 rho^2) = a^2 cutoff^2 / (2 rho^2)
        expected = math.sqrt(medium.omega_L**2 + 0.1**2 * 4.0 / 2.0)
        assert renormalized_omega_L(medium, b) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("rho", [1.0, 2.0])
    @pytest.mark.parametrize("amplitude,cutoff",
                             [(0.1, 0.3), (0.1, 1.5), (0.1, 3.0), (0.02, 1.0), (0.02, 4.0)])
    def test_ohmic_closed_form(self, rho, amplitude, cutoff):
        # quad's own error estimate must meet the convergence gate on convergent baths
        m = from_phonon_frequencies(1.0, 1.2, rho)
        expected = math.sqrt(m.omega_L**2 + amplitude**2 * cutoff**2 / (2.0 * rho**2))
        got = renormalized_omega_L(m, ohmic_bath(m, amplitude, cutoff))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_divergent_bath(self, medium):
        b = BathModel(medium, lambda z: 1.0, 0.0, math.inf)
        with pytest.raises(DivergentBathIntegral):
            renormalized_omega_L(medium, b)

    def test_divergent_bath_raises_on_every_call(self, medium):
        b = BathModel(medium, lambda z: 1.0, 0.0, math.inf)
        for _ in range(3):
            with pytest.raises(DivergentBathIntegral):
                lossy_epsilon(medium, b, 1.1)

    def test_shift_integrated_once_per_bath(self, medium, monkeypatch):
        import scipy.integrate

        callers = []
        real_quad = scipy.integrate.quad

        def counting_quad(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
        for bath in (flat_bath(medium, 0.05, 0.5, 3.0), ohmic_bath(medium, 0.1, 2.0)):
            callers.clear()
            values = [lossy_epsilon(medium, bath, w) for w in (0.4, 1.1, 1.1, 2.3, 5.0)]
            assert callers.count("_bath_shift_integral") == 1
            assert len(callers) > 5  # the omega-dependent kernel still integrates per call
            assert values[1] == values[2]

    def test_bath_bound_to_another_medium(self, medium):
        other = from_phonon_frequencies(1.0, 1.2, 2.0)
        bath = flat_bath(other, 0.05, 0.5, 3.0)
        with pytest.raises(BathMediumMismatch):
            lossy_epsilon(medium, bath, 1.1)
        with pytest.raises(BathMediumMismatch):
            renormalized_omega_L(medium, bath)
        with pytest.raises(ValueError):
            lossy_epsilon(medium, bath, 1.1)
        # an equal medium built separately is the same medium
        assert lossy_epsilon(from_phonon_frequencies(1.0, 1.2, 1.0), flat_bath(medium, 0.05, 0.5, 3.0), 1.1) \
            == lossy_epsilon(medium, flat_bath(medium, 0.05, 0.5, 3.0), 1.1)


class TestBathKernel:
    def test_zero_coupling(self, medium):
        assert bath_kernel_F(null_bath(medium), 1.0) == 0.0

    def test_flat_closed_form_inside_support(self, medium, bath):
        for w in (0.8, 1.3, 2.2):
            exact = 0.05**2 / medium.rho**2 * (
                2.5 + (w / 2) * math.log(abs((3.0 - w) * (0.5 + w) / ((3.0 + w) * (0.5 - w)))))
            assert bath_kernel_F(bath, w) == pytest.approx(exact, rel=1e-8)

    def test_outside_support_plain_quadrature(self, medium, bath):
        for w in (0.2, 5.0):
            plain, _ = quad(lambda z: 0.05**2 * z**2 / (medium.rho**2 * (z**2 - w**2)), 0.5, 3.0)
            assert bath_kernel_F(bath, w) == pytest.approx(plain, rel=1e-10)

    def test_singular_endpoint(self, medium, bath):
        with pytest.raises(SingularEndpoint):
            bath_kernel_F(bath, 3.0)

    def test_pv_primitive_antisymmetry(self):
        # P Int over a symmetric window of 1/(z^2-w^2) vanishes as the window
        # becomes symmetric about the pole in the 1/(z-w) channel
        val = principal_value_integral(lambda z: 1.0, 0.5, 1.5, 1.0)
        exact = (1 / 2) * math.log((0.5 * 1.5) / (2.5 * 0.5))
        assert val == pytest.approx(exact, rel=1e-10)


class TestLossyEpsilon:
    def test_zero_coupling_exact(self, medium):
        b = null_bath(medium)
        for w in (0.4, 1.1, 1.9):
            assert lossy_epsilon(medium, b, w) == epsilon(medium, w)

    def test_coupling_to_zero_limit(self, medium):
        # |eps_tilde - eps| scales as upsilon^2 and reaches 1e-12
        for w in (0.6, 1.1):
            e0 = epsilon(medium, w)
            d6 = abs(lossy_epsilon(medium, flat_bath(medium, 5e-6, 0.5, 3.0), w) - e0)
            d8 = abs(lossy_epsilon(medium, flat_bath(medium, 5e-8, 0.5, 3.0), w) - e0)
            assert d8 < 1e-12
            assert d6 / d8 == pytest.approx(1e4, rel=0.05)

    def test_high_frequency_transparency(self, medium, bath):
        assert lossy_epsilon(medium, bath, 50.0) == pytest.approx(1.0, abs=2e-3)
        assert lossy_epsilon(medium, bath, 500.0) == pytest.approx(1.0, abs=2e-5)

    def test_passivity(self, medium, rng):
        for _ in range(40):
            b = flat_bath(medium, rng.uniform(0.0, 0.2), rng.uniform(0.1, 1.0),
                          rng.uniform(1.5, 5.0))
            w = rng.uniform(0.05, 6.0)
            assert lossy_epsilon(medium, b, w).imag >= 0

    def test_damped_lorentz_match(self, medium):
        # weak flat bath spanning the reststrahlen band: eps_tilde approximates
        # the damped-Lorentz form with gamma = pi upsilon^2/(2 rho^2) and the
        # static PV shift absorbed into the resonance frequencies
        gamma = 1e-3
        ups = math.sqrt(2 * medium.rho**2 * gamma / math.pi)
        b = flat_bath(medium, ups, 0.2, 5.0)
        w0 = 1.1
        f0 = bath_kernel_F(b, w0)
        wl2 = renormalized_omega_L(medium, b) ** 2 - f0
        wt2 = medium.omega_T**2 - f0
        worst = 0.0
        for w in np.linspace(1.01, 1.19, 25):
            lorentz = (wl2 - w**2 - 1j * gamma * w) / (wt2 - w**2 - 1j * gamma * w)
            et = lossy_epsilon(medium, b, float(w))
            worst = max(worst, abs(et - lorentz) / abs(et))
        assert worst < 0.01

    def test_kramers_kronig(self, medium, bath):
        w_res = brentq(lambda w: medium.omega_T**2 - w**2 - bath_kernel_F(bath, w), 0.6, 1.4)
        for w in (0.3, 0.9, 1.5, 2.5):
            target = lossy_epsilon(medium, bath, w).real - 1.0
            rec = kramers_kronig_real(
                lambda z: lossy_epsilon(medium, bath, z).imag, (0.5, 3.0), w,
                breakpoints=[w_res - 0.02, w_res + 0.02])
            assert abs(rec - target) < 0.01 * (1.0 + abs(target))

    def test_complex_dielectric_evaluator(self, medium, bath):
        eps_t = ComplexDielectric(medium, bath)
        assert eps_t(1.1) == lossy_epsilon(medium, bath, 1.1)

    def test_y_current_roundtrip(self, medium, bath):
        y = 0.3 + 0.1j
        j = y_to_source_current(medium, bath, 1.1, y)
        assert source_current_to_y(medium, bath, 1.1, j) == pytest.approx(y, rel=1e-13)
        with pytest.raises(ValueError):
            source_current_to_y(medium, bath, 4.0, 1.0)  # no coupling at omega


class TestDrivenField:
    def test_zero_source_zero_field(self, medium, bath):
        geom = homogeneous_box(medium, 40.0)
        sol = driven_field(geom, bath, 1.1, [(0.0, 0.0)])
        assert np.max(np.abs(sol.evaluate(np.linspace(-15, 15, 31)))) == 0.0

    def test_green_function_infinite_medium(self, medium, bath):
        geom = homogeneous_box(medium, 100.0)
        omega = 1.1
        sol = driven_field(geom, bath, omega, [(0.0, 1.0)])
        k = np.sqrt(complex(omega**2 * lossy_epsilon(medium, bath, omega)))
        if k.imag < 0:
            k = -k
        zs = np.linspace(2.0, 20.0, 40)
        expected = -omega * np.exp(1j * k * zs) / (2 * k)
        np.testing.assert_allclose(sol.evaluate(zs), expected, rtol=1e-12)

    def test_decay_rate_matches_im_k(self, medium, bath):
        geom = homogeneous_box(medium, 100.0)
        omega = 1.1
        sol = driven_field(geom, bath, omega, [(0.0, 1.0)])
        k = np.sqrt(complex(omega**2 * lossy_epsilon(medium, bath, omega)))
        zs = np.linspace(2.0, 18.0, 33)
        slope = np.polyfit(zs, np.log(np.abs(sol.evaluate(zs))), 1)[0]
        assert -slope == pytest.approx(abs(k.imag), rel=1e-8)

    def test_power_balance(self, medium, bath):
        geom = vacuum_interface(medium, 60.0)
        sheets = [(10.0, 1.0)]
        sol = driven_field(geom, bath, 1.1, sheets, k_par=0.3)
        lhs, rhs = power_balance(sol, geom, bath, sheets, -25.0, 25.0)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-6

    def test_power_balance_interior_window(self, medium, bath):
        # window that excludes the source: pure flux/absorption bookkeeping
        geom = homogeneous_box(medium, 100.0)
        sol = driven_field(geom, bath, 1.1, [(0.0, 1.0)])
        lhs, rhs = power_balance(sol, geom, bath, [(0.0, 1.0)], 1.0, 20.0)
        assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-10

    def test_lossless_limit_reproduces_te_scattering(self, medium):
        geom = vacuum_interface(medium, 60.0)
        omega, k_par = 0.5, 0.2
        k_z = math.sqrt(omega**2 - k_par**2)
        sol = driven_field(geom, null_bath(medium), omega, [(10.0, 1.0)], k_par=k_par)
        zs = np.array([1.0, 2.0])
        th = sol.evaluate(zs)
        mat = np.array([[np.exp(-1j * k_z * z), np.exp(1j * k_z * z)] for z in zs])
        inc, ref = np.linalg.solve(mat, th)
        r_ana, t_ana = fresnel_te(medium, (k_par, 0.0, k_z))
        assert ref / inc == pytest.approx(r_ana, rel=1e-10)
        # transmitted amplitude modulus matches |t|
        q = math.sqrt(epsilon(medium, omega) * omega**2 - k_par**2)
        tm = sol.evaluate(np.array([-3.0]))[0]
        assert abs(tm / inc) == pytest.approx(abs(t_ana), rel=1e-10)

    def test_source_outside_box_rejected(self, medium, bath):
        geom = homogeneous_box(medium, 40.0)
        with pytest.raises(ValueError):
            driven_field(geom, bath, 1.1, [(25.0, 1.0)])

    def test_two_species_stack_rejected(self, medium, bath):
        other = from_phonon_frequencies(1.0, 1.3, 1.0)
        geom = LayeredGeometry((Layer(-20.0, 0.0, medium), Layer(0.0, 20.0, other)), 1.0)
        with pytest.raises(BathMediumMismatch):
            driven_field(geom, bath, 1.1, [(5.0, 1.0)])

    def test_array_evaluation_matches_per_segment_reference(self, medium, bath, rng):
        geom = vacuum_interface(medium, 60.0)
        sheets = [(-7.0, 1.0), (10.0, 0.5 - 0.2j)]
        sol = driven_field(geom, bath, 1.1, sheets, k_par=0.3)
        edges = [-30.0, -7.0, 0.0, 10.0, 30.0]
        zs = np.concatenate([rng.uniform(-30.0, 30.0, 200), edges])

        def segment(z):
            for i, seg in enumerate(sol.segments):
                if seg.z_lo <= z <= seg.z_hi and not (z == seg.z_hi and i + 1 < len(sol.segments)):
                    return seg
            raise AssertionError(z)

        up = np.array([segment(z).a * np.exp(1j * segment(z).q * (z - segment(z).z_lo)) for z in zs])
        down = np.array([segment(z).b * np.exp(-1j * segment(z).q * (z - segment(z).z_hi)) for z in zs])
        val = up + down
        der = 1j * np.array([segment(z).q for z in zs]) * (up - down)
        scale = np.max(np.abs(val))
        np.testing.assert_allclose(sol.evaluate(zs), val, rtol=1e-14, atol=1e-15 * scale)
        np.testing.assert_allclose(sol.derivative(zs), der, rtol=1e-14, atol=1e-15 * scale)
        # a sheet edge belongs to the upper segment: the derivative jumps there
        d_below, d_at = sol.derivative([np.nextafter(10.0, 0.0), 10.0])
        assert abs(d_at - d_below) > 0.1 * abs(d_at)
        for bad in (-30.0 - 1e-9, 30.0 + 1e-9, np.nan):
            with pytest.raises(ValueError):
                sol.evaluate([0.0, bad])
            with pytest.raises(ValueError):
                sol.derivative(bad)


class TestVerifyGates:
    def test_lossless_limit_holds_the_quadratic_law(self, monkeypatch):
        from polmodes import dissipative as diss
        from polmodes import verify

        res = verify.check_lossless_limit()
        assert res.passed and res.tolerance == 1e-12
        # a deviation linear in upsilon stays below 1e-12 at upsilon = 5e-8, but breaks the
        # upsilon^2 ratio between 5e-7 and 5e-6
        exact = diss.lossy_epsilon

        def linear(m, bath, w):
            eps = exact(m, bath, w)
            return eps + 1e-6 * math.sqrt(abs(eps - epsilon(m, w)))

        monkeypatch.setattr(diss, "lossy_epsilon", linear)
        res = verify.check_lossless_limit()
        assert res.measured < 1e-12 and not res.passed

    def test_driven_decay_reports_the_decay_error(self, monkeypatch):
        from polmodes import dissipative as diss
        from polmodes import verify

        exact = diss.power_balance
        # the balance is relative to a scale of about 0.54 here
        for offset, passed in ((1e-7, True), (1e-5, False)):
            def unbalanced(*args, offset=offset):
                lhs, rhs = exact(*args)
                return lhs, rhs + offset

            monkeypatch.setattr(diss, "power_balance", unbalanced)
            res = verify.check_driven_decay()
            assert res.passed == passed
            assert res.measured < 1e-10  # the decay error alone; the balance is in the detail
            assert "power balance" in res.detail
