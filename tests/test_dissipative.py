import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from polmodes import (
    epsilon,
    fresnel_te,
    from_phonon_frequencies,
    homogeneous_box,
    vacuum_interface,
)
from polmodes.media import Layer, LayeredGeometry
from polmodes.dissipative import (
    bath_kernel_F,
    driven_field,
    flat_bath,
    kramers_kronig_real,
    lossy_epsilon,
    null_bath,
    ohmic_bath,
    power_balance,
    principal_value_integral,
    quadrature_bath,
    renormalized_omega_L,
)
from polmodes.errors import BathMediumMismatch, DivergentBathIntegral, SingularEndpoint

from helpers import source_current_to_y, y_to_source_current


@pytest.fixture
def bath(medium):
    return flat_bath(medium, 0.05, 0.5, 3.0)


def generic(bath):
    """The same upsilon as a bath integrated by quadrature."""
    return quadrature_bath(bath.medium, bath.upsilon, bath.zeta_min, bath.zeta_max)


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
        # the closed-form shift, and quad's own error estimate meeting the convergence gate
        # of the quadrature route on the same (convergent) upsilon
        m = from_phonon_frequencies(1.0, 1.2, rho)
        expected = math.sqrt(m.omega_L**2 + amplitude**2 * cutoff**2 / (2.0 * rho**2))
        bath = ohmic_bath(m, amplitude, cutoff)
        assert renormalized_omega_L(m, bath) == pytest.approx(expected, rel=1e-12)
        assert renormalized_omega_L(m, generic(bath)) == pytest.approx(expected, rel=1e-12)

    def test_divergent_bath(self, medium):
        with pytest.raises(DivergentBathIntegral):
            quadrature_bath(medium, lambda z: 1.0, 0.0, math.inf)

    def test_divergent_bath_raises_on_every_call(self, medium):
        for _ in range(3):
            with pytest.raises(DivergentBathIntegral):
                quadrature_bath(medium, lambda z: 1.0, 0.0, math.inf)

    def test_shift_integrated_once_per_bath(self, medium, monkeypatch):
        import scipy.integrate

        callers = []
        real_quad = scipy.integrate.quad

        def counting_quad(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
        omegas = (0.4, 1.1, 1.1, 2.3, 5.0)
        quadrature = generic(ohmic_bath(medium, 0.1, 2.0))
        values = [lossy_epsilon(medium, quadrature, w) for w in omegas]
        assert callers.count("_bath_shift_integral") == 1
        assert len(callers) > 5  # the omega-dependent kernel still integrates per call
        assert values[1] == values[2]
        # the parsed baths evaluate kernel and shift in closed form
        for bath in (flat_bath(medium, 0.05, 0.5, 3.0), ohmic_bath(medium, 0.1, 2.0), null_bath(medium)):
            callers.clear()
            for w in omegas:
                lossy_epsilon(medium, bath, w)
            assert callers == []
        assert bath_kernel_F(null_bath(medium), 1.0) == 0.0 and callers == []

    def test_unphysical_couplings_rejected_at_construction(self, medium):
        # a negative coupling, a growing one or an infinite one has no closed form
        for make, args in ((flat_bath, (-0.05, 0.5, 3.0)), (ohmic_bath, (-0.1, 2.0)),
                           (ohmic_bath, (0.1, -2.0)), (flat_bath, (0.05, 0.5, math.inf)),
                           (ohmic_bath, (0.1, math.inf))):
            with pytest.raises(ValueError):
                make(medium, *args)
        with pytest.raises(OverflowError):  # a shift beyond the float range
            flat_bath(medium, 1e154, 0.0, 10.0)

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
        assert bath_kernel_F(null_bath(medium), 1.0) == 0.0  # on the support end
        assert bath_kernel_F(flat_bath(medium, 0.0, 0.5, 3.0), 3.0) == 0.0

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
        for w in (0.5, 0.5 * (1 + 1e-11), 3.0 * (1 - 1e-11)):  # both band edges, to 1e-9 relative
            with pytest.raises(SingularEndpoint):
                bath_kernel_F(bath, w)

    def test_ohmic_far_above_cutoff(self, medium):
        # omega/cutoff = 800: e^x overflows, and the pole sits far outside the bath's weight,
        # so a plain quadrature over [0, omega/2] is the reference (the rest is ~e^-400)
        amp, cut, w = 0.1, 0.01, 8.0
        got = bath_kernel_F(ohmic_bath(medium, amp, cut), w)

        def integrand(z):
            return amp**2 * z**3 * math.exp(-z / cut) / (medium.rho**2 * (z**2 - w**2))

        ref = quad(integrand, 0.0, 50 * cut, epsabs=0, epsrel=1e-13)[0] + quad(integrand, 50 * cut, w / 2)[0]
        assert math.isfinite(got) and got == pytest.approx(ref, rel=1e-10, abs=0)
        # the asymptotic series takes over continuously from the exponential integrals
        bath = ohmic_bath(medium, amp, 1.0)
        below, above = bath_kernel_F(bath, np.nextafter(60.0, 0.0)), bath_kernel_F(bath, 60.0)
        assert above == pytest.approx(below, rel=1e-11)

    @pytest.mark.parametrize("cutoff", [0.01, 0.05])
    @pytest.mark.parametrize("w", [0.5, 2.0, 5.0])
    def test_generic_bath_far_above_a_low_cutoff(self, medium, cutoff, w):
        # F is ~1e-11 here, far below quad's default absolute tolerance: the quadrature
        # route must converge relative to F itself
        bath = ohmic_bath(medium, 0.1, cutoff)
        assert bath_kernel_F(generic(bath), w) == pytest.approx(bath_kernel_F(bath, w), rel=1e-10, abs=0)

    def test_kernel_is_even_in_omega(self, medium, bath):
        # F depends on omega^2 only; at omega = 0 it is Int upsilon^2/rho^2, twice the shift
        ohmic = ohmic_bath(medium, 0.1, 2.0)
        for b in (bath, ohmic, generic(bath), generic(ohmic), null_bath(medium)):
            for w in (0.2, 1.0, 2.2, 5.0):  # below, inside and above the flat band
                assert bath_kernel_F(b, -w) == bath_kernel_F(b, w)
            assert bath_kernel_F(b, 0.0) == 2.0 * b.shift
            with pytest.raises(ValueError):
                bath_kernel_F(b, math.inf)
            with pytest.raises(ValueError):
                lossy_epsilon(medium, b, 0.0)
        assert bath_kernel_F(bath, 0.0) == pytest.approx(0.05**2 * 2.5 / medium.rho**2, rel=1e-14)
        assert bath_kernel_F(ohmic, 0.0) == pytest.approx(0.1**2 * 4.0 / medium.rho**2, rel=1e-14)

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

    @pytest.mark.parametrize("k_par", [20.0, 40.0])
    def test_power_balance_strongly_evanescent(self, medium, bath, k_par):
        # 2 k_par |z| passes 709, where each wave anchored off its own segment end over- or underflows
        geom = vacuum_interface(medium, 40.0)
        sheets = [(-5.0, 1.0)]
        sol = driven_field(geom, bath, 1.1, sheets, k_par=k_par)
        lhs, rhs = power_balance(sol, geom, bath, sheets, -20.0, 20.0)
        scale = max(abs(lhs), abs(rhs), 1.1 * abs(sol.evaluate(-5.0)[0]))
        assert np.isfinite(lhs) and np.isfinite(rhs)
        assert abs(lhs - rhs) <= 1e-6 * scale

    def test_sheets_at_one_z_add(self, medium, bath):
        geom = vacuum_interface(medium, 40.0)
        sheets = [(-3.0, 1.0), (-3.0, 2.0)]
        sol = driven_field(geom, bath, 1.1, sheets, k_par=0.7)
        summed = driven_field(geom, bath, 1.1, [(-3.0, 1.0 + 2.0)], k_par=0.7)
        zs = np.linspace(-20.0, 20.0, 81)
        assert np.array_equal(sol.evaluate(zs), summed.evaluate(zs))
        lhs, rhs = power_balance(sol, geom, bath, sheets, -15.0, 15.0)
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))

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
    @staticmethod
    def _linear_deviation(monkeypatch):
        # a deviation linear in upsilon stays below 1e-12 at upsilon = 5e-8, but breaks the
        # upsilon^2 ratio between 5e-7 and 5e-6
        from polmodes import dissipative as diss

        exact = diss.lossy_epsilon

        def linear(m, bath, w):
            eps = exact(m, bath, w)
            return eps + 1e-6 * math.sqrt(abs(eps - epsilon(m, w)))

        monkeypatch.setattr(diss, "lossy_epsilon", linear)

    @staticmethod
    def _unbalanced_power(monkeypatch, offset):
        from polmodes import dissipative as diss

        exact = diss.power_balance

        def unbalanced(*args):
            lhs, rhs = exact(*args)
            return lhs, rhs + offset

        monkeypatch.setattr(diss, "power_balance", unbalanced)

    def test_lossless_limit_holds_the_quadratic_law(self, monkeypatch):
        from polmodes import verify

        deviation, ratio = verify.check_lossless_limit().gates
        assert deviation.passed and deviation.tolerance == 1e-12
        assert ratio.passed and ratio.tolerance == 1.0
        self._linear_deviation(monkeypatch)
        res = verify.check_lossless_limit()
        deviation, ratio = res.gates
        assert deviation.measured < 1e-12 and deviation.passed
        assert not ratio.passed and not res.passed

    def test_driven_decay_reports_the_decay_error(self, monkeypatch):
        from polmodes import verify

        # the balance is relative to a scale of about 0.54 here
        for offset, passed in ((1e-7, True), (1e-5, False)):
            self._unbalanced_power(monkeypatch, offset)
            res = verify.check_driven_decay()
            decay, balance = res.gates
            assert decay.measured < 1e-10 and decay.passed  # the decay error alone
            assert balance.label == "power balance" and balance.tolerance == 1e-6
            assert balance.passed == res.passed == passed

    def test_tol_scale_keeps_the_ratio_gate(self, monkeypatch):
        from polmodes import verify

        self._linear_deviation(monkeypatch)
        monkeypatch.setattr(verify, "ALL_CHECKS", [verify.check_lossless_limit])
        assert not verify.run_all(2.0)[0].passed

    def test_tol_scale_keeps_the_power_balance_gate(self, monkeypatch):
        from polmodes import verify

        self._unbalanced_power(monkeypatch, 1e-5)
        monkeypatch.setattr(verify, "ALL_CHECKS", [verify.check_driven_decay])
        assert not verify.run_all(1.001)[0].passed

    def test_a_raising_check_fails_and_names_the_exception(self, monkeypatch):
        from polmodes import verify

        def broken():
            raise ValueError("no grid")

        monkeypatch.setattr(verify, "ALL_CHECKS", [broken])
        (res,) = verify.run_all()
        assert not res.passed and "ValueError('no grid')" in res.name

    @pytest.mark.parametrize("scale,passed", [(1.0, False), (1.6, False), (2.0, True), (1e9, True)])
    def test_tol_scale_scales_every_gate(self, monkeypatch, scale, passed):
        from polmodes import verify
        from polmodes.verify import Gate, VerifyResult

        # the first gate passes above scale 1.5, the second above 1.8; exact zeros always pass
        gates = (Gate("a", 1.5e-8, 1e-8), Gate("b", 0.9, 0.5), Gate("exact", 0.0, 0.0))
        monkeypatch.setattr(verify, "ALL_CHECKS", [lambda: VerifyResult("synthetic", gates)])
        (res,) = verify.run_all(scale)
        assert res.passed == passed
        assert [g.tolerance for g in res.gates] == [1e-8 * scale, 0.5 * scale, 0.0]
