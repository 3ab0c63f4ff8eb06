import dataclasses
import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from polmodes import (
    ModeClass,
    ModeIndex,
    conjugate_mode,
    make_mode,
    normalize,
    surface_dispersion_kpar,
)
from polmodes import nonlinear
from polmodes.errors import PoleAtResonance
from polmodes.media import HBAR, POLE_GUARD_REL
from polmodes.modes import _scaled_mode
from polmodes.nonlinear import NonlinearTensor, ScatteringAmplitude, matter_weight, scattering_coefficient


def diagonal_phi(order=3):
    arr = np.zeros((3,) * order)
    for j in range(3):
        arr[(j,) * order] = 1.0
    return NonlinearTensor.from_array(arr)


def quadrature_xi(modes, phi, geom):
    """Xi by adaptive quadrature of the pointwise weight contraction over each matter
    region: the reference for the exponential primitives of scattering_coefficient."""
    weights = [matter_weight(md) for md in modes]
    total = 0j
    for ireg, reg in enumerate(weights[0].regions):
        if reg.medium is None:
            continue

        def dens(z, ireg=ireg):
            contraction = phi.components
            for w in weights:
                contraction = np.tensordot(contraction, w.evaluate_region(ireg, z)[0], axes=([0], [0]))
            return complex(contraction)

        re, _ = quad(lambda z: dens(z).real, reg.z_min, reg.z_max, limit=400)
        im, _ = quad(lambda z: dens(z).imag, reg.z_min, reg.z_max, limit=400)
        total += re + 1j * im
    return geom.area * total


@pytest.fixture
def s_pair_and_bulk(medium, interface):
    k = surface_dispersion_kpar(medium, 1.05)
    s_plus = normalize(make_mode(interface, ModeIndex(ModeClass.S, (k, 0.0))), interface)
    s_minus = normalize(make_mode(interface, ModeIndex(ModeClass.S, (-k, 0.0))), interface)
    bulk = normalize(make_mode(interface, ModeIndex(ModeClass.TMv, (0.0, 0.0), 0.7)), interface)
    return s_plus, s_minus, bulk


class TestNonlinearTensor:
    def test_symmetrization(self):
        arr = np.zeros((3, 3, 3))
        arr[0, 1, 2] = 6.0
        phi = NonlinearTensor.from_array(arr)
        assert phi.components[2, 1, 0] == pytest.approx(1.0)
        assert phi.symmetrization_defect == pytest.approx(5.0)
        sym = diagonal_phi()
        assert sym.symmetrization_defect == 0.0

    @pytest.mark.parametrize("order", [3, 4, 5, 6, 7])
    def test_symmetrization_is_the_permutation_average(self, rng, order):
        arr = rng.standard_normal((3,) * order)
        perms = list(itertools.permutations(range(order)))
        ref = sum(np.transpose(arr, p) for p in perms) / len(perms)
        phi = NonlinearTensor.from_array(arr)
        scale = np.max(np.abs(arr))
        np.testing.assert_allclose(phi.components, ref, rtol=0, atol=1e-13 * scale)
        assert phi.symmetrization_defect == pytest.approx(np.max(np.abs(ref - arr)), rel=0,
                                                          abs=1e-13 * scale)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NonlinearTensor.from_array(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            NonlinearTensor.from_array(np.zeros((3, 3, 4)))


class TestMatterWeight:
    def test_vacuum_support_is_zero(self, medium, interface):
        mode = normalize(make_mode(interface, ModeIndex(ModeClass.TMv, (0.0, 0.0), 0.7)), interface)
        w = matter_weight(mode)
        assert np.all(w.evaluate(np.array([0.5, 4.0])) == 0)
        assert np.any(w.evaluate(np.array([-0.5])) != 0)

    def test_surface_weight_ratio(self, medium, interface):
        # weight / conj(theta) = kappa hbar omega / (rho (omega_T^2 - omega^2))
        k = surface_dispersion_kpar(medium, 1.1)
        mode = normalize(make_mode(interface, ModeIndex(ModeClass.S, (k, 0.0))), interface)
        w = matter_weight(mode).evaluate(np.array([-0.8]))[0]
        tb = np.conj(mode.theta.profile.evaluate(np.array([-0.8]))[0])
        expected = medium.kappa * 1.1 / (medium.rho * (1.0 - 1.21))
        np.testing.assert_allclose(w, expected * tb, rtol=1e-13)
        assert expected == pytest.approx(-5.238095238095238 * medium.kappa / medium.rho, rel=1e-13)

    def test_sign_flip_across_resonance(self, medium, interface):
        below = normalize(make_mode(interface, ModeIndex(ModeClass.TMv, (0.0, 0.0), 0.7)), interface)
        above = normalize(make_mode(interface, ModeIndex(ModeClass.TMv, (0.0, 0.0), 1.5)), interface)
        z = np.array([-0.4])
        rb = matter_weight(below).evaluate(z)[0, 0] / np.conj(below.theta.profile.evaluate(z)[0, 0])
        ra = matter_weight(above).evaluate(z)[0, 0] / np.conj(above.theta.profile.evaluate(z)[0, 0])
        assert rb.real > 0 > ra.real

    def test_partner_weight_is_conjugate(self, medium, interface):
        k = surface_dispersion_kpar(medium, 1.1)
        mode = normalize(make_mode(interface, ModeIndex(ModeClass.S, (k, 0.0))), interface)
        z = np.array([-0.6])
        w = matter_weight(mode).evaluate(z)[0]
        w_bar = matter_weight(conjugate_mode(mode)).evaluate(z)[0]
        np.testing.assert_allclose(w_bar, np.conj(w), rtol=1e-13)

    def test_pole_guard(self, medium, interface):
        # the weight's pole at omega_T is guarded where the mode is built: inside the guard
        # make_mode rejects the mode, just outside it the weight keeps its closed form
        g = POLE_GUARD_REL * medium.omega_T
        with pytest.raises(PoleAtResonance):
            make_mode(interface, ModeIndex(ModeClass.TEv, (0.0, 0.0), medium.omega_T + 0.5 * g))
        mode = make_mode(interface, ModeIndex(ModeClass.TEv, (0.0, 0.0), medium.omega_T + 2.0 * g))
        z = np.array([-1e-5])
        w = matter_weight(mode).evaluate(z)[0]
        factor = medium.kappa * HBAR * mode.omega / (medium.rho * (medium.omega_T**2 - mode.omega**2))
        assert np.all(np.isfinite(w)) and np.max(np.abs(w)) > 0
        np.testing.assert_allclose(w, factor * np.conj(mode.theta.profile.evaluate(z)[0]), rtol=1e-12)
        # the partner keeps |omega|, so its weight is the conjugate and equally finite
        w_bar = matter_weight(conjugate_mode(mode)).evaluate(z)[0]
        np.testing.assert_allclose(w_bar, np.conj(w), rtol=1e-13)


class TestScatteringCoefficient:
    def test_momentum_selection(self, s_pair_and_bulk, interface):
        s_plus, _, bulk = s_pair_and_bulk
        res = scattering_coefficient([s_plus, s_plus, bulk], diagonal_phi(), interface)
        assert res.value == 0
        assert not res.momentum_ok

    def test_flagged_tuple_builds_no_weight(self, s_pair_and_bulk, interface, monkeypatch):
        # the momentum check reads theta's in-plane wavevector, the weight's negated twice
        s_plus, _, bulk = s_pair_and_bulk
        modes = [s_plus, s_plus, bulk]
        weight_momenta = [(-w.k_inplane[0], -w.k_inplane[1]) for w in map(matter_weight, modes)]
        kx, ky = weight_momenta[0]
        for px, py in weight_momenta[1:]:
            kx, ky = kx + px, ky + py
        calls = []
        monkeypatch.setattr(nonlinear, "matter_weight", lambda *a, **kw: calls.append(a) or matter_weight(*a, **kw))
        res = scattering_coefficient(modes, diagonal_phi(), interface)
        assert calls == []
        assert res == ScatteringAmplitude(0j, False, (kx, ky))

    def test_momentum_conserving_tuple(self, s_pair_and_bulk, interface):
        res = scattering_coefficient(list(s_pair_and_bulk), diagonal_phi(), interface)
        assert res.momentum_ok
        assert res.value != 0

    def test_permutation_symmetry(self, s_pair_and_bulk, interface):
        phi = diagonal_phi()
        base = scattering_coefficient(list(s_pair_and_bulk), phi, interface).value
        for perm in itertools.permutations(s_pair_and_bulk):
            val = scattering_coefficient(list(perm), phi, interface).value
            assert abs(val - base) <= 1e-12 * abs(base)

    def test_exact_vs_quadrature(self, s_pair_and_bulk, interface):
        phi = diagonal_phi()
        exact = scattering_coefficient(list(s_pair_and_bulk), phi, interface).value
        assert quadrature_xi(s_pair_and_bulk, phi, interface) == pytest.approx(exact, rel=1e-8)

    def test_multilinearity_in_normalization(self, s_pair_and_bulk, interface):
        phi = diagonal_phi()
        s_plus, s_minus, bulk = s_pair_and_bulk
        base = scattering_coefficient([s_plus, s_minus, bulk], phi, interface).value
        doubled = _scaled_mode(dataclasses.replace(s_plus, norm=1.0), 2.0)
        val = scattering_coefficient([doubled, s_minus, bulk], phi, interface).value
        assert val == pytest.approx(2.0 * base, rel=1e-13)

    def test_conjugation_pairing(self, s_pair_and_bulk, interface):
        phi = diagonal_phi()
        base = scattering_coefficient(list(s_pair_and_bulk), phi, interface).value
        partners = [conjugate_mode(m) for m in s_pair_and_bulk]
        val = scattering_coefficient(partners, phi, interface).value
        assert val == pytest.approx(np.conj(base), rel=1e-13)

    def test_three_surface_modes_at_angles(self, medium, interface):
        # momentum triangle: three equal-|k| surface modes at 120 degrees
        phi = diagonal_phi()
        k = surface_dispersion_kpar(medium, 1.05)
        modes = []
        for ang in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
            modes.append(normalize(make_mode(
                interface, ModeIndex(ModeClass.S, (k * np.cos(ang), k * np.sin(ang)))), interface))
        res = scattering_coefficient(modes, phi, interface)
        assert res.momentum_ok
        base = scattering_coefficient([modes[1], modes[2], modes[0]], phi, interface).value
        assert res.value == pytest.approx(base, rel=1e-12)

    def test_order_mismatch(self, s_pair_and_bulk, interface):
        with pytest.raises(ValueError):
            scattering_coefficient(list(s_pair_and_bulk)[:2], diagonal_phi(), interface)

    def test_order_four(self, medium, interface):
        phi = diagonal_phi(order=4)
        k = surface_dispersion_kpar(medium, 1.05)
        sp = normalize(make_mode(interface, ModeIndex(ModeClass.S, (k, 0.0))), interface)
        sm = normalize(make_mode(interface, ModeIndex(ModeClass.S, (-k, 0.0))), interface)
        res = scattering_coefficient([sp, sm, sp, sm], phi, interface)
        assert res.momentum_ok
        assert res.value == pytest.approx(quadrature_xi([sp, sm, sp, sm], phi, interface), rel=1e-8)
