import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmodes import (
    C,
    ModeClass,
    ModeIndex,
    bulk_branches,
    from_phonon_frequencies,
    surface_dispersion_kpar,
    surface_dispersion_omega,
    surface_window_top,
)
from polmodes.errors import BelowLightLineEdge, OutsideSurfaceWindow, SolverContractViolation


class TestBulkBranches:
    def test_k_zero(self, medium):
        ol, ou = bulk_branches(medium, 0.0)
        assert ol == 0.0
        assert ou == pytest.approx(medium.omega_L, rel=1e-15)

    def test_reference_point(self, medium):
        # roots of omega^4 - omega^2(1.44 + 1) + 1 = 0, frozen via the
        # stable-quadratic oracle and checked against Vieta below
        ol, ou = bulk_branches(medium, 1.0)
        assert ol == pytest.approx(0.7219028962497339, rel=1e-13)
        assert ou == pytest.approx(1.3852278543208139, rel=1e-13)
        assert ol**2 * ou**2 == pytest.approx(1.0, rel=1e-12)  # Vieta product

    def test_large_k_asymptotes(self, medium):
        k = 1e6
        ol, ou = bulk_branches(medium, k)
        assert ol == pytest.approx(medium.omega_T, rel=1e-9)
        assert ou == pytest.approx(k, rel=1e-9)

    def test_no_overflow_past_the_square_of_b(self, medium):
        # b^2 overflows from c k ~ 1e77 on; the rescaled discriminant holds until b does (c k ~ 1e154)
        # (Tier-1 turns the overflow RuntimeWarning into an error)
        ks = np.array([1e100, 1e150])
        ol, ou = bulk_branches(medium, ks)
        np.testing.assert_allclose(ol, medium.omega_T, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ou, C * ks, rtol=1e-15, atol=0)

    def test_vectorized(self, medium):
        ks = np.linspace(0, 5, 11)
        ol, ou = bulk_branches(medium, ks)
        assert ol.shape == ks.shape
        assert np.all(np.diff(ol) > 0) and np.all(np.diff(ou) > 0)

    @given(st.floats(0.3, 3.0), st.floats(1.0 + 1e-5, 2.5), st.floats(0.1, 10.0),
           st.floats(1e-6, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_vieta_identities(self, w_t, ratio, rho, k):
        m = from_phonon_frequencies(w_t, w_t * ratio, rho)
        ol, ou = bulk_branches(m, k)
        s = m.omega_L**2 + k**2
        p = (k * m.omega_T) ** 2
        assert ol**2 + ou**2 == pytest.approx(s, rel=1e-12)
        assert ol**2 * ou**2 == pytest.approx(p, rel=1e-12)
        assert ol < m.omega_T <= m.omega_L <= ou

    def test_vieta_thousand_random(self, rng):
        worst = 0.0
        for _ in range(1000):
            m = from_phonon_frequencies(rng.uniform(0.3, 3.0), rng.uniform(3.1, 6.0),
                                        rng.uniform(0.1, 10.0))
            k = rng.uniform(0.0, 10.0 * m.omega_L)
            ol, ou = bulk_branches(m, k)
            s = m.omega_L**2 + k**2
            worst = max(worst, abs(ol**2 + ou**2 - s) / s)
        assert worst < 1e-12


class TestSurfaceDispersion:
    def test_reference_point(self, medium):
        # eps(1.1) = -23/21, k_par = 1.1 sqrt(eps/(1+eps)); frozen oracle value
        k = surface_dispersion_kpar(medium, 1.1)
        assert k == pytest.approx(3.7302814907189354, rel=1e-13)
        assert math.sqrt((-23 / 21) / (1 - 23 / 21)) == pytest.approx(3.3911649915626683, rel=1e-14)

    def test_window_rejection(self, medium):
        with pytest.raises(OutsideSurfaceWindow):
            surface_dispersion_kpar(medium, 0.9)
        with pytest.raises(OutsideSurfaceWindow):
            surface_dispersion_kpar(medium, surface_window_top(medium) * 1.001)

    def test_inverse_roundtrip(self, medium):
        w = surface_dispersion_omega(medium, 3.7302814907189354)
        assert w == pytest.approx(1.1, abs=1e-10)

    def test_light_line_edge(self, medium):
        assert surface_dispersion_omega(medium, medium.omega_T) == medium.omega_T
        with pytest.raises(BelowLightLineEdge):
            surface_dispersion_omega(medium, 0.999 * medium.omega_T)

    def test_asymptote_at_large_k(self, medium):
        top = surface_window_top(medium)
        assert top == pytest.approx(math.sqrt(1.22), rel=1e-15)
        w = surface_dispersion_omega(medium, 100.0 * medium.omega_T)
        assert abs(w - top) < 1e-4 * medium.omega_T

    @pytest.mark.parametrize("k_par", [1e150, 1e160])  # the quartic overflows, or ck**2 does
    def test_overflow_is_a_library_error(self, medium, k_par):
        with pytest.raises(SolverContractViolation):
            surface_dispersion_omega(medium, k_par)

    def test_strictly_increasing(self, medium):
        ks = np.linspace(medium.omega_T * 1.0001, 30.0, 500)
        ws = np.array([surface_dispersion_omega(medium, k) for k in ks])
        assert np.all(np.diff(ws) > 0)

    @given(st.floats(0.3, 3.0), st.floats(1.02, 2.5), st.floats(0.1, 10.0),
           st.floats(1e-3, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, w_t, ratio, rho, frac):
        m = from_phonon_frequencies(w_t, w_t * ratio, rho)
        w = m.omega_T + frac * (surface_window_top(m) - m.omega_T)
        k = surface_dispersion_kpar(m, w)
        assert surface_dispersion_omega(m, k) == pytest.approx(w, rel=1e-10)
        assert k * 1.0 >= m.omega_T  # existence edge c k_par >= omega_TO

    def test_window_characterizations_agree(self, rng):
        # surface solutions exist iff eps < -1 iff omega in (omega_TO, omega_surf)
        from polmodes import epsilon

        for _ in range(1000):
            m = from_phonon_frequencies(rng.uniform(0.3, 3.0), rng.uniform(3.1, 6.0),
                                        rng.uniform(0.1, 10.0))
            w = rng.uniform(0.01, 1.2) * m.omega_L
            if min(abs(w - m.omega_T), abs(w - surface_window_top(m))) < 1e-9 * m.omega_T:
                continue
            in_window = m.omega_T < w < surface_window_top(m)
            assert (epsilon(m, w) < -1) == in_window


class TestModeIndex:
    def test_sign_conventions(self):
        ModeIndex(ModeClass.TEv, (1.0, 0.0), 0.5)
        ModeIndex(ModeClass.TMl, (1.0, 0.0), -0.5)
        with pytest.raises(ValueError):
            ModeIndex(ModeClass.TEv, (1.0, 0.0), -0.5)
        with pytest.raises(ValueError):
            ModeIndex(ModeClass.TMu, (1.0, 0.0), 0.5)
        with pytest.raises(ValueError):
            ModeIndex(ModeClass.TEl, (1.0, 0.0), None)

    def test_surface_index(self):
        idx = ModeIndex(ModeClass.S, (2.0, 0.0))
        assert idx.k_z is None
        with pytest.raises(ValueError):
            ModeIndex(ModeClass.S, (2.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            ModeIndex(ModeClass.S, (0.0, 0.0))

    def test_basis_vectors(self):
        idx = ModeIndex(ModeClass.TEv, (3.0, 4.0), 1.0)
        np.testing.assert_allclose(idx.e_par, [0.6, 0.8, 0.0])
        np.testing.assert_allclose(idx.e_perp, [-0.8, 0.6, 0.0])
        assert idx.k_mag == pytest.approx(math.sqrt(26.0))
        # degenerate convention at k_par = 0
        idx0 = ModeIndex(ModeClass.TMv, (0.0, 0.0), 1.0)
        np.testing.assert_allclose(idx0.e_par, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(idx0.e_perp, [0.0, 1.0, 0.0])

    def test_exactly_seven_classes(self):
        assert {c.value for c in ModeClass} == {"TMv", "TMl", "TMu", "TEv", "TEl", "TEu", "S"}
