import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmodes import (
    Layer,
    LayeredGeometry,
    MediumParams,
    epsilon,
    from_phonon_frequencies,
    homogeneous_box,
    longitudinal_frequency,
    nu,
    vacuum_interface,
)
from polmodes.errors import PoleAtResonance, ZeroEpsilon
from polmodes.media import epsilon_derivative, nu_vacuum


class TestLongitudinalFrequency:
    def test_decoupled_matter(self):
        m = MediumParams(omega_T=1.0, rho=1.0, kappa=0.0)
        assert longitudinal_frequency(m) == 1.0

    def test_sic_like_ratio(self):
        # kappa^2/(eps0 rho) = 0.44 -> omega_L = sqrt(1.44) = 1.2
        m = MediumParams(omega_T=1.0, rho=1.0, kappa=math.sqrt(0.44))
        assert longitudinal_frequency(m) == pytest.approx(1.2, rel=1e-15)

    def test_unit_plus_three(self):
        m = MediumParams(omega_T=1.0, rho=1.0, kappa=math.sqrt(3.0))
        assert longitudinal_frequency(m) == pytest.approx(2.0, rel=1e-15)

    def test_phonon_frequency_constructor(self):
        m = from_phonon_frequencies(1.0, 1.2, rho=2.5)
        assert m.omega_L == pytest.approx(1.2, rel=1e-14)
        assert m.kappa**2 / m.rho == pytest.approx(0.44, rel=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MediumParams(omega_T=0.0, rho=1.0, kappa=1.0)
        with pytest.raises(ValueError):
            MediumParams(omega_T=1.0, rho=-1.0, kappa=1.0)
        with pytest.raises(ValueError):
            from_phonon_frequencies(1.2, 1.0)


class TestEpsilon:
    def test_static_lst_value(self, medium):
        assert epsilon(medium, 0.0) == pytest.approx(1.44, rel=1e-14)

    def test_longitudinal_zero(self, medium):
        assert epsilon(medium, medium.omega_L) == pytest.approx(0.0, abs=1e-14)

    def test_reststrahlen_value(self, medium):
        expected = (1.44 - 1.21) / (1.0 - 1.21)  # independent arithmetic
        assert epsilon(medium, 1.1) == pytest.approx(expected, rel=1e-14)

    def test_pole_guard(self, medium):
        with pytest.raises(PoleAtResonance):
            epsilon(medium, medium.omega_T * (1 + 1e-12))
        with pytest.raises(PoleAtResonance):
            epsilon(medium, -medium.omega_T)

    def test_vectorized(self, medium):
        ws = np.array([0.0, 0.5, 1.1, 2.0])
        vals = epsilon(medium, ws)
        assert vals.shape == ws.shape
        assert vals[0] == pytest.approx(1.44)

    @given(st.floats(0.3, 3.0), st.floats(1.0 + 1e-4, 2.5), st.floats(0.1, 10.0),
           st.floats(0.01, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_negative_exactly_on_reststrahlen(self, w_t, ratio, rho, w_frac):
        m = from_phonon_frequencies(w_t, w_t * ratio, rho)
        w = w_frac * m.omega_L
        if min(abs(w - m.omega_T), abs(w - m.omega_L)) < 1e-6 * m.omega_T:
            return
        assert (epsilon(m, w) < 0) == (m.omega_T < w < m.omega_L)

    def test_lyddane_sachs_teller(self, rng):
        for _ in range(1000):
            m = from_phonon_frequencies(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0) + 3.0,
                                        rng.uniform(0.1, 10.0))
            assert epsilon(m, 0.0) * m.omega_T**2 == pytest.approx(m.omega_L**2, rel=1e-12)

    def test_monotonic_on_branches(self, medium, rng):
        for _ in range(200):
            w = rng.uniform(0.01, 3.0)
            if abs(w - medium.omega_T) < 1e-3:
                continue
            assert epsilon_derivative(medium, w) > 0


class TestNu:
    def test_vacuum_value(self):
        assert nu_vacuum() == 2.0
        assert nu_vacuum(1.7) == 2.0

    def test_static_limit(self, medium):
        assert nu(medium, 1e-9) == pytest.approx(2.0, abs=1e-12)

    def test_zero_epsilon_guard(self, medium):
        with pytest.raises(ZeroEpsilon):
            nu(medium, medium.omega_L)

    def test_against_finite_differences(self, medium):
        h = 1e-6
        for w in (0.5, 0.9, 1.05, 1.15, 1.5, 2.5):
            fd = 1.0 + (epsilon(medium, w + h) * (w + h) - epsilon(medium, w - h) * (w - h)) / (
                2 * h * epsilon(medium, w))
            assert nu(medium, w) == pytest.approx(fd, rel=1e-6)

    def test_finite_difference_property(self, rng):
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            m = from_phonon_frequencies(rng.uniform(0.3, 3.0), rng.uniform(3.4, 6.0),
                                        rng.uniform(0.1, 10.0))
            w = rng.uniform(0.05, 3.0) * m.omega_T
            if min(abs(w - m.omega_T), abs(w - m.omega_L)) < 1e-2 * m.omega_T:
                continue
            fd = 1.0 + (epsilon(m, w + h) * (w + h) - epsilon(m, w - h) * (w - h)) / (
                2 * h * epsilon(m, w))
            worst = max(worst, abs(nu(m, w) - fd) / abs(fd))
        assert worst < 1e-6


class TestGeometry:
    def test_interface_layout(self, medium):
        geom = vacuum_interface(medium, 40.0)
        assert geom.lz == 40.0
        assert geom.medium_at(-1.0) is medium
        assert geom.medium_at(5.0) is None
        assert geom.epsilon_at(0.5, 3.0) == 1.0
        assert geom.epsilon_at(0.5, -3.0) == pytest.approx(epsilon(medium, 0.5))

    def test_partition_validation(self, medium):
        with pytest.raises(ValueError):
            LayeredGeometry((Layer(-2.0, 0.0, medium), Layer(0.5, 2.0, None)), 1.0)
        with pytest.raises(ValueError):
            LayeredGeometry((Layer(-2.0, 0.0, medium), Layer(0.0, 3.0, None)), 1.0)

    @pytest.mark.parametrize("z_min", [1e-320, 1e-13, -1e-13])
    def test_gap_below_tolerance_is_closed(self, medium, z_min):
        geom = LayeredGeometry((Layer(-2.0, 0.0, medium), Layer(z_min, 2.0, None)), 1.0)
        assert geom.layers[1].z_min == geom.layers[0].z_max == 0.0
        assert geom.medium_at(abs(z_min) / 2) is None

    def test_homogeneous_box(self, medium):
        geom = homogeneous_box(medium, 8.0, area=2.0)
        assert geom.volume == pytest.approx(16.0)
