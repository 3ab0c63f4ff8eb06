"""The scalar per-wave kernels against the numpy algebra they replaced.

Each analytic mode holds at most three plane waves per region, so `modes`,
`nonlinear` and `media` work on 3-tuples and Python floats. The numpy forms of
the same algebra (np.cross, np.conj, np.dot, np.tensordot, numpy exponentials
and 0-d arrays) are kept here as the reference, the way `quadrature_xi` keeps
the quadrature route of Xi.

Kernels that perform the same IEEE operations in the same order must agree bit
for bit, signed zeros included: curl, conjugation, the Hopfield maps, the
matter weight, evaluation, and epsilon / epsilon_derivative / nu on a float
against a 1-element array. Sums whose order changed (np.dot and np.tensordot
go through BLAS) must agree within 1e-15 of the sum of the magnitudes of
their terms: the region integrals, the box-integral N and Xi.
"""

import itertools
import math

import numpy as np
import pytest

from polmodes import (
    ModeClass,
    ModeIndex,
    conjugate_mode,
    epsilon,
    from_phonon_frequencies,
    homogeneous_box,
    make_mode,
    normalization_integral,
    normalize,
    nu,
    surface_dispersion_kpar,
)
from polmodes.errors import PoleAtResonance, ZeroEpsilon
from polmodes.media import HBAR, POLE_GUARD_REL, epsilon_derivative
from polmodes.modes import _exact_region_integral
from polmodes.nonlinear import NonlinearTensor, matter_weight, scattering_coefficient

REL = 1e-15
Z = np.concatenate([np.linspace(-20.0, 20.0, 97), [0.0]])

# ---------------------------------------------------------------------------
# the numpy per-wave algebra (reference)


def np_terms(prof):
    """Per region, the (amplitude array, w) pairs of a profile."""
    return [[(np.asarray(a), w) for a, w in reg.terms] for reg in prof.regions]


def np_curl(prof):
    k = prof.k_inplane
    return [[(1j * np.cross(np.array([-k[0], -k[1], w], dtype=complex), a), w) for a, w in reg]
            for reg in np_terms(prof)]


def np_conj(prof):
    return [[(np.conj(a), -np.conj(w)) for a, w in reg] for reg in np_terms(prof)]


def np_hopfield(theta):
    """(alpha, beta, gamma, eta) of a theta profile, each as per-region term lists."""
    omega = theta.omega
    beta = [[((1j / omega) * a, w) for a, w in reg] for reg in np_curl(theta.profile)]
    gamma, eta = [], []
    for reg, terms in zip(theta.profile.regions, np_terms(theta.profile)):
        m = reg.medium
        if m is None:
            gamma.append([])
            eta.append([])
            continue
        g = 1j * m.kappa * omega / (m.rho * (m.omega_T**2 - omega**2))
        e = m.kappa * omega**2 / (m.omega_T**2 - omega**2)
        gamma.append([(g * a, w) for a, w in terms])
        eta.append([(e * a, w) for a, w in terms])
    return np_terms(theta.profile), beta, gamma, eta


def np_matter_weight(mode):
    omega = mode.omega
    out = []
    for reg, terms in zip(mode.theta.profile.regions, np_conj(mode.theta.profile)):
        m = reg.medium
        if m is None:
            out.append([])
            continue
        f = np.sign(omega) * m.kappa * HBAR * omega / (m.rho * (m.omega_T**2 - omega**2))
        out.append([(f * a, w) for a, w in terms])
    return out


def np_evaluate(prof, z, r_par=(0.0, 0.0)):
    out = np.zeros((z.size, 3), dtype=complex)
    phase = np.exp(-1j * (prof.k_inplane[0] * r_par[0] + prof.k_inplane[1] * r_par[1]))
    idx = prof.region_indices(z)
    for i, terms in enumerate(np_terms(prof)):
        mask = idx == i
        part = np.zeros((mask.sum(), 3), dtype=complex)
        for a, w in terms:
            part += a[None, :] * np.exp(1j * w * z[mask])[:, None]
        out[mask] = part * phase
    return out


def np_exp_integral(d, lo, hi):
    if abs(d) * (hi - lo) < 1e-12:
        return hi - lo
    return (np.exp(d * hi) - np.exp(d * lo)) / d


def np_region_integral(reg):
    """(Int |theta|^2 dz over the region, the sum of the magnitudes of its terms)."""
    total, scale = 0j, 0.0
    for ti in reg.terms:
        for tj in reg.terms:
            term = np.dot(np.asarray(ti.amplitude), np.conj(np.asarray(tj.amplitude))) * np_exp_integral(
                1j * (ti.w - np.conj(tj.w)), reg.z_min, reg.z_max)
            total += term
            scale += abs(term)
    return total, scale


def np_xi(modes, phi, geom):
    """(Xi by np.tensordot over every choice of terms, the sum of the magnitudes of its terms)."""
    weights = [np_matter_weight(md) for md in modes]
    regions = modes[0].theta.profile.regions
    total, scale = 0j, 0.0
    for ireg, reg in enumerate(regions):
        for combo in itertools.product(*(w[ireg] for w in weights)):
            contraction = phi.components
            for a, _ in combo:
                contraction = np.tensordot(contraction, a, axes=([0], [0]))
            term = complex(contraction) * np_exp_integral(1j * sum(w for _, w in combo), reg.z_min, reg.z_max)
            total += term
            scale += abs(term)
    return geom.area * total, geom.area * scale


# ---------------------------------------------------------------------------
# comparisons


def bits(x):
    return np.asarray(x, dtype=complex).tobytes()


def assert_same_terms(new_prof, ref_regions):
    assert len(new_prof.regions) == len(ref_regions)
    for reg, ref in zip(new_prof.regions, ref_regions):
        assert len(reg.terms) == len(ref)
        for (a, w), (a_ref, w_ref) in zip(reg.terms, ref):
            assert bits(a) == bits(a_ref)
            assert bits(w) == bits(w_ref)


def surface(medium, sign=1.0):
    k = surface_dispersion_kpar(medium, 1.05)
    return ModeIndex(ModeClass.S, (sign * k, 0.0))


CLASS_INDICES = [
    ModeIndex(ModeClass.TEv, (0.3, 0.4), 0.9),
    ModeIndex(ModeClass.TMv, (0.6, -0.2), 1.2),
    ModeIndex(ModeClass.TMv, (0.0, 0.0), 0.7),
    ModeIndex(ModeClass.TEv, (0.0, 0.0), 1.1),   # reststrahlen: evanescent transmission
    ModeIndex(ModeClass.TMv, (1.5, 0.0), 0.3),   # above omega_L, evanescent q
    ModeIndex(ModeClass.TEl, (0.5, 0.2), -0.8),
    ModeIndex(ModeClass.TEu, (0.2, 0.3), -0.7),
    ModeIndex(ModeClass.TMl, (0.4, 0.1), -0.6),
    ModeIndex(ModeClass.TMu, (-0.9, 0.4), -1.1),
    ModeIndex(ModeClass.TMl, (2.0, 0.5), -0.6),  # total internal reflection
]


@pytest.fixture
def modes(medium, interface):
    """Normalized modes of all seven classes on the interface, and their conjugates."""
    out = []
    for idx in [surface(medium), surface(medium, -1.0)] + CLASS_INDICES:
        mode = normalize(make_mode(interface, idx), interface)
        out += [mode, conjugate_mode(mode)]
    return out


def test_curl_conj_and_hopfield_maps_bit_for_bit(modes, interface):
    for mode in modes:
        theta = mode.theta
        assert_same_terms(theta.profile.curl(), np_curl(theta.profile))
        assert_same_terms(theta.profile.conj(), np_conj(theta.profile))
        for prof in (mode.hopfield.beta, mode.hopfield.gamma):
            assert_same_terms(prof.curl(), np_curl(prof))
    for mode in modes[::2]:  # the maps run on the N=1 theta of the positive-energy mode
        unit = make_mode(interface, mode.index)
        h = unit.hopfield
        for prof, ref in zip((h.alpha, h.beta, h.gamma, h.eta), np_hopfield(unit.theta)):
            assert_same_terms(prof, ref)


def test_matter_weight_bit_for_bit(modes):
    for mode in modes:
        assert_same_terms(matter_weight(mode), np_matter_weight(mode))


def test_evaluate_bit_for_bit(modes):
    for mode in modes:
        h = mode.hopfield
        for prof in (mode.theta.profile, h.beta, h.gamma, h.eta, matter_weight(mode)):
            for r_par in ((0.0, 0.0), (0.3, -1.2)):
                assert bits(prof.evaluate(Z, r_par)) == bits(np_evaluate(prof, Z, r_par))


def test_region_integrals_and_box_norm(modes, interface, medium):
    boxes = [(interface, modes)]
    for geom in (homogeneous_box(medium, 12.0), homogeneous_box(None, 10.0)):
        idxs = [ModeIndex(ModeClass.TEl, (0.3, 0.0), -0.6), ModeIndex(ModeClass.TMu, (0.2, 0.1), -0.9)] \
            if geom.layers[0].medium else [ModeIndex(ModeClass.TEv, (0.3, 0.0), 0.4),
                                           ModeIndex(ModeClass.TMv, (0.2, -0.5), 0.6)]
        ms = [normalize(make_mode(geom, idx), geom) for idx in idxs]
        boxes.append((geom, ms + [conjugate_mode(m) for m in ms]))
    for geom, ms in boxes:
        for mode in ms:
            omega = abs(mode.omega)
            n_ref = n_scale = 0.0
            for reg in mode.theta.profile.regions:
                ref, scale = np_region_integral(reg)
                assert abs(_exact_region_integral(reg) - ref) <= REL * scale
                weight = 2.0 if reg.medium is None else epsilon(reg.medium, omega) * nu(reg.medium, omega)
                n_ref += weight * ref.real
                n_scale += abs(weight) * scale
            got = normalization_integral(mode, geom)
            assert abs(got - geom.area * n_ref) <= REL * geom.area * n_scale


@pytest.fixture
def triples(medium, interface):
    def mk(cls, k_par, k_z=None):
        return normalize(make_mode(interface, ModeIndex(cls, k_par, k_z)), interface)

    s_plus, s_minus = mk(ModeClass.S, surface(medium).k_par), mk(ModeClass.S, surface(medium, -1.0).k_par)
    tmv = mk(ModeClass.TMv, (0.0, 0.0), 0.7)
    p1, p2, p3 = (0.3, -0.4), (0.5, 0.2), (0.1, 0.7)
    tel, tmu = mk(ModeClass.TEl, p1, -0.8), mk(ModeClass.TMu, p2, -0.9)
    tev = mk(ModeClass.TEv, (-p1[0] - p2[0], -p1[1] - p2[1]), 1.1)
    tev_off = mk(ModeClass.TEv, p3, 1.1)
    conserving = [(s_plus, s_minus, tmv), (tel, tmu, tev)]
    non_conserving = [(s_plus, s_plus, tmv), (tel, tmu, tev_off)]
    return conserving, non_conserving


@pytest.mark.parametrize("phi_kind", ["diagonal", "random"])
def test_xi_against_tensordot(triples, interface, phi_kind, monkeypatch):
    rng = np.random.default_rng(12)
    arr = np.zeros((3, 3, 3))
    if phi_kind == "diagonal":
        for j in range(3):
            arr[j, j, j] = 1.0
    else:
        arr = rng.standard_normal((3, 3, 3))
    phi = NonlinearTensor.from_array(arr)
    conserving, non_conserving = triples
    for triple in conserving:
        for perm in list(itertools.permutations(triple)) + [tuple(conjugate_mode(m) for m in triple)]:
            got = scattering_coefficient(list(perm), phi, interface)
            ref, scale = np_xi(list(perm), phi, interface)
            assert got.momentum_ok
            assert abs(got.value - ref) <= REL * scale
    for triple in non_conserving:
        res = scattering_coefficient(list(triple), phi, interface)
        assert not res.momentum_ok and res.value == 0
    # the contraction itself, with the momentum selection switched off
    monkeypatch.setattr("polmodes.nonlinear.MOMENTUM_TOL", math.inf)
    for triple in non_conserving:
        got = scattering_coefficient(list(triple), phi, interface)
        ref, scale = np_xi(list(triple), phi, interface)
        assert abs(got.value - ref) <= REL * scale


# ---------------------------------------------------------------------------
# epsilon, epsilon_derivative, nu: one body for floats and arrays

MEDIA = [from_phonon_frequencies(1.0, 1.2), from_phonon_frequencies(0.8, 1.35, rho=0.6)]


@pytest.mark.parametrize("medium", MEDIA)
@pytest.mark.parametrize("func", [epsilon, epsilon_derivative, nu])
def test_float_and_array_give_the_same_bits(medium, func):
    rng = np.random.default_rng(5)
    ws = np.concatenate([rng.uniform(-3.0, 3.0, 400), [0.0, -0.0, 0.5, 2.0, 1e-300, 1e50]])
    for w in ws:
        if abs(abs(w) - medium.omega_T) < 1e-6 or abs(abs(w) - medium.omega_L) < 1e-6:
            continue
        got = func(medium, float(w))
        assert type(got) is float
        assert bits(got) == bits(func(medium, np.array([w]))[0])
    assert bits(func(medium, ws[:-3] * 0 + 0.3)) == bits([func(medium, 0.3)] * (ws.size - 3))


@pytest.mark.parametrize("func", [epsilon, epsilon_derivative, nu])
def test_float_and_array_raise_the_same_guard_errors(medium, func):
    g = POLE_GUARD_REL * medium.omega_T
    cases = [(medium.omega_T + 0.5 * g, PoleAtResonance), (-medium.omega_T - 0.5 * g, PoleAtResonance)]
    if func is nu:
        cases += [(medium.omega_L - 0.5 * g, ZeroEpsilon), (-medium.omega_L + 0.5 * g, ZeroEpsilon)]
    for w, exc in cases:
        with pytest.raises(exc) as scalar:
            func(medium, w)
        with pytest.raises(exc) as array:
            func(medium, np.array([0.3, w]))
        assert str(scalar.value) == str(array.value)
    # just outside the guard both forms return
    w = medium.omega_T + 2.0 * g
    assert bits(func(medium, w)) == bits(func(medium, np.array([w]))[0])
