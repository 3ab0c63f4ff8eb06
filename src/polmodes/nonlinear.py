"""Polaritonic scattering coefficients from anharmonic matter interactions.

An order-N anharmonicity couples N factors of the matter displacement field.
Expanding the displacement over polariton operators turns it into scattering
terms between N modes with coefficients

    Xi = Int dr  sum_{j1..jN} Phi^{j1..jN}  prod_l  [w_l(r)]_{j_l},

where w_l is the weight with which mode l's operator enters the matter field,

    w_l = sgn(omega_l) * kappa hbar omega_l / (rho (omega_T^2 - omega_l^2)) * conj(theta_l),

supported on matter regions only. The sgn factor makes the weight of a
negative-energy partner the complex conjugate of its positive partner's, so
replacing every mode by its partner conjugates Xi (Hermiticity of the matter
field expansion).

The in-plane integral of the product of plane-wave factors is exact momentum
selection: Xi vanishes unless the mode momenta sum to zero, in which case it
contributes the quantization area. The z-integral is a finite sum of
exponentials (every implemented mode profile is), evaluated by closed
primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .media import HBAR, LayeredGeometry, exp_integral
from .modes import PolaritonMode, ProfileRegion, VectorProfile

MOMENTUM_TOL = 1e-9


@dataclass(frozen=True)
class NonlinearTensor:
    """Dense rank-N coupling tensor over 3 spatial indices, symmetrized."""

    order: int
    components: np.ndarray
    symmetrization_defect: float = 0.0

    @staticmethod
    def from_array(arr) -> "NonlinearTensor":
        a = np.asarray(arr, dtype=float)
        order = a.ndim
        if order < 3:
            raise ValueError("nonlinear tensor order must be >= 3")
        if a.shape != (3,) * order:
            raise ValueError(f"expected shape {(3,) * order}, got {a.shape}")
        # the average over all index permutations is the mean over each multiset of
        # indices, which the sorted index tuple labels
        multiset = np.ravel_multi_index(np.sort(np.indices(a.shape).reshape(order, -1), axis=0),
                                        a.shape)
        sums, counts = np.bincount(multiset, weights=a.ravel()), np.bincount(multiset)
        sym = (sums[multiset] / counts[multiset]).reshape(a.shape)
        defect = float(np.max(np.abs(sym - a)))
        return NonlinearTensor(order, sym, defect)


@dataclass(frozen=True)
class ScatteringAmplitude:
    """Value of one scattering coefficient with its momentum-selection flag."""

    value: complex
    momentum_ok: bool
    total_k_par: Tuple[float, float]


def matter_weight(mode: PolaritonMode) -> VectorProfile:
    """Weight profile of this mode's operator in the matter displacement field.

    sgn(omega) * kappa hbar omega / (rho (omega_T^2 - omega^2)) * conj(theta),
    zero outside matter regions. The mode's coefficient map (`hopfield_from_theta`)
    already rejected an |omega| at the transverse resonance.
    """
    omega = mode.omega

    def factor(reg: ProfileRegion) -> complex:
        if reg.medium is None:
            return 0.0
        m = reg.medium
        return math.copysign(1.0, omega) * m.kappa * HBAR * omega / (m.rho * (m.omega_T**2 - omega**2))

    return mode.theta.profile._conj_mapped(factor)


def _contract(flat: List[complex], a) -> List[complex]:
    """Contract the first index of a tensor, flattened in C order, with the 3-vector a."""
    n = len(flat) // 3
    a0, a1, a2 = a
    return [a0 * x + a1 * y + a2 * z for x, y, z in zip(flat[:n], flat[n:2 * n], flat[2 * n:])]


def _contractions(flat: List[complex], term_lists, w_sum: complex = 0) -> Iterator[Tuple[complex, complex]]:
    """(Phi . a_1 ... a_N, w_1 + ... + w_N) for each choice of one term per mode,
    in itertools.product order; each partial contraction is shared by the
    choices that extend it."""
    if not term_lists:
        yield flat[0], w_sum
        return
    for a, w in term_lists[0]:
        yield from _contractions(_contract(flat, a), term_lists[1:], w_sum + w)


def scattering_coefficient(
    modes: Sequence[PolaritonMode],
    phi: NonlinearTensor,
    geom: LayeredGeometry,
) -> ScatteringAmplitude:
    """Scattering coefficient Xi for an N-tuple of normalized modes.

    In-plane momentum selection is exact: a nonzero total in-plane wavevector
    (beyond MOMENTUM_TOL relative to the largest mode momentum) returns a
    flagged exact zero. Otherwise Xi = A * sum_j Phi contraction of the
    z-integrated weight products, each z-integral an exponential primitive.
    """
    if len(modes) != phi.order:
        raise ValueError(f"need {phi.order} modes for an order-{phi.order} tensor")
    momenta = [md.theta.profile.k_inplane for md in modes]
    kx, ky = momenta[0]
    for px, py in momenta[1:]:
        kx, ky = kx + px, ky + py
    k_scale = max(1.0, max(math.hypot(*p) for p in momenta))
    if math.hypot(kx, ky) > MOMENTUM_TOL * k_scale:
        return ScatteringAmplitude(0.0 + 0.0j, False, (kx, ky))

    weights = [matter_weight(md) for md in modes]
    n_regions = {len(w.regions) for w in weights}
    if len(n_regions) != 1:
        raise ValueError("modes must share the same layer structure")
    flat = phi.components.ravel().tolist()
    total = 0.0 + 0.0j
    for ireg in range(n_regions.pop()):
        regs = [w.regions[ireg] for w in weights]
        if regs[0].medium is None or any(not r.terms for r in regs):
            continue
        z_min, z_max = regs[0].z_min, regs[0].z_max
        for value, w_sum in _contractions(flat, [r.terms for r in regs]):
            total += value * exp_integral(1j * w_sum, z_min, z_max)
    return ScatteringAmplitude(complex(geom.area * total), True, (kx, ky))
