"""Test helpers built from the public pieces of the package: what no program path reads
lives here, next to the tests that use it, rather than in the library."""

from polmodes import C, epsilon
from polmodes.dissipative import lossy_epsilon


def krein_inner(sol, m: int, n: int) -> complex:
    """Discrete indefinite inner product <<Psi_m | Psi_n>> of two eigenvectors of a
    `DiscreteEigenSolution`; only the two columns are expanded."""
    psi = sol.columns([m, n])
    return complex(psi[:, 0].conj() @ (sol.krein @ psi[:, 1]))


def epsilon_at(geom, omega: float, z: float) -> float:
    """Lossless dielectric function of a `LayeredGeometry` at height z: 1 in vacuum."""
    med = geom.medium_at(z)
    return 1.0 if med is None else epsilon(med, omega)


def source_current_to_y(m, bath, omega: float, j: complex) -> complex:
    """Inverse of `dissipative.y_to_source_current` (requires nonzero coupling at omega)."""
    eps_t = lossy_epsilon(m, bath, omega)
    ups = bath.upsilon_at(omega)
    if ups == 0 or eps_t == 1.0:
        raise ValueError("conversion undefined where the bath does not couple")
    return j * m.kappa * m.rho * C**2 / (ups * (eps_t - 1.0))
