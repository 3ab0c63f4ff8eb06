"""Test helpers built from the public pieces of the package: what no program path reads
lives here, next to the tests that use it, rather than in the library."""

import scipy.sparse as sp

from polmodes import C, epsilon
from polmodes.dissipative import lossy_epsilon


def krein_inner(sol, m: int, n: int) -> complex:
    """Discrete indefinite inner product <<Psi_m | Psi_n>> of two eigenvectors of a
    `DiscreteEigenSolution`; only the two columns are expanded."""
    psi = sol.columns([m, n])
    return complex(psi[:, 0].conj() @ (sol.operator.krein @ psi[:, 1]))


def reduced_blocks(red):
    """The blocks a, zb and R of a `realspace` reduction, which holds them as (row, col, data)
    triplets, as SciPy COO matrices: a on the kept S coordinates, zb and R with one row per S
    coordinate. Duplicate positions stay separate entries, as the triplets hold them."""
    r, n_s = red.shape
    return tuple(sp.coo_matrix((m.data, (m.row, m.col)), shape=shape)
                 for m, shape in ((red.a, (n_s, n_s)), (red.zb, (r, n_s)), (red.r, (r, n_s))))


def epsilon_at(geom, omega: float, z: float) -> float:
    """Lossless dielectric function of a `LayeredGeometry` at height z: 1 in vacuum."""
    med = geom.medium_at(z)
    return 1.0 if med is None else epsilon(med, omega)


def y_to_source_current(m, bath, omega: float, y: complex) -> complex:
    """Source amplitude j(omega) for a given bath normalization function y(omega)."""
    eps_t = lossy_epsilon(m, bath, omega)
    return bath.upsilon_at(omega) / (m.kappa * m.rho * C**2) * (eps_t - 1.0) * y


def source_current_to_y(m, bath, omega: float, j: complex) -> complex:
    """Inverse of `y_to_source_current` (requires nonzero coupling at omega)."""
    eps_t = lossy_epsilon(m, bath, omega)
    ups = bath.upsilon_at(omega)
    if ups == 0 or eps_t == 1.0:
        raise ValueError("conversion undefined where the bath does not couple")
    return j * m.kappa * m.rho * C**2 / (ups * (eps_t - 1.0))
