"""Direct discretization of the first-order light-matter eigensystem on a 1D grid.

At fixed in-plane wavevector k_par (folded in analytically, d/dx -> -i k_par)
and fixed polarization, the coupled equations

    omega alpha = -i c^2 curl beta + i [kappa gamma]^T / eps0
    omega beta  =  i curl alpha
    omega gamma =  i eta / rho
    omega eta   =  i kappa c^2 curl beta - i rho omega_L^2 gamma

become a matrix eigenproblem B0 Psi = omega Psi for the stacked coefficients
Psi = (alpha, beta, gamma, eta). Fields live on a two-point staggered grid so
that discrete curls are exact mutual adjoints:

    TE sector:  alpha_perp at interior nodes, beta_par at half points,
                beta_z at interior nodes, matter fields at matter nodes.
    TM sector:  alpha_par at interior nodes, alpha_z at half points,
                beta_perp at half points, matter par fields at matter nodes,
                matter z fields at matter half points.

Boundary conditions are PEC-type: tangential alpha vanishes at the box walls
(those degrees of freedom are eliminated), which satisfies the self-adjointness
surface condition identically. Material coefficients are cellwise constant;
integer-node values are arithmetic means of the two adjacent cells, so a
vacuum/matter boundary node carries half the coupling response, matching a
lumped first-order-element treatment and preserving O(h^2) eigenvalue
convergence.

The transverse projection [.]^T in the alpha equation is a discrete Helmholtz
decomposition: P = I - GRAD LAP^{-1} DIV with a Dirichlet Poisson problem,
where GRAD = -DIV^H so P is an orthogonal projector and curl GRAD = 0 holds
exactly (entrywise float cancellation, checked by _Operators). The pair (B0, K),
with K the indefinite inner product, then satisfies K B0 = B0^H K to machine zeros.

Physical subspace: alpha is restricted to ker(DIV) minus ker(curl) (the
latter removes the non-dynamical k_par = 0 capacitor direction), beta to
range(curl). Both come from the exact discrete sequence (div curl = 0,
ker div = range curl), not from a rank threshold. B0 and K couple only
P = (alpha, eta) to Q = (beta, gamma), so the energy form A = K B0 is block
diagonal, diag(T, V), with sparse blocks that the transverse projection does
not change (curl grad = 0). T = w diag(curl curl, 1/rho), with w = hbar h A,
is positive definite in TE and V in TM (except the constant beta vector at
k_par = 0): this is the omega_T > 0 stability condition. omega^2 is the
spectrum of B0[P, Q] B0[Q, P], so one real half-size problem (Colpa's bosonic
reduction) gives real eigenvalues in exact +/- pairs, with Krein
orthonormality and the signed completeness relation to roundoff. Both solves
read one matrix, N = Z B0[O, S] L^{-T} = R L (see _reduce: Z a sparse root of one
energy block, L L^T the banded Cholesky factor of the other, R sparse), a band matrix
in grid order written from the stencils (_n_band). The full spectrum is one dense SVD
of N, scattered from its band, and one banded triangular solve back through L
(solve_spectrum); windows (surface-mode sweeps) take shift-invert Lanczos on its
standard form, Hs = [[0, N], [N^T, 0]], each solve through the Schur complement
N^T N - sigma^2 I, a band matrix too, and the returned vector refined once against Hs
itself (solve_windowed). Both solves keep the real reduced S-parts and expand full-space
eigenvectors on demand, column by column: `polmodes solve` expands only the profiles it
writes, a surface-mode frequency none.

Both solves write the reduced blocks from the stencil coefficients (_reduce) as plain
(row, col, data) arrays: a windowed solve builds no full-space matrix, no curl and no
sparse matrix. The curls (checked when built), B0 with the unprojected coupling, and K
are built on first use, each from its triplets in one sparse construction, for the
eigenvector expansion, `apply`, the Krein products and the checks. The projected coupling
enters only through one correction on alpha (_coupling_correction), which `apply` and the
field reconstruction share, from one LU of LAP = DIV GRAD; K B0 does not see it. The
dense B0 is built only on request, for residual checks.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, lapack
import scipy.sparse.linalg as spla

from .errors import IncompleteSpectrum, InvalidGrid, ResolutionTooCoarse, SolverContractViolation
from .media import C, EPS0, HBAR, LayeredGeometry, epsilon, locate

# the Lanczos of solve_windowed (_lanczos_nearest); the docstring of solve_windowed says why these values
_BASIS = 24  # basis size
_KEEP = 12  # Ritz vectors kept at a thick restart
_RITZ_TOL = 1e-10  # Ritz tolerance
_SOLVES_PER_UNKNOWN = 10  # bound on the shift-invert solves, per unknown, as ARPACK's maxiter


@dataclass(frozen=True)
class Grid1D:
    """Uniform staggered grid with n cells over [-lz/2, lz/2]."""

    n: int
    lz: float

    def __post_init__(self):
        if self.n < 16:
            raise InvalidGrid("grid needs at least 16 cells")

    @property
    def h(self) -> float:
        return self.lz / self.n

    @property
    def nodes(self) -> np.ndarray:
        return -self.lz / 2 + self.h * np.arange(self.n + 1)

    @property
    def halves(self) -> np.ndarray:
        return -self.lz / 2 + self.h * (np.arange(self.n) + 0.5)


@dataclass
class _Materials:
    """Cellwise media sampled onto staggered locations."""

    kappa_node: np.ndarray  # interior nodes
    rho_node: np.ndarray
    omega_T_node: np.ndarray
    kappa_half: np.ndarray  # half points
    rho_half: np.ndarray
    omega_T_half: np.ndarray

    def at(self, half: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kappa, rho, omega_T) on the half points, or on the interior nodes."""
        if half:
            return self.kappa_half, self.rho_half, self.omega_T_half
        return self.kappa_node, self.rho_node, self.omega_T_node

    @staticmethod
    def omega_L2(kappa, rho, omega_T):
        out = omega_T**2
        mask = rho > 0
        out = np.where(mask, out + np.divide(kappa**2, EPS0 * rho, where=mask, out=np.zeros_like(rho)), out)
        return out


def _sample_materials(geom: LayeredGeometry, grid: Grid1D) -> _Materials:
    if abs(geom.lz - grid.lz) > 1e-9 * geom.lz:
        raise InvalidGrid("grid length must match the geometry box")
    for lay in geom.layers:
        for zb in (lay.z_min, lay.z_max):
            j = (zb + grid.lz / 2) / grid.h
            if abs(j - round(j)) > 1e-9:
                raise InvalidGrid("material discontinuities must be grid-aligned")
    cells = locate(grid.halves, [lay.z_min for lay in geom.layers], [lay.z_max for lay in geom.layers])
    params = np.array([(0.0, 0.0, 0.0) if lay.medium is None else
                       (lay.medium.kappa, lay.medium.rho, lay.medium.omega_T) for lay in geom.layers])
    kap, rho, w_t = np.take(params.T, cells, axis=1)
    # omega_T at a node: mean over its adjacent matter cells (vacuum cells carry zeros)
    count = (rho[:-1] > 0).astype(float) + (rho[1:] > 0)
    w_t_n = (w_t[:-1] + w_t[1:]) / np.maximum(count, 1.0)
    return _Materials(0.5 * (kap[:-1] + kap[1:]), 0.5 * (rho[:-1] + rho[1:]), w_t_n, kap, rho, w_t)


@dataclass
class FieldLayout:
    """Block names and slices of the stacked state vector. Each block lives on the
    interior nodes or, if named in `halves`, on the half points; matter blocks only
    at the matter points of `matter_index`."""

    blocks: List[str]
    slices: Dict[str, slice]
    matter_index: Dict[str, np.ndarray]
    halves: FrozenSet[str]
    dim: int

    def block(self, name: str, vec: np.ndarray) -> np.ndarray:
        return vec[..., self.slices[name]]

    def _span(self, name: str) -> slice:
        """Contiguous slice over every block of one field, e.g. alpha_par and alpha_z."""
        names = [nm for nm in self.blocks if nm.split("_")[0] == name]
        return slice(self.slices[names[0]].start, self.slices[names[-1]].stop)


def _build_layout(mats: _Materials, polarization: str) -> FieldLayout:
    if polarization == "TE":
        blocks = ["alpha", "beta_par", "beta_z", "gamma", "eta"]
        halves = frozenset({"beta_par"})
    elif polarization == "TM":
        blocks = ["alpha_par", "alpha_z", "beta", "gamma_par", "gamma_z", "eta_par", "eta_z"]
        halves = frozenset({"alpha_z", "beta", "gamma_z", "eta_z"})
    else:
        raise ValueError("polarization must be 'TE' or 'TM'")
    slices, matter = {}, {}
    off = 0
    for name in blocks:
        rho = mats.at(name in halves)[1]
        if name.startswith(("gamma", "eta")):
            matter[name] = np.nonzero(rho > 0)[0]
        size = matter[name].size if name in matter else rho.size
        slices[name] = slice(off, off + size)
        off += size
    return FieldLayout(blocks, slices, matter, halves, off)


@dataclass
class _Operators:
    """Polarization-specific building blocks (sparse), with curl GRAD = 0 (TM) checked entrywise."""

    curl_ba: sp.csr_matrix  # beta-space -> alpha-space  (C)
    curl_ab: sp.csr_matrix  # alpha-space -> beta-space  (G = C^H)
    div: Optional[sp.csr_matrix]  # alpha-space -> potential space, or None (TE)
    grad: Optional[sp.csc_matrix]  # -DIV^H: potential space -> alpha-space, or None (TE)

    def __post_init__(self):
        # unscaled: K[beta, alpha] GRAD, from K's w-scaled entries, keeps roundoff residues
        if self.grad is not None and np.any((self.curl_ab @ self.grad).data):
            raise SolverContractViolation("curl GRAD is not zero: the discrete sequence is not exact")


def _csr(shape, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> sp.csr_matrix:
    """CSR matrix from its triplets, listed row by row with ascending columns, in one
    construction and without a sort, and without the zero entries: the i k_par entries at
    k_par = 0, which SciPy's diagonal constructors leave out too."""
    keep = data != 0
    indptr = np.searchsorted(rows[keep], np.arange(shape[0] + 1))
    return sp.csr_matrix((data[keep], cols[keep], indptr), shape=shape)


def _build_operators(grid: Grid1D, k_par: float, polarization: str) -> _Operators:
    """C and DIV from their triplets, G = C^H and GRAD = -DIV^H by transposition. d/dz takes
    the half points i and i + 1 to the interior node i as (v[i + 1] - v[i]) / h."""
    n, h = grid.n, grid.h
    i, j = np.arange(n - 1), np.arange(n)  # interior nodes, half points
    div = grad = None
    if polarization == "TE":
        # beta = (beta_par at half points, beta_z at nodes) -> alpha: [d/dz, i k_par]
        c = _csr((n - 1, 2 * n - 1), np.repeat(i, 3), np.column_stack((i, i + 1, n + i)).ravel(),
                 np.tile([-1.0 / h, 1.0 / h, 1j * k_par], n - 1))
    else:
        # beta at half points -> alpha = (alpha_par at nodes, alpha_z at half points): [-d/dz; -i k_par]
        c = _csr((2 * n - 1, n), np.concatenate((np.repeat(i, 2), n - 1 + j)),
                 np.concatenate((np.column_stack((i, i + 1)).ravel(), j)),
                 np.concatenate((np.tile([1.0 / h, -1.0 / h], n - 1), np.full(n, -1j * k_par))))
        # [-i k_par, d/dz]: alpha_par and alpha_z to interior nodes
        div = _csr((n - 1, 2 * n - 1), np.repeat(i, 3), np.column_stack((i, n - 1 + i, n + i)).ravel(),
                   np.tile([-1j * k_par, -1.0 / h, 1.0 / h], n - 1))
        grad = sp.csc_matrix((-div.data.conj(), div.indices, div.indptr), shape=div.shape[::-1])
    return _Operators(c, c.conj().T.tocsr(), div, grad)


def _coupling_correction(op: DiscreteOperator, gamma: np.ndarray, factor: complex) -> Optional[np.ndarray]:
    """factor GRAD LAP^{-1} DIV (kappa gamma) on alpha-space: what the transverse projection
    removes from the matter coupling of gamma (vector or columns). None where the coupling
    is transverse already: in TE, or without matter."""
    if op.ops.div is None or op.kappa_embed.shape[1] == 0:
        return None
    return factor * op._longitudinal(op.kappa_embed @ gamma)


def _matter_coefficients(layout: FieldLayout, mats: _Materials):
    """(alpha-space row, kappa, rho, omega_T) of every matter degree of freedom, stacked:
    each gamma block couples to the alpha block of the same component."""
    rows, coeffs = [], []
    for g_name, idx in layout.matter_index.items():
        if g_name.startswith("gamma"):
            rows.append(layout.slices[g_name.replace("gamma", "alpha")].start + idx)
            coeffs.append([arr[idx] for arr in mats.at(g_name in layout.halves)])
    kap, rho, w_t = (np.concatenate(c) for c in zip(*coeffs))
    return np.concatenate(rows), kap, rho, w_t


def _resolution_check(geom: LayeredGeometry, grid: Grid1D, k_par: float, strict: bool):
    k_scale = abs(k_par)
    for lay in geom.layers:
        if lay.medium is not None:
            m = lay.medium
            k_scale = max(k_scale, m.omega_L * math.sqrt(epsilon(m, 0.0)) / C)
    if k_scale == 0:
        return
    lam_min = 2 * math.pi / k_scale
    if grid.h > lam_min / 20:
        msg = (f"h = {grid.h:.4g} exceeds lambda_min/20 = {lam_min / 20:.4g}; "
               "eigenvalues may be under-resolved")
        if strict:
            raise ResolutionTooCoarse(msg)
        warnings.warn(msg)


def _triplets(m: sp.csr_matrix):
    """(rows, cols, data) of a CSR matrix, read off its arrays."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data


def _sparse_b0(ops: _Operators, rows: np.ndarray, kap, rho, w_t) -> sp.csr_matrix:
    """B0, with the unprojected matter coupling, over the blocks (alpha, beta, gamma, eta),
    from its triplets in one construction. Matter degree of freedom m couples to the
    alpha-space row rows[m].

    alpha-beta -i c^2 C, alpha-gamma (i / eps0) kappa, beta-alpha i G, gamma-eta i / rho,
    eta-beta i c^2 kappa C[rows] and eta-gamma -i rho omega_L^2.
    """
    n_a, n_b = ops.curl_ba.shape
    g0, e0 = n_a + n_b, n_a + n_b + rows.size
    m = np.arange(rows.size)
    c_r, c_c, c_d = _triplets(ops.curl_ba)
    g_r, g_c, g_d = _triplets(ops.curl_ab)
    # eta-beta: the entries of C in the rows that matter couples to; a zero product (kappa = 0)
    # is left out, as the sparse product E^H C leaves it out
    matter_of = np.full(n_a, -1)
    matter_of[rows] = m
    coupled = np.flatnonzero(matter_of[c_r] >= 0)
    e_m = matter_of[c_r[coupled]]
    eb = kap[e_m] * c_d[coupled]
    nz = eb != 0
    rho_wl2 = rho * _Materials.omega_L2(kap, rho, w_t)
    return sp.csr_matrix((np.concatenate((c_d * (-1j * C**2), kap * (1j / EPS0), g_d * 1j, (1.0 / rho) * 1j,
                                          eb[nz] * (1j * C**2), rho_wl2 * -1j)),
                          (np.concatenate((c_r, rows, n_a + g_r, g0 + m, e0 + e_m[nz], e0 + m)),
                           np.concatenate((n_a + c_c, g0 + m, g_c, e0 + m, n_a + c_c[coupled[nz]], g0 + m)))),
                         shape=(e0 + m.size, e0 + m.size))


def _sparse_krein(ops: _Operators, n_matter: int, w: float) -> sp.csr_matrix:
    """K over the blocks (alpha, beta, gamma, eta), from its triplets in one construction:
    w times -i C, i G, i and -i at alpha-beta, beta-alpha, gamma-eta and eta-gamma (1/mu0 = 1)."""
    n_a, n_b = ops.curl_ba.shape
    g0, e0 = n_a + n_b, n_a + n_b + n_matter
    m = np.arange(n_matter)
    c_r, c_c, c_d = _triplets(ops.curl_ba)
    g_r, g_c, g_d = _triplets(ops.curl_ab)
    ones = np.ones(n_matter)
    return sp.csr_matrix((np.concatenate((c_d * (-1j * w), g_d * (1j * w), ones * (1j * w), ones * (-1j * w))),
                          (np.concatenate((c_r, n_a + g_r, g0 + m, e0 + m)),
                           np.concatenate((n_a + c_c, g_c, e0 + m, g0 + m)))), shape=(e0 + n_matter, e0 + n_matter))


@dataclass
class DiscreteOperator:
    """Assembled eigensystem: grid, media and layout, from which the sparse curls (`ops`,
    checked when built) and every full-space matrix are built on first use: the sparse B0
    with the unprojected matter coupling (`b0_sparse`), the sparse Krein matrix K (`krein`)
    and the kappa embedding (`kappa_embed`). The reduction (_reduce) and so a windowed solve
    build none of them; `apply`, the eigenvector expansion (the full solve builds B0 for it),
    the Krein products and the checks do. Nothing here is dense; `b0` densifies on request."""

    geom: LayeredGeometry
    grid: Grid1D
    k_par: float
    polarization: str
    layout: FieldLayout
    mats: _Materials = field(repr=False)

    @functools.cached_property
    def ops(self) -> _Operators:
        """The sparse curls (and DIV, GRAD in TM), built on first use; curl GRAD = 0 is
        checked here, before any product reads them."""
        return _build_operators(self.grid, self.k_par, self.polarization)

    @functools.cached_property
    def b0_sparse(self) -> sp.csr_matrix:
        """Sparse B0 with the unprojected matter coupling, built on first use."""
        b0 = _sparse_b0(self.ops, *_matter_coefficients(self.layout, self.mats))
        if b0.shape != (self.layout.dim, self.layout.dim):
            raise SolverContractViolation("sparse assembly dimension mismatch")
        return b0

    @functools.cached_property
    def krein(self) -> sp.csr_matrix:
        """Sparse Krein matrix K, built on first use."""
        g_sl = self.layout._span("gamma")
        return _sparse_krein(self.ops, g_sl.stop - g_sl.start, HBAR * self.grid.h * self.geom.area)

    @functools.cached_property
    def kappa_embed(self) -> sp.csr_matrix:
        """alpha-space x matter-space matrix with kappa at matching positions, built on first use."""
        rows, kap, _, _ = _matter_coefficients(self.layout, self.mats)
        return sp.csr_matrix((kap, (rows, np.arange(rows.size))), shape=(self.ops.curl_ba.shape[0], rows.size))

    @functools.cached_property
    def poisson(self) -> Optional[spla.SuperLU]:
        """LU factors of LAP = DIV GRAD, built on first use; None in TE, which has no DIV."""
        return None if self.ops.div is None else spla.splu((self.ops.div @ self.ops.grad).tocsc())

    @functools.cached_property
    def curl_curl(self) -> Optional[spla.SuperLU]:
        """LU factors of C G = curl curl on alpha-space, built on first use, for the TE
        projector onto range(curl); None in TM, whose C G is singular on the gradients."""
        if self.ops.div is not None:
            return None
        return spla.splu((self.ops.curl_ba @ self.ops.curl_ab).tocsc())

    def _longitudinal(self, v: np.ndarray) -> np.ndarray:
        """GRAD LAP^{-1} DIV v: the part of alpha-space vectors that the transverse projection removes."""
        return self.ops.grad @ self.poisson.solve(self.ops.div @ v)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """B0 v (vector or columns) with the transverse-projected coupling, from the sparse
        B0: equal to `b0 @ v` without densifying B0."""
        out = self.b0_sparse @ v
        corr = _coupling_correction(self, v[self.layout._span("gamma")], 1j / EPS0)
        if corr is not None:
            out[self.layout._span("alpha")] -= corr
        return out

    @functools.cached_property
    def b0(self) -> np.ndarray:
        """Dense B0 with the transverse-projected coupling, 16 dim^2 bytes, for residual
        checks outside the library: no library path reads it."""
        b0 = self.b0_sparse.toarray()
        g_sl = self.layout._span("gamma")
        b0[:, g_sl] = self.apply(np.eye(self.layout.dim, g_sl.stop - g_sl.start, k=-g_sl.start))
        return b0


def assemble_operator(
    geom: LayeredGeometry,
    grid: Grid1D,
    k_par: float,
    polarization: str,
    strict_resolution: bool = True,
) -> DiscreteOperator:
    """The operator on its grid; its curls (checked then: curl GRAD = 0 in TM), sparse B0
    and Krein matrix are built on first use, in O(dim) memory."""
    _resolution_check(geom, grid, k_par, strict_resolution)
    mats = _sample_materials(geom, grid)
    return DiscreteOperator(geom, grid, k_par, polarization, _build_layout(mats, polarization), mats)


def self_adjointness_defect(op: DiscreteOperator) -> float:
    """max |K B0 - B0^H K| entry in O(dim) memory: zero for a Krein-self-adjoint pair.

    K is Hermitian, so this is max|D| of D = K B0s - (K B0s)^H: the projected coupling changes
    B0s by a gradient on (alpha, gamma), which K[beta, alpha] = i w curl maps to curl GRAD = 0.
    """
    kb = op.krein @ op.b0_sparse
    return float(np.max(np.abs((kb - kb.conj().T).data), initial=0.0))


def _gauge(layout: FieldLayout) -> np.ndarray:
    """Diagonal phases that make B0 and K real: i on beta and gamma, times i on z components."""
    phase = np.empty(layout.dim, dtype=complex)
    for name in layout.blocks:
        fld, _, comp = name.partition("_")
        phase[layout.slices[name]] = 1j ** ((fld in ("beta", "gamma")) + (comp == "z"))
    return phase


# a sparse matrix as plain arrays, one entry per position
_Triplets = NamedTuple("_Triplets", [("row", np.ndarray), ("col", np.ndarray), ("data", np.ndarray)])


@dataclass
class _Reduction:
    """The half-size problem in real form, shared by both solves: omega are the
    eigenvalues of the pencil [[0, zb], [zb^T, 0]] x = omega diag(I, a) x, that is
    +/- the singular values of N = zb L^{-T} = R L for a = L L^T. Both solves take N
    from a and R (_band_cholesky, _n_band); zb serves the windowed solve's residual."""

    side: np.ndarray  # indices of S, whose energy block A[S, S] is positive definite, in grid order
    other: np.ndarray  # indices of O
    phase: np.ndarray  # gauge phases on S
    a: _Triplets  # A[S, S] in the gauge
    zb: _Triplets  # Z B0[O, S] in the gauge, real; row i is the row of Z at S coordinate i
    r: _Triplets  # R, with zb = R a
    null: Optional[np.ndarray]  # unit null vector of A[S, S] whose last beta coordinate was dropped

    @property
    def shape(self) -> Tuple[int, int]:  # of zb and R: a row per S coordinate, a column per kept one
        return self.side.size, self.side.size - (self.null is not None)

    @property
    def dropped(self) -> Optional[int]:
        """The S coordinate dropped with the null vector, the last beta in grid order, or None."""
        return None if self.null is None else int(np.flatnonzero(self.null)[-1])

    def lift(self, x: np.ndarray) -> np.ndarray:
        """S-parts on the whole S side from reduced coordinates (columns): restores the
        dropped coordinate and removes the null direction, if there is one."""
        if self.null is None:
            return x
        s = np.insert(x, self.dropped, 0.0, axis=0)
        s -= np.outer(self.null, self.null @ s)
        return s


def _grid_rank(position: np.ndarray) -> np.ndarray:
    """Rank of every S coordinate in grid order, from its position in cells from the left
    wall: a stable sort, so that coordinates at one grid point keep their block order."""
    rank = np.empty(position.size, dtype=int)
    rank[np.argsort(position, kind="stable")] = np.arange(position.size)
    return rank


def _te_stencils(op: DiscreteOperator, w: float):
    """Grid ranks, and the triplets of a, zb and R over S = (alpha, eta) in grid order, in TE.

    a = T = w diag(C G, 1 / rho): C G is the stencil (2 / h^2 + k^2, -1 / h^2) on the
    interior nodes. zb is the imaginary part of Z B0[O, S] = i sqrt(w) [[c C G,
    -kappa E / (c eps0 rho)], [0, omega_T / sqrt(rho)]], whose real part is zero, so
    zb = R a with R = w^-1/2 [[c I, -kappa E / (c eps0)], [0, omega_T sqrt(rho)]]: upper
    bidiagonal in grid order, where eta follows the alpha of its node.
    """
    n, h, k = op.grid.n, op.grid.h, op.k_par
    p = op.layout.matter_index["eta"]
    kap, rho, w_t = (arr[p] for arr in op.mats.at(False))
    # alpha at the interior nodes, then eta at the matter nodes p, each after the alpha of its node
    rank = _grid_rank(np.concatenate((np.arange(1.0, n), p + 1.0)))
    i, e = rank[: n - 1], rank[n - 1:]
    lap_r, lap_c = np.concatenate((i, i[:-1], i[1:])), np.concatenate((i, i[1:], i[:-1]))

    def lap(scale):
        """scale C G, with the diagonal built from the rounded off-diagonal, as the product of
        the curls builds it, so that the difference stencil cancels exactly"""
        off = scale / h**2
        return np.concatenate((np.full(n - 1, 2 * off + scale * k**2), np.full(2 * n - 4, -off)))

    rw = math.sqrt(w)
    a = (np.concatenate((lap_r, e)), np.concatenate((lap_c, e)), np.concatenate((lap(w), w / rho)))
    zb = (np.concatenate((lap_r, i[p], e)), np.concatenate((lap_c, e, e)),
          np.concatenate((lap(rw * C), -rw * kap / (C * EPS0 * rho), rw * w_t / np.sqrt(rho))))
    r = (np.concatenate((i, i[p], e)), np.concatenate((i, e, e)),
         np.concatenate((np.full(n - 1, C / rw), -kap / (C * EPS0 * rw), w_t * np.sqrt(rho) / rw)))
    return rank, a, zb, r


def _tm_stencils(op: DiscreteOperator, w: float):
    """Grid ranks, and the triplets of a, zb and R over S = (beta, gamma_par, gamma_z) in
    grid order, in TM.

    a = V = w [[c^2 G C, -G E kappa / eps0], [-c^2 kappa E^T C, rho omega_L^2]]: G C is
    the stencil (m / h^2 + k^2, -1 / h^2) on the half points, with m the number of
    interior nodes beside the half point, and beta_j couples to gamma_par at node j - 1
    and j by +-kappa / (h eps0), and to gamma_z at its own half point by kappa k / eps0.
    zb = Z B0[O, S] with Z = sqrt(w) diag(G, rho^-1/2): the beta rows are those of a over
    sqrt(w); an eta_par row, sqrt(w / rho) (-c^2 kappa / h, c^2 kappa / h, rho omega_L^2)
    at (beta_p, beta_p+1, gamma_par), is real; an eta_z row, sqrt(w / rho) i (c^2 kappa k,
    rho omega_L^2) at (beta_q, gamma_z), is imaginary, and zb holds its imaginary part.
    The eta rows are the gamma rows of a over sqrt(w rho) (c^2 eps0 = 1), so zb = R a with
    R diagonal. The k entries are left out at k_par = 0.
    """
    n, h, k = op.grid.n, op.grid.h, op.k_par
    p, q = op.layout.matter_index["gamma_par"], op.layout.matter_index["gamma_z"]
    kap_p, rho_p, wt_p = (arr[p] for arr in op.mats.at(False))
    kap_q, rho_q, wt_q = (arr[q] for arr in op.mats.at(True))
    # beta at the half points, then gamma_par at the nodes p and gamma_z at the halves q, after
    # the beta of its half point
    rank = _grid_rank(np.concatenate((np.arange(n) + 0.5, p + 1.0, q + 0.5)))
    j, gp, gz = rank[:n], rank[n: n + p.size], rank[n + p.size:]
    kq = slice(None) if k != 0 else slice(0)
    m = np.full(n, 2.0)
    m[[0, -1]] = 1.0
    # the beta rows of a / w: the curl curl stencil, then the coupling to the matter beside beta
    b_r = np.concatenate((j, j[:-1], j[1:], j[p], j[p + 1], j[q[kq]]))
    b_c = np.concatenate((j, j[1:], j[:-1], gp, gp, gz[kq]))

    def beta_rows(scale):
        """scale times the beta rows of a / w, the diagonal of G C built from its rounded
        off-diagonal, as the product of the curls builds it"""
        off, cpl = scale * C**2 / h**2, scale * kap_p / (h * EPS0)
        return np.concatenate((m * off + scale * C**2 * k**2, np.full(2 * n - 2, -off), -cpl, cpl,
                               scale * kap_q[kq] * (k / EPS0)))

    n_lap = 3 * n - 2  # entries of the curl curl stencil
    rw = math.sqrt(w)
    wl2_p, wl2_q = _Materials.omega_L2(kap_p, rho_p, wt_p), _Materials.omega_L2(kap_q, rho_q, wt_q)
    b_a = beta_rows(w)
    a = (np.concatenate((b_r, b_c[n_lap:], gp, gz)), np.concatenate((b_c, b_r[n_lap:], gp, gz)),
         np.concatenate((b_a, b_a[n_lap:], w * rho_p * wl2_p, w * rho_q * wl2_q)))
    sp_p, sp_q = np.sqrt(rho_p), np.sqrt(rho_q)
    eta_par = rw * C**2 * kap_p / (h * sp_p)
    zb = (np.concatenate((b_r, gp, gp, gp, gz[kq], gz)), np.concatenate((b_c, j[p], j[p + 1], gp, j[q[kq]], gz)),
          np.concatenate((beta_rows(rw), -eta_par, eta_par, rw * sp_p * wl2_p,
                          rw * C**2 * kap_q[kq] * k / sp_q[kq], rw * sp_q * wl2_q)))
    r = (rank, rank, np.concatenate((np.full(n, 1.0 / rw), 1.0 / (rw * sp_p), 1.0 / (rw * sp_q))))
    return rank, a, zb, r


def _reduce(op: DiscreteOperator) -> _Reduction:
    """Split the state into P = (alpha, eta) and Q = (beta, gamma), where B0 and K are
    block off-diagonal and A = K B0 = diag(T, V) is block diagonal, and make it real.

    S is the side whose energy block is positive definite (P with T for TE, Q with V for
    TM), O the other, and Z a sparse root of the other energy block, A[O, O] = Z^H Z. In
    the i^n gauge of _gauge, A[S, S] is real and each row of Z B0[O, S] is real or
    imaginary, none empty, so zb, each row as its real or imaginary part, has the Gram
    matrix of Z B0[O, S]. Z has one row per coordinate of S, on its grid point: the curl
    maps O's field onto S's (beta onto alpha in TE, alpha onto beta in TM), and each matter
    row sits at the matter point of its gamma and eta. The stencils (_te_stencils,
    _tm_stencils) write both blocks, and R with zb = R a (diagonal in TM, upper bidiagonal
    in TE), as (row, col, data) triplets, with S in grid order: sorted by grid position,
    the coordinates at one grid point in block order.

    At k_par = 0 in TM the constant beta vector spans ker A[S, S] = ker Z B0[O, S];
    dropping the last beta coordinate in grid order, t, leaves a positive definite problem
    with the same nonzero spectrum. Row t of zb is R_tt A[t, S], and A[t] is minus the sum
    of the other beta rows (A null = 0), so row t of R is -R_tt on every kept beta. Its
    product with L telescopes: the sums of L over the beta rows of a column vanish below
    the last kept beta b, the first coordinate that A[S, t] touches, and above it no beta
    is left, so row t of N = R L is the one entry -R_tt L[b, b], and N stays banded.
    (Dropping the first beta would make row 0 of N dense, by forward substitution through L.)
    """
    layout = op.layout
    p_idx = np.r_[layout._span("alpha"), layout._span("eta")]
    q_idx = np.r_[layout._span("beta"), layout._span("gamma")]
    w = HBAR * op.grid.h * op.geom.area
    if op.polarization == "TE":
        block, other = p_idx, q_idx
        rank, a, zb, r = _te_stencils(op, w)
    else:
        block, other = q_idx, p_idx
        rank, a, zb, r = _tm_stencils(op, w)
    side = np.empty_like(block)
    side[rank] = block
    null = None
    if op.polarization == "TM" and op.k_par == 0:
        beta = np.flatnonzero(side < layout._span("beta").stop)  # S = (beta, gamma)
        null = np.zeros(side.size)
        null[beta] = 1.0 / math.sqrt(beta.size)
        t = beta[-1]

        def cut(i):  # coordinate indices once t is dropped
            return i - (i > t)

        keep = (a[0] != t) & (a[1] != t)
        a = (cut(a[0][keep]), cut(a[1][keep]), a[2][keep])
        keep = zb[1] != t
        zb = (zb[0][keep], cut(zb[1][keep]), zb[2][keep])
        keep = r[1] != t  # R is diagonal: its entry at t gives way to row t
        r = (np.r_[r[0][keep], np.full(beta.size - 1, t)], np.r_[cut(r[1][keep]), beta[:-1]],
             np.r_[r[2][keep], np.full(beta.size - 1, -r[2][~keep][0])])
    return _Reduction(side, other, _gauge(layout)[side], _Triplets(*a), _Triplets(*zb), _Triplets(*r), null)


def _expand(op: DiscreteOperator, red: _Reduction, s: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Full-space eigenvectors, columns with Krein norm sgn(omega), from the real
    S-parts s (lifted columns with s^T A[S, S] s = 1) of the eigenvalues omega.

    psi = (B0[O, S] s / omega, s) sqrt(|omega| / 2) on (O, S), with the
    transverse-projected coupling in B0[O, S], read off the rows O of the sparse B0
    on the state that holds s on S and zero on O (B0 couples S to O only) when a
    column is expanded; its Krein norm is
    sgn(omega) s^T A[S, S] s = sgn(omega) by construction. Each column is expanded on
    its own, so a subset of columns gives the same bits.
    """
    layout = op.layout
    s = red.phase[:, None] * s
    vectors = np.zeros((layout.dim, omegas.size), dtype=complex)
    vectors[red.side] = s
    o = op.b0_sparse[red.other] @ vectors
    corr = _coupling_correction(op, vectors[layout._span("gamma")], 1j / EPS0)
    if corr is not None:  # in TM, where alpha leads O = (alpha, eta)
        o[: corr.shape[0]] -= corr
    scale = np.sqrt(0.5 * np.abs(omegas))
    o *= scale / omegas
    s *= scale
    vectors[red.other] = o
    vectors[red.side] = s
    return vectors


@dataclass
class _Pairs:
    """Eigenvectors in reduced form: the lifted S-parts s (columns) of eigenpairs at
    frequencies `omegas`, and the pair behind each column of a solution. A column at
    minus its pair's frequency is the pair's mirror, (o, -s) for the pair's (o, s)."""

    reduction: _Reduction
    s: np.ndarray
    omegas: np.ndarray
    index: np.ndarray


# how a windowed solve went: its shift-invert solves, thick restarts and residual over its gate
WindowedStats = NamedTuple("WindowedStats", [("solves", int), ("restarts", int), ("residual_over_gate", float)])


class DiscreteEigenSolution:
    """Full spectrum, or the eigenpair nearest a shift, with Krein-normalized full-space
    eigenvectors, <<v|v>> = sgn(omega).

    The solves keep the eigenvectors in reduced form and expand them on demand:
    `columns(idx)` builds only the requested ones, `vectors` every one, once, on first
    read. A windowed solve records its `stats`; otherwise they are None.
    """

    def __init__(self, operator: DiscreteOperator, omegas: np.ndarray, pairs: _Pairs,
                 stats: Optional[WindowedStats] = None):
        self.operator = operator
        self.omegas = omegas
        self._pairs = pairs
        self.stats = stats

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """Every eigenvector, as columns: (dim, omegas.size)."""
        vectors = self._build(np.arange(self.omegas.size))
        self._pairs = None  # `columns` reads them from here on
        return vectors

    def columns(self, idx) -> np.ndarray:
        """The eigenvectors of columns idx, (dim, len(idx)), bit for bit vectors[:, idx];
        only their pairs are expanded unless `vectors` was read already."""
        if "vectors" in self.__dict__:
            return self.vectors[:, idx]
        return self._build(np.asarray(idx, dtype=int))

    def _build(self, idx: np.ndarray) -> np.ndarray:
        """Expand each pair behind the columns idx once, then mirror where omega is -omega_pair."""
        pairs = self._pairs
        pair = pairs.index[idx]
        used, col = np.unique(pair, return_inverse=True)
        vecs = _expand(self.operator, pairs.reduction, pairs.s[:, used], pairs.omegas[used])[:, col]
        vecs[np.ix_(pairs.reduction.side, np.nonzero(self.omegas[idx] != pairs.omegas[pair])[0])] *= -1
        return vecs

    @property
    def krein(self) -> sp.csr_matrix:
        return self.operator.krein


def solve_spectrum(op: DiscreteOperator) -> DiscreteEigenSolution:
    """All eigenpairs of the restricted operator, omegas ascending.

    omega are the singular values of N = zb L^{-T} = R L (see _reduce), with a = L L^T the
    banded Cholesky factor of the energy block A[S, S] (_band_cholesky): the band matrix that
    solve_windowed reads too (_n_band), scattered densely for one SVD, the only dense work.
    s = L^{-T} w on S for its right singular vectors w, by one banded triangular solve with
    every w as right-hand side. The solution keeps s, one real column per +/- pair, and expands
    Krein-normalized full-space eigenvectors, <<v|v>> = sgn(omega), on demand: a caller
    that reads only the omegas and a few columns never holds all of them.
    """
    red = _reduce(op)
    r, n_s = red.shape
    # the expansion reads the sparse B0: built here, before the dense arrays, it does not land
    # among them (built after them, it raised the peak resident memory of `polmodes verify` by
    # 3 MiB for some hash seeds)
    op.b0_sparse
    _, _, l_band = _band_cholesky(red)
    nb, nl, nu = _n_band(red, l_band)
    # N^T, whose left singular vectors are the right ones of N, column-major so that the SVD
    # overwrites it in place
    n_t = np.zeros((n_s, r), order="F")
    for k in range(-nu, nl + 1):  # N[c + k, c] at nb[nu + k, c]
        c = np.arange(max(-k, 0), min(n_s, r - k))
        n_t[c, c + k] = nb[nu + k, c]
    w_vecs, sigma, _ = sla.svd(n_t, full_matrices=False, overwrite_a=True)
    if sigma[-1] <= np.finfo(float).eps * sigma.size * sigma[0]:
        raise SolverContractViolation("zero frequency: energy form singular on the other half")
    s_vecs, info = lapack.dtbtrs(l_band, w_vecs, uplo="L", trans="T", overwrite_b=1)
    if info != 0:
        raise SolverContractViolation(f"back-substitution through L failed (dtbtrs info {info})")
    # psi_+- = (o, +-s) on (O, S); omegas ascending, so column i < m mirrors pair i
    # (sigma descending) and column m + i is pair m - 1 - i
    pair = np.arange(sigma.size)
    pairs = _Pairs(red, red.lift(s_vecs), sigma, np.concatenate([pair, pair[::-1]]))
    return DiscreteEigenSolution(op, np.concatenate([-sigma, sigma[::-1]]), pairs=pairs)


# what _lanczos_nearest returns
_Ritz = NamedTuple("_Ritz", [("theta", float), ("u", np.ndarray), ("refined", np.ndarray), ("solves", int),
                             ("restarts", int)])


def _lanczos_nearest(opinv, shifted, v0: np.ndarray) -> _Ritz:
    """The Ritz pair (theta, u) of largest |theta| of the symmetric operator opinv (which may
    overwrite its argument), |u| = 1, the refined vector, and the solves and thick restarts
    taken: Lanczos from v0 with full reorthogonalization (CGS2), thick-restarted (K. Wu &
    H. Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)). Each step applies opinv once, in
    place on the next basis column, and stops once |beta y_last| <= _RITZ_TOL |theta|, the
    residual norm of the pair. A basis of _BASIS vectors restarts from the residual vector
    with the _KEEP Ritz vectors of largest |theta|, T their Ritz values bordered by its
    couplings. Through restarts too V satisfies opinv(V) = V T + w e_last^T, w the residual
    vector before it is normalized, so z = theta u + y_last w is opinv(u) at no solve (B. N.
    Parlett, The Symmetric Eigenvalue Problem, SIAM 1998). The refined vector is z after one
    step of iterative refinement against `shifted`, the exact operator that opinv inverts:
    z + opinv(u - shifted(z)), normalized, one solve more. Raises SolverContractViolation
    after _SOLVES_PER_UNKNOWN solves per unknown without convergence.
    """
    n = v0.size
    basis = np.empty((n, _BASIS + 1), order="F")  # the Lanczos vectors, as columns
    np.multiply(v0, 1.0 / math.sqrt(v0 @ v0), out=basis[:, 0])
    t = np.zeros((_BASIS, _BASIS))  # T, upper triangle
    j = restarts = 0  # the basis holds j + 1 vectors
    bound = int(_SOLVES_PER_UNKNOWN * n)
    for solves in range(1, bound + 1):
        basis[:, j + 1] = basis[:, j]
        w = opinv(basis[:, j + 1])  # the next vector, built in place
        v = basis[:, : j + 1]
        h = blas.dgemv(1.0, v, w, trans=1)
        blas.dgemv(-1.0, v, h, beta=1.0, y=w, overwrite_y=1)
        c = blas.dgemv(1.0, v, w, trans=1)  # twice is enough
        blas.dgemv(-1.0, v, c, beta=1.0, y=w, overwrite_y=1)
        t[: j + 1, j] = h + c
        beta = math.sqrt(w @ w)
        theta, y, _ = lapack.dsyevd(t[: j + 1, : j + 1], lower=0)
        i = j if theta[j] > -theta[0] else 0  # theta ascends
        if abs(beta * y[j, i]) <= _RITZ_TOL * abs(theta[i]):
            u = blas.dgemv(1.0, v, y[:, i])
            z = blas.daxpy(u, w * y[j, i], a=theta[i])  # in place on y_last w
            z += opinv(u - shifted(z))
            np.multiply(z, 1.0 / math.sqrt(z @ z), out=z)
            return _Ritz(float(theta[i]), u, z, solves + 1, restarts)
        np.multiply(w, 1.0 / beta, out=basis[:, j + 1])
        if j + 1 < _BASIS:
            j += 1
            continue
        keep = np.argsort(np.abs(theta))[-_KEEP:]
        basis[:, :_KEEP] = v @ y[:, keep]
        basis[:, _KEEP] = basis[:, _BASIS]
        t[:] = 0.0
        t[np.arange(_KEEP), np.arange(_KEEP)] = theta[keep]
        j = _KEEP
        restarts += 1
    raise SolverContractViolation(f"windowed solve did not converge in {bound} shift-invert solves")


def _band(m: _Triplets, n: int) -> Tuple[np.ndarray, int, int]:
    """m over n columns in LAPACK's general band storage, entry (i, j) at [ku + i - j, j]
    (dgbmv), and its half-bandwidths kl below and ku above the diagonal."""
    off = m.row - m.col
    kl, ku = int(off.max()), int(-off.min())
    band = np.zeros((kl + ku + 1, n), order="F")
    band[ku + off, m.col] = m.data
    return band, kl, ku


def _band_cholesky(red: _Reduction) -> Tuple[np.ndarray, int, np.ndarray]:
    """a in band storage (_band), its half-bandwidth kd, and L, a = L L^T, in LAPACK's lower band
    storage (dpbtrf), (i, j) at [i - j, j]: the lower half of a's band, factored."""
    a_band, kd, _ = _band(red.a, red.shape[1])
    l_band, info = lapack.dpbtrf(np.asfortranarray(a_band[kd:]), lower=1, overwrite_ab=1)
    if info > 0:
        raise SolverContractViolation(
            "energy form not positive definite (omega_T > 0 violated or null mode present)")
    return a_band, kd, l_band


def _n_band(red: _Reduction, l_band: np.ndarray) -> Tuple[np.ndarray, int, int]:
    """N = R L in general band storage (_band), over the diagonals that hold entries, and its
    half-bandwidths nl below and nu above the diagonal: (3, 0) in TM, (2, 1) in TE with
    matter, (1, 0) in a vacuum box. N[c + k, c] is written diagonal by diagonal from the
    diagonals of R and of L (l_band, lower band storage)."""
    rr, t = red.r, red.dropped
    n_s = red.shape[1]
    kd = l_band.shape[0] - 1
    # the band of R but the row of the dropped beta, written below: R[c + m, c] at [mu + m, c], m = -1
    # the TE coupling of eta to the alpha of its node, m = 1 the rows after the dropped beta
    on = slice(None) if t is None else rr.row != t
    r_band, ml, mu = _band(_Triplets(rr.row[on], rr.col[on], rr.data[on]), n_s)
    nb = np.zeros((kd + 3, n_s))  # N[c + k, c] at [1 + k, c]
    for m in range(-mu, ml + 1):
        for q in range(kd + 1):  # R[c + q + m, c + q] L[c + q, c]
            nb[1 + q + m, : n_s - q] += r_band[mu + m, q:] * l_band[q, : n_s - q]
    if t is not None:  # -R_tt on every kept beta times L: one entry, at the last kept beta b (see _reduce)
        row = rr.row == t
        b = int(np.max(rr.col[row]))
        nb[1 + t - b, b] = rr.data[row][0] * l_band[0, b]
    held = np.flatnonzero(nb.any(axis=1))
    lo, hi = min(int(held[0]), 1), int(held[-1])  # the main diagonal stays, so that nu >= 0
    return np.asfortranarray(nb[lo: hi + 1]), hi - 1, 1 - lo


def _schur_band(nb: np.ndarray, sigma: float) -> Tuple[np.ndarray, int]:
    """S = N^T N - sigma^2 I in LAPACK's band storage for dgbtrf, entry (i, j) at
    [2 kl + i - j, j] with the kl rows on top left for the fill of row pivoting, and its
    half-bandwidth kl = nl + nu: 3 with matter, 1 in a vacuum box. Diagonal d of S,
    S[c, c + d] = sum_i N[i, c] N[i, c + d], sums the products of the diagonals of N that
    lie d apart in its band storage nb (_n_band)."""
    m, n_s = nb.shape
    kl = m - 1
    ab = np.zeros((3 * kl + 1, n_s), order="F")
    for d in range(kl + 1):
        s_d = np.einsum("ij,ij->j", nb[d:, : n_s - d], nb[: m - d, d:])
        ab[2 * kl - d, d:] = s_d
        ab[2 * kl + d, : n_s - d] = s_d
    ab[2 * kl] -= sigma * sigma
    return ab, kl


def solve_windowed(op: DiscreteOperator, sigma: float) -> DiscreteEigenSolution:
    """The eigenpair nearest sigma. Its Krein-normalized full-space eigenvector is
    expanded only when read, so `surface_mode_frequency` builds none.

    Shift-invert Lanczos (_lanczos_nearest, fixed start vector) for omega directly, in
    standard form: with a = L L^T, the pencil H x = omega M x of _reduce becomes the
    symmetric Jordan-Wielandt matrix Hs = [[0, N], [N^T, 0]] of N = zb L^{-T} = R L on
    u = diag(I, L^T) x (G. H. Golub & C. F. Van Loan, Matrix Computations, 4th ed.,
    section 8.6), whose positive eigenvalues are the singular values that solve_spectrum
    takes. The Lanczos vectors hold u_O, then u_S. Each shift-invert solve eliminates the
    -sigma I block of Hs - sigma I: (Hs - sigma I) (x, y) = (f, g) is S y = sigma g + N^T f
    with the Schur complement S = N^T N - sigma^2 I, then x = (N y - f) / sigma. In grid
    order S is a band matrix of half-bandwidth 3 over the n_s columns of N (_schur_band):
    one LAPACK banded LU of it (dgbtrf) costs O(n), and each solve is one dgbtrs between two
    band products of N (dgbmv). The residual is taken from zb and a themselves, by band
    products, so it checks R too.

    Why the squared block is safe here. The eigenvalues of S are omega^2 - sigma^2, so its
    condition number is about omega_max / (2 sigma) times that of Hs - sigma I, a factor
    that grows like 1 / h, and so does the roundoff of each solve. That roundoff lies mostly
    along the eigenvectors far from sigma, which the shift-invert damps, so the Lanczos still
    converges to the pair nearest sigma; its vector keeps the roundoff, which one step of
    iterative refinement against the exact Hs removes (_lanczos_nearest; N. J. Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 12): the
    residual of the solve is taken from two band products of N, not through S, and one more
    solve corrects it. Without that step the residual grows like omega_max^2: at k_par 1.12
    (TM, sigma = 1.001 omega_s) the full-space residual is 2.7 times the 5e-12 bound of the
    tests at n = 4000, and at n = 8000 it fails the gate below. The gate checks every
    returned pair. sigma = 0 is refused before any factor: the elimination divides by sigma,
    Hs is singular in TM at k_par = 0, and elsewhere +/- omega_min are equally near 0.

    The Lanczos tests its Ritz pair after every solve: an isolated eigenvalue near sigma
    (a surface-mode sweep, n = 1000 to 4000) takes 6 or 7 solves and the refinement one
    more, omega_L + 1e-4 (TM, k_par 0.8) 5 and one more at n = 128 and 1000, the
    accumulation point omega_T 1110 in all at n = 1000. Its 24-vector basis restarts thick,
    keeping 12 Ritz vectors (smaller pairs down to (12, 6) took up to 4.2 times as many
    solves at omega_T). omega is the Rayleigh quotient 2 x_O^T zb x_S / (x_O^T x_O + x_S^T a
    x_S) of the refined x = diag(I, L^{-T}) u. Over 40 log-spaced k_par in [1.12, 6] (TM,
    sigma = 1.001 omega_s) the worst residual is 1.8e-4, 4.1e-4, 1.4e-3 and 3.5e-3 of the
    gate below at n = 1000, 2000, 4000 and 8000, at a Ritz tolerance of 1e-10 (_RITZ_TOL).
    Next to a cluster a tighter tolerance is met or missed by the roundoff of S: at 1e-12,
    omega_L + 1e-4 at n = 1000 took 13 solves, and a sweep op one more. The solution
    records the solves, the refinement's included, the thick restarts and the residual over
    the gate (`stats`).

    Raises SolverContractViolation if sigma is 0, a is not positive definite, S is exactly
    singular, the Lanczos does not converge within _SOLVES_PER_UNKNOWN solves per unknown,
    the residual ||H x - omega M x|| exceeds 1e-10 max(|sigma|, 1) ||x||, or omega is zero
    to that scale.
    """
    if sigma == 0:
        raise SolverContractViolation(f"no shift-invert at sigma = {sigma!r}: the eigenpair nearest it is not "
                                      "unique (+/- pairs, or the TM k_par = 0 null vector)")
    red = _reduce(op)
    r, n_s = red.shape
    a_band, kd, l_band = _band_cholesky(red)
    nb, nl, nu = _n_band(red, l_band)
    s_band, kl = _schur_band(nb, sigma)
    lu, piv, info = lapack.dgbtrf(s_band, kl, kl, overwrite_ab=True)
    if info > 0:
        raise SolverContractViolation(f"shift-invert at sigma = {sigma!r} failed: the factor is exactly singular")

    def opinv(v: np.ndarray) -> np.ndarray:  # (Hs - sigma I)^{-1} v, in place where v is contiguous
        v = np.ascontiguousarray(v)
        f, g = v[:r], v[r:]
        blas.dgbmv(r, n_s, nl, nu, 1.0, nb, f, beta=sigma, y=g, trans=1, overwrite_y=1)
        lapack.dgbtrs(lu, kl, kl, g, piv, overwrite_b=1)
        blas.dgbmv(r, n_s, nl, nu, 1.0 / sigma, nb, g, beta=-1.0 / sigma, y=f, overwrite_y=1)
        return v

    def shifted(z: np.ndarray) -> np.ndarray:  # (Hs - sigma I) z
        out = z * -sigma
        blas.dgbmv(r, n_s, nl, nu, 1.0, nb, z[r:], beta=1.0, y=out[:r], overwrite_y=1)
        blas.dgbmv(r, n_s, nl, nu, 1.0, nb, z[:r], beta=1.0, y=out[r:], trans=1, overwrite_y=1)
        return out

    v0 = np.arange(r + n_s, dtype=float)
    ritz = _lanczos_nearest(opinv, shifted, np.cos(v0, out=v0))  # fixed start, with weight on every block
    u = ritz.refined
    # x = diag(I, L^{-T}) u, in the order of _reduce: the rows of zb, then S
    x_o, x_s = u[:r], blas.dtbsv(kd, l_band, u[r:], lower=1, trans=1)
    # H x = (zb x_S, zb^T x_O) and M x = (x_O, a x_S) from the bands; x^T H x = 2 x_O^T zb x_S
    zb_band, zl, zu = _band(red.zb, n_s)
    h_o = blas.dgbmv(r, n_s, zl, zu, 1.0, zb_band, x_s)
    h_s = blas.dgbmv(r, n_s, zl, zu, 1.0, zb_band, x_o, trans=1)
    a_x = blas.dgbmv(n_s, n_s, kd, kd, 1.0, a_band, x_s)
    omega = 2.0 * (x_o @ h_o) / (x_o @ x_o + x_s @ a_x)
    tol = 1e-10 * max(abs(sigma), 1.0)
    resid = math.hypot(np.linalg.norm(h_o - omega * x_o), np.linalg.norm(h_s - omega * a_x)) / (
        tol * math.hypot(np.linalg.norm(x_o), np.linalg.norm(x_s)))
    if resid > 1.0:
        raise SolverContractViolation(f"windowed solve residual {resid:.3g} times its gate at omega {omega}")
    if abs(omega) <= tol:  # in TM at k_par = 0 the pencil has one null vector
        raise SolverContractViolation("zero frequency nearest sigma: no mode")
    omegas = np.array([omega])
    # u^T u = x^T diag(I, a) x = 1 splits equally between the halves, so s^T a s = 1 for s = sqrt(2) x_S
    pairs = _Pairs(red, red.lift(math.sqrt(2.0) * x_s[:, None]), omegas, np.zeros(1, dtype=int))
    return DiscreteEigenSolution(op, omegas, pairs=pairs,
                                 stats=WindowedStats(ritz.solves, ritz.restarts, resid))


def _physical_projector(op: DiscreteOperator):
    """Orthogonal projector onto the dynamical subspace, applied to columns, and its rank.

    alpha: ker(DIV) (TM) minus the k_par = 0 capacitor direction, constant alpha_z;
    beta: range(curl) = G (C G)^{-1} C (TE), and the complement of the constant
    vector at k_par = 0 (TM); matter: identity.
    """
    layout, ops = op.layout, op.ops
    a_sl, b_sl = layout._span("alpha"), layout._span("beta")
    n_alpha, n_beta = a_sl.stop - a_sl.start, b_sl.stop - b_sl.start
    static = op.polarization == "TM" and op.k_par == 0
    cg = op.curl_curl

    def apply(v: np.ndarray) -> np.ndarray:
        out = v.copy()
        if cg is None:
            out[a_sl] -= op._longitudinal(v[a_sl])
        else:
            out[b_sl] = ops.curl_ab @ cg.solve(ops.curl_ba @ v[b_sl])
        if static:
            z_sl = layout.slices["alpha_z"]
            out[z_sl] -= out[z_sl].mean(axis=0)
            out[b_sl] -= out[b_sl].mean(axis=0)
        return out

    rank = 2 * (min(n_alpha, n_beta) - static) + (layout.dim - b_sl.stop)
    return apply, rank


@dataclass
class CompletenessReport:
    max_deviation: float
    deviations: np.ndarray


def completeness_check(sol: DiscreteEigenSolution, test_vectors: np.ndarray) -> CompletenessReport:
    """Signed resolution of identity applied to test vectors.

    Verifies sum_n sgn(omega_n) |Psi_n>> <<Psi_n| = identity on the physical
    subspace. Test vectors and the reconstruction are both compared there:
    Krein-null directions (present only as slaved components of k_par = 0
    eigenvectors) carry no spectral weight and are excluded by construction.
    The subspace comes from the exact discrete sequence (div curl = 0,
    ker div = range curl), never from the eigenvectors. Requires the complete
    spectrum; test_vectors are the columns of a (dim, k) array.
    """
    project, rank = _physical_projector(sol.operator)
    if sol.omegas.size != rank:
        raise IncompleteSpectrum(f"need all {rank} eigenpairs, have {sol.omegas.size}")
    tv = np.asarray(test_vectors, dtype=complex)
    if tv.ndim != 2 or tv.shape[0] != sol.vectors.shape[0]:
        raise ValueError(f"test vectors must be a ({sol.vectors.shape[0]}, k) array, got {tv.shape}")
    proj = project(tv)
    signs = np.sign(sol.omegas)
    coeff = sol.vectors.conj().T @ (sol.krein @ proj)
    recon = project(sol.vectors @ (signs[:, None] * coeff))
    devs = np.linalg.norm(recon - proj, axis=0) / np.maximum(np.linalg.norm(proj, axis=0), 1e-300)
    return CompletenessReport(float(devs.max()), devs)


def assemble_sparse(geom: LayeredGeometry, grid: Grid1D, k_par: float, polarization: str,
                    strict_resolution: bool = True):
    """`assemble_operator`'s sparse B0 and layout. It remains for the benchmark's traced
    run, which times the sparse assembly on its own."""
    op = assemble_operator(geom, grid, k_par, polarization, strict_resolution)
    return op.b0_sparse, op.layout


def surface_mode_frequency(geom: LayeredGeometry, grid: Grid1D, k_par: float, sigma: float,
                           strict_resolution: bool = True) -> float:
    """Discrete surface-mode eigenfrequency: nearest TM eigenvalue to sigma (solve_windowed)."""
    return float(solve_windowed(assemble_operator(geom, grid, k_par, "TM", strict_resolution), sigma).omegas[0])


def _half_to_node(vals: np.ndarray) -> np.ndarray:
    """Average half-point samples onto the n+1 nodes (copy ends outward)."""
    out = np.zeros(vals.size + 1, dtype=vals.dtype)
    out[1:-1] = 0.5 * (vals[:-1] + vals[1:])
    out[0], out[-1] = vals[0], vals[-1]
    return out


_COMPONENT = {"par": 0, "": 1, "z": 2}  # block-name suffix -> (e_par, e_perp, e_z) column


def reconstruct_node_fields(op: DiscreteOperator, vec: np.ndarray, omega: float) -> Dict[str, np.ndarray]:
    """Interpolate one eigenvector onto grid nodes as 3-vector component arrays.

    Returns arrays of shape (n+1, 3) keyed 'theta', 'alpha', 'beta', 'gamma',
    'eta', with in-plane components resolved along (e_par, e_perp, e_z) for
    k_par along x. theta is reconstructed as alpha plus the longitudinal part
    of the matter coupling, i/(omega eps0) [kappa gamma]^L.
    """
    lay, n = op.layout, op.grid.n
    out = {name: np.zeros((n + 1, 3), dtype=complex) for name in
           ("theta", "alpha", "beta", "gamma", "eta")}

    def to_nodes(name: str, vals: np.ndarray) -> np.ndarray:
        """Values of block `name` on the n+1 nodes: zero at the walls and off matter."""
        half = name in lay.halves
        if name in lay.matter_index:
            full = np.zeros(n if half else n - 1, dtype=complex)
            full[lay.matter_index[name]] = vals
            vals = full
        if half:
            return _half_to_node(vals)
        full = np.zeros(n + 1, dtype=complex)
        full[1:-1] = vals
        return full

    corr = _coupling_correction(op, vec[lay._span("gamma")], 1j / (omega * EPS0))
    for name in lay.blocks:
        fld, _, comp = name.partition("_")
        col = _COMPONENT[comp]
        out[fld][:, col] = to_nodes(name, lay.block(name, vec))
        if fld == "alpha":
            out["theta"][:, col] = out[fld][:, col]
            if corr is not None:  # alpha leads the state, so corr shares its block slices
                out["theta"][:, col] += to_nodes(name, lay.block(name, corr))
    return out
