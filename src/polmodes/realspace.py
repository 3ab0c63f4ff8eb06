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
orthonormality and the signed completeness relation to roundoff. The full
spectrum solves it with one dense SVD of N = Z B0[O, S] L^{-T} (see _reduce: Z
a sparse root of one energy block, L L^T the Cholesky factor of the other);
windows (surface-mode sweeps) with shift-invert Lanczos on the same matrix in
standard form, [[0, N], [N^T, 0]]. With the unknowns in grid order the shifted
pencil is a band matrix of half-bandwidth at most 8, and the Cholesky one of at
most 3, whatever n: one LAPACK banded LU of the shifted pencil, one banded
Cholesky, and a 12-vector Lanczos basis (one basis fill, 13 solves, for an
isolated eigenvalue near the shift).
Both solves keep the real reduced S-parts and expand full-space eigenvectors
on demand, column by column: `polmodes solve` expands only the profiles it
writes, and a surface-mode frequency expands none.

Both solves write the reduced blocks from the stencil coefficients (_reduce), with
no full-space matrix: a windowed solve builds none at all. B0, with the unprojected
coupling, and K are built on first use, each from its triplets in one sparse
construction, and stay sparse; the eigenvector expansion, `apply`, the Krein
products and the checks read them. The projected coupling
enters only through one correction on alpha (_coupling_correction), which `apply`
and the field reconstruction share, from one LU of LAP = DIV GRAD; K B0 does not
see it. The dense B0 is built only on request, for residual checks.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, lapack
import scipy.sparse.linalg as spla

from .errors import IncompleteSpectrum, InvalidGrid, ResolutionTooCoarse, SolverContractViolation
from .media import C, EPS0, HBAR, LayeredGeometry, epsilon, locate

_NCV = 12  # Lanczos basis of solve_windowed; its docstring says why 12
_RITZ_TOL = 1e-14  # ARPACK's Ritz tolerance in solve_windowed; its docstring says why


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
    kap, rho, w_t = params[cells].T
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
    """Assembled eigensystem: grid, media, layout and the sparse curls (checked at
    assembly), from which every full-space matrix is built on first use: the sparse B0
    with the unprojected matter coupling (`b0_sparse`), the sparse Krein matrix K
    (`krein`) and the kappa embedding (`kappa_embed`). The reduction reads the stencils
    (_reduce) and builds none of them, so a windowed solve builds none; `apply`, the
    eigenvector expansion (the full solve builds B0 for it), the Krein products and the
    checks do. Nothing here is dense; `b0` densifies on request."""

    geom: LayeredGeometry
    grid: Grid1D
    k_par: float
    polarization: str
    layout: FieldLayout
    ops: _Operators = field(repr=False)
    mats: _Materials = field(repr=False)

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
    """The operator on its grid, with its curls checked (curl GRAD = 0 in TM); its sparse
    B0 and Krein matrix are built on first use, in O(dim) memory."""
    _resolution_check(geom, grid, k_par, strict_resolution)
    mats = _sample_materials(geom, grid)
    layout = _build_layout(mats, polarization)
    return DiscreteOperator(geom, grid, k_par, polarization, layout, _build_operators(grid, k_par, polarization),
                            mats)


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


@dataclass
class _Reduction:
    """The half-size problem in real form, shared by both solves: omega are the
    eigenvalues of the pencil [[0, zb], [zb^T, 0]] x = omega diag(I, a) x, that is
    +/- the singular values of zb L^{-T} for a = L L^T."""

    side: np.ndarray  # indices of S, whose energy block A[S, S] is positive definite
    other: np.ndarray  # indices of O
    phase: np.ndarray  # gauge phases on S
    position: np.ndarray  # grid position of every S coordinate, in cells from the left wall
    a: sp.coo_matrix  # A[S, S] in the gauge
    zb: sp.coo_matrix  # Z B0[O, S] in the gauge, real; row i is the row of Z at S coordinate i
    null: Optional[np.ndarray]  # unit null vector of A[S, S] whose coordinate 0 was dropped

    def lift(self, x: np.ndarray) -> np.ndarray:
        """S-parts on the whole S side from reduced coordinates (columns): restores the
        dropped coordinate and removes the null direction, if there is one."""
        if self.null is None:
            return x
        s = np.vstack([np.zeros((1, x.shape[1])), x])
        s -= np.outer(self.null, self.null @ s)
        return s


def _te_stencils(op: DiscreteOperator, w: float):
    """Positions, and the triplets of a and zb over S = (alpha, eta), in TE.

    a = T = w diag(C G, 1 / rho): C G is the stencil (2 / h^2 + k^2, -1 / h^2) on the
    interior nodes. zb is the imaginary part of Z B0[O, S] = i sqrt(w) [[c C G,
    -kappa E / (c eps0 rho)], [0, omega_T / sqrt(rho)]], whose real part is zero.
    """
    n, h, k = op.grid.n, op.grid.h, op.k_par
    p = op.layout.matter_index["eta"]
    kap, rho, w_t = (arr[p] for arr in op.mats.at(False))
    i = np.arange(n - 1)  # alpha at the interior nodes, then eta at the matter nodes p
    e = n - 1 + np.arange(p.size)
    lap_r, lap_c = np.concatenate((i, i[:-1], i[1:])), np.concatenate((i, i[1:], i[:-1]))

    def lap(scale):
        """scale C G, with the diagonal built from the rounded off-diagonal, as the product of
        the curls builds it, so that the difference stencil cancels exactly"""
        off = scale / h**2
        return np.concatenate((np.full(n - 1, 2 * off + scale * k**2), np.full(2 * n - 4, -off)))

    rw = math.sqrt(w)
    a = (np.concatenate((lap_r, e)), np.concatenate((lap_c, e)), np.concatenate((lap(w), w / rho)))
    zb = (np.concatenate((lap_r, p, e)), np.concatenate((lap_c, e, e)),
          np.concatenate((lap(rw * C), -rw * kap / (C * EPS0 * rho), rw * w_t / np.sqrt(rho))))
    return np.concatenate((i + 1.0, p + 1.0)), a, zb


def _tm_stencils(op: DiscreteOperator, w: float):
    """Positions, and the triplets of a and zb over S = (beta, gamma_par, gamma_z), in TM.

    a = V = w [[c^2 G C, -G E kappa / eps0], [-c^2 kappa E^T C, rho omega_L^2]]: G C is
    the stencil (m / h^2 + k^2, -1 / h^2) on the half points, with m the number of
    interior nodes beside the half point, and beta_j couples to gamma_par at node j - 1
    and j by +-kappa / (h eps0), and to gamma_z at its own half point by kappa k / eps0.
    zb = Z B0[O, S] with Z = sqrt(w) diag(G, rho^-1/2): the beta rows are those of a over
    sqrt(w); an eta_par row, sqrt(w / rho) (-c^2 kappa / h, c^2 kappa / h, rho omega_L^2)
    at (beta_p, beta_p+1, gamma_par), is real; an eta_z row, sqrt(w / rho) i (c^2 kappa k,
    rho omega_L^2) at (beta_q, gamma_z), is imaginary, and zb holds its imaginary part.
    The k entries are left out at k_par = 0.
    """
    n, h, k = op.grid.n, op.grid.h, op.k_par
    p, q = op.layout.matter_index["gamma_par"], op.layout.matter_index["gamma_z"]
    kap_p, rho_p, wt_p = (arr[p] for arr in op.mats.at(False))
    kap_q, rho_q, wt_q = (arr[q] for arr in op.mats.at(True))
    j = np.arange(n)  # beta at the half points, then gamma_par at the nodes p, gamma_z at the halves q
    gp = n + np.arange(p.size)
    gz = n + p.size + np.arange(q.size)
    kq = slice(None) if k != 0 else slice(0)
    m = np.full(n, 2.0)
    m[[0, -1]] = 1.0
    # the beta rows of a / w: the curl curl stencil, then the coupling to the matter beside beta
    b_r = np.concatenate((j, j[:-1], j[1:], p, p + 1, q[kq]))
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
    zb = (np.concatenate((b_r, gp, gp, gp, gz[kq], gz)), np.concatenate((b_c, p, p + 1, gp, q[kq], gz)),
          np.concatenate((beta_rows(rw), -eta_par, eta_par, rw * sp_p * wl2_p,
                          rw * C**2 * kap_q[kq] * k / sp_q[kq], rw * sp_q * wl2_q)))
    return np.concatenate((j + 0.5, p + 1.0, q + 0.5)), a, zb


def _reduce(op: DiscreteOperator) -> _Reduction:
    """Split the state into P = (alpha, eta) and Q = (beta, gamma), where B0 and K are
    block off-diagonal and A = K B0 = diag(T, V) is block diagonal, and make it real.

    S is the side whose energy block is positive definite (P with T for TE, Q with V
    for TM), O the other, and Z a sparse root of the other energy block,
    A[O, O] = Z^H Z. In the i^n gauge of _gauge, A[S, S] is real and each row of
    Z B0[O, S] is real or imaginary, none empty, so zb, each row as its real or imaginary
    part, has the Gram matrix of Z B0[O, S]. Z has one row per coordinate of S, on its
    grid point: the curl maps O's field onto S's (beta onto alpha in TE, alpha onto beta
    in TM), and each matter row sits at the matter point of its gamma and eta. Both
    blocks are written from the stencil coefficients (_te_stencils, _tm_stencils), with
    no full-space matrix and no sparse product. At k_par = 0 in TM the
    constant beta vector spans ker A[S, S] = ker Z B0[O, S]; dropping the first beta
    coordinate leaves a positive definite problem with the same nonzero spectrum.
    """
    layout = op.layout
    p_idx = np.r_[layout._span("alpha"), layout._span("eta")]
    q_idx = np.r_[layout._span("beta"), layout._span("gamma")]
    w = HBAR * op.grid.h * op.geom.area
    if op.polarization == "TE":
        side, other = p_idx, q_idx
        position, a, zb = _te_stencils(op, w)
    else:
        side, other = q_idx, p_idx
        position, a, zb = _tm_stencils(op, w)
    n_s, null = side.size, None
    if op.polarization == "TM" and op.k_par == 0:
        n_beta = layout._span("beta").stop - layout._span("beta").start
        null = np.zeros(n_s)
        null[:n_beta] = 1.0 / math.sqrt(n_beta)
        keep = (a[0] > 0) & (a[1] > 0)
        a = (a[0][keep] - 1, a[1][keep] - 1, a[2][keep])
        keep = zb[1] > 0
        zb = (zb[0][keep], zb[1][keep] - 1, zb[2][keep])
        n_s -= 1
    return _Reduction(side, other, _gauge(layout)[side], position,
                      sp.coo_matrix((a[2], (a[0], a[1])), shape=(n_s, n_s)),
                      sp.coo_matrix((zb[2], (zb[0], zb[1])), shape=(side.size, n_s)), null)


def _expand(op: DiscreteOperator, red: _Reduction, s: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Full-space eigenvectors, columns with Krein norm sgn(omega), from the real
    S-parts s (lifted columns with s^T A[S, S] s = 1) of the eigenvalues omega.

    psi = (B0[O, S] s / omega, s) sqrt(|omega| / 2) on (O, S), with the
    transverse-projected coupling in B0[O, S], read off the rows O of the sparse B0
    (which couples S to O only) when a column is expanded; its Krein norm is
    sgn(omega) s^T A[S, S] s = sgn(omega) by construction. Each column is expanded on
    its own, so a subset of columns gives the same bits.
    """
    layout = op.layout
    s = red.phase[:, None] * s
    o = op.b0_sparse[red.other][:, red.side] @ s
    # where there is a correction (TM), S = (beta, gamma) and alpha leads O = (alpha, eta)
    g_off = layout._span("gamma").start - layout._span("beta").start
    corr = _coupling_correction(op, s[g_off:], 1j / EPS0)
    if corr is not None:
        o[: corr.shape[0]] -= corr
    scale = np.sqrt(0.5 * np.abs(omegas))
    o *= scale / omegas
    s *= scale
    vectors = np.empty((layout.dim, omegas.size), dtype=complex)
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


class DiscreteEigenSolution:
    """Full spectrum, or the eigenpair nearest a shift, with Krein-normalized full-space
    eigenvectors, <<v|v>> = sgn(omega).

    The solves keep the eigenvectors in reduced form and expand them on demand:
    `columns(idx)` builds only the requested ones, `vectors` every one, once, on first
    read. A solution may also be built from explicit `vectors`.
    """

    def __init__(self, operator: DiscreteOperator, omegas: np.ndarray,
                 vectors: Optional[np.ndarray] = None, pairs: Optional[_Pairs] = None):
        if (vectors is None) == (pairs is None):
            raise ValueError("give either the eigenvectors or their reduced pairs")
        self.operator = operator
        self.omegas = omegas
        self._pairs = pairs
        if vectors is not None:
            self.vectors = vectors

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

    With the Cholesky factor L of A[S, S], omega are the singular values of
    Z B0[O, S] L^{-T} (see _reduce) and s = L^{-T} w on S for its right singular
    vectors w. The solution keeps s, one real column per +/- pair, and expands
    Krein-normalized full-space eigenvectors, <<v|v>> = sgn(omega), on demand:
    a caller that reads only the omegas and a few columns never holds all of them.
    """
    red = _reduce(op)
    # the expansion reads the sparse B0: built here, before the dense arrays, it does not land
    # among them (built after them, it raised the peak resident memory of `polmodes verify` by
    # 3 MiB for some hash seeds)
    op.b0_sparse
    try:
        l_fac = sla.cholesky(red.a.toarray(), lower=True, overwrite_a=True)
    except sla.LinAlgError as exc:
        raise SolverContractViolation(
            "energy form not positive definite (omega_T > 0 violated or null mode present)"
        ) from exc
    # M^T = L^{-1} (Z B0[O, S])^T: its left singular vectors are the right ones of M. The
    # Cholesky, the solve and the SVD act on fresh arrays, so LAPACK overwrites them in place.
    m_t = sla.solve_triangular(l_fac, red.zb.toarray().T, lower=True, overwrite_b=True)
    w_vecs, sigma, _ = sla.svd(m_t, full_matrices=False, overwrite_a=True)
    if sigma[-1] <= np.finfo(float).eps * sigma.size * sigma[0]:
        raise SolverContractViolation("zero frequency: energy form singular on the other half")
    s_vecs = sla.solve_triangular(l_fac, w_vecs, lower=True, trans="T")
    # psi_+- = (o, +-s) on (O, S); omegas ascending, so column i < m mirrors pair i
    # (sigma descending) and column m + i is pair m - 1 - i
    pair = np.arange(sigma.size)
    pairs = _Pairs(red, red.lift(s_vecs), sigma, np.concatenate([pair, pair[::-1]]))
    return DiscreteEigenSolution(op, np.concatenate([-sigma, sigma[::-1]]), pairs=pairs)


@dataclass
class _GridPencil:
    """The reduced pencil H x = omega M x of _reduce, H = [[0, zb], [zb^T, 0]] and
    M = diag(I, a), with its unknowns in grid order.

    The unknowns, the rows of zb and then the S coordinates, are sorted by grid position
    (`_Reduction.position`): an S coordinate sits at its own, row i of zb at that of S
    coordinate i, whose row of Z it is; ties keep the reduced order. In this order
    H - sigma M is a band matrix of half-bandwidth kl, and a, among the S coordinates,
    one of half-bandwidth kd. Both widths are known before any band storage is allocated.
    """

    slot: np.ndarray  # grid slot of each unknown
    s_slots: np.ndarray  # slots of the S coordinates, ascending
    zb: Tuple[np.ndarray, np.ndarray, np.ndarray]  # (row, column, value) of zb, between slots
    a: Tuple[np.ndarray, np.ndarray, np.ndarray]  # (row, column, value) of a, between S ranks
    a_slots: Tuple[np.ndarray, np.ndarray]  # (row, column) of a, between slots
    kl: int
    kd: int


def _grid_pencil(red: _Reduction) -> _GridPencil:
    r, n_s = red.zb.shape
    pos = red.position
    # the kept S coordinates: at k_par = 0 in TM the first one is dropped; each block of S is
    # ascending in position, so the stable sort merges a few sorted runs
    order = np.argsort(np.concatenate((pos, pos[r - n_s:])), kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    s_slots = np.flatnonzero(order >= r)
    s_rank = np.empty_like(order, shape=n_s)
    s_rank[order[s_slots] - r] = np.arange(n_s)
    z_r, z_c = slot[red.zb.row], slot[r + red.zb.col]
    a_r, a_c = s_rank[red.a.row], s_rank[red.a.col]
    as_r, as_c = slot[r + red.a.row], slot[r + red.a.col]
    kl = max(np.max(np.abs(z_r - z_c)), np.max(np.abs(as_r - as_c)))
    return _GridPencil(slot, s_slots, (z_r, z_c, red.zb.data), (a_r, a_c, red.a.data), (as_r, as_c), int(kl),
                       int(np.max(a_r - a_c)))


def solve_windowed(op: DiscreteOperator, sigma: float) -> DiscreteEigenSolution:
    """The eigenpair nearest sigma. Its Krein-normalized full-space eigenvector is
    expanded only when read, so `surface_mode_frequency` builds none.

    Shift-invert Lanczos (ARPACK, fixed start vector) for omega directly (the omega^2
    form would square the condition number), in standard form: with a = L L^T, the
    pencil H x = omega M x of _reduce becomes the symmetric matrix
    Hs = [[0, zb L^{-T}], [L^{-1} zb^T, 0]] on u = diag(I, L^T) x, whose positive
    eigenvalues are the singular values that solve_spectrum takes. Its shift-invert
    operator is diag(I, L^T) (H - sigma M)^{-1} diag(I, L), so M is never formed.

    With the unknowns in grid order (_GridPencil), H - sigma M is a band matrix and a
    is one among the S coordinates, whatever n: half-bandwidths 3 and 1 in a vacuum
    box, 6 and 2 in TE and 8 and 3 in TM with matter, at every k_par. One LAPACK
    banded LU of H - sigma M (dgbtrf, with row pivoting) and one banded Cholesky of a
    (dpbtrf) cost O(n), and each shift-invert solve is one dgbtrs between two
    triangular band products. The residual is taken from the reduced blocks themselves.

    The Lanczos basis holds 12 vectors. ARPACK tests convergence only once its basis
    is full, so an isolated eigenvalue near sigma (a surface-mode sweep) costs 13
    solves with it, against 21 with SciPy's default of 20. Next to the omega_L
    cluster, 4 and 8 vectors do not converge within ARPACK's iteration limit while 6
    and 10 do, so smaller is not monotonically worse; 12 is the smallest size with
    margin there. ARPACK's Ritz tolerance is 1e-14 (_RITZ_TOL), not its default of
    machine precision, which next to a cluster is met or missed by roundoff: a shift a
    quarter of a gap above omega_L (TM, k_par 0.8, n = 64) converges in 67 solves with
    it, and without it runs out of ARPACK's iterations after 15373 solves with one
    BLAS thread. The residual gate below is the accuracy guard. At
    sigma = omega_L + 1e-4 (TM, k_par 0.8, n = 128) the solve takes 55 solves. The
    cost falls on a shift at an accumulation point of the spectrum: at
    sigma = omega_T (TM, k_par 0.8, n = 1000) it takes 6013. No surface-mode sweep
    asks for such a shift.

    Raises SolverContractViolation if a is not positive definite, H - sigma M is
    exactly singular, ARPACK does not converge, the residual ||H x - omega M x||
    exceeds 1e-10 max(|sigma|, 1) ||x||, or omega is zero to that scale.
    """
    red = _reduce(op)
    grid = _grid_pencil(red)
    r, n = red.zb.shape[0], grid.slot.size
    kl, kd, s_sl = grid.kl, grid.kd, grid.s_slots
    z_r, z_c, z_d = grid.zb
    a_r, a_c, a_d = grid.a
    # H - sigma M in LAPACK's band storage, entry (i, j) at [2 kl + i - j, j], that is at
    # 2 kl + i + (ld - 1) j of the column-major array: the kl rows on top hold the fill of row
    # pivoting
    ld = 3 * kl + 1
    band = np.zeros((ld, n), order="F")
    flat = band.reshape(-1, order="F")
    for rows, cols, data in ((z_r, z_c, z_d), (z_c, z_r, z_d), (grid.slot[:r], grid.slot[:r], -sigma),
                             (*grid.a_slots, -sigma * a_d)):
        flat[2 * kl + rows + (ld - 1) * cols] = data
    lu, piv, info = lapack.dgbtrf(band, kl, kl, overwrite_ab=True)
    if info > 0:
        raise SolverContractViolation(f"shift-invert at sigma = {sigma!r} failed: the factor is exactly singular")
    # a = L L^T, lower band storage: entry (i, j), i >= j, at [i - j, j]
    lower = a_r >= a_c
    a_band = np.zeros((kd + 1, s_sl.size), order="F")
    a_band[a_r[lower] - a_c[lower], a_c[lower]] = a_d[lower]
    l_band, info = lapack.dpbtrf(a_band, lower=1, overwrite_ab=True)
    if info > 0:
        raise SolverContractViolation("energy form not positive definite")

    def opinv(v: np.ndarray) -> np.ndarray:
        """(Hs - sigma I)^{-1} v = diag(I, L^T) (H - sigma M)^{-1} diag(I, L) v"""
        w = v.copy()
        w[s_sl] = blas.dtbmv(kd, l_band, v[s_sl], lower=1)
        y = lapack.dgbtrs(lu, kl, kl, w, piv, overwrite_b=True)[0]
        y[s_sl] = blas.dtbmv(kd, l_band, y[s_sl], lower=1, trans=1)
        return y

    def pencil(u: np.ndarray) -> np.ndarray:
        """x = diag(I, L^{-T}) u, in the reduced order"""
        x = u.copy()
        x[s_sl] = blas.dtbsv(kd, l_band, u[s_sl], lower=1, trans=1)
        return x[grid.slot]

    zb = red.zb

    def h_dot(x: np.ndarray) -> np.ndarray:
        """H x, in the reduced order"""
        return np.concatenate((np.bincount(zb.row, zb.data * x[r + zb.col], minlength=r),
                               np.bincount(zb.col, zb.data * x[zb.row], minlength=n - r)))

    def standard(u: np.ndarray) -> np.ndarray:
        """Hs u = diag(I, L^{-1}) H diag(I, L^{-T}) u; eigsh reads only its shape and dtype"""
        y = np.empty_like(u)
        y[grid.slot] = h_dot(pencil(u))
        y[s_sl] = blas.dtbsv(kd, l_band, y[s_sl], lower=1)
        return y

    v0 = np.cos(np.arange(n))  # fixed, with weight on every block
    try:
        omegas, u = spla.eigsh(spla.LinearOperator((n, n), matvec=standard, dtype=float), k=1, sigma=sigma,
                               v0=v0, ncv=_NCV, tol=_RITZ_TOL,
                               OPinv=spla.LinearOperator((n, n), matvec=opinv, dtype=float))
    except spla.ArpackNoConvergence as exc:
        raise SolverContractViolation(f"windowed solve did not converge: {exc}") from exc
    x = pencil(u[:, 0])
    tol = 1e-10 * max(abs(sigma), 1.0)
    a_x = np.bincount(red.a.row, red.a.data * x[r + red.a.col], minlength=n - r)
    resid = np.linalg.norm(h_dot(x) - omegas[0] * np.concatenate((x[:r], a_x)))
    if resid > tol * np.linalg.norm(x):
        raise SolverContractViolation(f"windowed solve residuals {resid} at omega {omegas}")
    if np.any(np.abs(omegas) <= tol):  # in TM at k_par = 0 the pencil has one null vector
        raise SolverContractViolation("zero frequency nearest sigma: no mode")
    # u^T u = x^T diag(I, a) x = 1 splits equally between the halves, so s^T a s = 1 for s = sqrt(2) x_S
    pairs = _Pairs(red, red.lift(math.sqrt(2.0) * x[r:, None]), omegas, np.zeros(1, dtype=int))
    return DiscreteEigenSolution(op, omegas, pairs=pairs)


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


def assemble_sparse(
    geom: LayeredGeometry,
    grid: Grid1D,
    k_par: float,
    polarization: str,
    strict_resolution: bool = True,
):
    """`assemble_operator`'s sparse B0 and layout. It remains for the benchmark's traced
    run, which times the sparse assembly on its own."""
    op = assemble_operator(geom, grid, k_par, polarization, strict_resolution)
    return op.b0_sparse, op.layout


def surface_mode_frequency(
    geom: LayeredGeometry,
    grid: Grid1D,
    k_par: float,
    sigma: float,
    strict_resolution: bool = True,
) -> float:
    """Discrete surface-mode eigenfrequency: nearest TM eigenvalue to sigma."""
    op = assemble_operator(geom, grid, k_par, "TM", strict_resolution)
    return float(solve_windowed(op, sigma).omegas[0])


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
