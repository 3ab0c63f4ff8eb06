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
where GRAD = -DIV^H so P is an orthogonal projector and div curl = 0 holds
exactly (entrywise float cancellation). The assembled pair (B0, K), with K the
indefinite inner-product matrix, then satisfies K B0 = B0^H K to machine zeros.

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
spectrum solves it with one dense SVD; windows (surface-mode sweeps) with
sparse shift-invert Lanczos on the same problem written as a symmetric pencil.

B0 and K are assembled once, from sparse blocks, with the unprojected
coupling, and stay sparse. The projected coupling enters only through one
correction on alpha (_coupling_correction), which `apply`, the eigenvector
expansion, the field reconstruction and the blockwise self-adjointness defect
share; the dense B0 is built only on request, for residual checks.
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
import scipy.sparse.linalg as spla

from .errors import (
    DegenerateKreinNorm,
    IncompleteSpectrum,
    InvalidGrid,
    ResolutionTooCoarse,
    SolverContractViolation,
)
from .media import C, EPS0, HBAR, LayeredGeometry, epsilon, locate


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
    """Polarization-specific building blocks (sparse)."""

    curl_ba: sp.csr_matrix  # beta-space -> alpha-space  (C)
    curl_ab: sp.csr_matrix  # alpha-space -> beta-space  (G = C^H)
    div: Optional[sp.csr_matrix]  # alpha-space -> potential space, or None (TE)


def _build_operators(grid: Grid1D, k_par: float, polarization: str) -> _Operators:
    n, h = grid.n, grid.h
    d_hi = sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n - 1, n), format="csr")  # halves -> nodes
    if polarization == "TE":
        c = sp.hstack([d_hi, 1j * k_par * sp.eye(n - 1)], format="csr")
        div = None
    else:
        c = sp.vstack([-d_hi, -1j * k_par * sp.eye(n)], format="csr")
        # [-i k_par I, d_hi]: alpha_par and alpha_z to interior nodes
        div = sp.diags([-1j * k_par, -1.0 / h, 1.0 / h], [0, n - 1, n], shape=(n - 1, 2 * n - 1),
                       format="csr")
    return _Operators(c, c.conj().T.tocsr(), div)


def _longitudinal(div: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """GRAD LAP^{-1} DIV v: the part of alpha-space vectors that the transverse projection removes."""
    grad = -div.conj().T
    return grad @ spla.splu((div @ grad).tocsc()).solve(div @ v)


def _coupling_correction(op: DiscreteOperator, gamma: np.ndarray, factor: complex) -> Optional[np.ndarray]:
    """factor GRAD LAP^{-1} DIV (kappa gamma) on alpha-space: what the transverse projection
    removes from the matter coupling of gamma (vector or columns). None where the coupling
    is transverse already: in TE, or without matter."""
    if op.ops.div is None or op.kappa_embed.shape[1] == 0:
        return None
    return factor * _longitudinal(op.ops.div, op.kappa_embed @ gamma)


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


def _block_layout(ab, ag, ba, ge, eb, eg):
    """Sparse matrix over the blocks (alpha, beta, gamma, eta) with the pattern shared by
    B0 and K: alpha-beta, alpha-gamma, beta-alpha, gamma-eta, eta-beta and eta-gamma."""
    return sp.bmat([
        [None, ab, ag, None],
        [ba, None, None, None],
        [None, None, None, ge],
        [None, eb, eg, None],
    ], format="csr", dtype=complex)


def _sparse_b0(ops: _Operators, e_kappa: sp.csr_matrix, kap, rho, w_t):
    """B0 from sparse blocks, with the unprojected matter coupling."""
    c_mat = ops.curl_ba
    rho_wl2 = rho * _Materials.omega_L2(kap, rho, w_t)
    return _block_layout(-1j * C**2 * c_mat, (1j / EPS0) * e_kappa, 1j * ops.curl_ab,
                         1j * sp.diags(1.0 / rho), 1j * C**2 * (e_kappa.conj().T @ c_mat),
                         -1j * sp.diags(rho_wl2))


@dataclass
class DiscreteOperator:
    """Assembled eigensystem: sparse B0 with the unprojected matter coupling, sparse
    Krein matrix K, and metadata. Nothing here is dense; `b0` densifies on request."""

    geom: LayeredGeometry
    grid: Grid1D
    k_par: float
    polarization: str
    layout: FieldLayout
    b0_sparse: sp.csr_matrix
    krein: sp.csr_matrix
    ops: _Operators = field(repr=False)
    mats: _Materials = field(repr=False)
    kappa_embed: sp.csr_matrix = field(repr=False)

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
    """Sparse B0 (unprojected coupling) and sparse Krein matrix, in O(dim) memory."""
    _resolution_check(geom, grid, k_par, strict_resolution)
    mats = _sample_materials(geom, grid)
    layout = _build_layout(mats, polarization)
    ops = _build_operators(grid, k_par, polarization)
    rows, kap, rho, w_t = _matter_coefficients(layout, mats)
    # alpha-space x matter-space matrix with kappa at matching positions
    e_kappa = sp.csr_matrix((kap, (rows, np.arange(rows.size))),
                            shape=(ops.curl_ba.shape[0], rows.size))
    b0 = _sparse_b0(ops, e_kappa, kap, rho, w_t)
    if b0.shape != (layout.dim, layout.dim):
        raise SolverContractViolation("sparse assembly dimension mismatch")
    w = HBAR * grid.h * geom.area
    eye = sp.eye(e_kappa.shape[1])
    krein = _block_layout(-1j * w * ops.curl_ba, None, 1j * w * ops.curl_ab,  # 1/mu0 = 1
                          1j * w * eye, None, -1j * w * eye)
    return DiscreteOperator(geom, grid, k_par, polarization, layout, b0, krein, ops, mats, e_kappa)


def self_adjointness_defect(op: DiscreteOperator) -> float:
    """Bound on max |K B0 - B0^H K| entry from sparse blocks: zero for an exactly
    Krein-self-adjoint pair.

    K is Hermitian and K[:, alpha] lives on beta rows, so K B0 = K B0s except in the
    (beta, gamma) block, which loses K[beta, alpha] X for the correction X of
    _coupling_correction. The bound is max|D| of D = K B0s - (K B0s)^H and of D's
    (beta, gamma) block minus that term; D's (gamma, beta) block mirrors the
    uncorrected one, so up to roundoff the bound is never below the dense defect.
    """
    kb = op.krein @ op.b0_sparse
    d = kb - kb.conj().T
    defect = float(np.max(np.abs(d.data), initial=0.0))
    lay = op.layout
    g_sl = lay._span("gamma")
    corr = _coupling_correction(op, np.eye(g_sl.stop - g_sl.start), 1j / EPS0)
    if corr is not None:
        b_sl = lay._span("beta")
        d_bg = d[b_sl, g_sl].toarray() - op.krein[b_sl, lay._span("alpha")] @ corr
        defect = max(defect, float(np.max(np.abs(d_bg))))
    return defect


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
    b_os: sp.csr_matrix  # B0[O, S] with the unprojected coupling
    a: sp.csr_matrix  # A[S, S] in the gauge
    zb: sp.csr_matrix  # Z B0[O, S] in the gauge, as rows of real and imaginary parts
    null: Optional[np.ndarray]  # unit null vector of A[S, S] whose coordinate 0 was dropped


def _reduce(op: DiscreteOperator) -> _Reduction:
    """Split the state into P = (alpha, eta) and Q = (beta, gamma), where B0 and K are
    block off-diagonal and A = K B0 = diag(T, V) is block diagonal, and make it real.

    S is the side whose energy block is positive definite (P with T for TE, Q with V
    for TM), O the other, and Z a sparse root of the other energy block,
    A[O, O] = Z^H Z. In the i^n gauge of _gauge, A[S, S] is real and each row of
    Z B0[O, S] has one phase, so the nonempty rows of its real and imaginary parts
    have its Gram matrix. At k_par = 0 in TM the constant beta vector spans
    ker A[S, S] = ker Z B0[O, S]; dropping the first beta coordinate leaves a
    positive definite problem with the same nonzero spectrum.
    """
    layout = op.layout
    p_idx = np.r_[layout._span("alpha"), layout._span("eta")]
    q_idx = np.r_[layout._span("beta"), layout._span("gamma")]
    _, _, rho, w_t = _matter_coefficients(layout, op.mats)
    rw = math.sqrt(HBAR * op.grid.h * op.geom.area)
    if op.polarization == "TE":
        # V = Z^H Z with Z = sqrt(w) [[c C, -E / (c eps0)], [0, sqrt(rho) omega_T]] (c^2 eps0 = 1)
        z = rw * sp.bmat([[C * op.ops.curl_ba, -op.kappa_embed / (C * EPS0)],
                          [None, sp.diags(np.sqrt(rho) * w_t)]], format="csr")
        side, other = p_idx, q_idx
    else:
        # T = Z^H Z with Z = sqrt(w) diag(G, rho^-1/2)
        z = rw * sp.block_diag([op.ops.curl_ab, sp.diags(1.0 / np.sqrt(rho))], format="csr")
        side, other = q_idx, p_idx
    b_os = op.b0_sparse[other][:, side]
    phase = _gauge(layout)[side]
    b_gauge = b_os @ sp.diags(phase)
    a = sp.diags(phase.conj()) @ (op.krein[side][:, other] @ b_gauge)
    if np.any(a.data.imag):
        raise SolverContractViolation("energy form is not real in the i^n gauge")
    zb = z @ b_gauge
    zb = sp.vstack([zb.real, zb.imag], format="csr")
    zb.eliminate_zeros()
    a, zb = a.real.tocsr(), zb[np.diff(zb.indptr) > 0]
    null = None
    if op.polarization == "TM" and op.k_par == 0:
        n_beta = layout._span("beta").stop - layout._span("beta").start
        null = np.zeros(side.size)
        null[:n_beta] = 1.0 / math.sqrt(n_beta)
        a, zb = a[1:, 1:], zb[:, 1:]
    return _Reduction(side, other, phase, b_os, a, zb, null)


def _expand(op: DiscreteOperator, red: _Reduction, s: np.ndarray, omegas: np.ndarray,
            norm_tol: float) -> np.ndarray:
    """Full-space eigenvectors, columns with Krein norm sgn(omega), from the real
    reduced S-parts s (columns with s^T a s = 1) of the eigenvalues omega.

    psi = (B0[O, S] s / omega, s) sqrt(|omega| / 2) on (O, S), with the
    transverse-projected coupling in B0[O, S]. An indefinite norm below norm_tol
    in the energy normalization (|omega| above 1/norm_tol) raises
    DegenerateKreinNorm.
    """
    w_max = float(np.max(np.abs(omegas)))
    if w_max * norm_tol > 1.0:
        raise DegenerateKreinNorm(f"eigenvector at |omega| = {w_max:.6g} has vanishing indefinite norm")
    layout = op.layout
    if red.null is not None:
        s = np.vstack([np.zeros((1, s.shape[1])), s])
        s -= np.outer(red.null, red.null @ s)
    s = red.phase[:, None] * s
    o = red.b_os @ s
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
class DiscreteEigenSolution:
    """Full or windowed spectrum with Krein-normalized eigenvectors (full-space)."""

    operator: DiscreteOperator
    omegas: np.ndarray
    vectors: np.ndarray  # columns, Krein-normalized: <<v|v>> = sgn(omega)
    complete: bool = True

    @property
    def krein(self) -> sp.csr_matrix:
        return self.operator.krein


def solve_spectrum(
    op: DiscreteOperator,
    window: Optional[Tuple[float, float]] = None,
    norm_tol: float = 1e-10,
) -> DiscreteEigenSolution:
    """All eigenpairs of the restricted operator (optionally filtered to a window).

    With the Cholesky factor L of A[S, S], omega are the singular values of
    Z B0[O, S] L^{-T} (see _reduce) and s = L^{-T} w on S for its right singular
    vectors w. Eigenvectors are Krein-normalized, <<v|v>> = sgn(omega); an
    indefinite norm below norm_tol in the energy normalization (|omega| above
    1/norm_tol) raises DegenerateKreinNorm.
    """
    red = _reduce(op)
    try:
        l_fac = sla.cholesky(red.a.toarray(), lower=True)
    except sla.LinAlgError as exc:
        raise SolverContractViolation(
            "energy form not positive definite (omega_T > 0 violated or null mode present)"
        ) from exc
    # M^T = L^{-1} (Z B0[O, S])^T: its left singular vectors are the right ones of M
    w_vecs, sigma, _ = sla.svd(sla.solve_triangular(l_fac, red.zb.toarray().T, lower=True),
                               full_matrices=False)
    if sigma[-1] <= np.finfo(float).eps * sigma.size * sigma[0]:
        raise SolverContractViolation("zero frequency: energy form singular on the other half")
    s_vecs = sla.solve_triangular(l_fac, w_vecs, lower=True, trans="T")
    # psi_+- = (o, +-s) on (O, S); omegas ascending
    vectors = _expand(op, red, s_vecs, sigma, norm_tol)
    vectors = np.hstack([vectors, vectors[:, ::-1]])
    vectors[red.side, :sigma.size] *= -1
    omegas = np.concatenate([-sigma, sigma[::-1]])
    complete = True
    if window is not None:
        lo, hi = window
        sel = (omegas >= lo) & (omegas <= hi)
        omegas, vectors = omegas[sel], vectors[:, sel]
        complete = bool(sel.all())
    return DiscreteEigenSolution(op, omegas, vectors, complete)


def solve_windowed(op: DiscreteOperator, sigma: float, count: int = 1) -> DiscreteEigenSolution:
    """The count eigenpairs nearest sigma, ordered by |omega - sigma|, with
    Krein-normalized full-space eigenvectors.

    Shift-invert Lanczos (ARPACK, fixed start vector) on the pencil H x = omega M x
    of _reduce: one sparse LU of H - sigma M, and omega directly (the omega^2 form
    would square the condition number). A single start vector cannot resolve a
    multiple eigenvalue: a cluster such as the omega_L matter modes of a TM box at
    k_par = 0 may come back fewer times than its multiplicity, with farther
    eigenvalues filling the count and no error raised. Raises SolverContractViolation if ARPACK
    does not converge, a residual ||H x - omega M x|| exceeds
    1e-10 max(|sigma|, 1) ||x||, or an omega is zero to that scale.
    """
    red = _reduce(op)
    r = red.zb.shape[0]
    pencil = sp.bmat([[None, red.zb], [red.zb.T, None]], format="csc")
    mass = sp.block_diag([sp.eye(r), red.a], format="csc")
    v0 = np.cos(np.arange(pencil.shape[0]))  # fixed, with weight on every block
    try:
        omegas, x = spla.eigsh(pencil, k=count, M=mass, sigma=sigma, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise SolverContractViolation(f"windowed solve did not converge: {exc}") from exc
    tol = 1e-10 * max(abs(sigma), 1.0)
    resid = np.linalg.norm(pencil @ x - (mass @ x) * omegas, axis=0)
    if np.any(resid > tol * np.linalg.norm(x, axis=0)):
        raise SolverContractViolation(f"windowed solve residuals {resid} at omega {omegas}")
    if np.any(np.abs(omegas) <= tol):  # in TM at k_par = 0 the pencil has one null vector
        raise SolverContractViolation("zero frequency nearest sigma: no mode")
    order = np.argsort(np.abs(omegas - sigma), kind="stable")
    omegas = omegas[order]
    # x^T diag(I, a) x = 1 splits equally between the halves, so s^T a s = 1 for s = sqrt(2) x_S
    vectors = _expand(op, red, math.sqrt(2.0) * x[r:, order], omegas, norm_tol=1e-10)
    return DiscreteEigenSolution(op, omegas, vectors, complete=False)


def krein_inner(sol: DiscreteEigenSolution, m: int, n: int) -> complex:
    """Discrete indefinite inner product <<Psi_m | Psi_n>> of two eigenvectors."""
    return complex(sol.vectors[:, m].conj() @ (sol.krein @ sol.vectors[:, n]))


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
    cg = spla.splu((ops.curl_ba @ ops.curl_ab).tocsc()) if op.polarization == "TE" else None

    def apply(v: np.ndarray) -> np.ndarray:
        out = v.copy()
        if cg is None:
            out[a_sl] -= _longitudinal(ops.div, v[a_sl])
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
    spectrum.
    """
    project, rank = _physical_projector(sol.operator)
    if not sol.complete or sol.omegas.size != rank:
        raise IncompleteSpectrum(f"need all {rank} eigenpairs, have {sol.omegas.size}")
    tv = np.atleast_2d(np.asarray(test_vectors, dtype=complex))
    if tv.shape[0] != sol.vectors.shape[0]:
        tv = tv.T
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
