import importlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

import polmodes.realspace as rs
from polmodes import (
    Layer,
    LayeredGeometry,
    MediumParams,
    bulk_branches,
    default_medium,
    homogeneous_box,
    surface_dispersion_omega,
    vacuum_interface,
    verify,
)
from polmodes.errors import IncompleteSpectrum, ResolutionTooCoarse, SolverContractViolation
from polmodes.realspace import (
    Grid1D,
    assemble_operator,
    assemble_sparse,
    completeness_check,
    reconstruct_node_fields,
    solve_spectrum,
    solve_windowed,
    surface_mode_frequency,
)

from helpers import krein_inner


def gram(sol):
    return sol.vectors.conj().T @ (sol.krein @ sol.vectors)


class TestVacuumBox:
    def test_te_box_modes(self, vacuum_box):
        grid = Grid1D(64, 10.0)
        k_par = 0.5
        op = assemble_operator(vacuum_box, grid, k_par, "TE", strict_resolution=False)
        sol = solve_spectrum(op)
        pos = np.sort(sol.omegas[sol.omegas > 0])[:5]
        # exact eigenvalues of the staggered discretization
        disc = np.array([
            np.hypot(k_par, (2 / grid.h) * np.sin(m * np.pi * grid.h / (2 * grid.lz)))
            for m in range(1, 6)
        ])
        np.testing.assert_allclose(pos, disc, rtol=1e-12)
        # and O(h^2) agreement with the continuum values
        exact = np.array([np.hypot(k_par, m * np.pi / grid.lz) for m in range(1, 6)])
        assert np.max(np.abs(pos - exact)) < 4.0 * grid.h**2

    def test_te_box_mode_convergence(self, vacuum_box):
        errs = []
        for n in (32, 64, 128):
            grid = Grid1D(n, 10.0)
            op = assemble_operator(vacuum_box, grid, 0.5, "TE", strict_resolution=False)
            sol = solve_spectrum(op)
            w1 = np.sort(sol.omegas[sol.omegas > 0])[2]
            errs.append(abs(w1 - np.hypot(0.5, 3 * np.pi / 10.0)))
        assert 3.6 < errs[0] / errs[1] < 4.4
        assert 3.6 < errs[1] / errs[2] < 4.4


class TestMatterBox:
    def test_longitudinal_cluster_and_bulk_branches(self, medium):
        geom = homogeneous_box(medium, 10.0)
        grid = Grid1D(48, 10.0)
        op = assemble_operator(geom, grid, 0.0, "TM", strict_resolution=False)
        sol = solve_spectrum(op)
        pos = np.sort(sol.omegas[sol.omegas > 0])
        # the z-polarized matter sector contributes one +omega_L mode per half point
        n_cluster = int(np.sum(np.abs(pos - medium.omega_L) < 1e-9))
        assert n_cluster == grid.n
        # polariton branches at the discrete sine wavenumbers, exact to roundoff
        kd = (2 / grid.h) * np.sin(np.arange(1, 6) * np.pi * grid.h / (2 * grid.lz))
        bl, _ = bulk_branches(medium, kd)
        np.testing.assert_allclose(pos[:5], bl, rtol=1e-12)

    def test_decoupled_matter_at_omega_t(self):
        decoupled = MediumParams(omega_T=1.0, rho=1.0, kappa=0.0)
        geom = homogeneous_box(decoupled, 10.0)
        grid = Grid1D(32, 10.0)
        op = assemble_operator(geom, grid, 0.4, "TE", strict_resolution=False)
        sol = solve_spectrum(op)
        pos = np.sort(sol.omegas[sol.omegas > 0])
        n_matter = int(np.sum(np.abs(pos - 1.0) < 1e-12))
        assert n_matter == grid.n - 1  # every interior matter node, exactly omega_T
        light = pos[np.abs(pos - 1.0) >= 1e-12]
        disc = np.array([
            np.hypot(0.4, (2 / grid.h) * np.sin(m * np.pi * grid.h / (2 * grid.lz)))
            for m in range(1, light.size + 1)
        ])
        np.testing.assert_allclose(np.sort(light), disc, rtol=1e-12)


class TestKreinStructure:
    @pytest.mark.parametrize("polarization,k_par", [("TE", 0.8), ("TM", 0.8), ("TM", 0.0)])
    def test_self_adjointness(self, polarization, k_par):
        res = verify.check_realspace_self_adjoint(n=96, cases=((polarization, k_par),))
        assert res.passed, res.describe()

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    def test_pairing_orthonormality_completeness(self, polarization):
        # exact +/- pairing, no zero modes, Krein gram = diag(sgn omega), residuals, completeness
        res = verify.check_realspace_spectrum(n=96, cases=((polarization, 0.8),), vectors=6, seed=2024)
        assert res.passed, res.describe()

    def test_static_tm_interface(self, medium):
        # k_par = 0: the constant beta vector is an exact null direction of the energy form
        geom = vacuum_interface(medium, 40.0)
        grid = Grid1D(96, 40.0)
        op = assemble_operator(geom, grid, 0.0, "TM", strict_resolution=False)
        n_matter = op.layout._span("gamma").stop - op.layout._span("gamma").start
        assert solve_spectrum(op).omegas.size == 2 * (grid.n - 1 + n_matter)
        res = verify.check_realspace_spectrum(n=96, cases=(("TM", 0.0),), vectors=6, seed=2024)
        assert res.passed, res.describe()

    def test_krein_inner_signature(self, medium):
        geom = vacuum_interface(medium, 40.0)
        op = assemble_operator(geom, Grid1D(64, 40.0), 0.8, "TM", strict_resolution=False)
        sol = solve_spectrum(op)
        i_pos = int(np.argmax(sol.omegas > 0))
        assert krein_inner(sol, i_pos, i_pos) == pytest.approx(1.0, abs=1e-10)
        assert krein_inner(sol, 0, 0) == pytest.approx(-1.0, abs=1e-10)
        assert abs(krein_inner(sol, i_pos, i_pos + 1)) < 1e-8

    def test_orthogonality_surface_vs_propagating(self, medium):
        # surface-localized and delocalized TM modes at the same k_par
        geom = vacuum_interface(medium, 40.0)
        op = assemble_operator(geom, Grid1D(200, 40.0), 2.0, "TM", strict_resolution=False)
        sol = solve_spectrum(op)
        ws = surface_dispersion_omega(medium, 2.0)
        i_surf = int(np.argmin(np.abs(sol.omegas - ws)))
        others = [i for i in range(sol.omegas.size) if i != i_surf][:50]
        worst = max(abs(krein_inner(sol, i_surf, j)) for j in others)
        assert worst < 1e-8

    def test_completeness_requires_full_spectrum(self, medium, rng):
        geom = vacuum_interface(medium, 40.0)
        op = assemble_operator(geom, Grid1D(64, 40.0), 0.8, "TE", strict_resolution=False)
        full = solve_spectrum(op)
        tv = rng.standard_normal((op.layout.dim, 2))
        partial = rs.DiscreteEigenSolution(op, full.omegas[1:], full.vectors[:, 1:])
        for sol in (partial, solve_windowed(op, 1.1)):
            with pytest.raises(IncompleteSpectrum):
                completeness_check(sol, tv)

    def test_eigenvector_on_projector(self, medium, rng):
        # applying the signed resolution of identity to an eigenvector returns it
        geom = vacuum_interface(medium, 40.0)
        op = assemble_operator(geom, Grid1D(64, 40.0), 0.8, "TE", strict_resolution=False)
        sol = solve_spectrum(op)
        v = sol.vectors[:, 3]
        rep = completeness_check(sol, v[:, None])
        assert rep.max_deviation < 1e-10
        for wrong in (v, v[None, :]):  # test vectors are columns; nothing else is guessed
            with pytest.raises(ValueError):
                completeness_check(sol, wrong)


class TestSingleAssembly:
    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("with_matter", [False, True])
    def test_dense_operator_is_sparse_with_projected_coupling(self, medium, polarization,
                                                              with_matter):
        geom = vacuum_interface(medium, 40.0) if with_matter else homogeneous_box(None, 40.0)
        grid = Grid1D(96, 40.0)
        op = assemble_operator(geom, grid, 0.8, polarization, strict_resolution=False)
        assert "b0" not in op.__dict__  # assembly builds nothing dense
        layout = op.layout
        a_sl, g_sl = layout._span("alpha"), layout._span("gamma")
        assert (g_sl.stop > g_sl.start) == with_matter
        # every block but the (alpha, gamma) coupling is the sparse B0 itself
        diff = op.b0 - op.b0_sparse.toarray()
        coupling = op.b0_sparse.toarray()[a_sl, g_sl]
        delta = diff[a_sl, g_sl].copy()
        diff[a_sl, g_sl] = 0
        assert np.all(diff == 0)
        if polarization == "TM" and with_matter:
            # the projection removes a discrete gradient: curl-free, and the result is div-free
            div, curl = op.ops.div, op.ops.curl_ab
            assert np.linalg.norm(div @ op.b0[a_sl, g_sl]) <= 1e-12 * np.linalg.norm(div @ coupling)
            assert np.linalg.norm(curl @ delta) <= 1e-12 * np.linalg.norm(curl @ coupling)
        else:
            assert np.all(delta == 0)
        assert sp.issparse(op.b0_sparse) and sp.issparse(op.krein)
        assert op.krein.nnz <= 4 * layout.dim

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("k_par", [0.0, 0.37, 2.0])
    @pytest.mark.parametrize("geometry", ["interface", "vacuum box", "kappa = 0"])
    def test_triplets_match_sparse_constructors(self, medium, polarization, k_par, geometry):
        # the same arrays, bit for bit, as the sparse constructors give: no explicit zero for
        # the k_par blocks at k_par = 0, an explicit zero coupling where kappa = 0, signed zeros
        geom = {"interface": vacuum_interface(medium, 40.0), "vacuum box": homogeneous_box(None, 40.0),
                "kappa = 0": vacuum_interface(MediumParams(1.0, 1.0, 0.0), 40.0)}[geometry]
        op = assemble_operator(geom, Grid1D(64, 40.0), k_par, polarization, strict_resolution=False)
        got = {"curl_ba": op.ops.curl_ba, "curl_ab": op.ops.curl_ab, "div": op.ops.div, "grad": op.ops.grad,
               "b0_sparse": op.b0_sparse, "krein": op.krein}
        for name, ref in _reference_assembly(op).items():
            mat = got[name]
            if ref is None:
                assert mat is None, name
                continue
            assert (mat.format, mat.dtype, mat.shape) == (ref.format, ref.dtype, ref.shape), name
            for arr in ("indptr", "indices", "data"):
                assert getattr(mat, arr).tobytes() == getattr(ref, arr).tobytes(), (name, arr)

    @pytest.mark.parametrize("with_matter", [False, True])
    def test_one_poisson_factorization_per_operator(self, medium, monkeypatch, with_matter):
        # every coupling correction and both projections of completeness_check share one LU of
        # LAP = DIV GRAD; the defect needs none
        geom = vacuum_interface(medium, 40.0) if with_matter else homogeneous_box(None, 40.0)
        factored, spla_splu = [], spla.splu

        def splu(a, *args, **kwargs):
            factored.append(a.shape)
            return spla_splu(a, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", splu)
        op = assemble_operator(geom, Grid1D(64, 40.0), 0.8, "TM", strict_resolution=False)
        sol = solve_spectrum(op)
        completeness_check(sol, np.ones((op.layout.dim, 2)))
        reconstruct_node_fields(op, sol.vectors[:, 0], float(sol.omegas[0]))
        op.apply(sol.vectors[:, 0])
        rs.self_adjointness_defect(op)
        assert factored == [(63, 63)]
        # TE: the projector of every completeness_check shares one LU of C G
        factored.clear()
        op = assemble_operator(geom, Grid1D(64, 40.0), 0.8, "TE", strict_resolution=False)
        sol = solve_spectrum(op)
        for _ in range(2):
            completeness_check(sol, np.ones((op.layout.dim, 2)))
        assert factored == [(63, 63)]

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("k_par", [0.0, 2.0])
    def test_apply_is_dense_b0_times_v(self, interface, rng, polarization, k_par):
        op = assemble_operator(interface, Grid1D(96, 40.0), k_par, polarization, strict_resolution=False)
        v = rng.standard_normal((op.layout.dim, 3)) + 1j * rng.standard_normal((op.layout.dim, 3))
        got = op.apply(v)
        assert "b0" not in op.__dict__  # apply densifies nothing
        ref = op.b0 @ v
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        assert np.linalg.norm(op.apply(v[:, 1]) - got[:, 1]) <= 1e-14 * np.linalg.norm(got[:, 1])  # one vector


def _reference_assembly(op):
    """C, G, DIV, GRAD, B0 and K from SciPy's sparse constructors: the reference that
    assemble_operator's triplets must reproduce bit for bit."""
    n, h, k_par = op.grid.n, op.grid.h, op.k_par
    d_hi = sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n - 1, n), format="csr")
    if op.polarization == "TE":
        c = sp.hstack([d_hi, 1j * k_par * sp.eye(n - 1)], format="csr")
        div = grad = None
    else:
        c = sp.vstack([-d_hi, -1j * k_par * sp.eye(n)], format="csr")
        div = sp.diags([-1j * k_par, -1.0 / h, 1.0 / h], [0, n - 1, n], shape=(n - 1, 2 * n - 1), format="csr")
        grad = -div.conj().T
    g = c.conj().T.tocsr()
    rows, kap, rho, w_t = rs._matter_coefficients(op.layout, op.mats)
    e_kappa = sp.csr_matrix((kap, (rows, np.arange(rows.size))), shape=(c.shape[0], rows.size))

    def block_layout(ab, ag, ba, ge, eb, eg):
        n_a, n_b, n_m = ba.shape[1], ba.shape[0], ge.shape[0]
        g0, e0 = n_a + n_b, n_a + n_b + n_m
        placed = [(blk.tocoo(), r0, c0) for blk, r0, c0 in
                  ((ab, 0, n_a), (ag, 0, g0), (ba, n_a, 0), (ge, g0, e0), (eb, e0, n_a), (eg, e0, g0))
                  if blk is not None]
        data = np.concatenate([blk.data for blk, _, _ in placed]).astype(complex, copy=False)
        rows = np.concatenate([blk.row + r0 for blk, r0, _ in placed])
        cols = np.concatenate([blk.col + c0 for blk, _, c0 in placed])
        return sp.csr_matrix((data, (rows, cols)), shape=(e0 + n_m, e0 + n_m))

    rho_wl2 = rho * rs._Materials.omega_L2(kap, rho, w_t)
    b0 = block_layout(-1j * rs.C**2 * c, (1j / rs.EPS0) * e_kappa, 1j * g, 1j * sp.diags(1.0 / rho),
                      1j * rs.C**2 * (e_kappa.conj().T @ c), -1j * sp.diags(rho_wl2))
    w = rs.HBAR * h * op.geom.area
    eye = sp.eye(rows.size)
    krein = block_layout(-1j * w * c, None, 1j * w * g, 1j * w * eye, None, -1j * w * eye)
    return {"curl_ba": c, "curl_ab": g, "div": div, "grad": grad, "b0_sparse": b0, "krein": krein}


def _dense_defect(op):
    kb = op.krein @ op.b0
    return np.max(np.abs(kb - (op.krein.conj().T @ op.b0).conj().T)), np.max(np.abs(kb))


def _defect_with_dense_correction(op):
    """The defect with the (beta, gamma) block corrected by K[beta, alpha] X for the dense
    coupling correction X of every gamma unit vector."""
    kb = op.krein @ op.b0_sparse
    d = kb - kb.conj().T
    lay = op.layout
    b_sl, g_sl = lay._span("beta"), lay._span("gamma")
    defect = np.max(np.abs(d.data), initial=0.0)
    corr = rs._coupling_correction(op, np.eye(g_sl.stop - g_sl.start), 1j / rs.EPS0)
    if corr is None:
        return defect
    d_bg = d[b_sl, g_sl].toarray() - op.krein[b_sl, lay._span("alpha")] @ corr
    return max(defect, np.max(np.abs(d_bg)))


class TestSparseDefect:
    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("k_par", [0.0, 2.0])
    @pytest.mark.parametrize("with_matter", [False, True])
    def test_equals_dense_defect(self, medium, polarization, k_par, with_matter):
        geom = vacuum_interface(medium, 40.0) if with_matter else homogeneous_box(None, 40.0)
        op = assemble_operator(geom, Grid1D(96, 40.0), k_par, polarization, strict_resolution=False)
        defect = rs.self_adjointness_defect(op)
        dense, scale = _dense_defect(op)
        assert abs(defect - dense) <= 1e-15 * scale
        assert defect <= 1e-15 * scale

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    def test_flags_perturbed_coupling_entry(self, interface, polarization):
        op = assemble_operator(interface, Grid1D(96, 40.0), 2.0, polarization, strict_resolution=False)
        row = op.kappa_embed.nonzero()[0][5]
        col = op.layout._span("gamma").start + 5
        b0 = op.b0_sparse.tolil()
        b0[row, col] *= 1.0 + 1e-6
        op.b0_sparse = b0.tocsr()
        defect = rs.self_adjointness_defect(op)
        dense, scale = _dense_defect(op)
        assert defect >= dense > 1e-8 * scale

    def test_flags_correction_that_is_no_gradient(self, interface, monkeypatch):
        # the defect drops K[beta, alpha] X because curl GRAD = 0; assembly checks that once
        build = rs._build_operators

        def par_part(grid, k_par, polarization):  # the gradient's alpha_par part alone is not curl-free
            ops = build(grid, k_par, polarization)
            grad = ops.grad.tolil()
            grad[grad.shape[1]:] = 0
            return rs._Operators(ops.curl_ba, ops.curl_ab, ops.div, grad.tocsc())

        monkeypatch.setattr(rs, "_build_operators", par_part)
        with pytest.raises(SolverContractViolation, match="not exact"):
            assemble_operator(interface, Grid1D(96, 40.0), 2.0, "TM", strict_resolution=False)

    @pytest.mark.parametrize("n,cases", [(128, (("TE", 2.0), ("TM", 2.0))),
                                         (96, (("TE", 0.8), ("TM", 0.8), ("TM", 0.0)))])
    def test_matches_dense_correction_at_verify_sizes(self, n, cases):
        for polarization, k_par in cases:
            op = verify._interface_operator(n, polarization, k_par)
            scale = abs(op.krein @ op.b0_sparse).max()
            got = rs.self_adjointness_defect(op)
            assert abs(got - _defect_with_dense_correction(op)) <= 1e-15 * scale

    def test_memory_is_linear_in_dim(self, interface):
        op = assemble_operator(interface, Grid1D(2000, 40.0), 2.0, "TM", strict_resolution=False)
        tracemalloc.start()
        try:
            rs.self_adjointness_defect(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # a dense n_gamma block alone would take 2000^2 * 16 bytes

    def test_reads_no_dense_b0(self, interface, monkeypatch):
        op = assemble_operator(interface, Grid1D(96, 40.0), 2.0, "TM", strict_resolution=False)
        rs.self_adjointness_defect(op)
        assert "b0" not in op.__dict__
        built = []

        def spy(*args, **kwargs):
            built.append(assemble_operator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(rs, "assemble_operator", spy)
        assert verify.check_realspace_self_adjoint(n=96).passed
        assert len(built) == 2 and all("b0" not in op.__dict__ for op in built)


class TestSurfaceMode:
    def test_surface_eigenvalue_dense_vs_sparse(self, medium, monkeypatch):
        geom = vacuum_interface(medium, 40.0)
        ws = surface_dispersion_omega(medium, 2.0)
        grid = Grid1D(200, 40.0)
        op = assemble_operator(geom, grid, 2.0, "TM", strict_resolution=False)
        sol = solve_spectrum(op)
        assert "b0" not in op.__dict__  # the full solve reads only sparse blocks
        w_dense = sol.omegas[np.argmin(np.abs(sol.omegas - ws))]
        built = []

        def spy(*args, **kwargs):
            built.append(assemble_operator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(rs, "assemble_operator", spy)
        w_sparse = surface_mode_frequency(geom, grid, 2.0, sigma=ws * 1.001,
                                          strict_resolution=False)
        assert len(built) == 1 and "b0" not in built[0].__dict__
        assert w_sparse == pytest.approx(w_dense, rel=1e-9)
        assert w_sparse == pytest.approx(ws, rel=5e-3)

    def test_surface_profile_matches_analytic(self, medium):
        from polmodes import ModeClass, ModeIndex, make_mode

        geom = vacuum_interface(medium, 40.0)
        grid = Grid1D(400, 40.0)
        ws = surface_dispersion_omega(medium, 2.0)
        op = assemble_operator(geom, grid, 2.0, "TM", strict_resolution=False)
        sol = solve_spectrum(op)
        i = int(np.argmin(np.abs(sol.omegas - ws)))
        fields = reconstruct_node_fields(op, sol.vectors[:, i], float(sol.omegas[i]))
        theta_num = fields["theta"][:, 0]  # e_par component on the nodes
        mode = make_mode(geom, ModeIndex(ModeClass.S, (2.0, 0.0)))
        theta_ana = mode.theta.profile.evaluate(grid.nodes)[:, 0]
        # normalized overlap close to 1 (profiles agree up to a constant)
        overlap = abs(np.vdot(theta_ana, theta_num)) / (
            np.linalg.norm(theta_ana) * np.linalg.norm(theta_num))
        assert overlap > 0.9999

    @staticmethod
    def _count_traffic(monkeypatch):
        """Count the band factors and band solves of the windowed solve, and every SuperLU
        factor, through scipy.sparse.linalg and ARPACK's own import of splu."""
        calls = {"dgbtrf": 0, "dgbtrs": 0, "splu": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for name in ("dgbtrf", "dgbtrs"):
            monkeypatch.setattr(lapack, name, counted(name, getattr(lapack, name)))
        splu = counted("splu", spla.splu)
        monkeypatch.setattr(spla, "splu", splu)
        monkeypatch.setattr(importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack"), "splu", splu)
        return calls

    def test_one_factorization_per_surface_solve(self, medium, interface, monkeypatch):
        # one band LU of the shifted pencil and no SuperLU factor: the eigenvector, and with it
        # the Poisson LU, is never built
        calls = self._count_traffic(monkeypatch)
        sigma = surface_dispersion_omega(medium, 2.0) * 1.001
        surface_mode_frequency(interface, Grid1D(1000, 40.0), 2.0, sigma, strict_resolution=False)
        assert calls["dgbtrf"] == 1 and calls["splu"] == 0

    def test_surface_solve_fills_the_basis_once(self, medium, interface, monkeypatch):
        # an isolated eigenvalue near the shift converges in one fill of the 12-vector basis:
        # 13 shift-invert solves (SciPy's default basis of 20 takes 21)
        calls = self._count_traffic(monkeypatch)
        sigma = surface_dispersion_omega(medium, 2.0) * 1.001
        surface_mode_frequency(interface, Grid1D(1000, 40.0), 2.0, sigma, strict_resolution=False)
        assert calls["dgbtrf"] == 1 and calls["dgbtrs"] <= 13 and calls["splu"] == 0

    def test_sparse_matches_dense_generic(self, medium):
        geom = vacuum_interface(medium, 40.0)
        grid = Grid1D(128, 40.0)
        op = assemble_operator(geom, grid, 0.8, "TM", strict_resolution=False)
        dense = solve_spectrum(op)
        target = 1.5
        sol = solve_windowed(op, sigma=target)
        assert sol.omegas.shape == (1,) and sol.vectors.shape == (op.layout.dim, 1)
        nearest = dense.omegas[np.argmin(np.abs(dense.omegas - target))]
        assert sol.omegas[0] == pytest.approx(nearest, rel=1e-10)


@pytest.fixture(scope="module")
def dense_spectra():
    """Full spectra on the n = 128 interface, one per (polarization, k_par)."""
    geom = vacuum_interface(default_medium(), 40.0)
    cache = {}

    def get(polarization, k_par):
        if (polarization, k_par) not in cache:
            op = assemble_operator(geom, Grid1D(128, 40.0), k_par, polarization,
                                   strict_resolution=False)
            cache[polarization, k_par] = solve_spectrum(op)
        return cache[polarization, k_par]

    return get


class TestWindowedSolve:
    @pytest.mark.parametrize("sigma", ["0.5", "omega_T", "omega_L+1e-4", "-1.1"])
    @pytest.mark.parametrize("polarization,k_par",
                             [("TE", 0.8), ("TE", 0.0), ("TM", 0.8), ("TM", 0.0)])
    def test_matches_dense_spectrum(self, medium, dense_spectra, polarization, k_par, sigma):
        shift = {"0.5": 0.5, "omega_T": medium.omega_T, "omega_L+1e-4": medium.omega_L + 1e-4,
                 "-1.1": -1.1}[sigma]
        dense = dense_spectra(polarization, k_par)
        op = dense.operator
        sol = solve_windowed(op, shift)
        nearest = dense.omegas[np.argmin(np.abs(dense.omegas - shift))]
        np.testing.assert_allclose(sol.omegas, [nearest], rtol=1e-10)
        g = gram(sol)
        assert np.max(np.abs(np.diag(g) - np.sign(sol.omegas))) < 1e-8
        resid = np.linalg.norm(op.b0 @ sol.vectors - sol.vectors * sol.omegas[None, :],
                               axis=0) / np.linalg.norm(sol.vectors, axis=0)
        assert np.max(resid) <= 1e-10
        # the profile of a simple eigenvalue agrees with the dense mode's; a degenerate cluster
        # (the omega_L matter modes) has no preferred basis
        w = float(sol.omegas[0])
        dist = np.abs(dense.omegas - w)
        if np.sort(dist)[1] >= 1e-8:
            i = int(np.argmin(dist))
            win = reconstruct_node_fields(op, sol.vectors[:, 0], w)["theta"].ravel()
            ref = reconstruct_node_fields(op, dense.vectors[:, i], float(dense.omegas[i]))
            ref = ref["theta"].ravel()
            overlap = abs(np.vdot(ref, win)) / (np.linalg.norm(ref) * np.linalg.norm(win))
            assert overlap > 0.9999

    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("k_par", [0.0, 0.8])
    def test_shift_sweep_finds_every_eigenvalue(self, interface, polarization, k_par):
        # a shift a quarter of the gap above each distinct positive eigenvalue, so the nearest
        # one is always below it; the 12-vector basis converges at all of them
        op = assemble_operator(interface, Grid1D(64, 40.0), k_par, polarization, strict_resolution=False)
        w = solve_spectrum(op).omegas
        w = w[w > 0]
        w = w[np.r_[True, np.diff(w) > 1e-10 * w[1:]]]
        found = [solve_windowed(op, lo + 0.25 * (hi - lo)).omegas[0] for lo, hi in zip(w[:-1], w[1:])]
        np.testing.assert_allclose(found, w[:-1], rtol=1e-10)

    @pytest.mark.parametrize("geometry", ["interface", "matter box", "vacuum box"])
    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("k_par", [0.0, 0.8])
    @pytest.mark.parametrize("n", [64, 4000])
    def test_grid_order_is_banded(self, medium, geometry, polarization, k_par, n):
        # the band LU costs O(n kl^2) in O(n kl) storage only while the grid order keeps the
        # widths fixed; a broken order makes them grow with n, towards dense work
        geom = {"interface": vacuum_interface(medium, 40.0), "matter box": homogeneous_box(medium, 40.0),
                "vacuum box": homogeneous_box(None, 40.0)}[geometry]
        op = assemble_operator(geom, Grid1D(n, 40.0), k_par, polarization, strict_resolution=False)
        red = rs._reduce(op)
        grid = rs._grid_pencil(red)
        assert grid.kl <= 10 and grid.kd <= 3
        # the widths are those of the pencil and of a themselves
        r = red.zb.shape[0]
        zb, a = red.zb.tocoo(), red.a.tocoo()
        pencil = np.abs(grid.slot[zb.row] - grid.slot[r + zb.col]).max()
        pencil = max(pencil, np.abs(grid.slot[r + a.row] - grid.slot[r + a.col]).max())
        assert grid.kl == pencil
        s_rank = np.argsort(np.argsort(grid.slot[r:]))
        assert grid.kd == np.abs(s_rank[a.row] - s_rank[a.col]).max()

    @pytest.mark.parametrize("polarization,k_par", [("TE", 0.8), ("TM", 0.0), ("TM", 2.0)])
    def test_standard_form_operators(self, interface, monkeypatch, rng, polarization, k_par):
        # ARPACK gets the symmetric standard-form matrix and its shift-invert operator: they are
        # inverse to each other after the shift, and the eigenpair satisfies the standard form
        op = assemble_operator(interface, Grid1D(128, 40.0), k_par, polarization, strict_resolution=False)
        seen, eigsh = {}, spla.eigsh

        def spy(a, **kwargs):
            seen.update(a=a, opinv=kwargs["OPinv"])
            seen["result"] = eigsh(a, **kwargs)
            return seen["result"]

        monkeypatch.setattr(spla, "eigsh", spy)
        sigma = 1.1
        solve_windowed(op, sigma)
        hs, opinv = seen["a"], seen["opinv"]
        v = rng.standard_normal((hs.shape[0], 2))
        back = opinv.matvec(hs.matvec(v[:, 0]) - sigma * v[:, 0])
        assert np.linalg.norm(back - v[:, 0]) <= 1e-10 * np.linalg.norm(v[:, 0])
        assert v[:, 1] @ hs.matvec(v[:, 0]) == pytest.approx(v[:, 0] @ hs.matvec(v[:, 1]), rel=1e-12)
        omegas, u = seen["result"]
        assert np.linalg.norm(hs.matvec(u[:, 0]) - omegas[0] * u[:, 0]) <= 1e-10

    def test_multiple_eigenvalue_returns_one_copy(self, medium):
        # the TM box at k_par = 0 holds 128 degenerate matter modes at omega_L; the windowed
        # solve returns one of them
        op = assemble_operator(vacuum_interface(medium, 40.0), Grid1D(256, 40.0), 0.0, "TM",
                               strict_resolution=False)
        sigma = medium.omega_L + 1e-4
        dense = solve_spectrum(op).omegas
        assert np.sum(np.abs(dense - medium.omega_L) < 1e-9) == 128
        np.testing.assert_allclose(solve_windowed(op, sigma).omegas, [medium.omega_L], rtol=1e-10)

    @pytest.mark.parametrize("geometry", ["interface", "matter box"])
    def test_singular_shift_is_a_contract_violation(self, medium, geometry):
        # at k_par = 0 in TM the reduced pencil has a null vector, so H - 0 M is exactly singular
        geom = vacuum_interface(medium, 40.0) if geometry == "interface" else homogeneous_box(medium, 40.0)
        grid = Grid1D(64, 40.0)
        op = assemble_operator(geom, grid, 0.0, "TM", strict_resolution=False)
        with pytest.raises(SolverContractViolation, match="sigma = 0.0"):
            solve_windowed(op, 0.0)
        with pytest.raises(SolverContractViolation, match="sigma = 0.0"):
            surface_mode_frequency(geom, grid, 0.0, 0.0, strict_resolution=False)

    def test_zero_frequency_is_not_a_mode(self, dense_spectra):
        # in TM at k_par = 0 the reduced pencil keeps one null vector, which is no mode
        with pytest.raises(SolverContractViolation, match="zero frequency"):
            solve_windowed(dense_spectra("TM", 0.0).operator, 0.01)


def _slab(medium):
    """A polar film between two vacuum layers: two lumped boundary nodes."""
    return LayeredGeometry((Layer(-20.0, -5.0, None), Layer(-5.0, 5.0, medium), Layer(5.0, 20.0, None)), 1.0)


def _generic_reduction(op):
    """The reduction derived generically from the assembled B0 and K, the reference for the
    stencils of _reduce: K[S, O] B0[O, S] and Z B0[O, S] in the i^n gauge, made real, with the
    empty rows of Z B0[O, S] dropped. Returns side, other, phase, the grid positions of S,
    B0[O, S], a, zb, z_rows (the row of Z behind each row of zb) and the null vector."""
    layout = op.layout
    p_idx = np.r_[layout._span("alpha"), layout._span("eta")]
    q_idx = np.r_[layout._span("beta"), layout._span("gamma")]
    rows, kap, rho, w_t = rs._matter_coefficients(layout, op.mats)
    rw = np.sqrt(rs.HBAR * op.grid.h * op.geom.area)
    n_a, n_b = op.ops.curl_ba.shape
    m = np.arange(rows.size)
    if op.polarization == "TE":
        # V = Z^H Z with Z = sqrt(w) [[c C, -E / (c eps0)], [0, sqrt(rho) omega_T]]
        c = op.ops.curl_ba.tocoo()
        z = sp.csr_matrix((np.concatenate((c.data * rs.C, -kap / (rs.C * rs.EPS0), np.sqrt(rho) * w_t)) * rw,
                           (np.concatenate((c.row, rows, n_a + m)), np.concatenate((c.col, n_b + m, n_b + m)))),
                          shape=(n_a + m.size, n_b + m.size))
        side, other = p_idx, q_idx
    else:
        # T = Z^H Z with Z = sqrt(w) diag(G, rho^-1/2)
        g = op.ops.curl_ab.tocoo()
        z = sp.csr_matrix((np.concatenate((g.data, 1.0 / np.sqrt(rho))) * rw,
                           (np.concatenate((g.row, n_b + m)), np.concatenate((g.col, n_a + m)))),
                          shape=(n_b + m.size, n_a + m.size))
        side, other = q_idx, p_idx

    def block(mat, rows, cols):
        sub = mat.tocsr()[rows]
        assert sub[:, np.setdiff1d(np.arange(mat.shape[1]), cols)].nnz == 0, "B0 or K couples P to P or Q to Q"
        return sub[:, cols]

    b_os = block(op.b0_sparse, other, side)
    phase = rs._gauge(layout)[side]
    b_gauge = b_os @ sp.diags(phase)
    a = sp.diags(phase.conj()) @ (block(op.krein, side, other) @ b_gauge)
    assert not np.any(a.data.imag), "energy form is not real in the i^n gauge"
    zb = z @ b_gauge
    zb = sp.vstack([zb.real, zb.imag], format="csr")
    zb.eliminate_zeros()
    z_rows = np.flatnonzero(np.diff(zb.indptr))
    a, zb = a.real.tocsr(), zb[z_rows]
    null = None
    if op.polarization == "TM" and op.k_par == 0:
        n_beta = layout._span("beta").stop - layout._span("beta").start
        null = np.zeros(side.size)
        null[:n_beta] = 1.0 / np.sqrt(n_beta)
        a, zb = a[1:, 1:], zb[:, 1:]
    position = np.empty(layout.dim)
    for name in layout.blocks:
        sl = layout.slices[name]
        idx = layout.matter_index.get(name, np.arange(sl.stop - sl.start))
        position[sl] = idx + (0.5 if name in layout.halves else 1.0)
    return side, other, phase, position[side], b_os, a, zb, z_rows % side.size, null


class TestStencilReduction:
    @pytest.mark.parametrize("n", [64, 1000])
    @pytest.mark.parametrize("geometry", ["interface", "matter box", "vacuum box", "slab"])
    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("k_par", [0.0, 0.37, 2.0])
    def test_matches_generic_derivation(self, medium, rng, n, geometry, polarization, k_par):
        geom = {"interface": vacuum_interface(medium, 40.0), "matter box": homogeneous_box(medium, 40.0),
                "vacuum box": homogeneous_box(None, 40.0), "slab": _slab(medium)}[geometry]
        op = assemble_operator(geom, Grid1D(n, 40.0), k_par, polarization, strict_resolution=False)
        lumped = np.count_nonzero((op.mats.rho_node > 0) & (op.mats.rho_node < medium.rho))
        assert lumped == {"interface": 1, "slab": 2}.get(geometry, 0)
        red = rs._reduce(op)
        side, other, phase, position, b_os, a, zb, z_rows, null = _generic_reduction(op)
        assert np.array_equal(red.side, side) and np.array_equal(red.other, other)
        assert np.array_equal(red.phase, phase) and np.array_equal(red.position, position)
        # every row of Z B0[O, S] is real or imaginary, and none is empty: row i of zb is the
        # row of Z at S coordinate i
        assert np.array_equal(z_rows, np.arange(side.size))
        for got, ref in ((red.a, a), (red.zb, zb)):
            # one entry per position and none that the product leaves out (the k_par entries at
            # k_par = 0), each equal to the product's
            assert got.shape == ref.shape and got.nnz == got.tocsr().nnz == ref.nnz
            assert abs(got.tocsr() - ref).max() <= 1e-15 * abs(ref).max()
        assert (red.null is None) == (null is None) and (null is None or np.array_equal(red.null, null))
        # the expansion reads B0[O, S] with the projected coupling, as B0[O, S] s less the correction
        s = rng.standard_normal((side.size, 2))
        omegas = np.array([-0.7, 1.3])
        got = rs._expand(op, red, s, omegas)
        s_gauge = phase[:, None] * s
        o = b_os @ s_gauge
        corr = rs._coupling_correction(op, s_gauge[op.layout._span("gamma").start - op.layout._span("beta").start:],
                                       1j / rs.EPS0)
        if corr is not None:
            o[: corr.shape[0]] -= corr
        scale = np.sqrt(0.5 * np.abs(omegas))
        assert np.max(np.abs(got[other] - o * scale / omegas)) <= 1e-15 * np.max(np.abs(o * scale / omegas))
        assert np.array_equal(got[side], s_gauge * scale)


class TestLazyAssembly:
    FULL_SPACE = {"b0_sparse", "krein", "kappa_embed"}

    def test_surface_mode_frequency_builds_no_full_space_matrix(self, medium, interface, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(assemble_operator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(rs, "assemble_operator", spy)
        sigma = surface_dispersion_omega(medium, 2.0) * 1.001
        surface_mode_frequency(interface, Grid1D(1000, 40.0), 2.0, sigma, strict_resolution=False)
        assert len(built) == 1 and not self.FULL_SPACE & set(built[0].__dict__)

    @pytest.mark.parametrize("polarization,k_par", [("TE", 0.8), ("TM", 0.0), ("TM", 2.0)])
    def test_windowed_solve_builds_none_until_expanded(self, interface, polarization, k_par):
        op = assemble_operator(interface, Grid1D(256, 40.0), k_par, polarization, strict_resolution=False)
        sigma = 1.1
        sol = solve_windowed(op, sigma)
        assert not self.FULL_SPACE & set(op.__dict__)
        v = sol.columns([0])
        resid = np.linalg.norm(op.apply(v) - sol.omegas[0] * v)
        assert resid <= 1e-10 * max(abs(sigma), 1.0) * np.linalg.norm(v)


class TestOnDemandVectors:
    @pytest.mark.parametrize("polarization", ["TE", "TM"])
    @pytest.mark.parametrize("k_par", [0.0, 0.8])
    def test_columns_are_vectors_bit_for_bit(self, interface, polarization, k_par):
        op = assemble_operator(interface, Grid1D(64, 40.0), k_par, polarization, strict_resolution=False)
        sol = solve_spectrum(op)
        assert "vectors" not in sol.__dict__  # the solve expands nothing
        m = sol.omegas.size // 2
        idx = [0, m - 1, m, 2 * m - 1, 5, 2 * m - 6, 5]  # mirrored and direct columns, a repeat
        cols = sol.columns(idx)
        one_by_one = np.column_stack([sol.columns([i]) for i in range(2 * m)])
        assert "vectors" not in sol.__dict__
        assert np.array_equal(cols, sol.vectors[:, idx]) and np.array_equal(one_by_one, sol.vectors)
        assert np.array_equal(sol.columns(idx), cols)  # from the built vectors
        win = solve_windowed(op, -1.1)
        assert np.array_equal(win.columns([0]), win.vectors)

    def test_krein_inner_expands_two_columns(self, interface):
        op = assemble_operator(interface, Grid1D(64, 40.0), 0.8, "TM", strict_resolution=False)
        sol = solve_spectrum(op)
        m = sol.omegas.size // 2
        value = krein_inner(sol, 3, m + 3)
        assert "vectors" not in sol.__dict__
        assert value == complex(sol.vectors[:, 3].conj() @ (sol.krein @ sol.vectors[:, m + 3]))

    def test_built_from_vectors(self, interface):
        op = assemble_operator(interface, Grid1D(64, 40.0), 0.8, "TE", strict_resolution=False)
        pairs = solve_spectrum(op)._pairs
        full = solve_spectrum(op)
        sol = rs.DiscreteEigenSolution(op, full.omegas, full.vectors)
        assert sol.vectors is full.vectors and np.array_equal(sol.columns([2, 1]), full.vectors[:, [2, 1]])
        for args in ((), (full.vectors, pairs)):
            with pytest.raises(ValueError):
                rs.DiscreteEigenSolution(op, full.omegas, *args)

    def test_solve_path_holds_less_than_all_vectors(self, interface):
        # the solve path of `polmodes solve` on the default interface at twice its n
        op = assemble_operator(interface, Grid1D(512, 40.0), 2.0, "TM", strict_resolution=False)
        tracemalloc.start()
        try:
            sol = solve_spectrum(op)
            idx = np.nonzero((sol.omegas >= 0.2) & (sol.omegas <= 2.0))[0]
            col = sol.columns(idx[:1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert col.shape == (op.layout.dim, 1)
        assert peak < op.layout.dim * sol.omegas.size * 16  # one complex array of every vector


class TestGridAndErrors:
    def test_grid_properties(self):
        grid = Grid1D(32, 8.0)
        assert grid.h == pytest.approx(0.25)
        assert grid.nodes.size == 33
        assert grid.halves.size == 32
        with pytest.raises(ValueError):
            Grid1D(8, 1.0)

    def test_resolution_advisory(self, medium):
        geom = vacuum_interface(medium, 40.0)
        with pytest.raises(ResolutionTooCoarse):
            assemble_operator(geom, Grid1D(32, 40.0), 2.0, "TM")
        with pytest.warns(UserWarning):
            assemble_operator(geom, Grid1D(32, 40.0), 2.0, "TM", strict_resolution=False)

    def test_misaligned_interface_rejected(self, medium):
        geom = LayeredGeometry((Layer(-20.0, 0.1, medium), Layer(0.1, 20.0, None)), 1.0)
        with pytest.raises(ValueError, match="grid-aligned"):
            assemble_operator(geom, Grid1D(64, 40.0), 1.0, "TM", strict_resolution=False)

    def test_sparse_assembly_shape(self, medium):
        geom = vacuum_interface(medium, 40.0)
        b0, layout = assemble_sparse(geom, Grid1D(64, 40.0), 1.0, "TM",
                                     strict_resolution=False)
        assert b0.shape == (layout.dim, layout.dim)
