import numpy as np
import pytest
import scipy.sparse as sp

import polmodes.realspace as rs
from polmodes import (
    MediumParams,
    bulk_branches,
    default_medium,
    homogeneous_box,
    surface_dispersion_omega,
    vacuum_interface,
    verify,
)
from polmodes.errors import (
    DegenerateKreinNorm,
    IncompleteSpectrum,
    ResolutionTooCoarse,
    SolverContractViolation,
)
from polmodes.realspace import (
    Grid1D,
    assemble_operator,
    assemble_sparse,
    completeness_check,
    krein_inner,
    reconstruct_node_fields,
    solve_spectrum,
    solve_windowed,
    surface_mode_frequency,
)


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

    def test_norm_tol_rejects_high_frequencies(self, medium):
        geom = vacuum_interface(medium, 40.0)
        op = assemble_operator(geom, Grid1D(64, 40.0), 0.8, "TE", strict_resolution=False)
        w_max = np.max(np.abs(solve_spectrum(op).omegas))
        solve_spectrum(op, norm_tol=0.99 / w_max)
        with pytest.raises(DegenerateKreinNorm):
            solve_spectrum(op, norm_tol=1.01 / w_max)

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
        sol = solve_spectrum(op, window=(0.1, 2.0))
        tv = rng.standard_normal((op.layout.dim, 2))
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
    @pytest.mark.parametrize("k_par", [0.0, 2.0])
    def test_apply_is_dense_b0_times_v(self, interface, rng, polarization, k_par):
        op = assemble_operator(interface, Grid1D(96, 40.0), k_par, polarization, strict_resolution=False)
        v = rng.standard_normal((op.layout.dim, 3)) + 1j * rng.standard_normal((op.layout.dim, 3))
        got = op.apply(v)
        assert "b0" not in op.__dict__  # apply densifies nothing
        ref = op.b0 @ v
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        assert np.linalg.norm(op.apply(v[:, 1]) - got[:, 1]) <= 1e-14 * np.linalg.norm(got[:, 1])  # one vector


def _dense_defect(op):
    kb = op.krein @ op.b0
    return np.max(np.abs(kb - (op.krein.conj().T @ op.b0).conj().T)), np.max(np.abs(kb))


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
        op = assemble_operator(interface, Grid1D(96, 40.0), 2.0, "TM", strict_resolution=False)
        scale = abs(op.krein @ op.b0_sparse).max()
        assert rs.self_adjointness_defect(op) <= 1e-15 * scale
        longitudinal = rs._longitudinal

        def par_part(div, v):  # the gradient's alpha_par part alone is not curl-free
            out = longitudinal(div, v)
            out[div.shape[0]:] = 0
            return out

        monkeypatch.setattr(rs, "_longitudinal", par_part)
        assert rs.self_adjointness_defect(op) > 1e-3 * scale

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

    def test_sparse_matches_dense_generic(self, medium):
        geom = vacuum_interface(medium, 40.0)
        grid = Grid1D(128, 40.0)
        op = assemble_operator(geom, grid, 0.8, "TM", strict_resolution=False)
        dense = solve_spectrum(op)
        target = 1.5
        sol = solve_windowed(op, sigma=target, count=1)
        assert not sol.complete
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
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("polarization,k_par",
                             [("TE", 0.8), ("TE", 0.0), ("TM", 0.8), ("TM", 0.0)])
    def test_matches_dense_spectrum(self, medium, dense_spectra, polarization, k_par, count,
                                    sigma):
        shift = {"0.5": 0.5, "omega_T": medium.omega_T, "omega_L+1e-4": medium.omega_L + 1e-4,
                 "-1.1": -1.1}[sigma]
        dense = dense_spectra(polarization, k_par)
        op = dense.operator
        sol = solve_windowed(op, shift, count)
        nearest = dense.omegas[np.argsort(np.abs(dense.omegas - shift), kind="stable")[:count]]
        np.testing.assert_allclose(sol.omegas, nearest, rtol=1e-10)
        assert np.all(np.diff(np.abs(sol.omegas - shift)) >= 0)
        g = gram(sol)
        assert np.max(np.abs(np.diag(g) - np.sign(sol.omegas))) < 1e-8
        resid = np.linalg.norm(op.b0 @ sol.vectors - sol.vectors * sol.omegas[None, :],
                               axis=0) / np.linalg.norm(sol.vectors, axis=0)
        assert np.max(resid) <= 1e-10
        # profiles of simple eigenvalues agree with the dense modes'; a degenerate cluster
        # (the omega_L matter modes) has no preferred basis
        for j, w in enumerate(sol.omegas):
            dist = np.sort(np.abs(dense.omegas - w))
            if dist[1] < 1e-8:
                continue
            i = int(np.argmin(np.abs(dense.omegas - w)))
            win = reconstruct_node_fields(op, sol.vectors[:, j], float(w))["theta"].ravel()
            ref = reconstruct_node_fields(op, dense.vectors[:, i], float(dense.omegas[i]))
            ref = ref["theta"].ravel()
            overlap = abs(np.vdot(ref, win)) / (np.linalg.norm(ref) * np.linalg.norm(win))
            assert overlap > 0.9999

    @pytest.mark.xfail(strict=True, reason="single-vector Lanczos cannot see the multiplicity of "
                                           "the 128-fold omega_L eigenvalue")
    def test_multiple_eigenvalue_fills_the_count(self, medium):
        # the TM box at k_par = 0 holds 128 degenerate matter modes at omega_L; the windowed
        # solve returns five of them and then the next distinct eigenvalue 1.20365553
        op = assemble_operator(vacuum_interface(medium, 40.0), Grid1D(256, 40.0), 0.0, "TM",
                               strict_resolution=False)
        sigma = medium.omega_L + 1e-4
        dense = solve_spectrum(op).omegas
        assert np.sum(np.abs(dense - medium.omega_L) < 1e-9) == 128
        nearest = dense[np.argsort(np.abs(dense - sigma), kind="stable")[:6]]
        np.testing.assert_allclose(solve_windowed(op, sigma, 6).omegas, nearest, rtol=1e-10)

    def test_zero_frequency_is_not_a_mode(self, dense_spectra):
        # in TM at k_par = 0 the reduced pencil keeps one null vector, which is no mode
        with pytest.raises(SolverContractViolation, match="zero frequency"):
            solve_windowed(dense_spectra("TM", 0.0).operator, 0.01)


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
        from polmodes import Layer, LayeredGeometry

        geom = LayeredGeometry((Layer(-20.0, 0.1, medium), Layer(0.1, 20.0, None)), 1.0)
        with pytest.raises(ValueError, match="grid-aligned"):
            assemble_operator(geom, Grid1D(64, 40.0), 1.0, "TM", strict_resolution=False)

    def test_sparse_assembly_shape(self, medium):
        geom = vacuum_interface(medium, 40.0)
        b0, layout = assemble_sparse(geom, Grid1D(64, 40.0), 1.0, "TM",
                                     strict_resolution=False)
        assert b0.shape == (layout.dim, layout.dim)
