"""The benchmark's checks pass on the program's real outputs and fail on corrupted ones.

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from polbench import checks  # noqa: E402
from polbench import reference as ref  # noqa: E402
from polmodes import dispersion as disp  # noqa: E402
from polmodes import dissipative as diss  # noqa: E402
from polmodes import media  # noqa: E402
from polmodes import modes as md  # noqa: E402
from polmodes import nonlinear as nl  # noqa: E402
from polmodes import realspace as rs  # noqa: E402

Fail = checks.CheckFailed
M = ref.Medium(1.0, 1.2, 1.0)
MEDIUM = media.default_medium()


def _solve(geom, n, lz, k, pol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        op = rs.assemble_operator(geom, rs.Grid1D(n, lz), k, pol, strict_resolution=False)
        return op, rs.solve_spectrum(op)


@pytest.fixture(scope="module")
def vacuum_te():
    n, lz, k = 32, 30.0, 0.7
    op, sol = _solve(media.homogeneous_box(None, lz), n, lz, k, "TE")
    return n, lz, k, op, sol


@pytest.fixture(scope="module")
def interface_tm():
    op, sol = _solve(media.vacuum_interface(MEDIUM, 40.0), 32, 40.0, 1.5, "TM")
    return op, sol


def test_box_spectra(vacuum_te):
    n, lz, k, op, sol = vacuum_te
    expected = ref.vacuum_box_spectrum(n, lz, k, "TE")
    checks.box_spectrum(sol.omegas, expected, "vacuum")
    shifted = sol.omegas.copy()
    shifted[np.argmax(shifted)] *= 1 + 1e-9
    with pytest.raises(Fail):
        checks.box_spectrum(shifted, expected, "vacuum")
    with pytest.raises(Fail):
        checks.box_spectrum(sol.omegas[:-1], expected, "vacuum")
    _, matter = _solve(media.homogeneous_box(MEDIUM, lz), n, lz, k, "TM")
    checks.box_spectrum(matter.omegas, ref.matter_box_spectrum(M, n, lz, k, "TM"), "matter")


def test_pairing_and_krein(interface_tm):
    op, sol = interface_tm
    checks.pm_pairing(sol.omegas)
    checks.krein_orthonormality(sol.vectors, op.krein, sol.omegas)
    shifted = sol.omegas.copy()
    shifted[0] += 1e-8
    with pytest.raises(Fail):
        checks.pm_pairing(shifted)
    flipped = sol.omegas.copy()
    flipped[0] = -flipped[0]
    with pytest.raises(Fail):
        checks.krein_orthonormality(sol.vectors, op.krein, flipped)
    mixed = sol.vectors.copy()
    mixed[:, 1] += 1e-6 * mixed[:, 2]
    with pytest.raises(Fail):
        checks.krein_orthonormality(mixed, op.krein, sol.omegas)


def test_residual_completeness_self_adjointness(interface_tm):
    op, sol = interface_tm
    checks.residual(op.b0, sol.vectors, sol.omegas)
    with pytest.raises(Fail):
        checks.residual(op.b0, sol.vectors, sol.omegas * (1 + 1e-8))
    tv = np.random.default_rng(1).standard_normal((op.layout.dim, 2)).astype(complex)
    checks.completeness(rs.completeness_check(sol, tv).max_deviation)
    with pytest.raises(Fail):
        checks.completeness(2e-6)
    scale = float(np.max(np.abs(op.krein @ op.b0)))
    checks.self_adjointness(rs.self_adjointness_defect(op), scale)
    with pytest.raises(Fail):
        checks.self_adjointness(1e-11 * scale, scale)


def test_node_fields(vacuum_te):
    n, _, _, op, sol = vacuum_te
    lowest = int(np.argmin(np.where(sol.omegas > 0, sol.omegas, np.inf)))
    fields = rs.reconstruct_node_fields(op, sol.vectors[:, lowest], float(sol.omegas[lowest]))
    checks.node_fields(fields, n, "TE")
    checks.vacuum_te_profile(fields, n, 1)
    with pytest.raises(Fail):
        checks.vacuum_te_profile(fields, n, 2)
    bad = dict(fields, alpha=fields["alpha"].copy())
    bad["alpha"][0, 1] = 1e-3
    with pytest.raises(Fail):
        checks.node_fields(bad, n, "TE")


def test_surface_error_and_ratio():
    geom = media.vacuum_interface(MEDIUM, 40.0)
    k, errs = 2.0, []
    for n in (1000, 2000):
        sigma = ref.surface_omega(M, k) * 1.001
        w = rs.surface_mode_frequency(geom, rs.Grid1D(n, 40.0), k, sigma, strict_resolution=False)
        errs.append(checks.surface_error(M, k, n, 40.0, w))
        with pytest.raises(Fail):
            checks.surface_error(M, k, n, 40.0, w * (1 + 1e-4))
    checks.convergence_ratio(errs[0], errs[1], "k=2")
    with pytest.raises(Fail):
        checks.convergence_ratio(4.6 * errs[1], errs[1], "k=2")
    assert not checks.surface_untruncated(M, 1.05, 40.0)


def test_modes_and_dispersion():
    geom = media.vacuum_interface(MEDIUM, 40.0)
    k = 3.0
    mode = md.normalize(md.make_mode(geom, disp.ModeIndex(disp.ModeClass.S, (k, 0.0))), geom)
    checks.close(mode.norm, ref.surface_norm(M, k), checks.CLOSED_FORM_TOL, "N")
    with pytest.raises(Fail):
        checks.close(mode.norm * (1 + 1e-10), ref.surface_norm(M, k), checks.CLOSED_FORM_TOL, "N")
    kv, km = ref.surface_decay(M, k)
    x, w = np.polynomial.legendre.leggauss(64)
    segments = []
    for lo, hi, in_matter in ((-18.0 / km, 0.0, True), (0.0, 18.0 / kv, False)):
        z = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        segments.append((0.5 * (hi - lo) * w, mode.theta.profile.evaluate(z), in_matter))
    checks.profile_normalization(M, mode.omega, 1.0, segments)
    with pytest.raises(Fail):
        checks.profile_normalization(M, mode.omega, 1.0, [(w_, 1.0001 * t, m_) for w_, t, m_ in segments])
    ks = np.linspace(0.0, 8.0, 9)
    lower, upper = disp.bulk_branches(MEDIUM, ks)
    checks.vieta(M, ks, lower, upper)
    with pytest.raises(Fail):
        checks.vieta(M, ks, lower, upper * (1 + 1e-9))
    ws = disp.surface_dispersion_omega(MEDIUM, k)
    checks.surface_quartic(M, k, ws)
    with pytest.raises(Fail):
        checks.surface_quartic(M, k, ws * (1 + 1e-9))


def test_scattering():
    geom = media.vacuum_interface(MEDIUM, 40.0)
    phi = nl.NonlinearTensor.from_array(np.random.default_rng(2).standard_normal((3, 3, 3)))

    def mode(cls, kp, kz=None):
        return md.normalize(md.make_mode(geom, disp.ModeIndex(cls, kp, kz)), geom)

    s1, s2 = mode(disp.ModeClass.S, (3.0, 0.0)), mode(disp.ModeClass.S, (-3.0, 0.0))
    t3 = mode(disp.ModeClass.TMv, (0.0, 0.0), 0.7)
    base = nl.scattering_coefficient([s1, s2, t3], phi, geom).value
    perms = [nl.scattering_coefficient(list(p), phi, geom).value for p in ((s2, s1, t3), (t3, s2, s1))]
    checks.permutation_symmetry(base, perms)
    with pytest.raises(Fail):
        checks.permutation_symmetry(base, [perms[0] * (1 + 1e-10)])
    conj = nl.scattering_coefficient([md.conjugate_mode(x) for x in (s1, s2, t3)], phi, geom).value
    checks.conjugation_pairing(base, conj)
    with pytest.raises(Fail):
        checks.conjugation_pairing(base, conj * (1 + 1e-9))
    off = nl.scattering_coefficient([s1, s1, t3], phi, geom)
    checks.momentum_zero(off.value, off.momentum_ok)
    with pytest.raises(Fail):
        checks.momentum_zero(1e-30 + 0j, False)
    with pytest.raises(Fail):
        checks.momentum_zero(0j, True)


def test_bath_and_driven():
    ups, a, b = 0.05, 0.5, 3.0
    bath = diss.flat_bath(MEDIUM, ups, a, b)
    for w in (0.3, 1.1, 2.2):
        eps = diss.lossy_epsilon(MEDIUM, bath, w)
        checks.bath_eps(eps, ref.flat_bath_eps(M, ups, a, b, w), "flat")
        with pytest.raises(Fail):
            checks.bath_eps(eps * (1 + 1e-7), ref.flat_bath_eps(M, ups, a, b, w), "flat")
    with pytest.raises(Fail):
        checks.bath_eps(complex(2.0, -1e-12), complex(2.0, -1e-12), "passivity")
    ohmic = diss.ohmic_bath(MEDIUM, 0.1, 2.0)
    checks.bath_eps(diss.lossy_epsilon(MEDIUM, ohmic, 1.3), ref.ohmic_bath_eps(M, 0.1, 2.0, 1.3), "ohmic")
    w = 1.1
    sol = diss.driven_field(media.homogeneous_box(MEDIUM, 100.0), bath, w, [(0.0, 1.0)])
    zs = np.linspace(2.0, 18.0, 33)
    rate = ref.decay_rate(ref.flat_bath_eps(M, ups, a, b, w), w)
    checks.driven_decay(zs, sol.evaluate(zs), rate)
    with pytest.raises(Fail):
        checks.driven_decay(zs, sol.evaluate(zs), rate * (1 + 1e-6))


def _csv(header, rows):
    return ",".join(header) + "\n" + "".join(",".join(f"{v!r}" if isinstance(v, float) else str(v)
                                                     for v in r) + "\n" for r in rows)


def test_cli_artifacts():
    ks = np.linspace(0.05, 10.0, 20)
    lower, upper = ref.bulk_roots(M, ks**2)
    rows = [("TEv", float(k), 0.0, float(k)) for k in ks]
    rows += [("TEl", float(k), 0.0, float(w)) for k, w in zip(ks, lower)]
    rows += [("TEu", float(k), 0.0, float(w)) for k, w in zip(ks, upper)]
    surface = [("S", float(k), 0.0, ref.surface_omega(M, float(k))) for k in ks if k >= 1.0]
    header = ["class", "k_par", "k_z", "omega"]
    checks.dispersion_csv(_csv(header, rows + surface), M)
    bent = surface[:-1] + [surface[-1][:3] + (surface[-1][3] * (1 + 1e-9),)]
    with pytest.raises(Fail):
        checks.dispersion_csv(_csv(header, rows + bent), M)

    ws = ref.surface_omega(M, 2.0)
    good = _csv(["index", "omega"], [(0, 0.5), (1, ws * (1 + 1e-4)), (2, 1.3)])
    checks.eigenfrequencies_csv(good, M, 2.0, 256, 40.0)
    with pytest.raises(Fail):
        checks.eigenfrequencies_csv(_csv(["index", "omega"], [(0, 0.5), (1, ws * 1.01)]), M, 2.0, 256, 40.0)

    k = 3.7
    meta = f'{{"omega": {ref.surface_omega(M, k)!r}, "N": {ref.surface_norm(M, k)!r}}}'
    checks.mode_json(meta, M, k)
    with pytest.raises(Fail):
        checks.mode_json(f'{{"omega": {ref.surface_omega(M, k)!r}, "N": {ref.surface_norm(M, k) * 1.001!r}}}', M, k)

    lossy = [(w, ref.flat_bath_eps(M, 0.05, 0.5, 3.0, w)) for w in (0.2, 1.0, 2.9)]
    text = _csv(["omega", "Re_eps", "Im_eps"], [(w, e.real, e.imag) for w, e in lossy])
    checks.lossy_csv(text, M, 0.05, 0.5, 3.0)
    with pytest.raises(Fail):
        checks.lossy_csv(text, M, 0.06, 0.5, 3.0)

    checks.scattering_csv(_csv(["modes", "Re_Xi", "Im_Xi", "momentum_ok"], [("a;b;c", 0.1, -0.2, 1)]))
    with pytest.raises(Fail):
        checks.scattering_csv(_csv(["modes", "Re_Xi", "Im_Xi", "momentum_ok"], [("a;b;c", 0.0, 0.0, 0)]))
    checks.verify_stdout("PASS  x\n24/24 checks passed\n")
    with pytest.raises(Fail):
        checks.verify_stdout("FAIL  x\n23/24 checks passed\n")


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert "missing" in done.stderr
