"""Acceptance suite: one test per release criterion, at pinned tolerances.

Criteria 1 and 3 to 8 call the invariant registry of `polmodes.verify` at
pinned sizes; criterion 2 (dispersion topology and CSV) and the brute-force
quadrature oracle of criterion 7 are computed here. Each test prints one
PASS line per check with its measured figures; run with
`pytest -v tests/test_acceptance.py` (or `-s` to see the lines inline).
"""

import time

import numpy as np
import pytest
from scipy.integrate import simpson

from polmodes import (
    bulk_branches,
    default_medium,
    from_phonon_frequencies,
    surface_dispersion_omega,
    surface_window_top,
)
from polmodes import verify
from polmodes.nonlinear import matter_weight, scattering_coefficient


def accept(criterion, t0, budget, *results):
    elapsed = time.monotonic() - t0
    for res in results:
        assert res.passed, f"{res.name}: {res.describe()}"
    assert elapsed < budget
    for res in results:
        print(f"PASS  {criterion} {res.name}: {res.describe()}")
    print(f"      {elapsed:.2f}s (budget {budget:.0f}s)")


def phonon_band_media(rng, count):
    """omega_T in [0.3, 3] with omega_L in [3.1, 8]: wider reststrahlen bands than verify's.

    Drawn lazily, one medium at a time, so each medium's draws interleave with the
    caller's per-sample draws."""
    return (from_phonon_frequencies(rng.uniform(0.3, 3.0), rng.uniform(3.1, 8.0), rng.uniform(0.1, 10.0))
            for _ in range(count))


def test_criterion_1_bulk_vieta_identities():
    t0 = time.monotonic()
    accept("criterion 1", t0, 1, verify.check_vieta(seed=101, sampler=phonon_band_media))


def test_criterion_2_dispersion_topology(tmp_path):
    t0 = time.monotonic()
    m = default_medium()
    top = surface_window_top(m)

    ks = np.linspace(1e-3, 100.0 * m.omega_T, 2000)
    ol, ou = bulk_branches(m, ks)
    # lower branch: starts at 0, increases monotonically, stays below and
    # approaches the omega_TO asymptote
    assert ol[0] < 1e-3
    assert np.all(np.diff(ol) > 0) and np.all(ol < m.omega_T)
    assert m.omega_T - ol[-1] < 1e-3 * m.omega_T
    # upper branch: from omega_LO upward
    assert ou[0] == pytest.approx(m.omega_L, abs=1e-5)
    assert np.all(ou >= m.omega_L) and np.all(np.diff(ou) > 0)
    # surface branch exists exactly for c k_par >= omega_TO
    from polmodes.errors import BelowLightLineEdge

    with pytest.raises(BelowLightLineEdge):
        surface_dispersion_omega(m, 0.999 * m.omega_T)
    assert surface_dispersion_omega(m, m.omega_T) == m.omega_T
    asym_err = abs(surface_dispersion_omega(m, 100.0 * m.omega_T) - top)
    assert asym_err < 1e-4 * m.omega_T

    # emitted as CSV through the CLI
    import json

    from click.testing import CliRunner

    from polmodes.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "material": {
            "layers": [
                {"z_min": -20.0, "z_max": 0.0,
                 "medium": {"omega_TO": 1.0, "omega_LO": 1.2, "rho": 1.0}},
                {"z_min": 0.0, "z_max": 20.0, "medium": None},
            ],
            "box": {"Lz": 40.0, "A": 1.0},
        },
        "sweep": {"k_min": 0.001, "k_max": 100.0, "num": 400},
    }))
    res = CliRunner().invoke(main, ["dispersion", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "dispersion.csv").read_text().splitlines()
    assert lines[0] == "class,k_par,k_z,omega"
    surf = [line.split(",") for line in lines[1:] if line.startswith("S,")]
    assert all(float(r[1]) >= m.omega_T for r in surf)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS  criterion 2 (dispersion topology + CSV): surface asymptote {asym_err:.3e} "
          f"(tol 1.0e-04), {elapsed:.2f}s (budget 5s)")


def test_criterion_3_normalization_consistency():
    t0 = time.monotonic()
    accept("criterion 3", t0, 10, verify.check_surface_normalization(points=50, band=(1.003, 0.997)),
           verify.check_homogeneous_normalization())


def test_criterion_4_wave_equation_and_continuity():
    t0 = time.monotonic()
    accept("criterion 4", t0, 60, verify.check_wave_equation_residuals(),
           verify.check_interface_continuity())


def test_criterion_5_realspace_solver():
    t0 = time.monotonic()
    accept("criterion 5", t0, 180, verify.check_surface_eigenvalue(n=4000, ratio_grids=(500, 1000, 2000)),
           verify.check_realspace_spectrum(n=512, cases=(("TM", 2.0),), vectors=8, seed=55))


def test_criterion_6_discrete_self_adjointness():
    t0 = time.monotonic()
    accept("criterion 6", t0, 60, verify.check_realspace_self_adjoint(n=512))


def test_criterion_7_nonlinear_scattering():
    t0 = time.monotonic()
    geom, phi, modes = verify.scattering_setup()
    base = scattering_coefficient(modes, phi, geom).value
    # brute-force 3D quadrature oracle on a coarse grid, 1e-4 relative
    weights = [matter_weight(md) for md in modes]
    nx, nz = 21, 3201
    xs = np.linspace(0.0, 1.0, nx)      # unit in-plane box, area A = 1
    zs = np.linspace(-20.0, 0.0, nz)
    vecs = [w.evaluate_region(0, zs) for w in weights]  # matter region closure
    dens = np.einsum("jkl,zj,zk,zl->z", phi.components, *vecs)
    # momentum-conserving tuple: the in-plane phase product is exactly 1
    plane = np.ones((nx, nx))
    area = simpson(simpson(plane, x=xs, axis=0), x=xs)
    brute = area * simpson(dens, x=zs)
    brute_err = abs(brute - base) / abs(base)
    assert brute_err < 1e-4
    accept("criterion 7", t0, 60, verify.check_momentum_selection(), verify.check_scattering_symmetries())
    print(f"      brute-force quadrature oracle {brute_err:.3e} (tol 1.0e-04)")


def test_criterion_8_dissipative():
    t0 = time.monotonic()
    accept("criterion 8", t0, 60, verify.check_lossless_limit(), verify.check_kramers_kronig(points=20),
           verify.check_driven_decay())
