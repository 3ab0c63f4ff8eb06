import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from polmodes.cli import main

MATERIAL = {
    "layers": [
        {"z_min": -20.0, "z_max": 0.0,
         "medium": {"omega_TO": 1.0, "omega_LO": 1.2, "rho": 1.0}},
        {"z_min": 0.0, "z_max": 20.0, "medium": None},
    ],
    "box": {"Lz": 40.0, "A": 1.0},
}


# mode specs whose numbers are malformed, with the pointer below the spec
BAD_MODE_SPECS = [({"class": "TMv", "k_par": [None, 0.0], "k_z": 1.0}, "/k_par/0"),
                  ({"class": "TMv", "k_par": [0.0, 0.0], "k_z": [1]}, "/k_z"),
                  ({"class": "TMv", "k_par": [0.0, 0.0], "k_z": {"a": 1}}, "/k_z")]


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDispersionCommand:
    def test_surface_sweep_monotone(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {
            "material": MATERIAL,
            "sweep": {"k_min": 0.1, "k_max": 10.0, "num": 100},
        })
        result = runner.invoke(main, ["dispersion", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "class,k_par,k_z,omega"
        surf = [line.split(",") for line in lines[1:] if line.startswith("S,")]
        ks = np.array([float(r[1]) for r in surf])
        ws = np.array([float(r[3]) for r in surf])
        assert np.all(ks >= 1.0)  # existence edge c k_par >= omega_TO
        assert np.all(np.diff(ws) > 0)  # monotone surface branch
        lower = np.array([float(r[3]) for r in lines[1:] if r.startswith("TEl,")]
                         if False else
                         [float(line.split(",")[3]) for line in lines[1:] if line.startswith("TEl,")])
        assert np.all(lower < 1.0)

    def test_deterministic_output(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {
            "material": MATERIAL,
            "sweep": {"k_min": 0.1, "k_max": 5.0, "num": 40},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            res = runner.invoke(main, ["dispersion", "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0
        assert (out1 / "dispersion.csv").read_bytes() == (out2 / "dispersion.csv").read_bytes()

    def test_cm1_units_roundtrip(self, runner, tmp_path):
        scaled = json.loads(json.dumps(MATERIAL))
        scaled["layers"][0]["medium"] = {"omega_TO": 797.0, "omega_LO": 956.4, "rho": 1.0}
        cfg = write_cfg(tmp_path, {
            "material": scaled,
            "sweep": {"k_min": 810.0, "k_max": 2000.0, "num": 20},
        })
        res = runner.invoke(main, ["dispersion", "--config", cfg, "--out", str(tmp_path),
                                   "--units", "cm-1"])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()[1:]
        surf_k = [float(line.split(",")[1]) for line in lines if line.startswith("S,")]
        assert surf_k and min(surf_k) >= 797.0  # edge in cm-1


class TestErrorHandling:
    def test_malformed_json_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"broken": ')
        res = runner.invoke(main, ["dispersion", "--config", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_missing_key_pointer(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"material": {"layers": [], "box": {"Lz": 1.0}}})
        res = runner.invoke(main, ["dispersion", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "/material/box" in res.output

    def test_invalid_mode_class(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {"material": MATERIAL,
                                   "mode": {"class": "XX", "k_par": [1.0, 0.0]}})
        res = runner.invoke(main, ["mode", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "/mode/class" in res.output

    @pytest.mark.parametrize("command,extra,pointer", [
        ("mode", {"samples": 5}, "/samples"),
        ("mode", {"samples": {"z_num": "many"}}, "/samples/z_num"),
        ("solve", {"profiles": "one"}, "/profiles"),
        ("solve", {"window": [0.2, "hi"]}, "/window/1"),
        ("lossy", {"driven": {"omega": 1.1, "k_par": "x", "sheets": []}}, "/driven/k_par"),
        ("lossy", {"driven": {"omega": 1.1, "sheets": [], "z_num": 1.5}}, "/driven/z_num"),
        ("lossy", {"driven": {"omega": 1.1, "sheets": [[5.0]]}}, "/driven/sheets/0"),
        ("lossy", {"driven": {"omega": 1.1, "sheets": [["a", 1.0]]}}, "/driven/sheets/0/0"),
        ("dispersion", {"sweep": {"k_min": 0.1, "k_max": math.inf, "num": 5}}, "/sweep/k_max"),
        *[("mode", {"mode": spec}, "/mode" + sub) for spec, sub in BAD_MODE_SPECS],
        *[("scatter", {"tuples": [[spec] * 3]}, "/tuples/0/0" + sub) for spec, sub in BAD_MODE_SPECS],
        ("scatter", {"phi": {"order": 1, "components": [0.0, 0.0, 1.0]}}, "/phi/order"),
        ("scatter", {"phi": {"order": 2, "components": np.eye(3).tolist()}}, "/phi/order"),
        ("scatter", {"phi": {"order": 10**9, "components": [[[0.0] * 3] * 3] * 3}}, "/phi/order"),
        ("scatter", {"phi": {"order": True, "components": [0.0, 0.0, 1.0]}}, "/phi/order"),
        ("scatter", {"phi": {"order": 3, "components": [[[math.nan] * 3] * 3] * 3}}, "/phi/components"),
        ("lossy", {"bath": {"type": "flat", "upsilon": -0.05, "zeta_min": 0.5, "zeta_max": 3.0}},
         "/bath/upsilon"),
        ("lossy", {"bath": {"type": "ohmic", "amplitude": -0.1, "cutoff": 1.0}}, "/bath/amplitude"),
        ("scatter", {"phi_path": 5}, "/phi_path"),
        ("scatter", {"phi_path": ["phi.json"]}, "/phi_path"),
        ("scatter", {"phi_path": "."}, "/phi_path"),  # a directory
        ("dispersion", {"sweep": {"k_min": 0.1, "k_max": 5.0, "num": 10**30}}, "/sweep/num"),
        ("lossy", {"omega": {"min": 0.2, "max": 2.9, "num": 10**30}}, "/omega/num"),
        ("mode", {"samples": {"z_num": 10**30}}, "/samples/z_num"),
        ("lossy", {"driven": {"omega": 1.1, "sheets": [], "z_num": 10**30}}, "/driven/z_num"),
        ("solve", {"grid": {"n": 10**30}}, "/grid/n"),
        ("solve", {"profiles": True}, "/profiles"),
        ("mode", {"samples": {"z_num": True}}, "/samples/z_num"),
        ("lossy", {"driven": {"omega": 1.1, "sheets": [], "z_num": True}}, "/driven/z_num"),
        ("solve", {"strict_resolution": "no"}, "/strict_resolution"),
        ("scatter", {"tuples": [[{"class": "S", "k_par": [2.0, 0.0], "conjugate": "no"}] * 3]},
         "/tuples/0/0/conjugate"),
        ("dispersion", {"material": dict(MATERIAL, box={"Lz": 1e308, "A": 1.0})}, "/material/box/Lz"),
        ("dispersion", {"material": dict(MATERIAL, box={"Lz": 40.0 * (1 + 1e-11), "A": 1.0})},
         "/material/box/Lz"),
    ])
    def test_malformed_optional_field_exit_2(self, runner, tmp_path, command, extra, pointer):
        base = {
            "material": MATERIAL,
            "mode": {"class": "S", "k_par": [2.0, 0.0]},
            "phi": {"order": 3, "components": [[[0.0] * 3] * 3] * 3},
            "grid": {"n": 128}, "k_par": 2.0, "polarization": "TM",
            "bath": {"type": "flat", "upsilon": 0.05, "zeta_min": 0.5, "zeta_max": 3.0},
            "omega": {"min": 0.2, "max": 2.9, "num": 5},
        }
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, dict(base, **extra))
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert f"(at {pointer})" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command,extra", [
        ("lossy", {"omega": {"min": 0.2, "max": 1e308, "num": 5}}),
        ("lossy", {"driven": {"omega": 1e308, "sheets": [[5.0, 1.0]]}}),
        ("lossy", {"driven": {"omega": 1.1, "k_par": 1e308, "sheets": [[5.0, 1.0]]}}),
        ("lossy", {"bath": {"type": "ohmic", "amplitude": 1e200, "cutoff": 1.0}}),
        ("lossy", {"bath": {"type": "ohmic", "amplitude": 0.1, "cutoff": 1e308}}),
        ("lossy", {"bath": {"type": "flat", "upsilon": 1e200, "zeta_min": 0.5, "zeta_max": 3.0}}),
        ("dispersion", {"material": {**MATERIAL, "layers": [
            {"z_min": -20.0, "z_max": 0.0, "medium": {"omega_TO": 1.0, "omega_LO": 1e308, "rho": 1.0}},
            MATERIAL["layers"][1]]}}),
        ("mode", {"mode": {"class": "TMv", "k_par": [0.0, 0.0], "k_z": 1e308}}),
        ("mode", {"material": dict(MATERIAL, box={"Lz": 40.0, "A": 1e-320})}),  # N = inf
    ])
    def test_overflow_exit_3(self, runner, tmp_path, command, extra):
        base = {
            "material": MATERIAL, "mode": {"class": "S", "k_par": [2.0, 0.0]},
            "sweep": {"k_min": 0.1, "k_max": 5.0, "num": 5},
            "bath": {"type": "flat", "upsilon": 0.05, "zeta_min": 0.5, "zeta_max": 3.0},
            "omega": {"min": 0.2, "max": 2.9, "num": 5},
        }
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, dict(base, **extra))
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mode", "scatter"])
    def test_two_species_stack_exit_2(self, runner, tmp_path, command):
        material = json.loads(json.dumps(MATERIAL))
        material["layers"][1]["medium"] = {"omega_TO": 1.0, "omega_LO": 1.3, "rho": 1.0}
        cfg = write_cfg(tmp_path, {
            "material": material,
            "mode": {"class": "S", "k_par": [2.0, 0.0]},
            "phi": {"order": 3, "components": np.eye(3)[:, :, None].repeat(3, 2).tolist()},
            "tuples": [[{"class": "TMv", "k_par": [0.0, 0.0], "k_z": 0.7}] * 3],
        })
        out = tmp_path / "out"
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "(at /material/layers)" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command,stack,mode", [
        ("mode", "slab", {"class": "S", "k_par": [2.0, 0.0]}),
        ("scatter", "slab", {"class": "S", "k_par": [2.0, 0.0]}),
        ("mode", "vacuum", {"class": "S", "k_par": [2.0, 0.0]}),
        ("mode", "matter", {"class": "S", "k_par": [2.0, 0.0]}),
        ("mode", "vacuum", {"class": "TEl", "k_par": [0.5, 0.0], "k_z": -0.8}),
        ("mode", "vacuum", {"class": "TEu", "k_par": [0.5, 0.0], "k_z": -0.8}),
        ("mode", "vacuum", {"class": "TMl", "k_par": [0.5, 0.0], "k_z": -0.8}),
        ("mode", "vacuum", {"class": "TMu", "k_par": [0.5, 0.0], "k_z": -0.8}),
        ("mode", "matter", {"class": "TEv", "k_par": [0.5, 0.0], "k_z": 0.8}),
        ("mode", "matter", {"class": "TMv", "k_par": [0.5, 0.0], "k_z": 0.8}),
    ])
    def test_unsupported_stack_or_class_exit_2(self, runner, tmp_path, command, stack, mode):
        medium = MATERIAL["layers"][0]["medium"]
        layers = {
            "slab": [{"z_min": -20.0, "z_max": -1.0, "medium": None},
                     {"z_min": -1.0, "z_max": 1.0, "medium": medium},
                     {"z_min": 1.0, "z_max": 20.0, "medium": None}],
            "vacuum": [{"z_min": -20.0, "z_max": 20.0, "medium": None}],
            "matter": [{"z_min": -20.0, "z_max": 20.0, "medium": medium}],
        }[stack]
        cfg = write_cfg(tmp_path, {
            "material": dict(MATERIAL, layers=layers),
            "mode": mode,
            "phi": {"order": 3, "components": np.eye(3)[:, :, None].repeat(3, 2).tolist()},
            "tuples": [[mode] * 3],
        })
        out = tmp_path / "out"
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "(at /material/layers)" in res.stderr
        assert not out.exists()

    def test_no_matter_layer_pointer(self, runner, tmp_path):
        material = json.loads(json.dumps(MATERIAL))
        material["layers"][0]["medium"] = None
        cfg = write_cfg(tmp_path, {"material": material,
                                   "sweep": {"k_min": 0.1, "k_max": 10.0, "num": 10}})
        out = tmp_path / "out"
        res = runner.invoke(main, ["dispersion", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "(at /material/layers)" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("n", [8, 99])  # too few cells; z = 0 between nodes
    def test_bad_grid_exit_2(self, runner, tmp_path, n):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {"material": MATERIAL, "grid": {"n": n}, "k_par": 2.0,
                                   "polarization": "TM", "strict_resolution": False})
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "(at /grid/n)" in res.stderr
        assert not out.exists()

    def test_ragged_phi_components_exit_2(self, runner, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {"material": MATERIAL,
                                   "phi": {"order": 2, "components": [[1, 2], [3]]},
                                   "tuples": []})
        res = runner.invoke(main, ["scatter", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "(at /phi/components)" in res.stderr
        assert not out.exists()

    def test_failed_allocation_exit_3(self, runner, tmp_path, monkeypatch):
        # a grid.n the config allows can ask for more memory than the machine has; the
        # allocation is made to fail here rather than asked for
        import polmodes.realspace as rs

        def solve_spectrum(op):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(rs, "solve_spectrum", solve_spectrum)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {"material": MATERIAL, "grid": {"n": 128}, "k_par": 2.0,
                                   "polarization": "TM", "strict_resolution": False})
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "Traceback" not in res.stderr and "error: MemoryError: Unable to allocate" in res.stderr
        assert not out.exists()

    def test_numeric_error_exit_3(self, runner, tmp_path):
        # surface mode below the light-line edge is a numeric-domain error
        cfg = write_cfg(tmp_path, {"material": MATERIAL,
                                   "mode": {"class": "S", "k_par": [0.5, 0.0]}})
        res = runner.invoke(main, ["mode", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 3


class TestModeCommand:
    @pytest.mark.parametrize("k_par,lz,code", [(2.0, 4.0, 3), (2.0, 8.0, 3), (1.05, 40.0, 3),
                                               (1.2, 40.0, 0)])
    def test_surface_box_check_exit_code(self, runner, tmp_path, k_par, lz, code):
        # the closed-form N assumes full decay; the box integral disagrees in a short box
        material = json.loads(json.dumps(MATERIAL))
        material["layers"][0]["z_min"], material["layers"][1]["z_max"] = -lz / 2, lz / 2
        material["box"]["Lz"] = lz
        cfg = write_cfg(tmp_path, {"material": material, "mode": {"class": "S", "k_par": [k_par, 0.0]}})
        out = tmp_path / "out"
        res = runner.invoke(main, ["mode", "--config", cfg, "--out", str(out)])
        assert res.exit_code == code, res.output
        assert (out / "mode_profile.csv").exists() == (code == 0)

    def test_surface_profile_and_sidecar(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {
            "material": MATERIAL,
            "mode": {"class": "S", "k_par": [3.7302814907189354, 0.0]},
            "samples": {"z_num": 101},
        })
        res = runner.invoke(main, ["mode", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        sidecar = json.loads((tmp_path / "mode_profile.json").read_text())
        assert sidecar["class"] == "S"
        assert sidecar["omega"] == pytest.approx(1.1, rel=1e-10)
        assert sidecar["N"] == pytest.approx(0.4084845149392755, rel=1e-8)
        lines = (tmp_path / "mode_profile.csv").read_text().splitlines()
        assert len(lines) == 102
        header = lines[0].split(",")
        assert header[0] == "z"
        for field in ("theta", "alpha", "beta", "gamma", "eta"):
            assert f"{field}_x_re" in header and f"{field}_z_im" in header


    def test_cm1_units_agree_with_dispersion(self, runner, tmp_path):
        # omega_TO = 500 cm-1: the surface mode at k_par = 1000 cm-1 in both commands
        scaled = json.loads(json.dumps(MATERIAL))
        scaled["layers"][0]["medium"] = {"omega_TO": 500.0, "omega_LO": 600.0, "rho": 1.0}
        cfg = write_cfg(tmp_path, {"material": scaled,
                                   "mode": {"class": "S", "k_par": [1000.0, 0.0]},
                                   "sweep": {"k_min": 1000.0, "k_max": 2000.0, "num": 2}})
        for command in ("dispersion", "mode"):
            res = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path),
                                       "--units", "cm-1"])
            assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in (tmp_path / "dispersion.csv").read_text().splitlines()]
        (surface,) = [float(r[3]) for r in rows if r[0] == "S" and float(r[1]) == 1000.0]
        sidecar = json.loads((tmp_path / "mode_profile.json").read_text())
        assert sidecar["k_par"] == [1000.0, 0.0]
        assert sidecar["omega"] == pytest.approx(surface, rel=1e-12)


class TestSolveCommand:
    @pytest.mark.parametrize("polarization, k_par, window, profiles", [
        ("TM", 2.0, [0.99, 1.18], 2),  # the top of the lower bulk band and the surface mode
        ("TE", 0.8, None, 3),  # the lowest columns mirror positive pairs
        ("TM", 0.0, [-1.3, 1.3], 4),  # k_par = 0: S-parts with the null direction removed
    ], ids=["TM-window", "TE-mirrored", "TM-static"])
    def test_windowed_solve_with_profile(self, runner, tmp_path, polarization, k_par, window,
                                         profiles):
        cfg = {"material": MATERIAL, "grid": {"n": 128}, "k_par": k_par,
               "polarization": polarization, "profiles": profiles, "strict_resolution": False}
        if window is not None:
            cfg["window"] = window
        res = runner.invoke(main, ["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "eigenfrequencies.csv").read_text().splitlines()
        ws = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert ws.size >= profiles
        from polmodes import surface_dispersion_omega, default_medium, vacuum_interface
        from polmodes import realspace as rs

        if k_par == 2.0:
            target = surface_dispersion_omega(default_medium(), 2.0)
            assert np.min(np.abs(ws - target)) / target < 5e-3
        # the CSV holds the full spectrum's pairs in the window, value for value (%.17g
        # round-trips), and each mode_*.csv the field of the matching column of the full
        # spectrum's vectors, bit for bit
        op = rs.assemble_operator(vacuum_interface(default_medium(), 40.0), rs.Grid1D(128, 40.0),
                                  k_par, polarization, strict_resolution=False)
        sol = rs.solve_spectrum(op)
        lo, hi = window or (-np.inf, np.inf)
        inside = np.nonzero((sol.omegas >= lo) & (sol.omegas <= hi))[0]
        assert np.array_equal(ws, sol.omegas[inside])
        for i in range(profiles):
            fields = rs.reconstruct_node_fields(op, sol.vectors[:, inside[i]], float(ws[i]))
            expected = np.column_stack([op.grid.nodes] + [part(v[:, c]) for v in fields.values()
                                                          for c in range(3) for part in (np.real, np.imag)])
            table = np.loadtxt(tmp_path / f"mode_{i:04d}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(table, expected)
        assert not (tmp_path / f"mode_{profiles:04d}.csv").exists()


class TestScatterCommand:
    def test_tuple_with_momentum_flag(self, runner, tmp_path):
        k = 1.2585
        phi = np.zeros((3, 3, 3))
        for j in range(3):
            phi[j, j, j] = 1.0
        cfg = write_cfg(tmp_path, {
            "material": MATERIAL,
            "phi": {"order": 3, "components": phi.tolist()},
            "tuples": [
                [{"class": "S", "k_par": [k, 0.0]},
                 {"class": "S", "k_par": [-k, 0.0]},
                 {"class": "TMv", "k_par": [0.0, 0.0], "k_z": 0.7}],
                [{"class": "S", "k_par": [k, 0.0]},
                 {"class": "S", "k_par": [k, 0.0]},
                 {"class": "TMv", "k_par": [0.0, 0.0], "k_z": 0.7}],
            ],
        })
        res = runner.invoke(main, ["scatter", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "scattering.csv").read_text().splitlines()
        assert lines[0] == "modes,Re_Xi,Im_Xi,momentum_ok"
        ok_row = lines[1].split(",")
        bad_row = lines[2].split(",")
        assert ok_row[3] == "1" and bad_row[3] == "0"
        assert float(bad_row[1]) == 0.0 and float(bad_row[2]) == 0.0
        assert abs(complex(float(ok_row[1]), float(ok_row[2]))) > 0

    def test_order_ten_phi(self, runner, tmp_path):
        # 3^10 components: symmetrized per multiset of indices, not over 10! permutations
        k = 1.2585
        spec = [{"class": "S", "k_par": [sign * k, 0.0]} for sign in (1, -1) * 5]
        phi = np.random.default_rng(10).standard_normal((3,) * 10)
        cfg = write_cfg(tmp_path, {"material": MATERIAL, "tuples": [spec],
                                   "phi": {"order": 10, "components": phi.tolist()}})
        res = runner.invoke(main, ["scatter", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        row = (tmp_path / "scattering.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "1" and abs(complex(float(row[1]), float(row[2]))) > 0


class TestLossyCommand:
    def test_epsilon_sweep_and_driven(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {
            "material": MATERIAL,
            "bath": {"type": "flat", "upsilon": 0.05, "zeta_min": 0.5, "zeta_max": 3.0},
            "omega": {"min": 0.2, "max": 2.9, "num": 30},
            "driven": {"omega": 1.1, "k_par": 0.0, "sheets": [[5.0, 1.0, 0.0]], "z_num": 101},
        })
        res = runner.invoke(main, ["lossy", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "lossy_epsilon.csv").read_text().splitlines()
        assert lines[0] == "omega,Re_eps,Im_eps"
        ims = [float(line.split(",")[2]) for line in lines[1:]]
        assert min(ims) >= 0.0  # passivity in the emitted table
        assert (tmp_path / "driven_field.csv").exists()

    def test_source_outside_box_exit_3(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, {
            "material": MATERIAL,
            "bath": {"type": "flat", "upsilon": 0.05, "zeta_min": 0.5, "zeta_max": 3.0},
            "omega": {"min": 0.2, "max": 2.9, "num": 30},
            "driven": {"omega": 1.1, "sheets": [[25.0, 1.0, 0.0]]},
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["lossy", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "strictly inside the box" in res.stderr
        assert not out.exists()  # neither lossy_epsilon.csv nor driven_field.csv


    def test_undamped_pole_exit_3(self, runner, tmp_path):
        # with no bath the sweep lands on omega_T = 1 exactly, a pole of eps_tilde
        cfg = write_cfg(tmp_path, {
            "material": MATERIAL,
            "bath": {"type": "none"},
            "omega": {"min": 0.5, "max": 1.5, "num": 3},
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["lossy", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "pole" in res.stderr
        assert not out.exists()

    def test_two_species_stack_exit_2(self, runner, tmp_path):
        material = json.loads(json.dumps(MATERIAL))
        material["layers"][1]["medium"] = {"omega_TO": 1.0, "omega_LO": 1.3, "rho": 1.0}
        cfg = write_cfg(tmp_path, {
            "material": material,
            "bath": {"type": "flat", "upsilon": 0.05, "zeta_min": 0.5, "zeta_max": 3.0},
            "omega": {"min": 0.2, "max": 2.9, "num": 30},
        })
        out = tmp_path / "out"
        res = runner.invoke(main, ["lossy", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "/material/layers" in res.stderr
        assert not out.exists()


ROOT = Path(__file__).resolve().parent.parent
SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def fresh_python(code, *args):
    """Run code in a new interpreter, so that sys.modules starts empty."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_cli_import_defers_scipy_integrate():
    # no SciPy module at all: solve and verify import theirs when they run
    res = fresh_python(f"import sys, polmodes.cli; print({SCIPY_MODULES})")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# runs the CLI on sys.argv and prints its exit code and the SciPy modules it loaded
RUN_CLI = ("import sys\nfrom polmodes.cli import main\n"
           "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
           f"print(code, {SCIPY_MODULES})")


@pytest.mark.parametrize("command,artifact", [("dispersion", "dispersion.csv"),
                                              ("lossy", "lossy_epsilon.csv"),
                                              ("mode", "mode_profile.csv"),
                                              ("scatter", "scattering.csv")])
def test_command_runs_without_scipy(tmp_path, command, artifact):
    res = fresh_python(RUN_CLI, command, "--config",
                       str(ROOT / "configs" / "default_interface.json"), "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / artifact).exists()


def test_ohmic_lossy_runs_without_quadrature(tmp_path):
    # the ohmic closed form needs scipy.special's exponential integrals, and nothing else
    cfg = json.loads((ROOT / "configs" / "default_interface.json").read_text())
    cfg["bath"] = {"type": "ohmic", "amplitude": 0.1, "cutoff": 2.0}
    cfg["driven"] = {"omega": 1.1, "k_par": 0.7, "sheets": [[-3.0, 1.0, 0.2], [2.0, 0.5]]}
    res = fresh_python(RUN_CLI, "lossy", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    code, loaded = res.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0" and "'scipy.special'" in loaded
    for package in ("scipy.integrate", "scipy.linalg", "scipy.sparse"):
        assert f"'{package}'" not in loaded and f"'{package}." not in loaded
    assert (tmp_path / "driven_field.csv").exists()


@pytest.mark.parametrize("k_max", [1e150, 1e160])
def test_overflowing_sweep_exit_3(tmp_path, k_max):
    # a fresh interpreter, as a user runs it: bulk_branches warns of overflow this far out
    cfg = write_cfg(tmp_path, {"material": MATERIAL,
                               "sweep": {"k_min": 0.1, "k_max": k_max, "num": 5}})
    out = tmp_path / "out"
    res = fresh_python("import sys\nfrom polmodes.cli import main\nmain(sys.argv[1:])",
                       "dispersion", "--config", cfg, "--out", str(out))
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr and "error: surface dispersion" in res.stderr
    assert not out.exists()


class TestVerifyCommand:
    def test_verify_passes(self, runner):
        res = runner.invoke(main, ["verify"])
        assert res.exit_code == 0, res.output
        assert "checks passed" in res.output
        assert "FAIL" not in res.output

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_exit_2(self, runner, tol):
        res = runner.invoke(main, ["verify", "--tol", tol])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "--tol" in res.stderr
        assert "checks passed" not in res.output and "PASS" not in res.output


def _leaf_pointers(node, path=()):
    """Paths to every scalar of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if items is None:
        return [path]
    return [p for key, child in items for p in _leaf_pointers(child, path + (key,))]


def _cheap_config():
    """The default config with a 64-cell grid, short sweeps, few samples and a driven sheet."""
    cfg = json.loads((ROOT / "configs" / "default_interface.json").read_text())
    cfg["grid"]["n"] = 64
    cfg["sweep"]["num"] = 8
    cfg["omega"]["num"] = 8
    cfg["samples"] = {"z_num": 9}
    cfg["driven"] = {"omega": 1.1, "k_par": 0.5, "sheets": [[5.0, 1.0, 0.0]], "z_num": 9}
    return cfg


FUZZ_BASE = _cheap_config()
FUZZ_LEAVES = _leaf_pointers(FUZZ_BASE)
DROP = object()
FUZZ_VALUES = [DROP, None, "x", True, [], {}, [[1.0, 2.0], [3.0]], math.nan, math.inf, -math.inf,
               -1, 0, 1e308, -1e308, 10**30, 1e-320]


def _written_floats_finite(out):
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(f"{path.name}: {token}"))
            continue
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a label
                assert math.isfinite(value), f"{path.name}: {line}"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["dispersion", "mode", "solve", "scatter", "lossy"]),
       leaf=st.sampled_from(FUZZ_LEAVES), value=st.sampled_from(FUZZ_VALUES),
       units=st.sampled_from(["internal", "cm-1"]))
def test_fuzzed_config_keeps_the_exit_contract(command, leaf, value, units):
    # one leaf of a cheap valid config dropped or replaced by a malformed or extreme value
    cfg = json.loads(json.dumps(FUZZ_BASE))
    parent = cfg
    for key in leaf[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[leaf[-1]]
    else:
        parent[leaf[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(cfg))
        res = CliRunner().invoke(main, [command, "--config", str(cfg_path), "--out", str(out), "--units", units])
        assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
        assert res.exit_code in (0, 2, 3), res.output
        if res.exit_code:
            assert not out.exists()
        else:
            _written_floats_finite(out)


def test_out_naming_a_file_exit_2(runner, tmp_path):
    cfg = write_cfg(tmp_path, FUZZ_BASE)
    out = tmp_path / "taken"
    out.write_text("kept")
    res = runner.invoke(main, ["dispersion", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert "--out" in res.stderr
    assert out.read_text() == "kept"


def test_failed_write_removes_what_it_wrote(runner, tmp_path):
    # mode writes mode_profile.csv first; mode_profile.json is a directory and cannot be opened
    cfg = write_cfg(tmp_path, FUZZ_BASE)
    out = tmp_path / "out"
    (out / "mode_profile.json").mkdir(parents=True)
    res = runner.invoke(main, ["mode", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert "--out" in res.stderr
    assert [p.name for p in out.iterdir()] == ["mode_profile.json"]
    assert (out / "mode_profile.json").is_dir()
