"""dense-spectrum: full-spectrum Krein diagonalizations.

One op assembles the discrete operator, solves its whole spectrum and runs
the invariant checks: +/- pairing, Krein orthonormality, signed
completeness, eigen-residuals, Krein self-adjointness and the node-field
reconstruction of one eigenvector. Homogeneous vacuum and matter boxes are
also held to their exact discrete spectra.

Every round runs the same eight slots, so the work per round does not depend
on the seed; the seed draws the medium, k_par, the box lengths and the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from polmodes import media
from polmodes import realspace as rs

from . import checks
from . import reference as ref

# (geometry, polarization, n); the interface box is Lz = 40 with z = 0 on a node
SLOTS = (
    ("interface", "TM", 256),
    ("interface", "TE", 192),
    ("interface", "TM", 128),
    ("interface", "TE", 128),
    ("vacuum", "TE", 128),
    ("vacuum", "TM", 96),
    ("matter", "TE", 96),
    ("matter", "TM", 64),
)
WARMUP_SLOT = ("matter", "TM", 64)
TEST_VECTORS = 4


@dataclass(frozen=True)
class Item:
    geometry: str
    polarization: str
    n: int
    lz: float
    k_par: float
    omega_L: float
    rho: float
    vec_seed: int


def _item(rng, slot) -> Item:
    geometry, pol, n = slot
    lz = 40.0 if geometry == "interface" else float(rng.uniform(20.0, 60.0))
    return Item(geometry, pol, n, lz, float(rng.uniform(0.3, 3.0)),
                float(rng.uniform(1.1, 1.4)), float(rng.uniform(0.5, 2.0)),
                int(rng.integers(2**31)))


class DenseSpectrum:
    name = "dense-spectrum"

    def __init__(self, seed: int, tracer):
        rng = np.random.default_rng([seed, 1])
        self.items = [_item(rng, SLOTS[i]) for i in rng.permutation(len(SLOTS))]
        self.warmup = _item(rng, WARMUP_SLOT)
        self.reference = [self.warmup]  # one op on fixed inputs for the traced run
        self.tr = tracer
        self.figures: dict[str, float] = {}

    def _note(self, name, value):
        self.figures[name] = max(self.figures.get(name, 0.0), value)

    def run(self, it: Item) -> int:
        tr = self.tr
        m = ref.Medium(1.0, it.omega_L, it.rho)
        medium = media.from_phonon_frequencies(m.omega_T, m.omega_L, m.rho)
        if it.geometry == "interface":
            geom = media.vacuum_interface(medium, it.lz)
        else:
            geom = media.homogeneous_box(None if it.geometry == "vacuum" else medium, it.lz)
        with tr.span("realspace.assemble_operator"):
            op = rs.assemble_operator(geom, rs.Grid1D(it.n, it.lz), it.k_par, it.polarization,
                                      strict_resolution=False)
        with tr.span("realspace.solve_spectrum"):
            sol = rs.solve_spectrum(op)
        with tr.span("realspace.self_adjointness_defect"):
            defect = rs.self_adjointness_defect(op)
        rng = np.random.default_rng(it.vec_seed)
        dim = op.layout.dim
        tv = rng.standard_normal((dim, TEST_VECTORS)) + 1j * rng.standard_normal((dim, TEST_VECTORS))
        with tr.span("realspace.completeness_check"):
            comp = rs.completeness_check(sol, tv).max_deviation
        lowest = int(np.argmin(np.where(sol.omegas > 0, sol.omegas, np.inf)))
        with tr.span("realspace.reconstruct_node_fields"):
            fields = rs.reconstruct_node_fields(op, sol.vectors[:, lowest], float(sol.omegas[lowest]))

        w = sol.omegas
        self._note("pairing", checks.pm_pairing(w))
        self._note("krein_orthonormality", checks.krein_orthonormality(sol.vectors, op.krein, w))
        self._note("completeness", checks.completeness(comp))
        self._note("residual", checks.residual(op.b0, sol.vectors, w))
        scale = float(np.max(np.abs(sp.csr_matrix(op.krein) @ op.b0)))
        self._note("self_adjointness", checks.self_adjointness(defect, scale))
        checks.node_fields(fields, it.n, it.polarization)
        label = f"{it.geometry} {it.polarization} n={it.n}"
        if it.geometry == "vacuum":
            expected = ref.vacuum_box_spectrum(it.n, it.lz, it.k_par, it.polarization)
            self._note("box_spectrum", checks.box_spectrum(w, expected, label))
            if it.polarization == "TE":
                self._note("vacuum_te_profile", checks.vacuum_te_profile(fields, it.n, 1))
        elif it.geometry == "matter":
            expected = ref.matter_box_spectrum(m, it.n, it.lz, it.k_par, it.polarization)
            self._note("box_spectrum", checks.box_spectrum(w, expected, label))
        return int(w.size)

    def trace_extras(self, it: Item):
        pass
