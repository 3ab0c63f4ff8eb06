"""surface-sweep: windowed surface-mode eigenfrequencies.

One op is one `surface_mode_frequency` at a seeded k_par on the default
vacuum / polar interface (Lz = 40). That function is the public wrapper of
`solve_windowed` (sparse assembly, one LU factorization, block inverse
subspace iteration), so its span is reported as realspace.solve_windowed.

A round visits STRATA seeded wavevectors, one per log-spaced stratum of the
band where the box holds the vacuum tail, each at n = 1000, 2000 and 4000.
Each frequency is held to the O(h^2) bound against the benchmark's own
surface branch, and errors at n and 2n to a ratio in [3.6, 4.4].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from polmodes import media
from polmodes import realspace as rs

from . import checks
from . import reference as ref

LZ = 40.0
GRIDS = (1000, 2000, 4000)
STRATA = 6
K_RANGE = (1.12, 6.0)  # kappa_v * Lz / 2 >= 8 above 1.1 for the default medium
MEDIUM = ref.Medium(1.0, 1.2, 1.0)


@dataclass(frozen=True)
class Item:
    k_par: float
    n: int


class SurfaceSweep:
    name = "surface-sweep"

    def __init__(self, seed: int, tracer):
        rng = np.random.default_rng([seed, 2])
        edges = np.geomspace(*K_RANGE, STRATA + 1)
        ks = [float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
              for lo, hi in zip(edges[:-1], edges[1:])]
        self.items = [Item(ks[i], n) for i in rng.permutation(STRATA) for n in GRIDS]
        self.warmup = Item(float(math.exp(rng.uniform(*np.log(K_RANGE)))), GRIDS[0])
        self.reference = [self.warmup]  # one op on fixed inputs for the traced run
        self.geom = media.vacuum_interface(
            media.from_phonon_frequencies(MEDIUM.omega_T, MEDIUM.omega_L, MEDIUM.rho), LZ)
        self.tr = tracer
        self.errors: dict[tuple[float, int], float] = {}
        self.figures: dict[str, float] = {}

    def run(self, it: Item) -> int:
        sigma = ref.surface_omega(MEDIUM, it.k_par) * 1.001
        with self.tr.span("realspace.solve_windowed"):
            w = rs.surface_mode_frequency(self.geom, rs.Grid1D(it.n, LZ), it.k_par, sigma,
                                          strict_resolution=False)
        err = checks.surface_error(MEDIUM, it.k_par, it.n, LZ, w)
        key = f"surface_error_n{it.n}"
        self.figures[key] = max(self.figures.get(key, 0.0), err)
        self.errors[(it.k_par, it.n)] = err
        coarse = self.errors.get((it.k_par, it.n // 2))
        if coarse is not None and checks.surface_untruncated(MEDIUM, it.k_par, LZ):
            ratio = checks.convergence_ratio(coarse, err, f"surface k={it.k_par:.6g} n={it.n // 2}->{it.n}")
            self.figures["ratio_min"] = min(self.figures.get("ratio_min", math.inf), ratio)
            self.figures["ratio_max"] = max(self.figures.get("ratio_max", 0.0), ratio)
        return 1

    def trace_extras(self, it: Item):
        """The sparse assembly inside solve_windowed, timed by a call of its own."""
        with self.tr.span("realspace.assemble_sparse"):
            rs.assemble_sparse(self.geom, rs.Grid1D(it.n, LZ), it.k_par, "TM", strict_resolution=False)
