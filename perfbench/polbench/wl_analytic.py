"""analytic-tables: mode, scattering and lossy-response tables.

One op builds one seeded table in four parts:

1. modes of all seven classes on the vacuum / polar interface, built,
   normalized and evaluated (theta and the four Hopfield fields) on a
   401-point z grid, plus a bulk and a surface dispersion row set;
2. scattering coefficients of two momentum-conserving triples (all six
   orderings and the conjugate triple) and two that do not conserve;
3. the lossy dielectric function on a seeded flat and a fixed ohmic bath;
4. one driven field in a lossy matter box.

Every table has the same make-up; the seed draws the medium, wavevectors,
coupling tensor, bath parameters and frequencies. No realspace code runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from polmodes import dispersion as disp
from polmodes import dissipative as diss
from polmodes import media
from polmodes import modes as md
from polmodes import nonlinear as nl

from . import checks
from . import reference as ref

LZ = 40.0
AREA = 1.0
Z_GRID = np.linspace(-LZ / 2, LZ / 2, 401)
GL_NODES = 64
BULK_CLASSES = ("TEl", "TEu", "TMl", "TMu")
TABLES_PER_ROUND = 8
LOSSY_POINTS = 12
DRIVEN_BOX = 100.0
# The ohmic bath is fixed: the program rejects convergent ohmic renormalization
# integrals for many (amplitude, cutoff, rho) as divergent (see CHANGES.md).
OHMIC = (0.1, 2.0)
OHMIC_MEDIUM = ref.Medium(1.0, 1.2, 1.0)
DRIVEN_Z = np.linspace(2.0, 18.0, 33)


@dataclass(frozen=True)
class Table:
    omega_L: float
    rho: float
    k_surface: tuple          # in-plane vector of the surface mode
    k_vac: dict               # class -> (k_par vector, k_z) for TEv/TMv
    k_bulk: dict              # class -> (k_par vector, k_z) for the bulk classes
    bulk_k: np.ndarray        # bulk_branches sample points
    surface_k: np.ndarray     # surface_dispersion_omega sample points
    phi: np.ndarray
    q: tuple                  # surface pair of triple 1
    kz_tmv: float
    p1: tuple
    p2: tuple
    p3: tuple
    kz3: tuple                # k_z of the three modes of triple 2
    flat: tuple               # (upsilon, zeta_min, zeta_max)
    flat_w: np.ndarray
    ohmic_w: np.ndarray
    driven_w: float


def _vec(rng, lo, hi):
    r, a = rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)
    return (float(r * math.cos(a)), float(r * math.sin(a)))


def _table(rng) -> Table:
    flat = (float(rng.uniform(0.02, 0.08)), float(rng.uniform(0.3, 0.7)), float(rng.uniform(2.5, 3.5)))
    lo, hi = max(flat[1], 0.6) + 0.05, min(flat[2], 1.6) - 0.05
    return Table(
        omega_L=float(rng.uniform(1.15, 1.35)),
        rho=float(rng.uniform(0.5, 2.0)),
        k_surface=_vec(rng, 2.0, 5.0),
        k_vac={c: (_vec(rng, 0.0, 1.5), float(rng.uniform(0.2, 2.0))) for c in ("TEv", "TMv")},
        k_bulk={c: (_vec(rng, 0.0, 1.5), float(-rng.uniform(0.2, 2.0))) for c in BULK_CLASSES},
        bulk_k=rng.uniform(0.0, 10.0, 64),
        surface_k=rng.uniform(1.01, 10.0, 8),
        phi=rng.standard_normal((3, 3, 3)),
        q=_vec(rng, 2.0, 5.0),
        kz_tmv=float(rng.uniform(0.2, 2.0)),
        p1=_vec(rng, 0.0, 1.0),
        p2=_vec(rng, 0.0, 1.0),
        p3=_vec(rng, 0.0, 1.0),
        kz3=(float(-rng.uniform(0.2, 2.0)), float(-rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))),
        flat=flat,
        flat_w=rng.uniform(0.2, 4.0, LOSSY_POINTS),
        ohmic_w=rng.uniform(0.2, 4.0, LOSSY_POINTS),
        driven_w=float(rng.uniform(lo, hi)),
    )


def _gauss_legendre(a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


class AnalyticTables:
    name = "analytic-tables"

    def __init__(self, seed: int, tracer):
        rng = np.random.default_rng([seed, 3])
        self.items = [_table(rng) for _ in range(TABLES_PER_ROUND)]
        self.warmup = _table(rng)
        self.reference = [self.warmup]  # one op on fixed inputs for the traced run
        self.tr = tracer
        self.figures: dict[str, float] = {}

    def _note(self, name, value):
        self.figures[name] = max(self.figures.get(name, 0.0), value)

    # -- program calls, each inside its span

    def _mode(self, geom, cls, k_par, k_z=None):
        tr = self.tr
        with tr.span("modes.make_mode"):
            mode = md.make_mode(geom, disp.ModeIndex(disp.ModeClass(cls), k_par, k_z))
        with tr.span("modes.normalize"):
            return md.normalize(mode, geom)

    def _evaluate(self, profile, zs):
        with self.tr.span("modes.evaluate"):
            return profile.evaluate(zs)

    def _scatter(self, modes, phi, geom):
        with self.tr.span("nonlinear.scattering_coefficient"):
            return nl.scattering_coefficient(modes, phi, geom)

    def _lossy(self, medium, bath, w):
        with self.tr.span("dissipative.lossy_epsilon"):
            return diss.lossy_epsilon(medium, bath, float(w))

    # -- one table

    def run(self, t: Table) -> int:
        m = ref.Medium(1.0, t.omega_L, t.rho)
        medium = media.from_phonon_frequencies(m.omega_T, m.omega_L, m.rho)
        geom = media.vacuum_interface(medium, LZ, AREA)
        self._modes(t, m, medium, geom)
        self._scattering(t, medium, geom)
        self._lossy_tables(t, m, medium)
        self._driven(t, m, medium)
        return 0

    def _modes(self, t, m, medium, geom):
        tr = self.tr
        volume = AREA * LZ
        specs = [("S", t.k_surface, None)]
        specs += [(c, kp, kz) for c, (kp, kz) in t.k_vac.items()]
        specs += [(c, kp, kz) for c, (kp, kz) in t.k_bulk.items()]
        for cls, k_par, k_z in specs:
            mode = self._mode(geom, cls, k_par, k_z)
            for prof in (mode.theta.profile, mode.hopfield.alpha, mode.hopfield.beta,
                         mode.hopfield.gamma, mode.hopfield.eta):
                self._evaluate(prof, Z_GRID)
            kp = math.hypot(*k_par)
            if cls == "S":
                w_ref = ref.surface_omega(m, kp)
                n_ref = ref.surface_norm(m, kp, AREA)
            else:
                k2 = kp * kp + k_z * k_z
                if cls in ("TEv", "TMv"):
                    w_ref, eps_nu = math.sqrt(k2), 2.0
                else:
                    lower, upper = ref.bulk_roots(m, k2)
                    w_ref = float(lower if cls.endswith("l") else upper)
                    eps_nu = m.eps(w_ref) * m.nu(w_ref)
                n_ref = ref.propagating_norm(w_ref, volume, eps_nu)
            self._note("mode_omega", checks.close(mode.omega, w_ref, checks.CLOSED_FORM_TOL, f"{cls} omega"))
            self._note("mode_norm", checks.close(mode.norm, n_ref, checks.CLOSED_FORM_TOL, f"{cls} N"))
            if cls == "S":
                kv, km = ref.surface_decay(m, kp)
                segments = []
                for lo, hi, in_matter in ((-min(LZ / 2, 18.0 / km), 0.0, True),
                                          (0.0, min(LZ / 2, 18.0 / kv), False)):
                    z, w = _gauss_legendre(lo, hi)
                    segments.append((w, self._evaluate(mode.theta.profile, z), in_matter))
                self._note("surface_profile_norm",
                           checks.profile_normalization(m, mode.omega, AREA, segments))

        with tr.span("dispersion.bulk_branches"):
            lower, upper = disp.bulk_branches(medium, t.bulk_k)
        self._note("vieta", checks.vieta(m, t.bulk_k, lower, upper))
        for k in t.surface_k:
            with tr.span("dispersion.surface_dispersion_omega"):
                w = disp.surface_dispersion_omega(medium, float(k))
            self._note("surface_quartic", checks.surface_quartic(m, float(k), w))
            checks.close(w, ref.surface_omega(m, float(k)), checks.CLOSED_FORM_TOL, "surface branch")

    def _scattering(self, t, medium, geom):
        phi = nl.NonlinearTensor.from_array(t.phi)
        s_plus = self._mode(geom, "S", t.q)
        s_minus = self._mode(geom, "S", (-t.q[0], -t.q[1]))
        tmv = self._mode(geom, "TMv", (0.0, 0.0), t.kz_tmv)
        tel = self._mode(geom, "TEl", t.p1, t.kz3[0])
        tmu = self._mode(geom, "TMu", t.p2, t.kz3[1])
        tev = self._mode(geom, "TEv", (-t.p1[0] - t.p2[0], -t.p1[1] - t.p2[1]), t.kz3[2])
        for triple in ((s_plus, s_minus, tmv), (tel, tmu, tev)):
            values = [self._scatter(list(p), phi, geom).value for p in itertools.permutations(triple)]
            conj = self._scatter([md.conjugate_mode(x) for x in triple], phi, geom).value
            self._note("scatter_permutation", checks.permutation_symmetry(values[0], values[1:]))
            self._note("scatter_conjugation", checks.conjugation_pairing(values[0], conj))
        tev_off = self._mode(geom, "TEv", t.p3, t.kz3[2])
        for triple in ((s_plus, s_plus, tmv), (tel, tmu, tev_off)):
            res = self._scatter(list(triple), phi, geom)
            checks.momentum_zero(res.value, res.momentum_ok)

    def _lossy_tables(self, t, m, medium):
        ups, a, b = t.flat
        flat = diss.flat_bath(medium, ups, a, b)
        for w in t.flat_w:
            eps = self._lossy(medium, flat, w)
            self._note("flat_eps", checks.bath_eps(eps, ref.flat_bath_eps(m, ups, a, b, float(w)), "flat bath"))
        amp, cut = OHMIC
        om = OHMIC_MEDIUM
        ohmic_medium = media.from_phonon_frequencies(om.omega_T, om.omega_L, om.rho)
        ohmic = diss.ohmic_bath(ohmic_medium, amp, cut)
        for w in t.ohmic_w:
            eps = self._lossy(ohmic_medium, ohmic, w)
            self._note("ohmic_eps", checks.bath_eps(eps, ref.ohmic_bath_eps(om, amp, cut, float(w)), "ohmic bath"))

    def _driven(self, t, m, medium):
        ups, a, b = t.flat
        bath = diss.flat_bath(medium, ups, a, b)
        box = media.homogeneous_box(medium, DRIVEN_BOX, AREA)
        with self.tr.span("dissipative.driven_field"):
            sol = diss.driven_field(box, bath, t.driven_w, [(0.0, 1.0)])
            theta = sol.evaluate(DRIVEN_Z)
        rate = ref.decay_rate(ref.flat_bath_eps(m, ups, a, b, t.driven_w), t.driven_w)
        self._note("driven_decay", checks.driven_decay(DRIVEN_Z, theta, rate))

    def trace_extras(self, t: Table):
        pass
