"""The benchmark's workloads: inputs made from the seed, one round of
operations through spinlap's public API, and the checks on each output.

A round is short, so that a run holds several and reports their median.
On torus-oracle and g2-determinants a round is one operation, for the spin
structure that is next in turn (rounds cycle through them); every round of
g2-extensions runs the same four operations, one of which fails, so the share
of failed operations does not depend on the seed or on how many rounds fit in
a run.  Only g2-extensions' szego-zeta may fail, and only with WindowError;
any other exception of an operation fails the run's checks as well.
Each round starts from nothing (fresh surfaces, meshes and caches), so a
round costs the same whether it is the first or the fifth of a run.
"""

from __future__ import annotations

import math

import numpy as np

from spinlap import determinants as det
from spinlap import hodge
from spinlap import homology_spin as hs
from spinlap import spectral as spec
from spinlap import surface as sf

from . import reference

# The genus-2 point of the test suite.  The genus-2 workloads keep it for
# every seed: the szego-zeta failure of g2-extensions must not depend on the
# seed, and the checks' tolerances are stated for this point.
G2_MODULI = dict(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])

# Largest mesh size whose Richardson partner (1.4 h = 0.056) still meshes the
# shortest slit of the point above; 1.4 * 0.045 = 0.063 does not.
G2_H = 0.04
# Mesh size on which the even spins are ranked by |theta[p,q](0)|.
RANK_H = 0.05


class Round:
    """One pass over a workload's operations, with their timing and checks."""

    def __init__(self, clock, index=0):
        self.clock = clock
        self.index = index       # position in the run: picks the spin in turn
        self.start = clock()
        self.first_result = None
        self.duration = None
        self.attempted = 0
        self.failed = []         # "op: error" for operations that raised
        self.wrong = []          # failed output checks and unexpected errors
        self.log = []
        self.results = {}        # figures that checks across rounds compare

    def expect(self, ok, what):
        if not ok:
            self.wrong.append(what)

    def op(self, name, fn, expected=()):
        """Run one operation; fn computes and checks, and returns a note.

        An operation that raises is counted in `failed`.  Unless the
        exception is one of the `expected` types, it also fails the checks."""
        self.attempted += 1
        t = self.clock()
        try:
            note = fn()
        except Exception as exc:
            error = f"{name}: {type(exc).__name__}: {exc}"
            self.failed.append(error)
            if not isinstance(exc, expected):
                self.wrong.append(f"unexpected error in {error}")
            return
        now = self.clock()
        if self.first_result is None:
            self.first_result = now - self.start
        self.log.append(f"{name} {now - t:.2f}s {note}")

    def finish(self):
        self.duration = self.clock() - self.start


def warm_up():
    """A tiny torus pipeline: loads every lazily imported solver path."""
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.2)
    spin = hs.enumerate_spin_structures(1)[-1]
    op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spin),
                                "friedrichs")
    spec.eigenvalues(op, 8)


def best_even_spins(moduli, count):
    """The `count` even spin structures with the largest |theta[p,q](0)|,
    ranked on an h = RANK_H mesh, as the test suite picks them."""
    periods = hodge.period_matrix(
        sf.generate_mesh(sf.build_surface(moduli), h=RANK_H))
    ranked = []
    for spin in hs.enumerate_spin_structures(moduli.genus):
        if spin.is_even:
            char = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b),
                                               periods)
            ranked.append((abs(periods.theta0(char)), spin))
    ranked.sort(key=lambda item: -item[0])
    return [spin for _, spin in ranked[:count]]


def _spin_label(spin):
    signs = "".join("+" if s == 1 else "-" for s in spin.sigma_a + spin.sigma_b)
    return f"spin[{signs}]"


# ---------------------------------------------------------------------------

class Workload:
    min_rounds = 1           # rounds a run makes however short --seconds is

    def check_run(self, rounds):
        """Checks across the rounds of a run; returns the failed ones."""
        return []


class G2Determinants(Workload):
    """determinant_report for one spin per round, the spins taking turns:
    the body of determinants.spin_independence_test, one spin at a time.
    The cache is new in every round (it is keyed on h alone), so every round
    pays for the geometry, and Q is compared across the rounds of a run."""

    name = "g2-determinants"
    n_spins = 2
    n_eigs = 200
    q_budget = 0.1            # the test suite's budget on max |dQ|
    # max|T - T^H| / max|T|: at most 3e-17 for the three best even spins at
    # h = 0.04, since T(0) is Hermitian by assembly; 1e-12 leaves rounding room
    t0_herm_tol = 1e-12
    # |B_raw - B_raw^T| / max|B_raw|: 2.9e-8 at h = 0.04, 3.3e-7 at h = 0.05
    b_asym_tol = 1e-6

    min_rounds = n_spins     # each spin once, for the Q spread

    def prepare(self, seed):
        moduli = sf.ModuliPoint(**G2_MODULI)
        return {"moduli": moduli, "spins": best_even_spins(moduli, self.n_spins)}

    def run_round(self, inputs, rnd):
        cache = {}
        spin = inputs["spins"][rnd.index % self.n_spins]

        def one_spin():
            rep, t0 = det.determinant_report(inputs["moduli"], spin, h=G2_H,
                                             n_eigs=self.n_eigs, cache=cache)
            label = _spin_label(spin)
            # positive definiteness needs no check here: t_matrix_zero raises
            # ConsistencyError without it, which fails the run
            herm = t0.hermiticity_defect() / float(np.max(np.abs(t0.t0)))
            rnd.expect(herm <= self.t0_herm_tol,
                       f"{label}: T(0) relative Hermiticity defect {herm:.2e} "
                       f"over {self.t0_herm_tol}")
            rnd.expect(all(map(math.isfinite, (rep.log_det_f, rep.log_det_f_err,
                                               rep.q_value))),
                       f"{label}: non-finite determinant report")
            self._check_periods(cache, rnd)
            rnd.results["q"] = rep.q_value
            return f"Q={rep.q_value:.5f} log det F={rep.log_det_f:.5f}"

        rnd.op(_spin_label(spin), one_spin)

    def check_run(self, rounds):
        q_values = [r.results["q"] for r in rounds if "q" in r.results]
        if len(q_values) < self.n_spins:
            return [f"Q known for {len(q_values)} rounds, fewer than "
                    f"{self.n_spins}"]
        spread = max(q_values) - min(q_values)
        if spread > self.q_budget:
            return [f"Q spread {spread:.4f} over the budget {self.q_budget}"]
        return []

    def _check_periods(self, cache, rnd):
        """B as determinant_report computed it: it keeps its PeriodData in
        the cache it was given."""
        found = [x for v in cache.values() if isinstance(v, tuple)
                 for x in v if isinstance(x, hodge.PeriodData)]
        if not found:
            rnd.expect(False, "no period data in the determinant cache")
            return
        raw = found[0].b_raw
        asym = float(np.max(np.abs(raw - raw.T)) / np.max(np.abs(raw)))
        rnd.expect(asym <= self.b_asym_tol,
                   f"raw period matrix asymmetry {asym:.2e} over "
                   f"{self.b_asym_tol}")
        rnd.expect(np.linalg.eigvalsh(found[0].b_matrix.imag).min() > 0,
                   "Im B not positive definite")


class TorusOracle(Workload):
    """A flat torus with a seeded shape and, per round, one of the three
    structures without a zero mode in turn; Friedrichs spectra at two mesh
    levels, Richardson, zeta determinant, all checked against the explicit
    spectrum and determinant."""

    name = "torus-oracle"
    # the mesh pair and eigenvalue count of the suite's torus criterion; at
    # (0.04, 0.028) some shapes miss the 1e-3 (5.6e-3 for B = 0.006 + 1.09i)
    mesh_pair = (0.028, 0.02)
    n_eigs = 180
    n_check = 20
    eig_tol = 0.01            # relative, Richardson vs explicit, first 20
    logdet_tol = 1e-3         # as the torus criterion of the test suite
    min_rounds = 3            # each structure once

    def prepare(self, seed):
        # |A| = |B| = 1 keeps the mesh sizes and so the work the same for
        # every seed; the seed turns B off the square shape by up to 0.25 rad
        rng = np.random.default_rng(seed)
        A = 1.0
        B = complex(np.exp(1j * (math.pi / 2 + rng.uniform(-0.25, 0.25))))
        spins = [s for s in hs.enumerate_spin_structures(1)
                 if (s.sigma_a, s.sigma_b) != ((1,), (1,))]
        refs = {}
        for s in spins:
            signs = (s.sigma_a[0], s.sigma_b[0])
            refs[signs] = (reference.torus_spectrum(A, B, *signs, self.n_check),
                           reference.torus_logdet(A, B, *signs))
        return {"A": A, "B": B, "spins": spins, "refs": refs}

    def run_round(self, inputs, rnd):
        surf = sf.build_surface(sf.ModuliPoint(genus=1, A=[inputs["A"]],
                                               B=[inputs["B"]]))
        meshes = [sf.generate_mesh(surf, h=h) for h in self.mesh_pair]

        def one_spin(spin):
            results = []
            for mesh in meshes:
                lift = hs.build_sign_lift(mesh, spin)
                op = spec.assemble_operator(mesh, lift, "friedrichs")
                results.append(spec.eigenvalues(op, self.n_eigs))
            rich = spec.richardson_eigenvalues(*results)
            log_det, _, _ = spec.zeta_determinant(rich)
            exact_eigs, exact_log_det = inputs["refs"][(spin.sigma_a[0],
                                                        spin.sigma_b[0])]
            rel = float(np.max(np.abs(rich.eigenvalues[:self.n_check] - exact_eigs)
                               / exact_eigs))
            gap = abs(log_det - exact_log_det)
            label = _spin_label(spin)
            rnd.expect(rel <= self.eig_tol,
                       f"{label}: Richardson eigenvalues off by {rel:.2%}")
            rnd.expect(gap <= self.logdet_tol,
                       f"{label}: |log det - exact| = {gap:.2e}")
            return f"eig rel {rel:.2e} |dlogdet| {gap:.2e}"

        spin = inputs["spins"][rnd.index % len(inputs["spins"])]
        rnd.op(_spin_label(spin), lambda: one_spin(spin))


class G2Extensions(Workload):
    """Friedrichs, Szego and holomorphic solves on one genus-2 mesh, and the
    Szego zeta determinant from the Richardson pair (1.4 h, h), which fails
    today (WindowError: no overlap window between eigenvalue sum and
    short-time model).  g2-determinants is its control: the Friedrichs
    spectra of the same spin, mesh pair and size find the window."""

    name = "g2-extensions"
    n_friedrichs = 24
    n_szego = G2Determinants.n_eigs
    n_holomorphic = 24
    n_compare = 20
    iso_tol = 0.02            # holomorphic vs Friedrichs nonzero eigenvalues

    def prepare(self, seed):
        moduli = sf.ModuliPoint(**G2_MODULI)
        return {"moduli": moduli, "spin": best_even_spins(moduli, 1)[0]}

    def run_round(self, inputs, rnd):
        moduli, spin = inputs["moduli"], inputs["spin"]
        surf = sf.build_surface(moduli)
        mesh = sf.generate_mesh(surf, h=G2_H)
        periods = hodge.period_matrix(mesh)
        char = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b), periods)
        lift = hs.build_sign_lift(mesh, spin)
        solved = {}

        def solve(extension, n, **kwargs):
            op = spec.assemble_operator(mesh, lift, extension, **kwargs)
            solved[extension] = res = spec.eigenvalues(op, n)
            return res

        def friedrichs():
            res = solve("friedrichs", self.n_friedrichs)
            rnd.expect(res.kernel_dimension() == 0 and res.eigenvalues[0] > 0,
                       "Friedrichs spectrum not positive")
            return f"lambda_1 {res.eigenvalues[0]:.5f}"

        def szego():
            res = solve("szego", self.n_szego)
            rnd.expect(res.kernel_dimension() == 0 and res.eigenvalues[0] > 0,
                       f"Szego spectrum has a kernel of dimension "
                       f"{res.kernel_dimension()}")
            return f"lambda_1 {res.eigenvalues[0]:.5f}"

        def holomorphic():
            res = solve("holomorphic", self.n_holomorphic, periods=periods,
                        char=char)
            kdim = res.kernel_dimension()
            rnd.expect(kdim == 2 * moduli.genus - 2,
                       f"holomorphic kernel dimension {kdim}, expected "
                       f"{2 * moduli.genus - 2}")
            ref = solved["friedrichs"].eigenvalues[:self.n_compare]
            pos = res.positive()[:self.n_compare]
            dev = float(np.max(np.abs(pos - ref[:len(pos)]) / ref[:len(pos)]))
            rnd.expect(len(pos) == self.n_compare and dev <= self.iso_tol,
                       f"holomorphic vs Friedrichs deviation {dev:.2e}")
            return f"kernel {kdim} dev {dev:.2e}"

        def szego_zeta():
            coarse = sf.generate_mesh(surf, h=1.4 * G2_H)
            op = spec.assemble_operator(coarse, hs.build_sign_lift(coarse, spin),
                                        "szego")
            rich = spec.richardson_eigenvalues(
                spec.eigenvalues(op, self.n_szego), solved["szego"])
            log_det, err, _ = spec.zeta_determinant(rich)
            rnd.expect(math.isfinite(log_det) and math.isfinite(err),
                       "non-finite Szego zeta determinant")
            return f"log det S {log_det:.5f}"

        rnd.op("friedrichs", friedrichs)
        rnd.op("szego", szego)
        rnd.op("holomorphic", holomorphic)
        rnd.op("szego-zeta", szego_zeta, expected=(spec.WindowError,))


WORKLOADS = {w.name: w for w in (G2Determinants(), TorusOracle(),
                                 G2Extensions())}
