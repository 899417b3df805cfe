"""Acceptance suite: runs every acceptance criterion at its stated tolerance
and prints one pass/fail line per criterion.

All criteria are primary.  Heavy pipelines reuse the session fixtures from
conftest, so each is built once per session.
"""

import math
import time

import numpy as np
import pytest

from spinlap import surface as sf, hodge, homology_spin as hs, theta as th
from spinlap import cone_analysis as ca
from spinlap import spectral as spec
from spinlap import determinants as det

import oracles


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- 1: theta heat equation ----------------------------------------------------

def test_criterion_1_theta_heat_equation():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    count = 0
    while count < 100:
        g = int(rng.integers(1, 4))
        re = rng.normal(size=(g, g))
        re = 0.15 * (re + re.T)
        m = rng.normal(size=(g, g)) * 0.4
        B = re + 1j * (m @ m.T + np.eye(g))
        char = th.all_characteristics(g)[int(rng.integers(4 ** g))]
        xi = rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.2
        worst = max(worst, th.heat_equation_residual(char, xi, B))
        count += 1
    dt = time.time() - t0
    _report(1, "theta heat equation",
            worst < 1e-8 and dt < 10.0,
            f"worst residual {worst:.2e} over 100 Siegel points, {dt:.1f}s")


# -- 2: torus spectral oracle ---------------------------------------------------

def test_criterion_2_torus_oracle():
    t0 = time.time()
    A, B = 1.0, 1j
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[A], B=[B]))
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    results = {}
    for h in (0.028, 0.02):
        mesh = sf.generate_mesh(s, h=h)
        lift = hs.build_sign_lift(mesh, spin)
        results[h] = spec.eigenvalues(
            spec.assemble_operator(mesh, lift, "friedrichs"), 180)
    ref = oracles.torus_spectrum(A, B, -1, -1, 20)
    rel = np.abs(results[0.02].eigenvalues[:20] - ref) / ref
    rich = spec.richardson_eigenvalues(results[0.028], results[0.02])
    ld, err, _ = spec.zeta_determinant(rich)
    truth = oracles.torus_logdet(A, B, -1, -1)
    dt = time.time() - t0
    _report(2, "torus spectral + zeta oracle",
            rel.max() < 0.01 and abs(ld - truth) < 1e-3 and dt < 120.0,
            f"eig rel {rel.max():.2%}, |dlogdet| {abs(ld - truth):.2e} "
            f"(err bar {err:.1e}), {dt:.0f}s")


# -- 3: cone kernels dual route ---------------------------------------------------

def test_criterion_3_cone_dual_route():
    alpha = 4 * math.pi
    rs = np.linspace(0.15, 1.6, 10)
    ts = np.geomspace(0.06, 0.9, 5)
    phi, phip = 2.3, 7.9
    worst = 0.0
    for r in rs:
        for rp in rs:
            for t in ts:
                v1 = ca.antiperiodic_kernel(r, phi, rp, phip, t, alpha, "contour")
                v2 = ca.antiperiodic_kernel(r, phi, rp, phip, t, alpha, "bessel")
                worst = max(worst, abs(v1 - v2))
    # alpha = 2 pi degeneration to the plane kernel
    rng = np.random.default_rng(3)
    worst_plane = 0.0
    for _ in range(25):
        r, rp = rng.uniform(0.1, 2.0, 2)
        p1, p2 = rng.uniform(0, 2 * math.pi, 2)
        t = rng.uniform(0.05, 1.0)
        val = ca.carslaw_kernel(r, p1, rp, p2, t, 2 * math.pi)
        d2 = r * r - 2 * r * rp * math.cos(p1 - p2) + rp * rp
        worst_plane = max(worst_plane, abs(val - math.exp(-d2 / t) / (math.pi * t)))
    _report(3, "cone kernel dual routes",
            worst < 1e-8 and worst_plane < 1e-10,
            f"contour-vs-Bessel {worst:.2e} on 10x10x5 grid, "
            f"plane degeneration {worst_plane:.2e}")


# -- 4: per-cone trace constant ----------------------------------------------------

def test_criterion_4_trace_constant():
    worst = 0.0
    for alpha in (2 * math.pi, 3 * math.pi, 4 * math.pi):
        num = ca.cone_trace_constant_numeric(alpha)
        worst = max(worst, abs(num - ca.cone_trace_constant(alpha)))
    exact_4pi = abs(ca.cone_trace_constant(4 * math.pi) - (-3.0 / 16.0))
    _report(4, "per-cone trace constant",
            worst < 1e-3 and exact_4pi < 1e-15,
            f"numeric-vs-closed {worst:.2e}, alpha=4pi value -3/16 exact")


# -- 5: global heat-trace constant -------------------------------------------------

@pytest.mark.slow
def test_criterion_5_heat_trace_constant():
    # moduli chosen with a long slit so the closed-geodesic remainder stays
    # exponentially below the extraction window; eigenvalues Richardson-paired
    t0 = time.time()
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1.2j, 1.2j], C=[0.15, 0.65])
    s = sf.build_surface(m)
    spin = hs.enumerate_spin_structures(2)[0]
    res = {}
    for h in (0.04, 0.028, 0.02):
        mesh = sf.generate_mesh(s, h=h, grading=0.78)
        lift = hs.build_sign_lift(mesh, spin)
        res[h] = spec.eigenvalues(
            spec.assemble_operator(mesh, lift, "friedrichs"), 420)
    fine = spec.richardson_eigenvalues(res[0.028], res[0.02])
    coarse = spec.richardson_eigenvalues(res[0.04], res[0.028])
    c0_fine, _ = spec.fit_heat_trace_constant(fine)
    c0_coarse, _ = spec.fit_heat_trace_constant(coarse)
    target = -0.375
    improved = abs(c0_fine - target) <= abs(c0_coarse - target) + 0.02
    dt = time.time() - t0
    _report(5, "global heat-trace constant",
            -0.45 <= c0_fine <= -0.30 and improved and dt < 600.0,
            f"fitted c0 {c0_fine:.4f} (target {target}), coarser pair "
            f"{c0_coarse:.4f}, {dt:.0f}s")


# -- 6: scattering asymptotics -----------------------------------------------------

def test_criterion_6_scattering_asymptotics():
    worst = 0.0
    for lam in (-1e3, -1e4, -1e6):
        t_diag, _ = ca.model_scattering_asymptote(lam, g=2)
        worst = max(worst, abs(t_diag * ca.GAMMA_3_4 ** 2 * (-lam) ** 0.25 - 1.0))
    worst_det = 0.0
    for g in (2, 3):
        lam = -3e3
        diag = ca.GAMMA_3_4 ** (-2) * (-lam) ** (-0.25)
        det_direct = diag ** (2 * g - 2)
        ref = ca.det_t_asymptote(lam, g)
        worst_det = max(worst_det, abs(det_direct - ref) / abs(ref))
    _report(6, "model scattering asymptotics",
            worst < 1e-6 and worst_det < 1e-12,
            f"|T_kk G(3/4)^2 (-lam)^(1/4) - 1| <= {worst:.2e}, "
            f"det identity defect {worst_det:.1e}")


# -- 7: T(0) structure ---------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_t0_structure(g2_surface_s, g2_periods_fine, g2_even_spins):
    _, char = g2_even_spins[0]
    data = det.t_matrix_zero(g2_surface_s, g2_periods_fine, char)
    herm = data.hermiticity_defect()
    mineig = data.min_eigenvalue()
    direct = det.s_gram_direct(g2_periods_fine, char)[0, 0].real
    ref = math.pi ** 2 * data.t0[0, 0].real
    combined = math.pi ** 2 * data.quadrature_error + 0.02 * ref
    _report(7, "T(0) Hermitian PD + diagonal cross-check",
            herm <= max(data.quadrature_error, 1e-10) and mineig > 0
            and abs(direct - ref) < combined,
            f"herm {herm:.1e}, min eig {mineig:.3f}, diagonal "
            f"|direct-quad| {abs(direct - ref):.3f} vs budget {combined:.3f}")


# -- 8: comparison formula / D'Hoker-Phong ratio --------------------------------------

@pytest.mark.slow
def test_criterion_8_dhoker_phong(g2_moduli, g2_even_spins):
    worst_sym = max(det.dhoker_phong_symbolic_check(g, np.random.default_rng(g))
                    for g in (2, 3))
    spin, _ = g2_even_spins[0]
    cache = {}
    rep1, _ = det.determinant_report(g2_moduli, spin, h=0.02, n_eigs=280,
                                     cache=cache)
    m2 = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1.1j, 1.9j], C=[0.2, 0.55])
    spin2 = [x for x in hs.enumerate_spin_structures(2)
             if (x.sigma_a, x.sigma_b) == (spin.sigma_a, spin.sigma_b)][0]
    rep2, _ = det.determinant_report(m2, spin2, h=0.02, n_eigs=280)
    closed = math.log(det.dhoker_phong_ratio(2))
    gap = max(abs(rep1.ratio_log - closed), abs(rep2.ratio_log - closed),
              abs(rep1.ratio_log - rep2.ratio_log))
    _report(8, "D'Hoker-Phong ratio",
            worst_sym < 1e-12 and gap < 0.15,
            f"symbolic cancellation {worst_sym:.1e}, assembled ratio gap "
            f"across moduli {gap:.2e} (budget 0.15)")


# -- 9: spin-structure independence ----------------------------------------------------

@pytest.mark.slow
def test_criterion_9_spin_independence(g2_moduli, g2_even_spins):
    t0 = time.time()
    spins = [s for s, _ in g2_even_spins]
    out = det.spin_independence_test(g2_moduli, spins, h=0.02, n_eigs=280)
    dq = out["max_delta_q"]
    # torus-mode analogue via explicit spectra
    A, B = 1.0, 0.4 + 1.1j
    tau = B / A
    consts = []
    for (sa, sb) in ((-1, -1), (-1, 1), (1, -1)):
        ld = oracles.torus_logdet(A, B, sa, sb)
        char = th.ThetaCharacteristic((0.5 if sa == 1 else 0.0,),
                                      (0.5 if sb == 1 else 0.0,))
        t0v = th.theta(char, np.zeros(1), np.array([[tau]]))
        consts.append(ld - 2 * math.log(abs(t0v / oracles.dedekind_eta(tau))))
    torus_spread = max(consts) - min(consts)
    _report(9, "spin-structure independence of Q",
            dq <= 0.1 and torus_spread < 1e-3,
            f"max |dQ| {dq:.4f} over {len(spins)} even spins (budget 0.1), "
            f"torus analogue spread {torus_spread:.1e}, {time.time()-t0:.0f}s")


# -- 10: extension-domain signatures -----------------------------------------------------

@pytest.mark.slow
def test_criterion_10_extension_signatures(g2_mesh_fine, g2_periods_fine,
                                           g2_even_spins):
    mesh = g2_mesh_fine
    spin, char = g2_even_spins[0]
    lift = hs.build_sign_lift(mesh, spin)
    opF = spec.assemble_operator(mesh, lift, "friedrichs")
    opS = spec.assemble_operator(mesh, lift, "szego")
    resF = spec.eigenvalues(opF, 24, vectors=True)
    resS = spec.eigenvalues(opS, 4, vectors=True)

    def coef(op, res, mode_idx, k):
        return spec.extract_singular_coefficients(
            op, res.vectors[:, mode_idx], res.eigenvalues[mode_idx], k)

    # within-eigenfunction ratios: the excluded mode of each extension against
    # the admitted one of the same pair (suppression > 10x <=> ratio < 0.1)
    ratios_p, ratios_m = [], []
    for k in (0, 1):
        for mode in (0, 1, 2):
            cf = coef(opF, resF, mode, k)
            ratios_p.append(abs(cf[(0, 1)]) / abs(cf[(0, -1)]))
        for mode in (0, 1):
            cs = coef(opS, resS, mode, k)
            ratios_m.append(abs(cs[(0, -1)]) / abs(cs[(0, 1)]))
    sig_ok = max(ratios_p) < 0.1 and max(ratios_m) < 0.1

    opH = spec.assemble_operator(mesh, lift, "holomorphic",
                                 periods=g2_periods_fine, char=char)
    resH = spec.eigenvalues(opH, 24)
    kdim = resH.kernel_dimension()
    pos = resH.positive()
    n = min(20, len(pos))
    iso = np.max(np.abs(pos[:n] - resF.eigenvalues[:n]) / resF.eigenvalues[:n])
    _report(10, "extension-domain signatures",
            sig_ok and kdim == 2 and iso < 0.02,
            f"suppression c(0,+) F/S {max(ratios_p):.3f}, c(0,-) S/F "
            f"{max(ratios_m):.3f} (both < 0.1), ker dim {kdim} (=2g-2), "
            f"F-vs-H nonzero dev {iso:.2e} (< 2%)")


# -- 11: moduli-geometry identities ---------------------------------------------------------

def test_criterion_11a_area_identity():
    worst = 0.0
    for m in (sf.ModuliPoint(genus=1, A=[2.0], B=[1 + 1j]),
              sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5]),
              sf.ModuliPoint(genus=2, A=[1.0, 1 + 0.1j], B=[0.2 + 1j, 1.8j],
                             C=[0.25 + 0.05j, 0.55 + 0.05j])):
        s = sf.build_surface(m)
        ref = -sum((a * np.conj(b)).imag for a, b in zip(m.A, m.B))
        worst = max(worst, abs(sf.flat_area(s) - ref) / abs(ref))
    _report("11a", "flat area identity", worst < 1e-12,
            f"max relative defect {worst:.2e}")


@pytest.mark.slow
def test_criterion_11b_dB_dnu(g2_moduli):
    worst = 0.0
    details = []
    for nu in (("A", 0), ("B", 1), ("C", 1)):
        res = hodge.check_dB_dnu(g2_moduli, nu, step=0.015, h=0.02)
        worst = max(worst, res["rel_error"])
        details.append(f"{nu[0]}{nu[1]}:{res['rel_error']:.1e}"
                       f"/dbar {res['dbar_norm']:.1e}")
    _report("11b", "dB/dnu variational identity", worst < 1e-3,
            "rel errors " + ", ".join(details))
