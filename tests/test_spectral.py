"""Spectral module tests: assembly invariants, torus oracles, extensions."""

import math

import numpy as np
import pytest

from spinlap import surface as sf, hodge, homology_spin as hs, spectral as spec

import oracles


@pytest.fixture(scope="module")
def torus_setup():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.02)
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    lift = hs.build_sign_lift(mesh, spin)
    op = spec.assemble_operator(mesh, lift, "friedrichs")
    return mesh, spin, lift, op


def test_assembly_hermitian_psd(torus_setup):
    _, _, _, op = torus_setup
    A, M = op.stiffness, op.mass
    assert (A - A.conj().T).nnz == 0 or \
        np.max(np.abs((A - A.conj().T).data)) < 1e-14
    assert (M - M.conj().T).nnz == 0 or \
        np.max(np.abs((M - M.conj().T).data)) < 1e-14
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
        assert np.vdot(x, A @ x).real >= -1e-10
        assert np.vdot(x, M @ x).real > 0


def _dbar_gram(mesh, lift):
    """Complex dbar Gram sum_T A conj(eta_a dbar phi_a) eta_b dbar phi_b of
    sign-lifted P1, summed over triangles by vertex pair: (rows, cols, values)
    over the pairs of non-cone vertices, with rows/cols numbered as dofs."""
    p = mesh.tri_pos
    area = 0.5 * (np.conj(p[:, 1] - p[:, 0]) * (p[:, 2] - p[:, 0])).imag
    opp = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]],
                   axis=1)                       # edge opposite each corner
    d = lift.eta * (-opp / (4j * area[:, None]))  # eta_c dbar phi_c
    local = area[:, None, None] * np.conj(d)[:, :, None] * d[:, None, :]
    nv = mesh.n_vertices
    v = mesh.triangles
    keys = (v[:, :, None] * nv + v[:, None, :]).ravel()
    pairs, inv = np.unique(keys, return_inverse=True)
    gram = (np.bincount(inv, local.real.ravel())
            + 1j * np.bincount(inv, local.imag.ravel()))
    is_dof = np.ones(nv, dtype=bool)
    is_dof[mesh.cone_vertex_ids()] = False
    dof = np.cumsum(is_dof) - 1
    rows, cols = pairs // nv, pairs % nv
    keep = is_dof[rows] & is_dof[cols]
    return dof[rows[keep]], dof[cols[keep]], gram[keep]


@pytest.fixture(scope="module")
def g2_h05():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    mesh = sf.generate_mesh(sf.build_surface(m), h=0.05)
    spin = hs.enumerate_spin_structures(2)[0]
    return mesh, spin, hs.build_sign_lift(mesh, spin)


@pytest.mark.parametrize("setup", ["torus_setup", "g2_h05"])
def test_friedrichs_pencil_is_the_real_dbar_gram(setup, request):
    mesh, _, lift, *_ = request.getfixturevalue(setup)
    op = spec.assemble_operator(mesh, lift, "friedrichs")
    assert op.stiffness.dtype == np.float64 and op.mass.dtype == np.float64
    rows, cols, gram = _dbar_gram(mesh, lift)
    scale = np.max(np.abs(gram.real))
    # the antisymmetric imaginary parts cancel across every interior edge
    assert np.max(np.abs(gram.imag)) <= 1e-12 * scale
    entries = np.asarray(op.stiffness[rows, cols]).ravel()
    assert np.max(np.abs(entries - gram.real)) <= 1e-12 * scale
    # and the stiffness has nothing outside the Gram's vertex pairs
    assert abs(op.stiffness).sum() == pytest.approx(np.abs(entries).sum(),
                                                    rel=1e-12)


def test_enriched_pencils_stay_complex(g2_h05):
    mesh, spin, lift = g2_h05
    pd = hodge.period_matrix(mesh)
    char = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b), pd)
    for ext in ("szego", "holomorphic"):
        op = spec.assemble_operator(mesh, lift, ext, periods=pd, char=char)
        assert op.stiffness.dtype == np.complex128
        assert op.mass.dtype == np.complex128


def test_eigenvalues_record_a_clamped_request():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.25)
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spin),
                                "friedrichs")
    res = spec.eigenvalues(op, op.n_dofs + 5)
    assert res.requested == op.n_dofs + 5
    assert len(res.eigenvalues) == op.n_dofs - 2
    res = spec.eigenvalues(op, 4)
    assert res.requested == len(res.eigenvalues) == 4

def test_torus_spectrum_oracle(torus_setup):
    _, _, _, op = torus_setup
    res = spec.eigenvalues(op, 24)
    ref = oracles.torus_spectrum(1.0, 1j, -1, -1, 24)
    rel = np.abs(res.eigenvalues[:20] - ref[:20]) / ref[:20]
    assert rel.max() < 0.01
    assert abs(res.eigenvalues[0] - math.pi ** 2 / 2) < 0.01 * math.pi ** 2 / 2


def test_other_spin_spectra():
    # periodic-antiperiodic structure: lambda = pi^2 (m^2 + (n+1/2)^2) types
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.04)
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (1,) and x.sigma_b == (-1,)][0]
    lift = hs.build_sign_lift(mesh, spin)
    res = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 8)
    ref = oracles.torus_spectrum(1.0, 1j, 1, -1, 8)
    rel = np.abs(res.eigenvalues - ref) / ref
    assert rel.max() < 0.02


def test_friedrichs_monotone_under_refinement():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    lams = {}
    for h in (0.05, 0.025):
        mesh = sf.generate_mesh(s, h=h)
        lift = hs.build_sign_lift(mesh, spin)
        lams[h] = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 10).eigenvalues
    # conforming Galerkin: eigenvalues decrease toward the limit
    assert np.all(lams[0.025] <= lams[0.05] + 1e-12)


def test_torus_zeta_vs_epstein():
    A, B = 1.0, 1j
    truth = oracles.torus_logdet(A, B, -1, -1)
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[A], B=[B]))
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    results = {}
    for h in (0.04, 0.028):
        mesh = sf.generate_mesh(s, h=h)
        lift = hs.build_sign_lift(mesh, spin)
        results[h] = spec.eigenvalues(
            spec.assemble_operator(mesh, lift, "friedrichs"), 150)
    rich = spec.richardson_eigenvalues(results[0.04], results[0.028])
    ld, err, _ = spec.zeta_determinant(rich)
    assert abs(ld - truth) < 5e-3
    assert abs(ld - truth) < 3 * max(err, 1e-3)


def test_zeta_formula_on_exact_spectrum():
    ref = oracles.torus_spectrum(1.0, 1j, -1, -1, 2000)
    res = spec.SpectralResult(extension="friedrichs", h=0.0, genus=1,
                              area=1.0, eigenvalues=ref, n_dofs=0)
    ld, err, _ = spec.zeta_determinant(res)
    assert abs(ld - math.log(2.0)) < 1e-5


def test_metric_scaling_invariance_on_torus():
    # scaling the metric by c^2 shifts log det by -zeta(0) log c^2 = 0 here
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    lds = []
    for c in (1.0, 1.3):
        s = sf.build_surface(sf.ModuliPoint(genus=1, A=[c], B=[c * 1j]))
        mesh = sf.generate_mesh(s, h=0.03 * c)
        lift = hs.build_sign_lift(mesh, spin)
        res = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 150)
        lds.append(spec.zeta_determinant(res)[0])
    assert abs(lds[0] - lds[1]) < 1e-8   # identical scaled spectra, same split


def test_heat_trace_window_error(torus_setup):
    _, _, _, op = torus_setup
    res = spec.eigenvalues(op, 30)
    with pytest.raises(spec.WindowError):
        spec.heat_trace(res, 1e-5)


def test_c0_theory_values():
    assert spec.c0_theory("friedrichs", 1) == 0.0
    assert spec.c0_theory("friedrichs", 2) == -0.375
    assert spec.c0_theory("szego", 2) == -0.875
    assert spec.c0_theory("holomorphic", 3) == -0.75


def test_torus_heat_trace_constant_zero():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    res = {}
    for h in (0.028, 0.02):
        mesh = sf.generate_mesh(s, h=h)
        lift = hs.build_sign_lift(mesh, spin)
        res[h] = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 300)
    rich = spec.richardson_eigenvalues(res[0.028], res[0.02])
    c0, _ = spec.fit_heat_trace_constant(rich)
    assert abs(c0) < 0.02


# -- g2 extension structure (coarse, fast; the acceptance suite re-runs at h=0.02)

@pytest.fixture(scope="module")
def g2_coarse():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    s = sf.build_surface(m)
    mesh = sf.generate_mesh(s, h=0.035)
    pd = hodge.period_matrix(mesh)
    spin = hs.enumerate_spin_structures(2)[0]
    char = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b), pd)
    lift = hs.build_sign_lift(mesh, spin)
    return mesh, pd, spin, char, lift


def test_g2_friedrichs_positive(g2_coarse):
    mesh, _, _, _, lift = g2_coarse
    res = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 6)
    assert res.eigenvalues[0] > 0.05


def test_g2_szego_positive(g2_coarse):
    mesh, _, _, _, lift = g2_coarse
    res = spec.eigenvalues(spec.assemble_operator(mesh, lift, "szego"), 6)
    assert res.eigenvalues[0] > 0.01


def test_g2_exact_holomorphic_kernel(g2_coarse):
    mesh, pd, _, char, lift = g2_coarse
    op = spec.assemble_operator(mesh, lift, "holomorphic", periods=pd, char=char)
    res = spec.eigenvalues(op, 12)
    assert res.kernel_dimension() == 2
    resF = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 10)
    pos = res.positive()
    rel = np.abs(pos[:8] - resF.eigenvalues[:8]) / resF.eigenvalues[:8]
    assert rel.max() < 0.02


def test_g2_local_holomorphic_cluster(g2_coarse):
    # the cutoff-regularized x^{-1} variant shows a low cluster of size 2g-2
    mesh, _, _, _, lift = g2_coarse
    res = spec.eigenvalues(spec.assemble_operator(mesh, lift, "holomorphic_local"), 10)
    resF = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 4)
    lam = res.eigenvalues
    assert lam[0] < 0.5 * resF.eigenvalues[0]
    assert lam[1] < resF.eigenvalues[0]


def test_sigma_flip_changes_spectrum(g2_coarse):
    mesh, _, spin, _, lift = g2_coarse
    other = [s for s in hs.enumerate_spin_structures(2)
             if s.sigma_a == (-1, -1) and s.sigma_b == (-1, -1)][0]
    lift2 = hs.build_sign_lift(mesh, other)
    r1 = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 4)
    r2 = spec.eigenvalues(spec.assemble_operator(mesh, lift2, "friedrichs"), 4)
    assert abs(r1.eigenvalues[0] - r2.eigenvalues[0]) > 1e-3


def test_szego_zeta_smoke(g2_coarse):
    # coarse-mesh Szego spectra do not reach the 2% auto-overlap, so the split
    # point is pinned; this checks the pipeline and the -7(g-1)/8 model shift
    mesh, _, _, _, lift = g2_coarse
    res = spec.eigenvalues(spec.assemble_operator(mesh, lift, "szego"), 150)
    ld, err, info = spec.zeta_determinant(res, t0=0.25, fit_remainder=False)
    assert np.isfinite(ld) and err < 0.5
    assert info["c0"] == spec.c0_theory("szego", 2)


def test_extract_cone_coefficients_api(g2_coarse):
    mesh, _, _, _, lift = g2_coarse
    res = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"), 4,
                           vectors=True)
    out = res.extract_cone_coefficients(modes=(0,), cones=(0,))
    assert (0, 0) in out and "residual" in out[(0, 0)]
