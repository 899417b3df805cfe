"""Determinants module tests: T(0) structure, comparison formula, D'Hoker-
Phong ratio, Bergman kernel, torus bosonization oracle."""

import math

import numpy as np
import pytest

from spinlap import surface as sf, hodge, homology_spin as hs, theta as th
from spinlap import cone_analysis as ca, determinants as det
from spinlap.cone_analysis import GAMMA_3_4

import oracles


@pytest.fixture(scope="module")
def g2_t0():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    s = sf.build_surface(m)
    mesh = sf.generate_mesh(s, h=0.035)
    pd = hodge.period_matrix(mesh)
    spin = [x for x in hs.enumerate_spin_structures(2)
            if x.sigma_a == (-1, -1) and x.sigma_b == (-1, -1)][0]
    char = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b), pd)
    lift = hs.build_sign_lift(mesh, spin)
    data = det.t_matrix_zero(s, pd, char)
    return s, pd, spin, char, lift, data


def test_t0_hermitian_pd(g2_t0):
    *_, data = g2_t0
    assert data.hermiticity_defect() < 1e-12
    assert data.min_eigenvalue() > 0
    assert data.det_t0 > 0


def test_t0_sgram_relation(g2_t0):
    *_, data = g2_t0
    assert np.allclose(data.s_gram, math.pi ** 2 * data.t0)


def test_t0_diagonal_cross_check(g2_t0):
    _, pd, _, char, _, data = g2_t0
    direct = det.s_gram_direct(pd, char)[0, 0].real
    ref = math.pi ** 2 * data.t0[0, 0].real
    combined = math.pi ** 2 * data.quadrature_error + 0.02 * ref
    assert abs(direct - ref) < combined


def test_t0_error_estimate_is_the_delta_swap(g2_t0):
    s, pd, _, char, _, _ = g2_t0
    odd = th.odd_characteristics(2)
    data = det.t_matrix_zero(s, pd, char, delta=odd[0])
    alt = det.t_matrix_zero(s, pd, char, delta=odd[1], error_estimate=False)
    swap = float(np.max(np.abs(np.abs(alt.t0) - np.abs(data.t0))))
    assert data.quadrature_error == pytest.approx(swap, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("chunk", [1000, 10 ** 6])
def test_t0_independent_of_node_chunking(g2_t0, monkeypatch, chunk):
    s, pd, _, char, _, data = g2_t0
    monkeypatch.setattr(det, "_CHUNK", chunk)
    other = det.t_matrix_zero(s, pd, char)
    scale = np.max(np.abs(data.t0))
    assert np.max(np.abs(other.t0 - data.t0)) <= 1e-13 * scale
    assert other.quadrature_error == pytest.approx(data.quadrature_error,
                                                   rel=1e-10, abs=1e-13 * scale)


def test_t0_memory_peak():
    """The nodes stream through theta in chunks: at h = 0.04 (26 760 nodes)
    the traced allocation peak stays at a fraction of the 28 MiB that
    evaluating theta on all nodes at once holds."""
    import tracemalloc
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    s = sf.build_surface(m)
    pd = hodge.period_matrix(sf.generate_mesh(s, h=0.04))
    char = hs.calibrate_characteristic(((-1, -1), (-1, -1)), pd)
    det.t_matrix_zero(s, pd, char)            # fills the period data's caches
    tracemalloc.start()
    try:
        det.t_matrix_zero(s, pd, char)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_t0_bulk_rule_leaves_out_the_cone_patches():
    # each patch is integrated by its polar rule only: no bulk triangle lies
    # on a cone's tori with every corner within the patch's outer radius r0,
    # and the bulk is the surface less the patch polygons
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    s = sf.build_surface(m)
    mesh = sf.generate_mesh(s, h=0.04)
    bulk = det._bulk_triangles(mesh)
    polygons = 0.0
    for patch in mesh.cone_patches:
        r0, n = patch.outer_radius, patch.n_ang
        far = np.max(np.abs(mesh.tri_pos[bulk] - patch.cone.position), axis=1)
        inside = (np.isin(mesh.tri_chart[bulk], patch.cone.incident_tori)
                  & (far <= r0 * (1.0 + 1e-9)))
        assert not np.any(inside), f"{inside.sum()} patch triangles in the bulk"
        polygons += n * r0 ** 2 * math.sin(2.0 * math.pi / n)
    bulk_area = mesh.signed_areas()[bulk].sum()
    assert bulk_area == pytest.approx(sf.flat_area(s) - polygons, rel=1e-12)


def test_t0_odd_char_rejected(g2_t0):
    s, pd, *_ = g2_t0
    with pytest.raises(ValueError):
        det.t_matrix_zero(s, pd, th.odd_characteristics(2)[0])


def test_compare_determinants_roundtrip(g2_t0):
    *_, data = g2_t0
    ld_f = 1.234
    ld_s = det.compare_determinants(ld_f, data, 2)
    assert ld_s == pytest.approx(ld_f - 4 * math.log(GAMMA_3_4)
                                 - data.log_det_t0(), abs=1e-12)
    assert det.invert_compare(ld_s, data, 2) == pytest.approx(ld_f, abs=1e-12)


def test_compare_determinants_torus_degenerate():
    empty = det.ScatteringData(t0=np.zeros((0, 0), dtype=complex),
                               quadrature_error=0.0, char=None)
    assert det.compare_determinants(0.7, empty, 1) == 0.7


def test_dhoker_phong_closed_form():
    assert det.dhoker_phong_ratio(2) == pytest.approx((GAMMA_3_4 / math.pi) ** 4)
    assert det.dhoker_phong_ratio(1) == 1.0


def test_dhoker_phong_symbolic_cancellation():
    for g in (2, 3):
        for seed in (0, 1, 2):
            gap = det.dhoker_phong_symbolic_check(g, np.random.default_rng(seed))
            assert gap < 1e-12


def test_assembled_ratio_matches_closed_form(g2_t0):
    *_, data = g2_t0
    val = det.assembled_ratio(-0.37, data, 2)
    assert val == pytest.approx(math.log(det.dhoker_phong_ratio(2)), abs=1e-12)


def test_bergman_kernel_hermitian(g2_t0):
    _, pd, _, char, _, data = g2_t0
    mesh = pd.mesh
    t = 40
    z = ("tri", t, mesh.tri_pos[t][0])
    t2 = 900
    zp = ("tri", t2, mesh.tri_pos[t2][0])
    b1 = det.bergman_kernel_h(pd, char, data.s_gram, z, zp)
    b2 = det.bergman_kernel_h(pd, char, data.s_gram, zp, z)
    assert abs(b1 - np.conj(b2)) < 1e-9 * max(1.0, abs(b1))


def test_bergman_kernel_torus_mode_vanishes():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.1)
    pd = hodge.period_matrix(mesh)
    char = th.ThetaCharacteristic((0.0,), (0.0,))
    val = det.bergman_kernel_h(pd, char, np.zeros((0, 0)), 5, 10)
    assert val == 0.0


def test_bergman_projection_idempotent(g2_t0):
    """S-Gram^{-1} times the independently quadratured Gram of the kernel
    fields is the identity (the reproducing property of B^h in matrix form:
    the projection with kernel B^h acts as the identity on span{S(., P_k)})."""
    _, pd, _, char, _, data = g2_t0
    gram = det.s_gram_direct(pd, char)
    proj = np.linalg.inv(data.s_gram) @ gram
    assert np.max(np.abs(proj - np.eye(2))) < 0.03


# s_gram_direct on g2_h05 before its polar rule went through batched
# kernel calls (the scalar route, node by node)
_S_GRAM_G2_H05 = np.array(
    [[97.33717802242376 - 6.848269650357144e-18j,
      21.383898705394873 - 21.38869104308944j],
     [21.383898705394873 + 21.388691043089434j,
      97.36588181835087 + 4.7635313156234234e-18j]])


def test_s_gram_direct_is_pinned(g2_h05_periods):
    # the cross-checks against T(0) allow pi^2 quadrature_error + 2 %, which
    # a misordered node weight would pass; this pins every entry
    pd, char = g2_h05_periods
    gram = det.s_gram_direct(pd, char)
    err = np.max(np.abs(gram - _S_GRAM_G2_H05))
    assert err <= 1e-13 * np.max(np.abs(_S_GRAM_G2_H05))


def test_spin_independence_same_spin_exact(g2_t0):
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    spin = hs.enumerate_spin_structures(2)[0]
    out = det.spin_independence_test(m, [spin, spin], h=0.05, n_eigs=140,
                                     richardson=False)
    assert out["max_delta_q"] == 0.0


def test_one_quadrature_error_type():
    assert det.QuadratureError is ca.QuadratureError


@pytest.mark.slow
def test_report_cache_keyed_on_moduli_and_richardson():
    """A cache shared across moduli points and Richardson settings must give
    the reports of fresh caches (it once handed back the first point's mesh
    and periods, and skipped Richardson after a single-mesh call)."""
    spin = hs.enumerate_spin_structures(2)[0]
    first = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    # a slit of length 0.4 still meshes at the Richardson size 1.4 h = 0.07
    second = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1.1j, 1.9j],
                            C=[0.2, 0.6])

    def report(moduli, richardson, cache):
        rep, _ = det.determinant_report(moduli, spin, h=0.05, n_eigs=120,
                                        richardson=richardson, cache=cache)
        return rep.theta0_abs, rep.log_det_f, rep.log_det_f_err

    shared, log_det_f = {}, {}
    report(first, False, shared)
    for richardson in (False, True):
        got = report(second, richardson, shared)
        want = report(second, richardson, {})
        assert got == pytest.approx(want, rel=1e-10)
        log_det_f[richardson] = want[1]
    # the Richardson pair moves log det F, so a skipped pair would show
    assert abs(log_det_f[True] - log_det_f[False]) > 1e-3


def test_torus_bosonization_oracle():
    """log det D(p,q) - 2 log|theta[p,q](0)/eta| is the same across the even
    structures (explicit Epstein spectra; no FEM)."""
    A, B = 1.0, 0.4 + 1.1j
    tau = B / A
    consts = []
    for (sa, sb) in ((-1, -1), (-1, 1), (1, -1)):
        ld = oracles.torus_logdet(A, B, sa, sb)
        p = 0.5 if sa == 1 else 0.0
        q = 0.5 if sb == 1 else 0.0
        char = th.ThetaCharacteristic((p,), (q,))
        t0 = th.theta(char, np.zeros(1), np.array([[tau]]))
        eta = oracles.dedekind_eta(tau)
        consts.append(ld - 2.0 * math.log(abs(t0 / eta)))
    spread = max(consts) - min(consts)
    assert spread < 1e-3
    assert abs(consts[0]) < 1e-3      # the constant is 1 in this normalization
