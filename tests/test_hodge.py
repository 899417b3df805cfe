"""Hodge module tests: harmonic cochains, period matrix, Abel map, dual-cycle
identities."""

import math

import numpy as np
import pytest

from spinlap import surface as sf, hodge
from spinlap import theta as th

import oracles


@pytest.fixture(scope="module")
def torus_pd():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[0.3 + 1.2j]))
    mesh = sf.generate_mesh(s, h=0.08)
    return hodge.period_matrix(mesh)


@pytest.fixture(scope="module")
def g2_pd():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    mesh = sf.generate_mesh(sf.build_surface(m), h=0.05)
    return hodge.period_matrix(mesh)


def test_torus_period_matrix_exact(torus_pd):
    assert abs(torus_pd.b_matrix[0, 0] - (0.3 + 1.2j)) < 1e-10


def test_torus_pointwise_v_constant(torus_pd):
    assert np.max(np.abs(torus_pd.v_vertex - 1.0)) < 1e-10


def test_torus_harmonic_residual(torus_pd):
    assert torus_pd.residual < 1e-10


def test_torus_harmonic_forms_are_constant_cochains():
    # A = 1, B = i: harmonic representatives are the dx, dy cochains
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.1)
    coch, _ = hodge.harmonic_basis(mesh, mesh.tri_pos)   # no cone patches
    dz = oracles.edge_vectors(mesh.triangles, mesh.tri_pos)
    # gamma_a-harmonic should be the cochain Re(dz) (s-crossing direction)
    assert np.max(np.abs(coch[0] - dz.real)) < 1e-10
    assert np.max(np.abs(coch[1] - dz.imag)) < 1e-10


def test_g2_b_matrix_structure(g2_pd):
    B = g2_pd.b_matrix
    assert np.max(np.abs(B - B.T)) < 1e-12          # symmetrized output
    assert np.max(np.abs(g2_pd.b_raw - g2_pd.b_raw.T)) < 2e-4
    w = np.linalg.eigvalsh(B.imag)
    assert w.min() > 0
    assert g2_pd.residual < 1e-10


def test_g2_period_rank(g2_pd):
    # the rank check runs inside period_matrix; just assert genus bookkeeping
    assert g2_pd.genus == 2
    assert g2_pd.upsilon.shape[0] == 2


def test_g2_swap_symmetry():
    # identical tori and symmetric slit: B invariant under swapping handles
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 1j], C=[0.2, 0.5])
    mesh = sf.generate_mesh(sf.build_surface(m), h=0.05)
    pd = hodge.period_matrix(mesh)
    B = pd.b_matrix
    assert abs(B[0, 0] - B[1, 1]) < 5e-6


def test_a_period_normalization(g2_pd):
    mesh = g2_pd.mesh
    for j in range(2):
        for i in range(2):
            val = oracles.edge_path_sum(mesh.triangles, g2_pd.upsilon[j],
                                        mesh.cycle_paths[i]["a"])
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-10


def test_abel_map_closed_loop(g2_pd):
    # Abel differences around any triangle vanish (closed cochain)
    mesh = g2_pd.mesh
    tri = mesh.triangles[10]
    path = [int(tri[0]), int(tri[1]), int(tri[2]), int(tri[0])]
    total = oracles.edge_path_sum(mesh.triangles, g2_pd.upsilon, path)
    assert np.max(np.abs(total)) < 1e-12


@pytest.mark.parametrize("case", ["torus", "g2"])
def test_batched_pq_matches_per_triangle_lstsq(case):
    if case == "torus":
        m, h = sf.ModuliPoint(genus=1, A=[1.0], B=[0.3 + 1.2j]), 0.08
    else:
        m, h = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5]), 0.05
    mesh = sf.generate_mesh(sf.build_surface(m), h=h)
    xcorners = mesh.tri_pos.copy()
    for ids, x in sf.cone_patch_triangles(mesh):
        xcorners[ids] = x
    cochains, _ = hodge.harmonic_basis(mesh, xcorners)
    assert len(cochains) == 2 * m.genus
    for corners in (mesh.tri_pos, xcorners):
        got = hodge._triangle_pq(mesh.edge_table, corners, cochains)
        ref = oracles.triangle_pq_lstsq(mesh.triangles, corners, cochains)
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_spanning_tree_is_ascending_bfs(g2_pd):
    mesh = g2_pd.mesh
    order, parent = oracles.bfs_tree(mesh.triangles, mesh.n_vertices)
    got_order, got_parent = g2_pd.tree
    assert list(got_order) == order
    assert np.array_equal(got_parent[order[1:]], parent[order[1:]])


def test_level_wise_tree_walks_match_the_vertex_loop(g2_pd):
    # the Abel map and the h_delta sign field are propagated one BFS level
    # at a time; each vertex still takes one addition (one sign choice)
    # from its parent, so they equal the vertex-by-vertex walk exactly
    order, parent = g2_pd.tree
    mesh, upsilon = g2_pd.mesh, g2_pd.upsilon
    abel = np.zeros((mesh.n_vertices, len(upsilon)), dtype=complex)
    for v in order[1:]:
        u = parent[v]
        idx, sign = mesh.edge_table.lookup([u], [v])
        abel[v] = abel[u] + upsilon[:, idx[0]] * sign[0]
    assert np.array_equal(g2_pd.abel_vertex, abel.T)
    delta = th.odd_characteristics(2)[0]
    root = np.sqrt(g2_pd.h_delta_sq_vertex(delta))
    signs = np.zeros(mesh.n_vertices, dtype=int)
    signs[order[0]] = 1
    for v in order[1:]:
        u = parent[v]
        same = abs(root[v] - signs[u] * root[u])
        flip = abs(root[v] + signs[u] * root[u])
        signs[v] = signs[u] if same <= flip else -signs[u]
    assert np.array_equal(g2_pd._h_sign_field(delta), signs)


def test_a_singular_laplacian_is_a_mesh_quality_error(g2_pd, monkeypatch):
    mesh = g2_pd.mesh
    L, DIVT = hodge.cotan_laplacian(mesh, mesh.tri_pos)
    monkeypatch.setattr(hodge, "cotan_laplacian",
                        lambda mesh, corners: (0.0 * L, DIVT))
    with pytest.raises(hodge.MeshQualityError, match="singular"):
        hodge.harmonic_basis(mesh, mesh.tri_pos)


def test_abel_tri_handle_consistency(g2_pd):
    mesh = g2_pd.mesh
    t = 20
    v0 = int(mesh.triangles[t][0])
    z0 = mesh.tri_pos[t][0]
    a_vertex = g2_pd.abel(v0)
    a_tri = g2_pd.abel(("tri", t, z0))
    assert np.max(np.abs(a_vertex - a_tri)) < 1e-12


def test_cone_chart_values(g2_pd):
    # upsilon/dx at a cone point is finite and nonzero; v blows up like 1/x
    e0 = g2_pd.upsilon_dx(0, 0.0)
    assert np.all(np.abs(e0) > 1e-3)
    v_near = g2_pd.v(("cone", 0, 0.05))
    v_nearer = g2_pd.v(("cone", 0, 0.025))
    assert np.all(np.abs(v_nearer) > 1.6 * np.abs(v_near))


def test_cone_loop_matches_residue(g2_pd):
    # chord-quadrature ring loop vs 2 pi i e_i(0) e_j(0)
    loop = g2_pd.cone_loop_integral(0)
    e0 = g2_pd.upsilon_dx(0, 0.0)
    res = 2j * math.pi * np.outer(e0, e0)
    assert np.max(np.abs(loop - res)) < 5e-3 * np.max(np.abs(res))


def test_dB_dnu_torus_closed_form():
    m = sf.ModuliPoint(genus=1, A=[1.0], B=[0.3 + 1.2j])
    res = hodge.check_dB_dnu(m, ("A", 0), step=0.01, h=0.08)
    assert abs(res["fd"][0, 0] - (-(0.3 + 1.2j))) < 1e-6
    assert res["rel_error"] < 1e-6
    assert res["dbar_norm"] < 1e-3


@pytest.mark.slow
def test_dB_dnu_g2_all_coordinates():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    for nu in (("A", 0), ("B", 1), ("C", 1)):
        res = hodge.check_dB_dnu(m, nu, step=0.02, h=0.035)
        assert res["rel_error"] < 5e-3, (nu, res["rel_error"])
        assert res["dbar_norm"] < 5e-3


def test_h_delta_tree_branch(g2_pd):
    delta = th.odd_characteristics(2)[0]
    for v in (10, 100, 500):
        h = g2_pd.h_delta(delta, v)
        h2 = complex(g2_pd.theta_gradient0(delta) @ g2_pd.v_vertex[:, v])
        assert abs(h * h - h2) < 1e-10 * max(1.0, abs(h2))


def test_szego_near_diagonal_on_g2(g2_pd):
    # a0 extracted from kernel samples matches the theta-gradient formula;
    # both sides share the discrete period data, so the residual tests the
    # Fay expansion identity rather than mesh accuracy
    from spinlap import theta as th
    char = [c for c in th.even_characteristics(2)][3]
    mesh = g2_pd.mesh
    t = 30
    z = ("tri", t, mesh.tri_pos[t][0])
    a0, _ = th.szego_near_diagonal(char, g2_pd, z, radius=5e-4)
    ref = th.szego_a0_formula(char, g2_pd, z)
    assert abs(a0 - ref) < 1e-5 * max(1.0, abs(ref))


@pytest.mark.parametrize("batch", ["vertices", "cone 0", "cone 1"])
def test_batched_szego_kernel_is_the_prime_form_quotient(g2_pd, batch):
    # one batch call equals theta(A(z') - A(z)) / (theta(0) E(z', z)) with
    # the scalar prime form, point by point; the pole is cone 0, and the
    # cone-chart batches lie in its own patch and in the other one
    char = max(th.even_characteristics(2), key=lambda c: abs(g2_pd.theta0(c)))
    delta = th.odd_characteristics(2)[0]
    mesh, pole = g2_pd.mesh, ("cone", 0, 0.0)
    if batch == "vertices":
        ids = np.setdiff1d(np.arange(0, mesh.n_vertices, 7),
                           mesh.cone_vertex_ids())
        zp, points = ids, list(ids)
    else:
        k = int(batch[-1])
        r = math.sqrt(2.0 * mesh.cone_patches[k].outer_radius)
        x = r * np.linspace(0.1, 0.9, 9) * np.exp(1j * np.linspace(0, 12, 9))
        zp, points = ("cone", k, x), [("cone", k, xi) for xi in x]
    got = th.szego_kernel(char, g2_pd, pole, zp, delta)
    ref = np.array([th.theta(char, g2_pd.abel(p) - g2_pd.abel(pole),
                             g2_pd.b_matrix)
                    / (g2_pd.theta0(char) * th.prime_form(g2_pd, p, pole, delta))
                    for p in points])
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_genus3_period_matrix():
    m3 = sf.ModuliPoint(genus=3, A=[1.0, 1.6, 1.0], B=[1.3j, 1.3j, 1.3j],
                        C=[0.15, 0.5, 0.75, 1.1])
    mesh = sf.generate_mesh(sf.build_surface(m3), h=0.045)
    pd = hodge.period_matrix(mesh)
    assert np.linalg.eigvalsh(pd.b_matrix.imag).min() > 0
    assert np.max(np.abs(pd.b_raw - pd.b_raw.T)) < 1e-5
