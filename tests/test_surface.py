"""Surface construction and meshing tests."""

import math

import numpy as np
import pytest

from spinlap import surface as sf

import oracles


@pytest.fixture(scope="module")
def g2_surface():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    return sf.build_surface(m)


@pytest.fixture(scope="module")
def g2_mesh(g2_surface):
    return sf.generate_mesh(g2_surface, h=0.05)


# -- moduli and surface ---------------------------------------------------------

def test_torus_build():
    m = sf.ModuliPoint(genus=1, A=[1.0], B=[1j])
    s = sf.build_surface(m)
    assert sf.flat_area(s) == pytest.approx(1.0, abs=1e-14)
    assert len(s.cone_points) == 0


def test_g2_build(g2_surface):
    assert sf.flat_area(g2_surface) == pytest.approx(3.0, abs=1e-14)
    assert len(g2_surface.cone_points) == 2
    for c in g2_surface.cone_points:
        assert c.angle == pytest.approx(4 * math.pi)
    assert len(g2_surface.slits) == 1
    assert g2_surface.slits[0].c_start == 0.2 + 0j
    assert g2_surface.slits[0].c_end == 0.5 + 0j


def test_flat_area_examples():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[2.0], B=[1 + 1j]))
    assert sf.flat_area(s) == pytest.approx(2.0, abs=1e-14)


def test_degenerate_lattice_rejected():
    with pytest.raises(sf.InvalidModuliError):
        sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1.0 - 1j]))


def test_degenerate_slit_rejected():
    with pytest.raises(sf.InvalidModuliError):
        sf.build_surface(sf.ModuliPoint(genus=2, A=[1, 1], B=[1j, 1j],
                                        C=[0.3, 0.3]))


def test_area_matches_moduli_formula(g2_surface):
    m = g2_surface.moduli
    ref = -sum((a * np.conj(b)).imag for a, b in zip(m.A, m.B))
    assert abs(sf.flat_area(g2_surface) - ref) < 1e-12 * ref


def test_moduli_roundtrip():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1 + 0.2j], B=[0.3 + 1j, 2j],
                       C=[0.2 + 0.1j, 0.5 + 0.1j])
    m2 = sf.ModuliPoint.from_dict(m.to_dict())
    assert m2 == m


# -- distinguished coordinate ----------------------------------------------------

def test_distinguished_chart_on_ray(g2_surface):
    # at the start endpoint of the horizontal slit, x is real positive on the ray
    cone = g2_surface.cone_points[0]
    r = 0.04
    q = (cone.incident_tori[0], cone.position + r * np.exp(1j * cone.theta_ray))
    x = sf.distinguished_chart(g2_surface, 0, q)
    assert abs(x.imag) < 1e-12
    assert x.real > 0
    assert abs(abs(x) ** 2 / 2 - r) < 1e-14


def test_distinguished_chart_at_center(g2_surface):
    cone = g2_surface.cone_points[0]
    q = (cone.incident_tori[0], cone.position)
    assert sf.distinguished_chart(g2_surface, 0, q) == 0


def test_distinguished_chart_squares_to_z(g2_surface):
    cone = g2_surface.cone_points[1]
    for ang in (0.3, 2.0, 4.4):
        z = cone.position + 0.03 * np.exp(1j * ang)
        for torus in cone.incident_tori:
            x = sf.distinguished_chart(g2_surface, 1, (torus, z))
            assert abs(x * x / 2 - (z - cone.position)) < 1e-13


def test_distinguished_chart_double_winding(g2_surface):
    # a 4 pi loop around P_k maps to a single 2 pi loop in x: after the first
    # 2 pi in z (one sheet), x lands on the second branch (x -> -x)
    cone = g2_surface.cone_points[0]
    r = 0.03
    z = cone.position + r * np.exp(1j * (cone.theta_ray + 0.4))
    sheet0, sheet1 = g2_surface.slits[0].torus_a, g2_surface.slits[0].torus_b
    x0 = sf.distinguished_chart(g2_surface, 0, (sheet0, z, 0))
    x1 = sf.distinguished_chart(g2_surface, 0, (sheet1, z, 1))
    assert abs(x1 + x0) < 1e-13


def test_out_of_chart(g2_surface):
    cone = g2_surface.cone_points[0]
    with pytest.raises(sf.OutOfChartError):
        sf.distinguished_chart(g2_surface, 0,
                               (cone.incident_tori[0], cone.position + 0.4))


# -- meshes -----------------------------------------------------------------------

def test_torus_mesh_counts():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.1)
    assert 200 <= mesh.n_triangles <= 400
    assert len(mesh.cone_patches) == 0
    info = sf.validate_mesh(mesh)
    assert info["n_triangles"] == mesh.n_triangles


def test_mesh_resolution_error():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    with pytest.raises(sf.MeshResolutionError):
        sf.generate_mesh(s, h=10.0)


def test_slit_resolution_error(g2_surface):
    with pytest.raises(sf.MeshResolutionError):
        sf.generate_mesh(g2_surface, h=0.2)


def test_g2_mesh_valid(g2_mesh):
    info = sf.validate_mesh(g2_mesh)
    assert info["min_bulk_angle_deg"] >= 20.0
    assert len(g2_mesh.cone_patches) == 2


def test_euler_characteristic(g2_mesh):
    nv = g2_mesh.n_vertices
    ne = len(g2_mesh.edges())
    nf = g2_mesh.n_triangles
    assert nv - ne + nf == 2 - 2 * g2_mesh.genus


def test_edge_table_sides(g2_mesh):
    # every edge sits on exactly two triangle sides, once in each direction
    table = g2_mesh.edge_table
    tails = g2_mesh.triangles
    heads = np.roll(tails, -1, axis=1)
    ends = table.edges[table.index]
    forward = table.sign == 1
    assert np.array_equal(np.where(forward, ends[..., 0], ends[..., 1]), tails)
    assert np.array_equal(np.where(forward, ends[..., 1], ends[..., 0]), heads)
    assert table.edges.tolist() == [list(e) for e in
                                    oracles.sorted_edges(g2_mesh.triangles)]
    sides = table.index.ravel()
    assert np.all(np.bincount(sides) == 2)
    assert np.all(np.bincount(sides, weights=table.sign.ravel()) == 0)


def test_cone_angle_4pi(g2_mesh):
    for patch in g2_mesh.cone_patches:
        total = sf._angle_sum_at(g2_mesh, patch.center_vertex)
        assert abs(total - 4 * math.pi) < 1e-10


def test_cycle_periods_reproduce_moduli(g2_mesh):
    m = g2_mesh.surface.moduli
    for j in range(2):
        pa = sf.cycle_period(g2_mesh, g2_mesh.cycle_paths[j]["a"])
        pb = sf.cycle_period(g2_mesh, g2_mesh.cycle_paths[j]["b"])
        assert abs(pa - m.A[j]) < 1e-12
        assert abs(pb - m.B[j]) < 1e-12


def test_torus_cycle_periods():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.3 + 0.1j], B=[0.2 + 0.9j]))
    mesh = sf.generate_mesh(s, h=0.08)
    pa = sf.cycle_period(mesh, mesh.cycle_paths[0]["a"])
    pb = sf.cycle_period(mesh, mesh.cycle_paths[0]["b"])
    assert abs(pa - (1.3 + 0.1j)) < 1e-12
    assert abs(pb - (0.2 + 0.9j)) < 1e-12


def test_mesh_areas_sum_to_flat_area(g2_mesh):
    total = g2_mesh.triangle_areas().sum()
    assert abs(total - sf.flat_area(g2_mesh.surface)) < 1e-10


def test_ring_slots_structure(g2_mesh):
    for patch in g2_mesh.cone_patches:
        for slots in patch.ring_slots:
            assert len(slots) == 2 * patch.n_ang
            phis = [phi for _, phi, _ in slots]
            assert phis == sorted(phis)
            assert phis[0] == 0.0
            assert abs(phis[len(slots) // 2] - 2 * math.pi) < 1e-14


def test_serialization_roundtrip(g2_mesh, tmp_path):
    path = tmp_path / "mesh.json"
    g2_mesh.save_json(path)
    import json
    d = json.loads(path.read_text())
    assert d["genus"] == 2
    assert len(d["vertices"]) == g2_mesh.n_vertices
    assert len(d["triangles"]) == g2_mesh.n_triangles
    assert len(d["cone_points"]) == 2


def test_genus3_build_and_mesh():
    m3 = sf.ModuliPoint(genus=3, A=[1.0, 1.6, 1.0], B=[1.3j, 1.3j, 1.3j],
                        C=[0.15, 0.5, 0.75, 1.1])
    s3 = sf.build_surface(m3)
    assert len(s3.slits) == 2
    assert len(s3.cone_points) == 4
    assert sf.flat_area(s3) == pytest.approx(4.68, abs=1e-12)
    mesh = sf.generate_mesh(s3, h=0.045)
    nv, ne, nf = mesh.n_vertices, len(mesh.edges()), mesh.n_triangles
    assert nv - ne + nf == 2 - 2 * 3
    for j in range(3):
        pa = sf.cycle_period(mesh, mesh.cycle_paths[j]["a"])
        assert abs(pa - m3.A[j]) < 1e-12
