"""Surface construction and meshing tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    sums = oracles.corner_angle_sums(g2_mesh.triangles, g2_mesh.tri_pos,
                                     g2_mesh.n_vertices)
    cones = g2_mesh.cone_vertex_ids()
    assert np.all(np.abs(sums[cones] - 4 * math.pi) < 1e-10)
    # every other vertex is flat
    assert np.all(np.abs(np.delete(sums, cones) - 2 * math.pi) < 1e-10)


# -- validate_mesh rejects mesh copies with one defect each

def _triangle_arrays(mesh):
    return {k: getattr(mesh, k).copy() for k in
            ("triangles", "tri_chart", "tri_pos", "tri_wrap", "tri_slit_sign")}


def test_validate_rejects_a_removed_triangle(g2_mesh):
    arrays = {k: v[1:] for k, v in _triangle_arrays(g2_mesh).items()}
    with pytest.raises(sf.MeshConformityError, match="exactly two"):
        sf.validate_mesh(dataclasses.replace(g2_mesh, **arrays))


def test_validate_rejects_a_reversed_triangle(g2_mesh):
    arrays = _triangle_arrays(g2_mesh)
    for v in arrays.values():
        if v.ndim > 1:
            v[7] = v[7, [0, 2, 1]]
    with pytest.raises(sf.MeshConformityError, match="same way"):
        sf.validate_mesh(dataclasses.replace(g2_mesh, **arrays))


def test_validate_rejects_a_moved_cone_corner(g2_mesh):
    arrays = _triangle_arrays(g2_mesh)
    pos = arrays["tri_pos"]
    t, c = np.argwhere(arrays["triangles"] == g2_mesh.cone_vertex_ids()[0])[0]
    # a tenth of the way to the centroid: still counter-clockwise, but the
    # triangle's angle at the cone grows
    pos[t, c] += 0.1 * (pos[t].mean() - pos[t, c])
    bad = dataclasses.replace(g2_mesh, **arrays)
    assert np.all(bad.signed_areas() > 0)
    with pytest.raises(sf.MeshConformityError, match="cone angle"):
        sf.validate_mesh(bad)


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


_G2_MODULI = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
_G3_MODULI = sf.ModuliPoint(genus=3, A=[1.0, 1.6, 1.0], B=[1.3j, 1.3j, 1.3j],
                            C=[0.15, 0.5, 0.75, 1.1])


@pytest.mark.parametrize("moduli, h", [
    (_G2_MODULI, 0.04), (_G2_MODULI, 0.02), (_G3_MODULI, 0.045)],
    ids=["g2-h0.04", "g2-h0.02", "g3-h0.045"])
def test_ring_vertices_lie_at_their_polar_angle(moduli, h):
    # ring m, column i: the vertex sits at P + rho_m e^{i(phi_i + theta_ray)}
    # with phi_i = 2 pi i / n_ang, modulo the lattice of sheet_tori[i >= n_ang]
    surf = sf.build_surface(moduli)
    mesh = sf.generate_mesh(surf, h=h)
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    for patch in mesh.cone_patches:
        n = patch.n_ang
        assert patch.ring_vertices.shape == (len(patch.ring_radii), 2 * n)
        phi = 2 * math.pi * np.arange(2 * n) / n
        assert np.allclose(patch.ring_phi, phi, rtol=0, atol=1e-14)
        torus = np.where(np.arange(2 * n) >= n, patch.sheet_tori[1],
                         patch.sheet_tori[0])
        assert np.array_equal(patch.ring_tori, torus)
        off_slit = np.arange(2 * n) % n != 0       # columns 0, n: slit copies
        charts = mesh.vertex_chart[patch.ring_vertices]
        assert np.all(charts[:, off_slit] == torus[off_slit])
        want = (patch.cone.position + patch.ring_radii[:, None]
                * np.exp(1j * (patch.ring_phi + patch.cone.theta_ray)))
        d = z[patch.ring_vertices] - want
        for i in range(2 * n):
            a, b = surf.tori[patch.ring_tori[i]]
            st = np.linalg.solve([[a.real, b.real], [a.imag, b.imag]],
                                 [d[:, i].real, d[:, i].imag])
            off = d[:, i] - (np.round(st[0]) * a + np.round(st[1]) * b)
            assert np.max(np.abs(off)) < 1e-12


@pytest.mark.parametrize("moduli, h", [
    (_G2_MODULI, 0.04), (_G2_MODULI, 0.02), (_G3_MODULI, 0.045)],
    ids=["g2-h0.04", "g2-h0.02", "g3-h0.045"])
def test_patch_triangles_tile_the_outer_ring_polygon(moduli, h):
    # the package picks a patch's triangles by their corners (cone or ring
    # vertices); geometrically they are the triangles on the cone's two tori
    # with every corner within the outer radius r0, and they tile the
    # inscribed polygon of 2 n_ang sides on the 4 pi cone
    mesh = sf.generate_mesh(sf.build_surface(moduli), h=h)
    area = mesh.triangle_areas()
    for patch in mesh.cone_patches:
        r0, n = patch.outer_radius, patch.n_ang
        far = np.max(np.abs(mesh.tri_pos - patch.cone.position), axis=1)
        near = (np.isin(mesh.tri_chart, patch.cone.incident_tori)
                & (far <= r0 * (1.0 + 1e-9)))
        assert np.array_equal(patch.triangles, np.flatnonzero(near))
        polygon = n * r0 ** 2 * math.sin(2.0 * math.pi / n)
        assert abs(area[patch.triangles].sum() - polygon) <= 1e-12 * polygon


# -- the periodic triangulation of each torus

def _tiled_points(mesh, j):
    """Torus j's points in triangulation order and its triangles as tiling
    indices t n + i, read off the mesh: structure["tris"][j] holds the 2 n
    triangles of its n points, in the order of the chart-j triangles."""
    tiles = mesh.structure["tris"][j]
    n = len(tiles) // 2
    vid = mesh.triangles[mesh.tri_chart == j]
    z = np.zeros(n, dtype=complex)
    z[tiles % n] = mesh.vertices[vid, 0] + 1j * mesh.vertices[vid, 1]
    return z, tiles, n


def _assert_periodic_delaunay(mesh):
    surf = mesh.surface
    for j, (a, b) in enumerate(surf.tori):
        z, tiles, n = _tiled_points(mesh, j)
        assert (oracles.periodic_triangle_keys(tiles, n)
                == oracles.periodic_delaunay_keys(z, a, b, surf.anchors[j]))


@pytest.mark.parametrize("moduli, h", [
    (_G2_MODULI, 0.056), (_G2_MODULI, 0.04), (_G2_MODULI, 0.02),
    (_G3_MODULI, 0.045)],
    ids=["g2-h0.056", "g2-h0.04", "g2-h0.02", "g3-h0.045"])
def test_triangles_are_the_periodic_delaunay_of_the_tie_broken_points(
        moduli, h):
    mesh = sf.generate_mesh(sf.build_surface(moduli), h=h)
    _assert_periodic_delaunay(mesh)
    # certified on a strip, short of the whole 3 x 3 tiling
    assert all(w < 1.0 for w in mesh.structure["strip"].values())


def test_triangles_do_not_depend_on_the_point_order(monkeypatch):
    surf = sf.build_surface(_G2_MODULI)
    forward = sf.generate_mesh(surf, h=0.04)
    torus_points = sf._torus_points

    def reversed_points(*args):
        z, slit, node, cone, rings = torus_points(*args)
        n = len(z)
        return (z[::-1], slit[::-1], node[::-1], cone[::-1],
                {c: n - 1 - np.arange(span.start, span.stop)
                 for c, span in rings.items()})

    monkeypatch.setattr(sf, "_torus_points", reversed_points)
    backward = sf.generate_mesh(surf, h=0.04)
    for j in range(surf.genus):
        tiles, rev = forward.structure["tris"][j], backward.structure["tris"][j]
        n = len(tiles) // 2
        # point i of the reversed list is point n - 1 - i of the forward one
        rev = rev // n * n + n - 1 - rev % n
        assert (oracles.periodic_triangle_keys(rev, n)
                == oracles.periodic_triangle_keys(tiles, n))


def test_too_narrow_strip_widens_until_certified(monkeypatch):
    # a strip 0.02 h wide leaves boundary triangles whose circumdisks reach
    # past it; the strip must widen until the triangles are the periodic
    # Delaunay triangulation
    monkeypatch.setattr(sf, "_STRIP_MARGIN", 0.02)
    h = 0.04
    mesh = sf.generate_mesh(sf.build_surface(_G2_MODULI), h=h)
    for j, (a, b) in enumerate(mesh.surface.tori):
        first = 0.02 * h * max(abs(a), abs(b)) / abs((np.conj(a) * b).imag)
        assert mesh.structure["strip"][j] >= 4 * first
    _assert_periodic_delaunay(mesh)


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
    m3 = _G3_MODULI
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


@pytest.mark.parametrize("h", [0.05, 0.055, 0.06])
def test_overlapping_cone_patches_raise_before_triangulating(h, monkeypatch):
    # torus 1 of the g=3 point carries cones 1 (at 0.5) and 2 (at 0.75): at
    # h = 0.05 their outer rings (radius 0.125) meet at 0.625, at 0.055 and
    # 0.06 (radius 0.133) they overlap
    def no_triangulation(*args):
        raise AssertionError("triangulated overlapping cone patches")

    monkeypatch.setattr(sf, "_tile_triangles", no_triangulation)
    with pytest.raises(sf.MeshResolutionError, match="cones 1 and 2"):
        sf.generate_mesh(sf.build_surface(_G3_MODULI), h=h)


@pytest.mark.parametrize("moduli, h", [
    (_G3_MODULI, 0.045), (_G3_MODULI, 0.032)]
    + [(_G2_MODULI, h) for h in (0.056, 0.05, 0.04, 0.035, 0.028, 0.02)],
    ids=["g3-h0.045", "g3-h0.032"]
    + ["g2-h%g" % h for h in (0.056, 0.05, 0.04, 0.035, 0.028, 0.02)])
def test_separate_cone_patches_mesh(moduli, h):
    mesh = sf.generate_mesh(sf.build_surface(moduli), h=h)
    assert sf.validate_mesh(mesh)["n_triangles"] == mesh.n_triangles


def test_slit_across_a_torus_raises_resolution_error():
    # torus 1 is 0.875 wide; the slit (0.5) and its two cone patches (0.15
    # each) leave no regular vertex column for a b-cycle.  The two patches
    # also meet across the seam, where their ring nodes are cocircular.
    m = sf.ModuliPoint(genus=2, A=[1.0, 0.875], B=[1j, 0.875j], C=[0.0, 0.5])
    with pytest.raises(sf.MeshResolutionError, match="b-cycle of torus 1"):
        sf.generate_mesh(sf.build_surface(m), h=0.06)


def test_tied_periodic_delaunay_still_meshes():
    # torus 1 has cocircular points across its tile boundary: unless every
    # tile copy breaks their tie the same way, the kept triangles do not
    # close up
    m = sf.ModuliPoint(genus=2, A=[0.8627 - 0.0642j, 0.8651],
                       B=[0.0823 + 1.1058j, 0.3461 + 0.7485j],
                       C=[0.2219 + 0.0782j, 0.2110 - 0.4196j])
    mesh = sf.generate_mesh(sf.build_surface(m), h=0.06)
    assert sf.validate_mesh(mesh)["n_triangles"] == mesh.n_triangles
    for j, cycles in enumerate(mesh.cycle_paths):
        assert abs(sf.cycle_period(mesh, cycles["a"]) - m.A[j]) < 1e-12
        assert abs(sf.cycle_period(mesh, cycles["b"]) - m.B[j]) < 1e-12


# -- property: random valid moduli mesh or raise a typed error ---------------------

def _lattice(scale, tilt, shape):
    a = scale * np.exp(1j * tilt)
    return complex(a), complex(a * shape)


@st.composite
def moduli_points(draw):
    genus = draw(st.sampled_from([1, 2]))
    num = st.floats
    A, B = [], []
    for _ in range(genus):
        a, b = _lattice(draw(num(0.8, 1.5)), draw(num(-0.3, 0.3)),
                        complex(draw(num(-0.4, 0.4)), draw(num(0.8, 2.0))))
        A.append(a)
        B.append(b)
    C = []
    if genus == 2:
        c0 = complex(draw(num(-0.5, 0.5)), draw(num(-0.5, 0.5)))
        length, angle = draw(num(0.2, 0.6)), draw(num(-math.pi, math.pi))
        C = [c0, c0 + length * np.exp(1j * angle)]
    h = draw(st.sampled_from([0.05, 0.06] if genus == 2 else [0.05, 0.1]))
    return sf.ModuliPoint(genus=genus, A=A, B=B, C=C), h


@settings(derandomize=True, deadline=None, max_examples=120)
@given(moduli_points())
def test_random_moduli_mesh_or_typed_error(point):
    moduli, h = point
    try:
        mesh = sf.generate_mesh(sf.build_surface(moduli), h=h)
    except (sf.InvalidModuliError, sf.MeshResolutionError):
        return
    assert sf.validate_mesh(mesh)["n_triangles"] == mesh.n_triangles
    assert len(mesh.cycle_paths) == moduli.genus
    for j, cycles in enumerate(mesh.cycle_paths):
        assert abs(sf.cycle_period(mesh, cycles["a"]) - moduli.A[j]) < 1e-12
        assert abs(sf.cycle_period(mesh, cycles["b"]) - moduli.B[j]) < 1e-12
