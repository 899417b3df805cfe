"""Spin-structure enumeration, sign lifts, and characteristic calibration."""

import dataclasses

import numpy as np
import pytest

from spinlap import surface as sf, hodge, homology_spin as hs
from spinlap import theta as th


@pytest.fixture(scope="module")
def g2_setup():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    mesh = sf.generate_mesh(sf.build_surface(m), h=0.05)
    pd = hodge.period_matrix(mesh)
    return mesh, pd


# -- enumeration -----------------------------------------------------------------

def test_enumeration_counts():
    for g in (1, 2, 3):
        structs = hs.enumerate_spin_structures(g)
        assert len(structs) == 4 ** g
        n_even = sum(1 for s in structs if s.is_even)
        assert n_even == 2 ** (g - 1) * (2 ** g + 1)
        sigs = {(s.sigma_a, s.sigma_b) for s in structs}
        assert len(sigs) == 4 ** g


def test_g1_odd_structure_is_periodic():
    structs = hs.enumerate_spin_structures(1)
    odd = [s for s in structs if not s.is_even]
    assert len(odd) == 1
    assert odd[0].sigma_a == (1,) and odd[0].sigma_b == (1,)
    assert odd[0].characteristic.p == (0.5,)
    assert odd[0].characteristic.q == (0.5,)


def test_g1_trivial_char_even():
    assert th.ThetaCharacteristic((0.0,), (0.0,)).is_even


def test_serialization():
    s = hs.enumerate_spin_structures(2)[3]
    d = s.to_dict()
    assert set(d) == {"sigma_a", "sigma_b", "p", "q", "parity"}


# -- sign lifts --------------------------------------------------------------------

def test_torus_lift_monodromies():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.1)
    for spin in hs.enumerate_spin_structures(1):
        lift = hs.build_sign_lift(mesh, spin)
        assert hs.cycle_monodromy(lift, 0, "a") == spin.sigma_a[0]
        assert hs.cycle_monodromy(lift, 0, "b") == spin.sigma_b[0]


def test_torus_contractible_loops():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.1)
    spin = hs.enumerate_spin_structures(1)[2]
    lift = hs.build_sign_lift(mesh, spin)
    rng = np.random.default_rng(5)
    for loop in hs.sample_contractible_loops(mesh, rng, count=30):
        assert lift.loop_sign(loop) == 1


def test_g2_cone_loops_minus_one(g2_setup):
    mesh, _ = g2_setup
    for spin in hs.enumerate_spin_structures(2)[:4]:
        lift = hs.build_sign_lift(mesh, spin)
        for patch in mesh.cone_patches:
            assert hs.cone_loop_sign(lift, patch) == -1


def test_g2_contractible_loops(g2_setup):
    mesh, _ = g2_setup
    spin = hs.enumerate_spin_structures(2)[5]
    lift = hs.build_sign_lift(mesh, spin)
    rng = np.random.default_rng(11)
    for loop in hs.sample_contractible_loops(mesh, rng, count=40):
        assert lift.loop_sign(loop) == 1


def test_edge_signs_vanish_on_spokes_only(g2_setup):
    mesh, _ = g2_setup
    lift = hs.build_sign_lift(mesh, hs.enumerate_spin_structures(2)[0])
    edges = mesh.edge_table.edges
    spoke = np.isin(edges, mesh.cone_vertex_ids()).any(axis=1)
    assert np.array_equal(lift.edge_sign == 0, spoke)
    assert set(np.unique(lift.edge_sign[~spoke])) <= {-1, 1}
    # a path along a spoke, or across a pair of vertices that is no edge
    u, v = edges[np.flatnonzero(spoke)[0]]
    with pytest.raises(KeyError):
        lift.loop_sign([u, v, u])
    a = int(edges[np.flatnonzero(~spoke)[0], 0])
    near = set(edges[edges[:, 0] == a, 1]) | set(edges[edges[:, 1] == a, 0])
    b = next(x for x in range(mesh.n_vertices) if x != a and x not in near)
    with pytest.raises(KeyError):
        lift.loop_sign([a, b, a])


def test_inconsistent_slit_sign_raises(g2_setup):
    # one flipped corner sign breaks the cocycle on the triangle's two sides
    # through that corner
    mesh, _ = g2_setup
    cone = set(mesh.cone_vertex_ids())
    t = next(t for t, tri in enumerate(mesh.triangles)
             if not cone & {int(v) for v in tri})
    flipped = mesh.tri_slit_sign.copy()
    flipped[t, 0] *= -1
    broken = dataclasses.replace(mesh, tri_slit_sign=flipped)
    spin = hs.enumerate_spin_structures(2)[0]
    hs.build_sign_lift(mesh, spin)
    with pytest.raises(hs.LiftFailureError):
        hs.build_sign_lift(broken, spin)


def test_g2_cycle_monodromies(g2_setup):
    mesh, _ = g2_setup
    for spin in hs.enumerate_spin_structures(2)[::5]:
        lift = hs.build_sign_lift(mesh, spin)
        for j in range(2):
            assert hs.cycle_monodromy(lift, j, "a") == spin.sigma_a[j]
            assert hs.cycle_monodromy(lift, j, "b") == spin.sigma_b[j]


def test_flipping_sigma_flips_only_that_monodromy(g2_setup):
    mesh, _ = g2_setup
    structs = hs.enumerate_spin_structures(2)
    base = structs[0]
    flipped = [s for s in structs
               if s.sigma_a == (-base.sigma_a[0], base.sigma_a[1])
               and s.sigma_b == base.sigma_b][0]
    l0 = hs.build_sign_lift(mesh, base)
    l1 = hs.build_sign_lift(mesh, flipped)
    assert hs.cycle_monodromy(l0, 0, "a") == -hs.cycle_monodromy(l1, 0, "a")
    assert hs.cycle_monodromy(l0, 1, "a") == hs.cycle_monodromy(l1, 1, "a")
    assert hs.cycle_monodromy(l0, 0, "b") == hs.cycle_monodromy(l1, 0, "b")
    rng = np.random.default_rng(3)
    for loop in hs.sample_contractible_loops(mesh, rng, count=15):
        assert l0.loop_sign(loop) == 1 and l1.loop_sign(loop) == 1


# -- calibration --------------------------------------------------------------------

def test_g1_calibration_matches_default():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[0.3 + 1.2j]))
    mesh = sf.generate_mesh(s, h=0.08)
    pd = hodge.period_matrix(mesh)
    cal = hs.calibrate_characteristic(((-1,), (-1,)), pd)
    assert cal.p == (0.0,) and cal.q == (0.0,)
    # the direct Szego-monodromy oracle agrees on the torus
    assert hs.measure_szego_monodromy(cal, pd, 0, "a") == -1
    assert hs.measure_szego_monodromy(cal, pd, 0, "b") == -1


def test_calibration_idempotent(g2_setup):
    _, pd = g2_setup
    sig = ((-1, 1), (1, -1))
    c1 = hs.calibrate_characteristic(sig, pd)
    c2 = hs.calibrate_characteristic(sig, pd)
    assert c1 == c2


def test_calibration_bijective_on_evens(g2_setup):
    _, pd = g2_setup
    seen = set()
    for ch in th.even_characteristics(2):
        sa, sb = hs.szego_cycle_signs(ch, pd)
        back = hs.calibrate_characteristic((sa, sb), pd)
        assert back == ch
        seen.add((sa, sb))
    assert len(seen) == 10


def test_calibration_searches_cycles_once_per_period_data(g2_setup, monkeypatch):
    """The h_delta monodromies depend on the period data and delta alone:
    calibrating all 10 even spins on one PeriodData searches each of the 2
    tori once (one search gives both of its cycles) for each of the 2
    reference characteristics, and every characteristic is the one a fresh
    PeriodData gives."""
    _, base = g2_setup
    pd = dataclasses.replace(base, _cache={})
    searches = []
    find = sf.find_torus_cycles

    def counted(mesh, torus, vertex_cost=None):
        searches.append(torus)
        return find(mesh, torus, vertex_cost)

    monkeypatch.setattr(sf, "find_torus_cycles", counted)
    even = [s for s in hs.enumerate_spin_structures(2) if s.is_even]
    chars = [hs.calibrate_characteristic((s.sigma_a, s.sigma_b), pd)
             for s in even]
    assert sorted(searches) == [0, 0, 1, 1]
    for spin, char in zip(even, chars):
        fresh = dataclasses.replace(base, _cache={})
        assert char == hs.calibrate_characteristic(
            (spin.sigma_a, spin.sigma_b), fresh)


def test_each_torus_cover_is_built_once_per_mesh(monkeypatch):
    """Meshing and calibrating all 10 even spins build the cover graph of
    each torus once, and keep it on the mesh as int32 arrays that cannot be
    written; another mesh, or a copy of this one, builds its own."""
    builds = []
    build = sf.TorusCover.build.__func__

    def counted(cls, mesh, torus):
        builds.append((id(mesh), torus))
        return build(cls, mesh, torus)

    monkeypatch.setattr(sf.TorusCover, "build", classmethod(counted))
    surf = sf.build_surface(sf.ModuliPoint(genus=2, A=[1.0, 1.0],
                                           B=[1j, 2j], C=[0.2, 0.5]))
    mesh = sf.generate_mesh(surf, h=0.05)
    pd = hodge.period_matrix(mesh)
    for s in hs.enumerate_spin_structures(2):
        if s.is_even:
            hs.calibrate_characteristic((s.sigma_a, s.sigma_b), pd)
    assert sorted(builds) == [(id(mesh), 0), (id(mesh), 1)]
    for j in range(2):
        cover = mesh.torus_cover(j)
        for a in (cover.vertices, cover.indptr, cover.indices):
            assert a.dtype == np.int32 and not a.flags.writeable
    other = sf.generate_mesh(surf, h=0.05)
    assert other.torus_cover(0) is not mesh.torus_cover(0)
    assert dataclasses.replace(mesh).torus_cover(1) is not mesh.torus_cover(1)
    assert len(builds) == 2 + 2 + 1


_G3_MODULI = sf.ModuliPoint(genus=3, A=[1.0, 1.6, 1.0], B=[1.3j, 1.3j, 1.3j],
                            C=[0.15, 0.5, 0.75, 1.1])


@pytest.mark.parametrize("genus", [2, 3])
def test_calibration_cycles_have_the_torus_periods(genus, request):
    """The cycles the calibration routes away from the zeros of h_delta^2,
    for both reference characteristics, are closed loops with periods A_j
    and B_j."""
    if genus == 2:
        mesh, pd = request.getfixturevalue("g2_setup")
    else:
        mesh = sf.generate_mesh(sf.build_surface(_G3_MODULI), h=0.045)
        pd = hodge.period_matrix(mesh)
    m = mesh.surface.moduli
    for delta in th.odd_characteristics(genus)[:2]:
        for j in range(genus):
            for which, period in (("a", m.A[j]), ("b", m.B[j])):
                path, _ = hs._safe_cycle(pd, delta, j, which)
                assert path[0] == path[-1]
                assert abs(sf.cycle_period(mesh, path) - period) < 1e-12


def test_calibration_delta_independent(g2_setup):
    _, pd = g2_setup
    ch = th.even_characteristics(2)[2]
    signs = {hs.szego_cycle_signs(ch, pd, delta=d)
             for d in th.odd_characteristics(2)}
    assert len(signs) == 1


def test_permuted_signs_give_different_char(g2_setup):
    _, pd = g2_setup
    c1 = hs.calibrate_characteristic(((-1, -1), (-1, -1)), pd)
    c2 = hs.calibrate_characteristic(((1, -1), (-1, -1)), pd)
    assert c1 != c2
