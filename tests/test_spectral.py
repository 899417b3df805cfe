"""Spectral module tests: assembly invariants, torus oracles, extensions."""

import math
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg

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


def test_enriched_pencils_stay_complex(g2_h05, g2_h05_periods):
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    for ext in ("szego", "holomorphic"):
        op = spec.assemble_operator(mesh, lift, ext, periods=pd, char=char)
        assert op.stiffness.dtype == np.complex128
        assert op.mass.dtype == np.complex128


@pytest.mark.parametrize("extension", ["szego", "holomorphic_local"])
def test_cone_mode_borders_match_the_triangle_loop(extension, g2_h05):
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, extension)
    dofs = op.dof_of_vertex[mesh.triangles]
    for k, patch in enumerate(mesh.cone_patches):
        ents = [ent for ent in op.enrichment if ent["cone"] == k]
        cols = [ent["col"] for ent in ents]
        tris = patch.triangles
        E, dE = spec._cone_mode_fields(mesh, k, [ent["mode"] for ent in ents])
        mass, stiff, mass_gram, stiff_gram = oracles.border_contraction(
            mesh.tri_pos[tris], lift.eta[tris], dofs[tris], spec._QW, spec._QB,
            E, dE)
        for X, border, gram in ((op.mass, mass, mass_gram),
                                (op.stiffness, stiff, stiff_gram)):
            ref = np.zeros((op.n_p1, len(cols)), dtype=complex)
            for d, vals in border.items():
                ref[d] = vals
            got = X[:op.n_p1][:, cols].toarray()
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            got = X[cols][:, cols].toarray()
            assert np.max(np.abs(got - gram)) <= 1e-13 * np.max(np.abs(gram))


@pytest.mark.parametrize("extension", ["szego", "holomorphic_local"])
def test_cone_mode_cutoff_vanishes_outside_the_border(extension):
    # the border of cone k integrates the triangles whose corners are all
    # the cone vertex or dofs coupled to the cone's enrichment columns; at
    # every quadrature point of any other triangle on the cone's tori the
    # cutoff chi must be exactly 0, i.e. r >= r2 = _CUTOFF[1] r0
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    mesh = sf.generate_mesh(sf.build_surface(m), h=0.04)
    lift = hs.build_sign_lift(mesh, hs.enumerate_spin_structures(2)[0])
    op = spec.assemble_operator(mesh, lift, extension)
    zq = np.einsum("qc,tc->tq", spec._QB, mesh.tri_pos)
    for k, patch in enumerate(mesh.cone_patches):
        cols = [ent["col"] for ent in op.enrichment if ent["cone"] == k]
        border = abs(op.mass[:op.n_p1][:, cols]).toarray()
        coupled_dofs = np.flatnonzero(border.sum(axis=1))
        coupled = np.isin(op.dof_of_vertex, coupled_dofs)
        coupled[patch.center_vertex] = True
        outside = (~coupled[mesh.triangles].all(axis=1)
                   & np.isin(mesh.tri_chart, patch.cone.incident_tori))
        r = np.abs(zq[outside] - patch.cone.position)
        cut = np.any(r < spec._CUTOFF[1] * patch.outer_radius, axis=1)
        assert not np.any(cut), f"chi > 0 on {cut.sum()} triangles off cone {k}"


def test_holomorphic_border_is_the_gauged_p1_mass(g2_h05, g2_h05_periods):
    # the 7-point rule is exact on P1 x P1, so the border of the interpolated
    # kernels is the closed-form P1 mass (cone vertices included) times f,
    # each column f scaled to unit mass
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    op = spec.assemble_operator(mesh, lift, "holomorphic", periods=pd,
                                char=char)
    M = oracles.gauged_p1_mass(mesh.triangles, mesh.tri_pos, lift.eta,
                               mesh.n_vertices)
    F = np.stack([spec.szego_section_field(pd, char, k, lift)
                  for k in range(len(mesh.cone_patches))], axis=1)
    F = F / np.sqrt(np.einsum("vi,vw,wi->i", F.conj(), M, F).real)
    # rounding scale: the same sums with every term taken in modulus (the
    # two slit sides of a vertex next to the pole cancel to ~1e-12 of it)
    M_abs = oracles.gauged_p1_mass(mesh.triangles, mesh.tri_pos,
                                   np.ones_like(lift.eta), mesh.n_vertices)
    cols = [ent["col"] for ent in op.enrichment]
    v = np.flatnonzero(op.dof_of_vertex >= 0)
    got = op.mass[op.dof_of_vertex[v]][:, cols].toarray()
    scale = (M_abs @ np.abs(F))[v]
    assert np.all(np.abs(got - (M @ F)[v]) <= 1e-13 * scale)
    got = op.mass[cols][:, cols].toarray()
    scale = np.abs(F).T @ M_abs @ np.abs(F)
    assert np.all(np.abs(got - F.conj().T @ M @ F) <= 1e-13 * scale)


def test_szego_section_gauge_is_continuous(g2_h05, g2_h05_periods):
    # in the FEM gauge a smooth section satisfies f_v ~ eps_uv f_u across
    # every non-spoke edge; the raw theta-route values break this on ~10 %
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    keep = lift.edge_sign != 0
    u, v = mesh.edge_table.edges[keep].T
    eps = lift.edge_sign[keep]
    for k in range(len(mesh.cone_patches)):
        f = spec.szego_section_field(pd, char, k, lift)
        bad = np.abs(f[v] - eps * f[u]) > np.abs(f[v] + eps * f[u])
        assert bad.sum() < 0.01 * keep.sum(), (k, int(bad.sum()))


def test_eigenvalues_record_a_clamped_request():
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.25)
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spin),
                                "friedrichs")
    res = spec.eigenvalues(op, op.n_dofs + 5)
    assert res.requested == op.n_dofs + 5
    assert len(res.eigenvalues) == op.n_dofs
    res = spec.eigenvalues(op, 4)
    assert res.requested == len(res.eigenvalues) == 4


@pytest.mark.parametrize("N", [-3, 0, 1.5, "4", True])
def test_a_count_that_is_not_a_positive_integer_is_refused(N, g2_h05):
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "friedrichs")
    with pytest.raises(spec.EigenCountError, match="positive integer"):
        spec.eigenvalues(op, N)
    assert issubclass(spec.EigenCountError, ValueError)


@pytest.mark.parametrize("extension", ["friedrichs", "szego"])
def test_partial_reorthogonalization_skips_most_steps(extension, g2_h05):
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, extension)
    res = spec.eigenvalues(op, 40)
    assert 0 < res.reorthogonalized <= 0.6 * res.krylov_dim


@pytest.mark.parametrize("extension", ["friedrichs", "szego"])
def test_without_reorthogonalization_the_count_catches_ghost_copies(
        extension, g2_h05, monkeypatch):
    # a basis left to lose orthogonality converges to copies of the same
    # Ritz pair, which the inertia count refuses
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, extension)
    monkeypatch.setattr(spec, "_SEMI_ORTHO", math.inf)
    with pytest.raises(spec.SolverError, match="where the pencil has"):
        spec.eigenvalues(op, 40)


@pytest.mark.parametrize("extension", spec.EXTENSIONS)
def test_eigenvalues_match_the_dense_pencil(extension, g2_h05, g2_h05_periods):
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    op = spec.assemble_operator(mesh, lift, extension, periods=pd, char=char)
    res = spec.eigenvalues(op, 40)
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 40)
    kernel = ref <= 1e-8 * ref.max()
    assert res.kernel_dimension() == kernel.sum()
    assert kernel.sum() == (2 if extension == "holomorphic" else 0)
    lam, ref = res.eigenvalues[~kernel], ref[~kernel]
    assert np.max(np.abs(lam - ref) / ref) <= 1e-11
    assert res.residual_bound <= 1e-12


@pytest.mark.parametrize("h, N", [(0.1, None), (0.07, None), (0.07, 65)])
def test_every_copy_of_a_multiple_eigenvalue(h, N):
    # a uniform square-torus mesh keeps the lattice symmetries: its pencil
    # has eigenvalues of multiplicity up to 8, and one Krylov space holds a
    # single vector of each eigenspace
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=h)
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
    op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spin),
                                "friedrichs")
    N = N or op.n_dofs
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, N)
    repeated = np.isclose(ref[1:], ref[:-1], rtol=1e-12, atol=0.0)
    assert repeated.sum() > N // 2
    res = spec.eigenvalues(op, N)
    assert np.max(np.abs(res.eigenvalues - ref) / ref) <= 1e-11


@pytest.mark.parametrize("extension", spec.EXTENSIONS)
def test_eigenvectors_are_mass_orthonormal(extension, g2_h05, g2_h05_periods):
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    op = spec.assemble_operator(mesh, lift, extension, periods=pd, char=char)
    res = spec.eigenvalues(op, 30, vectors=True)
    X, lam = res.vectors, res.eigenvalues
    MX = op.mass @ X
    assert np.max(np.abs(X.conj().T @ MX - np.eye(30))) <= 1e-12
    # the kernel vectors of the holomorphic pencil against its lowest
    # positive eigenvalue
    scale = np.maximum(lam, lam[lam > 0].min())
    resid = np.linalg.norm(op.stiffness @ X - MX * lam, axis=0)
    assert np.all(resid <= 1e-10 * scale * np.linalg.norm(MX, axis=0))


def test_holomorphic_shift_solves_to_rounding(g2_h05, g2_h05_periods):
    # with its Szego-kernel columns at their raw scale the pencil's mass
    # diagonal reaches ~1e29 and one LU solve of A - sigma M keeps ~1e-5
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    op = spec.assemble_operator(mesh, lift, "holomorphic", periods=pd,
                                char=char)
    S = (op.stiffness + 0.1 * op.mass).tocsc()
    b = np.random.default_rng(0).standard_normal(op.n_dofs) + 0j
    x = scipy.sparse.linalg.splu(S).solve(b)
    assert np.linalg.norm(S @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("extension", spec.EXTENSIONS)
def test_inertia_count_matches_the_dense_pencil(extension, g2_h05,
                                                g2_h05_periods):
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    op = spec.assemble_operator(mesh, lift, extension, periods=pd, char=char)
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 60)
    # below the spectrum, inside the first gap past the holomorphic kernel,
    # and deep inside the spectrum
    for tau in (-0.1, 0.5 * (ref[2] + ref[3]), 0.5 * (ref[40] + ref[41])):
        assert np.min(np.abs(ref - tau)) > 1e-6 * abs(tau)
        count = spec._factor(op.stiffness, op.mass, tau)[1]
        assert count == np.count_nonzero(ref < tau)


def test_a_shift_inside_the_spectrum_counts_both_sides(g2_h05):
    # the shift's own factor has negative pivots, so the count below
    # sigma - d needs a factor of its own
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "szego")
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 40)
    sigma = 0.5 * (ref[20] + ref[21])
    res = spec.eigenvalues(op, 10, sigma=sigma)
    near = np.sort(ref[np.argsort(np.abs(ref - sigma))[:10]])
    assert np.max(np.abs(res.eigenvalues - near) / near) <= 1e-11
    assert res.inertia["count"] == 10 and res.inertia["sigma"] == sigma


@pytest.mark.parametrize("index, offset, N", [(30, 1e-7, 10), (60, -1e-6, 20)])
def test_a_shift_next_to_an_eigenvalue_keeps_the_basis_semi_orthogonal(
        index, offset, N, g2_h05):
    # A - sigma M is almost singular, so each solve carries a rounding error
    # far above eps ||K||; an estimate of the lost orthogonality that does
    # not see it lets ghost copies through (a SolverError, or eigenvalues
    # off by 1e-2).  Full reorthogonalization reads 8e-13 and 2.4e-12 here
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "szego")
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 80)
    sigma = ref[index] * (1.0 + offset)
    res = spec.eigenvalues(op, N, sigma=sigma)
    near = np.sort(ref[np.argsort(np.abs(ref - sigma))[:N]])
    assert np.max(np.abs(res.eigenvalues - near) / near) <= 1e-10
    assert res.inertia["count"] == N


def _counting(monkeypatch, change):
    """Patch the inertia counter to return count + change(call number);
    returns the list of the counts it handed out."""
    real, calls = spec._count_below, []

    def count_below(A, M, tau):
        calls.append(real(A, M, tau) + change(len(calls)))
        return calls[-1]
    monkeypatch.setattr(spec, "_count_below", count_below)
    return calls


def test_a_short_inertia_count_raises_solver_error(g2_h05, monkeypatch):
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "friedrichs")
    _counting(monkeypatch, lambda call: -1)
    with pytest.raises(spec.SolverError, match="pencil has"):
        spec.eigenvalues(op, 20)


@pytest.mark.parametrize("extension", ["friedrichs", "szego"])
def test_a_long_inertia_count_runs_the_deflated_lanczos(extension, g2_h05,
                                                        monkeypatch):
    # one eigenvalue too many in the count: the found pairs are locked and a
    # deflated run searches the rest of the space for the missing one.  It
    # finds none below the top, and the count is made once, so no second
    # (true) count can close the solve: it fails
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, extension)
    calls = _counting(monkeypatch, lambda call: 1 if call == 0 else 0)
    real, ran, found = spec._Slice.restart, [], []

    def restart(sl, d, grow=0):
        ran.append(real(sl, d, grow))
        found.append(sl.found_values())
        return ran[-1]
    monkeypatch.setattr(spec._Slice, "restart", restart)
    with pytest.raises(spec.SolverError, match="the slices found no more"):
        spec.eigenvalues(op, 30)
    assert calls == [31] and ran == [True, False]
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 31)
    # the deflated run converged pairs of its own, all above lambda_30
    assert len(found[0]) > 30
    assert np.count_nonzero(found[0] < 0.5 * (ref[29] + ref[30])) == 30


def test_a_restart_locks_m_orthonormal_ritz_vectors(monkeypatch):
    # a near-square torus (the torus-oracle shape of seed 1) splits its
    # eigenvalue pairs by little: the first run converges all 109 wanted
    # pairs, but the inertia count finds the copies it missed, so the run
    # locks its 109 Ritz vectors as rows [0, 109) of the basis and restarts.
    # The locked rows must be M-orthonormal to rounding: without their
    # Cholesky-QR they are 2.6e-10 from it (8.6e-16 with it), which no
    # eigenvalue or returned vector shows
    B = -0.005910777931821048 + 0.9999825311995408j
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[B]))
    mesh = sf.generate_mesh(s, h=0.028)
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (1,) and x.sigma_b == (-1,)][0]
    op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spin),
                                "friedrichs")
    calls = _counting(monkeypatch, lambda call: 0)
    bases, rows = [], spec._unpaged_rows
    monkeypatch.setattr(spec, "_unpaged_rows",
                        lambda *args: bases.append(rows(*args)) or bases[-1])
    res = spec.eigenvalues(op, 109, vectors=True)
    # the restart keeps the first run's top, so it takes no second count
    assert len(calls) == 1 and res.slices[0]["restarts"] == 1
    locked, M = bases[-1][:109], op.mass
    assert np.max(np.abs(locked.conj() @ (M @ locked.T) - np.eye(109))) <= 1e-13
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, M, 109)
    assert np.max(np.abs(res.eigenvalues - ref) / ref) <= 1e-12
    X, MX = res.vectors, M @ res.vectors
    assert np.max(np.abs(X.conj().T @ MX - np.eye(109))) <= 1e-13
    # the Ritz vectors of lambda_1's pair leave relative residuals of 2e-8;
    # after the Rayleigh-Ritz pass they read 4e-13 with one BLAS thread and
    # 2.5e-10 with two to four, the rounding of its projected matrix
    resid = np.linalg.norm(op.stiffness @ X - MX * res.eigenvalues, axis=0)
    assert np.all(resid <= 1e-9 * res.eigenvalues
                  * np.linalg.norm(MX, axis=0))


def test_singular_shift_raises_solver_error(g2_h05, g2_h05_periods):
    # the exact Szego-kernel columns have zero stiffness rows, so the
    # holomorphic stiffness itself is singular
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    op = spec.assemble_operator(mesh, lift, "holomorphic", periods=pd,
                                char=char)
    with pytest.raises(spec.SolverError):
        spec.eigenvalues(op, 4, sigma=0.0)


@pytest.mark.parametrize("N", [20, 180])
def test_a_default_shift_on_an_eigenvalue_raises_solver_error(N):
    # the square torus with the trivial spin (+,+): its Friedrichs pencil
    # has the constants as kernel, so the default shift 0.0 is an
    # eigenvalue.  Its LDL^T has a pivot of rounding size, 5e-15 of its
    # diagonal entry; solves against it gave non-finite Lanczos coefficients
    # (a bare ValueError from eigh_tridiagonal at N = 180) or a count of 21
    # eigenvalues for 20 pairs found
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.04)
    spin = [x for x in hs.enumerate_spin_structures(1)
            if x.sigma_a == (1,) and x.sigma_b == (1,)][0]
    op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spin),
                                "friedrichs")
    with pytest.raises(spec.SolverError, match="0.0 is an eigenvalue"):
        spec.eigenvalues(op, N)


def test_a_non_hermitian_pencil_has_non_real_pivots(g2_h05):
    # a skew-Hermitian part of 1e-6 gives the Szego pencil's pivots
    # imaginary parts far above the 1e-8 (relative) that rounding leaves
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "szego")
    spec._factor(op.stiffness, op.mass, -0.05)
    with pytest.raises(spec.SolverError, match="non-real pivot"):
        spec._factor(op.stiffness * (1.0 + 1e-6j), op.mass, -0.05)


# -- spectrum slices: N > spec._SLICE_MIN and N <= n_dofs / 4 at the default
# shift

def _used(res):
    return [s for s in res.slices if s["used"]]


def test_a_count_sits_midway_to_the_next_ritz_value(g2_h05):
    # the count of a single slice sits between lambda_N and lambda_N+1, at
    # least halfway: the next Ritz value beyond the pairs found is no lower
    # than lambda_N+1 (interlacing).  It used to sit 1e-8 above lambda_N,
    # where the LDL^H pivots grow
    mesh, _, lift = g2_h05
    for extension in ("friedrichs", "szego"):
        op = spec.assemble_operator(mesh, lift, extension)
        ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 25)
        res = spec.eigenvalues(op, 24)
        tau = res.inertia["sigma"] + res.inertia["d"]
        assert 0.5 * (ref[23] + ref[24]) <= tau < ref[24]


def test_a_szego_count_next_to_an_eigenvalue_stays_real():
    # 280 Szego eigenvalues of [00|00] at h = 0.028 with the cone rings
    # graded by 0.7: a count 1e-8 above lambda_280 met a pivot with a
    # non-real part (SolverError: A - 323.223205366173 M has a non-real
    # pivot); the other nine even spins passed
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    mesh = sf.generate_mesh(sf.build_surface(m), h=0.028, grading=0.7)
    spin = [x for x in hs.enumerate_spin_structures(2)
            if x.sigma_a == (-1, -1) and x.sigma_b == (-1, -1)][0]
    op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spin), "szego")
    res = spec.eigenvalues(op, 280)
    lam = res.eigenvalues
    assert len(_used(res)) >= 2 and res.inertia["count"] >= 280
    assert res.kernel_dimension() == 0 and lam[0] > 0
    assert np.all(np.diff(lam) >= 0) and res.residual_bound <= 1e-12


@pytest.mark.parametrize("extension", spec.EXTENSIONS)
def test_sliced_eigenvalues_match_the_dense_pencil(extension, g2_h05,
                                                   g2_h05_periods):
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    op = spec.assemble_operator(mesh, lift, extension, periods=pd, char=char)
    res = spec.eigenvalues(op, 200)
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 260)
    used = _used(res)
    assert len(used) == 2 and used[1]["sigma"] > used[0]["sigma"]
    assert res.krylov_dim == sum(s["steps"] for s in res.slices)
    assert res.reorthogonalized == sum(s["reorthogonalized"]
                                       for s in res.slices)
    # the union certificate: the count below the top of the second slice
    # is the dense count there, and no fewer than N
    top = res.inertia["sigma"] + res.inertia["d"]
    assert res.inertia["count"] == np.count_nonzero(ref < top) >= 200
    kernel = ref[:200] <= 1e-8 * ref[:200].max()
    assert res.kernel_dimension() == kernel.sum()
    lam, ref = res.eigenvalues[~kernel], ref[:200][~kernel]
    assert np.max(np.abs(lam - ref) / ref) <= 1e-11
    assert res.residual_bound <= 1e-12


@pytest.mark.parametrize("extension", ["friedrichs", "szego"])
def test_sliced_eigenvectors_are_mass_orthonormal(extension, g2_h05):
    # the Ritz vectors of both slices go through one Rayleigh-Ritz pass
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, extension)
    plain = spec.eigenvalues(op, 200)
    res = spec.eigenvalues(op, 200, vectors=True)
    assert len(_used(res)) == 2
    # the vectors of the first slice are read after the second one ran
    assert _used(plain)[0]["released"]
    assert not any(s["released"] for s in res.slices)
    X, lam = res.vectors, res.eigenvalues
    assert np.max(np.abs(lam - plain.eigenvalues) / lam) <= 1e-12
    MX = op.mass @ X
    assert np.max(np.abs(X.conj().T @ MX - np.eye(200))) <= 1e-12
    resid = np.linalg.norm(op.stiffness @ X - MX * lam, axis=0)
    assert np.all(resid <= 1e-10 * lam * np.linalg.norm(MX, axis=0))


# the torus-oracle shape of seed 1: its eigenvalues come in pairs split by
# little, and the first slice misses copies of some
_SEED1_B = -0.005910777931821048 + 0.9999825311995408j


@pytest.fixture(scope="module")
def torus_pencils():
    ops = {}
    for name, B in (("square", 1j), ("seed1", _SEED1_B)):
        s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[B]))
        mesh = sf.generate_mesh(s, h=0.028)
        spin = [x for x in hs.enumerate_spin_structures(1)
                if x.sigma_a == (-1,) and x.sigma_b == (-1,)][0]
        ops[name] = spec.assemble_operator(
            mesh, hs.build_sign_lift(mesh, spin), "friedrichs")
    return ops


@pytest.mark.parametrize("extension", ["friedrichs", "szego"])
def test_a_sliced_solve_holds_one_basis_at_a_time(extension, g2_h05,
                                                  monkeypatch):
    # without vectors, the first slice's basis is released before the
    # second slice starts: 259 rows at most, where both held 507
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, extension)
    rows, live, held = spec._unpaged_rows, set(), []

    def unpaged_rows(*args):
        held.append(len(live))           # bases alive when this one starts
        buf = rows(*args)
        live.add(len(held))
        weakref.finalize(buf, live.discard, len(held))
        return buf
    monkeypatch.setattr(spec, "_unpaged_rows", unpaged_rows)
    res = spec.eigenvalues(op, 200)
    used = _used(res)
    assert len(used) == len(held) == 2 and held == [0, 0] and not live
    assert used[0]["released"] and not used[1]["released"]
    assert [s["rows"] for s in used] == [s["steps"] for s in used]
    assert res.basis_rows == max(s["rows"] for s in used)
    assert res.basis_rows < sum(s["steps"] for s in used)


@pytest.mark.parametrize("name", ["square", "seed1"])
def test_sliced_torus_eigenvalues_match_the_dense_pencil(name, torus_pencils,
                                                         monkeypatch):
    op = torus_pencils[name]
    calls = _counting(monkeypatch, lambda call: 0)
    first_run, runs = spec._Slice._first_run, []
    monkeypatch.setattr(spec._Slice, "_first_run",
                        lambda sl: runs.append(sl.sigma) or first_run(sl))
    res = spec.eigenvalues(op, 180)
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 240)
    assert np.max(np.abs(res.eigenvalues - ref[:180]) / ref[:180]) <= 1e-11
    top = res.inertia["sigma"] + res.inertia["d"]
    assert res.inertia["count"] == np.count_nonzero(ref < top) >= 180
    used = _used(res)
    assert len(used) == 2 and calls[0] == res.inertia["count"]
    if name == "seed1":
        # the first slice finds 91 eigenvalues below its top, where the
        # pencil has 92: it holds 3 of the 4 close copies of 321.282.  The
        # second slice reaches below that top and holds all 4, so the top
        # moves below them, and the union count passes without a restart
        assert len(calls) == 1
        assert used[0]["restarts"] == used[1]["restarts"] == 0
        assert runs == [s["sigma"] for s in used]
    else:
        # eigenvalues of multiplicity 4 and 8, where both slices miss
        # copies: the count at the first top finds the first slice short,
        # and it restarts.  Its basis went when the second slice started,
        # so it first replays its run
        assert len(calls) == 2 and calls[1] < calls[0]
        assert used[0]["restarts"] >= 1 and used[0]["released"]
        assert runs == [used[0]["sigma"], used[1]["sigma"], used[0]["sigma"]]


def test_a_moved_top_counts_no_eigenvalue_twice():
    # both slices found 3 (to 1e-13); the second also found the copy
    # 3 + 1e-4 that the first missed
    lower = np.array([1.0, 2.0, 3.0 - 1e-13])
    upper = np.array([3.0 + 1e-13, 3.0001, 4.0, 5.0])
    tops = spec._moved_tops([lower, upper], [3.5, 6.0], -math.inf)
    owned = spec._owned([lower, upper], tops, -math.inf)
    # the top moves into the gap between the two copies
    assert 3.0 < tops[0] < 3.0001 and tops[1] == 6.0
    assert [len(p) for p in owned] == [3, 3]
    # without the copy, no top between the two values of 3 beats 3.5
    tops = spec._moved_tops([lower, upper[[0, 2, 3]]], [3.5, 6.0], -math.inf)
    assert tops == [3.5, 6.0]


def test_a_missed_copy_is_not_returned(torus_pencils, monkeypatch):
    # the square torus with the restart taken out: the union count sees the
    # copies both slices missed
    monkeypatch.setattr(spec._Slice, "restart", lambda self, d, grow=0: False)
    with pytest.raises(spec.SolverError, match="the slices found no more"):
        spec.eigenvalues(torus_pencils["square"], 180)


def _narrow_second_slice(monkeypatch):
    """Patch the first placement of an interior slice to ask for a third of
    its pairs at the same shift: its window no longer reaches down to the top
    of the first slice."""
    real, placed = spec._next_shift, []

    def next_shift(lam, top, want):
        shift, pairs = real(lam, top, want)
        placed.append(shift)
        return shift, pairs // 3 if len(placed) == 1 else pairs
    monkeypatch.setattr(spec, "_next_shift", next_shift)


def test_a_gap_between_the_slices_restarts_the_second_one(g2_h05,
                                                          monkeypatch):
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "friedrichs")
    _narrow_second_slice(monkeypatch)
    res = spec.eigenvalues(op, 200)
    assert any(s["restarts"] for s in _used(res)[1:])
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 200)
    assert np.max(np.abs(res.eigenvalues - ref) / ref) <= 1e-11


def test_a_gap_between_the_slices_is_not_returned(g2_h05, monkeypatch):
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "friedrichs")
    _narrow_second_slice(monkeypatch)
    monkeypatch.setattr(spec._Slice, "restart", lambda self, d, grow=0: False)
    with pytest.raises(spec.SolverError, match="the slices found no more"):
        spec.eigenvalues(op, 200)


@pytest.mark.parametrize("offset", [0.0, 1e-9])
def test_an_interior_shift_on_an_eigenvalue_is_moved(offset, g2_h05,
                                                     monkeypatch):
    # placed on an eigenvalue, the second slice is dropped and run again
    # midway between the two eigenvalues it found around its shift
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "friedrichs")
    ref = oracles.dense_pencil_eigenvalues(op.stiffness, op.mass, 260)
    real = spec._next_shift

    def next_shift(lam, top, want):
        shift, pairs = real(lam, top, want)
        return ref[np.argmin(np.abs(ref - shift))] * (1.0 + offset), pairs
    monkeypatch.setattr(spec, "_next_shift", next_shift)
    res = spec.eigenvalues(op, 200)
    dropped = [s for s in res.slices if not s["used"]]
    assert len(dropped) == 1
    gap = np.min(np.abs(ref - dropped[0]["sigma"])) / dropped[0]["sigma"]
    assert gap <= 2e-9
    moved = _used(res)[1]["sigma"]
    assert np.min(np.abs(ref - moved)) > 1e-6 * moved
    assert np.max(np.abs(res.eigenvalues - ref[:200]) / ref[:200]) <= 1e-11


def test_only_large_requests_are_sliced(g2_h05):
    mesh, _, lift = g2_h05
    op = spec.assemble_operator(mesh, lift, "friedrichs")
    assert op.n_dofs // 4 > spec._SLICE_MIN
    assert len(spec.eigenvalues(op, spec._SLICE_MIN).slices) == 1
    assert len(spec.eigenvalues(op, spec._SLICE_MIN + 1).slices) == 2
    # an explicit shift keeps one run, and so does a request above n / 4
    sigma = 0.5 * spec.eigenvalues(op, 2).eigenvalues.sum()
    assert len(spec.eigenvalues(op, 150, sigma=sigma).slices) == 1
    s = sf.build_surface(sf.ModuliPoint(genus=1, A=[1.0], B=[1j]))
    mesh = sf.generate_mesh(s, h=0.07)
    spin = hs.enumerate_spin_structures(1)[-1]
    op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spin),
                                "friedrichs")
    assert op.n_dofs // 4 < 150 <= op.n_dofs
    assert len(spec.eigenvalues(op, 150).slices) == 1


# lambda_1..24 of the g2_h05 Friedrichs and Szego pencils from the one-run
# solver before slicing (and the midpoint counts) came in, as float.hex()
_ONE_RUN_24 = {
    "friedrichs": [
        "0x1.719cffa4ea563p-2", "0x1.f44e42e73d31cp-1", "0x1.3409cd0f9edf7p+1",
        "0x1.c7c9a8ec6db9bp+1", "0x1.248d743ab1422p+3", "0x1.2f35aae8e5336p+3",
        "0x1.3fbeccc562d2bp+3", "0x1.413220af5b6b2p+3", "0x1.4ad299a96adaap+3",
        "0x1.61baac9a304b5p+3", "0x1.62dbd998f1b2fp+3", "0x1.87ec24dbc3980p+3",
        "0x1.8f14d41fc0664p+3", "0x1.af8e3ddb33d20p+3", "0x1.b99aa5f90a774p+3",
        "0x1.cd03edf0e36e9p+3", "0x1.2da53d618855dp+4", "0x1.30efe9ad0a619p+4",
        "0x1.40a6247717067p+4", "0x1.41a2d6bd220bdp+4", "0x1.555d80093cf60p+4",
        "0x1.5a1d0a5d558dbp+4", "0x1.5a857952b396bp+4", "0x1.6ffd5397139bfp+4"],
    "szego": [
        "0x1.02c53374d14aep-3", "0x1.ffd776fd19ae2p-3", "0x1.3169994b9c017p+1",
        "0x1.4f444dc607a26p+1", "0x1.fb9dda12c23dbp+2", "0x1.01eb8c5b9783ap+3",
        "0x1.3bace714b46a9p+3", "0x1.3c4a914975abbp+3", "0x1.45344cada21fcp+3",
        "0x1.478a68e2ee273p+3", "0x1.6177f24c25d3bp+3", "0x1.6290aef3ee326p+3",
        "0x1.8eb6e6b502e21p+3", "0x1.900aebe7e0638p+3", "0x1.ad95703c54562p+3",
        "0x1.b5eb1be058b77p+3", "0x1.21e00922afddep+4", "0x1.226d3d873feb7p+4",
        "0x1.3d79e0ef64d78p+4", "0x1.3e825c8017c6bp+4", "0x1.495657078e01dp+4",
        "0x1.4b83dc55f9ac6p+4", "0x1.561f26cb71fc0p+4", "0x1.5a45e0d4a0a4cp+4"],
    # from the one-run solver the one-slice solve replaced
    "holomorphic": [
        "0x0.0p+0", "0x0.0p+0", "0x1.71a03f57a24d8p-2",
        "0x1.f45f54ada1a75p-1", "0x1.3409ded424d27p+1", "0x1.c7dca0c4eb08bp+1",
        "0x1.249184a168b41p+3", "0x1.2f38516489f22p+3", "0x1.3fbfa68778d14p+3",
        "0x1.4133a0f93428ep+3", "0x1.4ad683e91794bp+3", "0x1.61cc060f9b0d8p+3",
        "0x1.62e25bd1f54cap+3", "0x1.87f25a9605fd0p+3", "0x1.8f14d9cd4a31ep+3",
        "0x1.afb49d526bcb4p+3", "0x1.b9b6be958466ep+3", "0x1.cd1f960804b8dp+3",
        "0x1.2da88ceefa0e9p+4", "0x1.30f4f6153be2bp+4", "0x1.40a6fa773e837p+4",
        "0x1.41a3474b99efbp+4", "0x1.555e3dea833abp+4", "0x1.5a26f00db60bcp+4"],
}
# with one BLAS thread the one-run solver rounded two holomorphic values one
# unit higher in the last place (the pencil and its LDL^H solves are the
# same to the bit); with two, three or four threads it gave the list above
_HOLOMORPHIC_ONE_BLAS_THREAD = {19: "0x1.30f4f6153be2cp+4",
                                20: "0x1.40a6fa773e838p+4"}


@pytest.mark.parametrize("extension", ["friedrichs", "szego", "holomorphic"])
def test_a_request_below_the_slicing_size_is_bit_identical(extension, g2_h05,
                                                           g2_h05_periods):
    # one slice is the one-run solver unchanged: the midpoint count moves
    # no restart decision here, so not a bit of an eigenvalue moves either
    mesh, _, lift = g2_h05
    pd, char = g2_h05_periods
    op = spec.assemble_operator(mesh, lift, extension, periods=pd, char=char)
    res = spec.eigenvalues(op, 24)
    assert len(res.slices) == 1 and res.slices[0]["restarts"] == 0
    expected = np.array([float.fromhex(x) for x in _ONE_RUN_24[extension]])
    one_thread = expected.copy()
    if extension == "holomorphic":
        for i, x in _HOLOMORPHIC_ONE_BLAS_THREAD.items():
            one_thread[i] = float.fromhex(x)
    assert (np.array_equal(res.eigenvalues, expected)
            or np.array_equal(res.eigenvalues, one_thread))


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


@pytest.mark.parametrize("signs", [(1, -1), (-1, 1), (-1, -1)])
def test_heat_trace_against_poisson_trace(signs):
    # the torus (1, 0.3+0.9i): 400 explicit eigenvalues against the
    # Poisson-resummed trace over the whole window [2/cutoff, 2]
    A, B, area = 1.0, 0.3 + 0.9j, 0.9
    lam = oracles.torus_spectrum(A, B, *signs, 400)
    res = spec.SpectralResult(extension="friedrichs", h=0.0, genus=1,
                              area=area, eigenvalues=lam, n_dofs=0)
    cutoff = lam[-1] + math.pi / (2.0 * area)
    ts = np.geomspace(2.0 / cutoff, 2.0, 24)
    exact = np.array([oracles.torus_theta_trace(A, B, *signs, t) for t in ts])
    got = np.array([spec.heat_trace(res, t) for t in ts])
    assert np.max(np.abs(got - exact) / exact) <= 5e-3
    c0, _ = spec.fit_heat_trace_constant(res)
    assert abs(c0) <= 1e-6                  # no cones: c0 = 0


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


def test_singular_coefficients_refuse_the_exact_holomorphic_columns(g2_coarse):
    # the S(., P_k) columns are global sections without a ring expansion;
    # dropping them would return coefficients without the 1/x pole
    mesh, pd, _, char, lift = g2_coarse
    op = spec.assemble_operator(mesh, lift, "holomorphic", periods=pd, char=char)
    with pytest.raises(ValueError, match="holomorphic"):
        spec.extract_singular_coefficients(op, np.ones(op.n_dofs), 0.0, 0)


def test_singular_coefficients_ignore_the_scale_of_u(g2_coarse):
    mesh, _, _, _, lift = g2_coarse
    for ext in ("friedrichs", "szego"):
        op = spec.assemble_operator(mesh, lift, ext)
        res = spec.eigenvalues(op, 2, vectors=True)
        u, lam = res.vectors[:, 1], res.eigenvalues[1]
        for k in (0, 1):
            ref = spec.extract_singular_coefficients(op, u, lam, k)
            got = spec.extract_singular_coefficients(op, (3 - 2j) * u, lam, k)
            assert set(got) == set(ref) and len(ref) == 9
            scale = max(abs(c) for c in ref.values())
            for key, c in ref.items():
                assert abs(got[key] - c) <= 1e-12 * scale
