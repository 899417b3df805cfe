"""Discrete Hodge theory on the glued mesh: harmonic 1-forms, the normalized
holomorphic basis upsilon_i, the period matrix B, pointwise v_i = upsilon_i /
omega, the Abel map, and the moduli-derivative identity for B.

Harmonic representatives are computed with cotangent weights (exact on the
flat charts): for each homology generator the seam-crossing cochain gamma is
projected to gamma - d alpha with L alpha = d* gamma.  The holomorphic basis
is the complex combination of the 2g real harmonic cochains minimizing the
antiholomorphic energy subject to the a-period normalization.

Every cochain is an array over the mesh's oriented edge table
(`SpinMesh.edge_table`): entry e is the value on the edge from edges[e, 0]
to edges[e, 1], and the table's per-corner index and sign read it along
each triangle side.

Near each cone point, upsilon_i / dx_k is holomorphic in the distinguished
coordinate; its Taylor coefficients are recovered by an FFT of the Abel map
over a mesh ring (Cauchy integral on the x-circle), which supplies accurate
pointwise values where the plain per-triangle reconstruction degrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import theta as th
from .errors import SpinlapError
from .surface import cone_coordinate, cone_patch_triangles


class MeshQualityError(SpinlapError, RuntimeError):
    """Singular linear system or failed rank condition in the Hodge solve."""


class DiscretizationError(SpinlapError, RuntimeError):
    """Period matrix failed a structural invariant (e.g. Im B not PD)."""


# ---------------------------------------------------------------------------
# mesh linear algebra helpers

def cotan_laplacian(mesh, corners):
    """Cotangent-weight Laplacian L (Pinkall and Polthier, Exp. Math. 2,
    1993) and the weighted incidence DIVT that maps an edge cochain to its
    cotangent divergence, so that L = DIVT d.

    corners are the (nt, 3) corner coordinates to use.  period_matrix passes
    the distinguished-chart (x) ones inside cone patches: the Dirichlet energy
    is conformally invariant and scalar harmonics are smooth in x, so this
    removes the O(1) relative error the z-chart weights suffer in the graded
    zone (z ~ x^2/2 there).
    """
    table = mesh.edge_table
    nv, ne = mesh.n_vertices, len(table.edges)
    a = np.roll(corners, -1, axis=1) - corners
    b = np.roll(corners, -2, axis=1) - corners
    cot = (a.real * b.real + a.imag * b.imag) / (a.real * b.imag - a.imag * b.real)
    # the angle at corner c faces the side from corner c + 1 to corner c + 2
    w = 0.5 * np.bincount(np.roll(table.index, -1, axis=1).ravel(),
                          weights=cot.ravel(), minlength=ne)
    u, v = table.edges.T
    L = sp.csr_matrix((np.column_stack([-w, -w, w, w]).ravel(),
                       (np.column_stack([u, v, u, v]).ravel(),
                        np.column_stack([v, u, u, v]).ravel())), shape=(nv, nv))
    DIVT = sp.csr_matrix((np.column_stack([-w, w]).ravel(),
                          (table.edges.ravel(), np.repeat(np.arange(ne), 2))),
                         shape=(nv, ne))
    return L, DIVT


def crossing_cochains(mesh):
    """Closed cochains [gamma_{a_1..a_g}, gamma_{b_1..b_g}] as a (2g, ne)
    array: the seam crossings of each edge, read on its first triangle side."""
    table = mesh.edge_table
    g, ne = mesh.genus, len(table.edges)
    first = table.slots[:, 0]
    wraps = np.roll(mesh.tri_wrap, -1, axis=1) - mesh.tri_wrap
    du = (wraps * table.sign[:, :, None]).reshape(-1, 2)[first]
    chart = mesh.tri_chart[first // 3]
    out = np.zeros((2 * g, ne))
    out[chart, np.arange(ne)] = du[:, 0]
    out[g + chart, np.arange(ne)] = du[:, 1]
    return out


def harmonic_basis(mesh, corners):
    """2g real harmonic cochains (closed and cotangent-co-closed).

    corners are the corner coordinates cotan_laplacian weighs with.  Returns
    (cochains, DIVT): the (2g, ne) cochains ordered [a_1..a_g, b_1..b_g] by
    the crossing class they represent, and the weighted incidence whose
    kernel they lie in.
    """
    L, DIVT = cotan_laplacian(mesh, corners)
    gamma = crossing_cochains(mesh)

    # fix the constant mode by pinning alpha to 0 at vertex 0 (its row and
    # column drop out): the rest of L is symmetric positive definite, so it
    # is factored as LDL^T with a symmetric ordering and diagonal pivots,
    # as spectral._factor does
    try:
        solver = spla.splu(L[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
    except RuntimeError as exc:        # "Factor is exactly singular"
        raise MeshQualityError("cotangent Laplacian is singular") from exc
    div = DIVT @ gamma.T
    alpha = np.zeros((len(gamma), mesh.n_vertices))
    alpha[:, 1:] = solver.solve(np.ascontiguousarray(div[1:])).T
    u, v = mesh.edge_table.edges.T
    return gamma - (alpha[:, v] - alpha[:, u]), DIVT


def _triangle_pq(table, corners, cochains):
    """Per-triangle (p, q) with cochain ~ p dz + q dzbar on each triangle, in
    the coordinates of corners (nt, 3), for all cochains (m, ne) at once:
    the least-squares solution of the 3 x 2 side equations (exact for a
    closed cochain), from the 2 x 2 normal equations
    [[s, conj c], [c, s]] (p, q) = (sum conj(dz) b, sum dz b) with
    s = sum |dz|^2 and c = sum dz^2 over the sides; their determinant
    s^2 - |c|^2 vanishes only on degenerate triangles, which validate_mesh
    rejects.  Returns p, q as (m, nt) arrays."""
    dz = np.roll(corners, -1, axis=1) - corners               # (nt, 3)
    values = cochains[:, table.index] * table.sign            # (m, nt, 3)
    s = np.sum(np.abs(dz) ** 2, axis=1)
    c = np.sum(dz ** 2, axis=1)
    u = np.einsum("tk,mtk->mt", np.conj(dz), values)
    v = np.einsum("tk,mtk->mt", dz, values)
    det = s ** 2 - np.abs(c) ** 2
    return (s * u - np.conj(c) * v) / det, (s * v - c * u) / det


def _bfs_tree(edges, n_vertices, root):
    """Breadth-first spanning tree (order, parent) of the graph of edges from
    root, visiting neighbours in ascending order; vertices the root does not
    reach are left out of order."""
    from scipy.sparse.csgraph import breadth_first_order
    u, v = edges.T
    adjacency = sp.csr_matrix((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])),
                              shape=(n_vertices, n_vertices))
    adjacency.sort_indices()
    return breadth_first_order(adjacency, root, return_predecessors=True)


def _tree_levels(tree):
    """The spanning tree's levels below the root, as slices of its BFS
    order: breadth-first order lists the tree level by level, and within
    each level the parents come in the order of the level above."""
    order, parent = tree
    rank = np.empty(len(parent), dtype=int)
    rank[order] = np.arange(len(order))
    parent_rank = rank[parent[order[1:]]]            # non-decreasing
    lo = 1
    while lo < len(order):
        hi = 1 + int(np.searchsorted(parent_rank, lo))
        yield slice(lo, hi)
        lo = hi


def _tree_integral(table, tree, cochains, start):
    """Integrals (m, nv) of closed cochains (m, ne) along a spanning tree:
    start at its root, then each vertex its parent's value plus the cochain
    on the tree edge, one tree level at a time."""
    order, parent = tree
    idx, sign = table.lookup(parent[order[1:]], order[1:])
    steps = (cochains[:, idx] * sign).T
    out = np.zeros((table.n_vertices, cochains.shape[0]), dtype=complex)
    out[order[0]] = start
    for level in _tree_levels(tree):
        v = order[level]
        out[v] = out[parent[v]] + steps[level.start - 1:level.stop - 1]
    return out.T


# ---------------------------------------------------------------------------
# period data

@dataclass
class PeriodData:
    mesh: object
    upsilon: np.ndarray          # (g, ne) complex holomorphic cochains
    b_matrix: np.ndarray         # symmetrized, checked
    b_raw: np.ndarray
    residual: float
    v_tri: np.ndarray            # (g, nt) per-triangle v_i
    v_vertex: np.ndarray         # (g, nv)
    abel_vertex: np.ndarray      # (g, nv) tree-integrated Abel map
    cone_poly: np.ndarray        # (n_cones, g, n_coef) Taylor coeffs of upsilon/dx
    abel_cone: np.ndarray        # (g, n_cones) Abel map at the cone points
    tree: tuple                  # (order, parent): BFS spanning tree from
                                 # vertex 0 that abel_vertex is integrated on
    _cache: dict = field(default_factory=dict)

    @property
    def genus(self):
        return self.mesh.genus

    # ----- point handles: int vertex | ("tri", t, z) | ("cone", k, x)
    def abel(self, pt):
        if isinstance(pt, (int, np.integer)):
            return self.abel_vertex[:, int(pt)]
        kind = pt[0]
        if kind == "tri":
            _, t, z = pt
            tri = self.mesh.triangles[t]
            z0 = self.mesh.tri_pos[t][0]
            return self.abel_vertex[:, int(tri[0])] + self.v_tri[:, t] * (complex(z) - z0)
        if kind == "cone":
            return self.cone_series(pt[1], complex(pt[2]))[1]
        raise ValueError(f"unknown point handle {pt!r}")

    def v(self, pt):
        if isinstance(pt, (int, np.integer)):
            return self.v_vertex[:, int(pt)]
        kind = pt[0]
        if kind == "tri":
            return self.v_tri[:, pt[1]]
        if kind == "cone":
            _, k, x = pt
            x = complex(x)
            if x == 0:
                raise ZeroDivisionError("v is singular at the cone point")
            return self.upsilon_dx(k, x) / x
        raise ValueError(f"unknown point handle {pt!r}")

    def upsilon_dx(self, k, x):
        """(upsilon_i / dx_k)(x), the holomorphic cone-chart ratio."""
        return self.cone_series(k, complex(x))[0]

    def cone_series(self, k, x):
        """(upsilon_i / dx_k, Abel map) at the distinguished coordinates x of
        cone k, from its Taylor series: two (g, *shape(x)) arrays."""
        return _cone_series(self.cone_poly[k], self.abel_cone[:, k], x)

    def offset_point(self, pt, dz):
        """A point displaced by dz in the flat chart near pt (for local fits)."""
        if isinstance(pt, (int, np.integer)):
            t = self._vertex_ref_triangle(int(pt))
            tri = list(self.mesh.triangles[t])
            c = tri.index(int(pt))
            z = self.mesh.tri_pos[t][c]
            return ("tri", t, z + complex(dz))
        if pt[0] == "tri":
            return ("tri", pt[1], pt[2] + complex(dz))
        raise ValueError("offset_point supports vertex or tri handles")

    def _vertex_ref_triangle(self, v):
        key = ("vref", v)
        if key not in self._cache:
            hits = np.nonzero((self.mesh.triangles == v).any(axis=1))[0]
            self._cache[key] = int(hits[0])
        return self._cache[key]

    # ----- theta caches
    def theta0(self, char):
        key = ("theta0", char)
        if key not in self._cache:
            self._cache[key] = th.theta(char, np.zeros(self.genus), self.b_matrix)
        return self._cache[key]

    def theta_gradient0(self, char):
        key = ("grad0", char)
        if key not in self._cache:
            self._cache[key] = th.theta_gradient0(char, self.b_matrix)
        return self._cache[key]

    # ----- h_delta branch machinery
    def h_delta_sq(self, delta, pt):
        """h_delta^2 at a point handle, in the trivialization h_delta() uses
        (distinguished chart at cone handles, flat chart elsewhere)."""
        grad = self.theta_gradient0(delta)
        if isinstance(pt, tuple) and pt[0] == "cone":
            _, k, x = pt
            return complex(grad @ self.upsilon_dx(k, complex(x)))
        return complex(grad @ self.v(pt))

    def h_delta_sq_vertex(self, delta):
        key = ("h2", delta)
        if key not in self._cache:
            grad = self.theta_gradient0(delta)
            self._cache[key] = grad @ self.v_vertex
        return self._cache[key]

    def _h_sign_field(self, delta):
        """Tree-propagated sign field making sqrt(h^2) continuous along the
        spanning tree (a gauge; h_delta is a spinor section, not a function)."""
        key = ("hsign", delta)
        if key in self._cache:
            return self._cache[key]
        h2 = self.h_delta_sq_vertex(delta)
        root = np.sqrt(h2)
        signs = np.zeros(self.mesh.n_vertices, dtype=np.int8)
        order, parent = self.tree
        signs[order[0]] = 1
        for level in _tree_levels(self.tree):
            v = order[level]
            u = parent[v]
            same = np.abs(root[v] - signs[u] * root[u])
            flip = np.abs(root[v] + signs[u] * root[u])
            signs[v] = np.where(same <= flip, signs[u], -signs[u])
        self._cache[key] = signs
        return signs

    def h_delta(self, delta, pt):
        grad = self.theta_gradient0(delta)
        if isinstance(pt, (int, np.integer)):
            h2 = complex(grad @ self.v_vertex[:, int(pt)])
            return self._h_sign_field(delta)[int(pt)] * np.sqrt(h2)
        if pt[0] == "cone":
            _, k, x = pt
            # h in the x_k-trivialization: h^2 = sum_i grad_i (upsilon_i/dx)(x)
            h2 = complex(grad @ self.upsilon_dx(k, complex(x)))
            return np.sqrt(h2)
        h2 = complex(grad @ self.v(pt))
        # inherit the sign of the nearest vertex of the reference triangle
        t = pt[1]
        v0 = int(self.mesh.triangles[t][0])
        s = self._h_sign_field(delta)[v0]
        ref = s * np.sqrt(complex(grad @ self.v_vertex[:, v0]))
        val = np.sqrt(h2)
        return val if abs(val - ref) <= abs(val + ref) else -val

    def h_monodromy(self, delta, path, max_step=2.6):
        """Sign picked up by a continuous branch of h_delta along a closed
        vertex path: (-1)^w with w the winding number of h_delta^2.

        Raises MeshQualityError if an argument increment exceeds max_step
        (path too close to a zero of h^2 for reliable tracking); callers may
        reroute the cycle away from small |h^2| and retry.
        """
        h2 = self.h_delta_sq_vertex(delta)[np.asarray(path, dtype=int)]
        if np.min(np.abs(h2)) == 0.0:
            raise MeshQualityError("h^2 vanishes on the monodromy path")
        steps = np.angle(h2[1:] / h2[:-1])
        if np.max(np.abs(steps)) > max_step:
            raise MeshQualityError("h^2 winding under-resolved along path")
        w = int(round(float(np.sum(steps)) / (2.0 * math.pi)))
        return -1 if w % 2 else 1

    def cone_loop_integral(self, k):
        """oint v_i v_j omega around cone k by chord quadrature of the patch
        Abel field over the three outermost mesh rings (averaged); equals
        2 pi i (ups_i/dx)(P_k) (ups_j/dx)(P_k) in the continuum."""
        key = ("coneloop", k)
        if key in self._cache:
            return self._cache[key]
        patch = self.mesh.cone_patches[k]
        local = _patch_abel(self.mesh, patch, self.abel_vertex, self.upsilon)
        rings = patch.ring_vertices[:3]
        z = patch.ring_radii[:3, None] * np.exp(
            1j * (patch.ring_phi + patch.cone.theta_ray))
        dz = np.roll(z, -1, axis=1) - z
        A = local[:, rings]                                  # (g, rings, slots)
        dA = np.roll(A, -1, axis=2) - A
        self._cache[key] = np.einsum("irn,jrn->ij", dA / dz, dA) / len(rings)
        return self._cache[key]


def period_matrix(mesh) -> PeriodData:
    """Normalized holomorphic cochain basis and the period matrix B."""
    table = mesh.edge_table
    g = mesh.genus
    # Inside cone patches upsilon ~ 1/x makes the z-chart linear model
    # useless, so the cotangent weights and the antiholomorphic energy use
    # the distinguished-chart corners there (both are conformally invariant
    # and upsilon/dx is smooth there).
    xcorners = mesh.tri_pos.copy()
    for ids, x in cone_patch_triangles(mesh):
        xcorners[ids] = x
    cochains, DIVT = harmonic_basis(mesh, xcorners)

    # rank of the period pairing over the 2g cycles
    paths = ([c["a"] for c in mesh.cycle_paths]
             + [c["b"] for c in mesh.cycle_paths])
    P = np.array([_path_integral(table, cochains, path) for path in paths])
    if np.linalg.matrix_rank(P, tol=1e-8) != 2 * g:
        raise MeshQualityError("period pairing rank deficient")

    # Antiholomorphic-energy Gram.  The b-periods of the raw cochains are
    # exact integers, so the entire B error enters through these coefficients.
    _, Q = _triangle_pq(table, xcorners, cochains)
    a, b = (xcorners[:, 1:] - xcorners[:, :1]).T
    weights = 0.5 * np.abs(a.real * b.imag - a.imag * b.real)
    G = (np.conj(Q) * weights) @ Q.T
    G = 0.5 * (G + np.conj(G.T))

    # row j: the combination with a-periods delta_ij of least energy
    coef = np.array([_constrained_min(G, P[:g], np.eye(g)[j]) for j in range(g)])
    upsilon = coef @ cochains
    v_tri = coef @ _triangle_pq(table, mesh.tri_pos, cochains)[0]

    b_raw = np.array([_path_integral(table, upsilon, c["b"])
                      for c in mesh.cycle_paths])
    b_sym = 0.5 * (b_raw + b_raw.T)
    wmin = np.linalg.eigvalsh(b_sym.imag).min()
    if wmin <= 0:
        raise DiscretizationError("Im B not positive definite")

    # co-closedness residual of the holomorphic basis
    resid = float(np.max(np.abs(DIVT @ upsilon.T)))

    v_vertex = _vertex_v(mesh, v_tri)
    tree = _bfs_tree(table.edges, mesh.n_vertices, 0)
    abel_vertex = _tree_integral(table, tree, upsilon, np.zeros(g))
    cone_poly, abel_cone, v_vertex = _cone_charts(mesh, abel_vertex, v_vertex,
                                                  upsilon)

    return PeriodData(mesh=mesh, upsilon=upsilon,
                      b_matrix=b_sym, b_raw=b_raw, residual=resid,
                      v_tri=v_tri, v_vertex=v_vertex,
                      abel_vertex=abel_vertex, cone_poly=cone_poly,
                      abel_cone=abel_cone, tree=tree)


def _path_integral(table, cochains, path):
    """Integrals of the cochains (..., ne) along a vertex path."""
    path = np.asarray(path)
    idx, sign = table.lookup(path[:-1], path[1:])
    return np.sum(cochains[..., idx] * sign, axis=-1)


def _constrained_min(G, A, rhs):
    """argmin c^H G c subject to A c = rhs (KKT system)."""
    g2 = G.shape[0]
    k = A.shape[0]
    kkt = np.zeros((g2 + k, g2 + k), dtype=complex)
    kkt[:g2, :g2] = G + 1e-14 * np.eye(g2) * max(1.0, np.trace(G).real)
    kkt[:g2, g2:] = np.conj(A.T)
    kkt[g2:, :g2] = A
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(g2), rhs]))
    return sol[:g2]


def _vertex_v(mesh, v_tri):
    """Area-weighted mean of the per-triangle v_i over each vertex's
    triangles."""
    corners = mesh.triangles.ravel()
    areas = np.repeat(mesh.triangle_areas(), 3)

    def gather(values):
        return np.bincount(corners, weights=values, minlength=mesh.n_vertices)

    wsum = gather(areas)
    wsum[wsum == 0] = 1.0
    acc = np.empty((len(v_tri), mesh.n_vertices), dtype=complex)
    for i, vi in enumerate(v_tri):
        weighted = areas * np.repeat(vi, 3)
        acc[i].real = gather(weighted.real)
        acc[i].imag = gather(weighted.imag)
    return acc / wsum


def _patch_abel(mesh, patch, abel_vertex, upsilon):
    """Single-valued Abel field (g, nv) on the vertices of a cone patch (zero
    elsewhere) by local integration of the closed cochain: loops around the
    cone carry no residue, so the punctured patch is integration-safe;
    anchored to the global tree at one vertex."""
    table = mesh.edge_table
    inside = np.zeros(mesh.n_vertices, dtype=bool)
    inside[patch.ring_vertices] = True
    root = int(patch.ring_vertices[0, 0])
    tree = _bfs_tree(table.edges[inside[table.edges].all(axis=1)],
                     mesh.n_vertices, root)
    if len(tree[0]) != inside.sum():
        raise MeshQualityError("cone patch vertex graph is disconnected")
    return _tree_integral(table, tree, upsilon, abel_vertex[:, root])


def _cone_charts(mesh, abel_vertex, v_vertex, upsilon):
    """Taylor coefficients (n_cones, g, 8) of upsilon/dx and the Abel map
    (g, n_cones) at each cone, by FFT of the Abel map over mesh ring 2
    (Cauchy integral on the x-circle); also overwrites v at the ring vertices
    with the analytic values."""
    g, n_coef = abel_vertex.shape[0], 8
    polys = np.zeros((len(mesh.cone_patches), g, n_coef), dtype=complex)
    abel_c = np.zeros((g, len(mesh.cone_patches)), dtype=complex)
    for k, patch in enumerate(mesh.cone_patches):
        local = _patch_abel(mesh, patch, abel_vertex, upsilon)
        R = math.sqrt(2.0 * patch.ring_radii[2])       # every patch has >= 3
        n_slot = 2 * patch.n_ang
        fft = np.fft.fft(local[:, patch.ring_vertices[2]], axis=1) / n_slot
        # A(x) = sum_n c_n x^n at x = R e^{i(theta_ray + 2 pi j/N)/2}:
        # FFT bin n = c_n R^n e^{i n theta_ray/2}
        n = np.arange(min(n_coef + 1, n_slot // 2))
        c = np.zeros((g, n_coef + 1), dtype=complex)
        arg0 = 0.5 * patch.cone.theta_ray
        c[:, n] = fft[:, n] / (R ** n * np.exp(1j * n * arg0))
        abel_c[:, k] = c[:, 0]
        polys[k] = np.arange(1, n_coef + 1) * c[:, 1:]
        x = cone_coordinate(patch.cone, patch.ring_radii[:, None], patch.ring_phi)
        ratio, _ = _cone_series(polys[k], abel_c[:, k], x)
        v_vertex[:, patch.ring_vertices] = ratio / x
    return polys, abel_c, v_vertex


def _cone_series(coef, abel0, x):
    """upsilon/dx and the Abel map at the distinguished coordinates x of one
    cone, from the Taylor coefficients coef (g, n) of upsilon/dx there and the
    Abel map abel0 (g,) at the cone: two (g, *shape(x)) arrays."""
    n = coef.shape[1]
    powers = np.asarray(x, dtype=complex)[..., None] ** np.arange(n + 1)
    ratio = powers[..., :n] @ coef.T
    abel = abel0 + powers[..., 1:] @ (coef / np.arange(1, n + 1)).T
    return np.moveaxis(ratio, -1, 0), np.moveaxis(abel, -1, 0)


def dual_cycle_integral(periods: PeriodData, i, j, nu):
    """Contour integral of upsilon_i upsilon_j / omega over the dual cycle of
    the moduli coordinate nu = ("A", idx) | ("B", idx) | ("C", k).

    A_idx^dag = -b_idx, B_idx^dag = a_idx (shifted representatives are
    homologous; the integrand is closed), C_k^dag = small circle around P_k in
    the distinguished chart, evaluated by residue of the analytic cone fit.
    """
    mesh = periods.mesh
    kind, idx = nu
    if kind == "C":
        return periods.cone_loop_integral(idx)[i, j]
    if kind == "A":
        path = list(reversed(mesh.cycle_paths[idx]["b"]))
    elif kind == "B":
        path = mesh.cycle_paths[idx]["a"]
    else:
        raise ValueError(nu)
    path = np.asarray(path)
    edge, sign = mesh.edge_table.lookup(path[:-1], path[1:])
    vv = periods.v_vertex[i] * periods.v_vertex[j]
    return complex(np.sum(0.5 * (vv[path[:-1]] + vv[path[1:]])
                          * sign * mesh.edge_vectors()[edge]))


def check_dB_dnu(moduli, nu, step=0.02, h=0.05):
    """Relative mismatch between central differences of B and the contour
    integral dB_ij/dnu = oint_{nu^dag} upsilon_i upsilon_j / omega.

    Returns a dict with the finite-difference matrix, the contour matrix, the
    relative error, and the antiholomorphic derivative norm |dB/dnubar|.
    """
    from . import surface as sf
    frozen = {}

    def bmat(m):
        surf = sf.build_surface(m)
        mesh = sf.generate_mesh(surf, h=h, structure=frozen.get("s"))
        frozen.setdefault("s", mesh.structure)
        return period_matrix(mesh)

    def perturbed(m, nu, dz):
        kind, idx = nu
        A, B, C = list(m.A), list(m.B), list(m.C)
        if kind == "A":
            A[idx] += dz
        elif kind == "B":
            B[idx] += dz
        else:
            C[idx] += dz
        return sf.ModuliPoint(genus=m.genus, A=A, B=B, C=C)

    base = bmat(moduli)
    bp = bmat(perturbed(moduli, nu, step)).b_matrix
    bm = bmat(perturbed(moduli, nu, -step)).b_matrix
    bpi = bmat(perturbed(moduli, nu, 1j * step)).b_matrix
    bmi = bmat(perturbed(moduli, nu, -1j * step)).b_matrix
    dx = (bp - bm) / (2 * step)
    dy = (bpi - bmi) / (2 * step)
    d_nu = 0.5 * (dx - 1j * dy)
    d_nubar = 0.5 * (dx + 1j * dy)

    g = moduli.genus
    contour = np.array([[dual_cycle_integral(base, i, j, nu)
                         for j in range(g)] for i in range(g)])
    scale = max(np.max(np.abs(d_nu)), np.max(np.abs(contour)), 1e-30)
    rel = float(np.max(np.abs(d_nu - contour)) / scale)
    return {"fd": d_nu, "contour": contour, "rel_error": rel,
            "dbar_norm": float(np.max(np.abs(d_nubar))),
            "periods": base}
