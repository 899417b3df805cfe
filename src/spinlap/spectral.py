"""Galerkin discretization of the conical spinor Laplacian under the
Friedrichs, Szego, and holomorphic self-adjoint extensions.

The operator is Delta = -(1/4)(Euclidean Laplacian) in the flat charts, and
the bilinear form is the dbar Gram a[u, v] = int dbar(u) conj(dbar(v)) dA
(Delta_F = Dbar* Dbar).  The Galerkin space is sign-lifted P1 (one dof per
vertex carrying the spin gauge, cone vertices constrained to zero), enriched
per extension with the admitted singular cone modes written in the
distinguished coordinate and transported to the flat chart with the spinor
weight:

  friedrichs        plain P1 (admitted exponents {|x|, x, x^2, xbar |x|});
  szego             + chi_k f_{k,0,+}        ({1, x, x^2, xbar |x|});
  holomorphic_local + chi_k f_{k,-1,+} and chi_k f_{k,0,+}  ({x^-1, 1, x, x^2});
  holomorphic       + the exact Szego kernels S(., P_k), which are global
                    dbar-closed sections: their stiffness rows vanish
                    identically, so the kernel dimension 2g-2 is exact.

The sign-lifted P1 pencil is real symmetric (the imaginary part of the dbar
Gram cancels edge by edge), so the Friedrichs pencil is assembled in float64.
Only the enrichment borders of the szego and holomorphic variants are
complex; their pencils are complex Hermitian.  Every pencil, real or complex,
is solved by shift-invert Lanczos on (A - sigma M)^-1 M, which is
self-adjoint in the M inner product, so its projection is a real
tridiagonal matrix (Ericsson & Ruhe, Math. Comp. 35, 1980).  Its basis is
kept semi-orthogonal by partial reorthogonalization (Simon, Math. Comp. 42,
1984): a step runs the full Gram-Schmidt only when Simon's estimate of the
lost orthogonality passes sqrt(eps), which is enough for Ritz values exact
to rounding; the returned eigenvectors are M-orthonormalized and rotated
by a Rayleigh-Ritz pass on their span.  Every factor of
A - tau M is an LDL^H one (a symmetric ordering, diagonal pivots), so its
negative pivots count the eigenvalues below tau (Sylvester's law of inertia).
That count certifies the solve (Ericsson & Ruhe; Grimes, Lewis & Simon, SIAM
J. Matrix Anal. Appl. 15, 1994).  One driver searches the spectrum in
slices: one Lanczos search at sigma for a small request, two or more at
rising shifts for a large one, and one count below the top of the last
slice (less the one below the bottom of the first, for a sigma inside the
spectrum) must equal the eigenvalues the slices found.  The exact
Szego-kernel columns of the holomorphic pencil are scaled to unit mass so
that its factor is accurate.

Heat traces and zeta determinants follow the split-Mellin regularization: for
t < t0 the short-time model Area/(pi t) + c0 (c0_theory, from the cone
constants of cone_analysis) plus a fitted exponential remainder, for t >= t0
the eigenvalue sum with its Weyl tail, which is not optional: without it the
sum misses 13-14 % of K(t) at the bottom of its window on the torus.
"""

from __future__ import annotations

import math
import mmap
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal, solve_triangular
from scipy.sparse import csgraph
from scipy.special import exp1

from .cone_analysis import (cone_trace_constant, det_t_exponent,
                            pencil_coefficients)
from .errors import SpinlapError
from .surface import cone_angle, slit_sign

EXTENSIONS = ("friedrichs", "szego", "holomorphic", "holomorphic_local")

ADMITTED_EXPONENTS = {
    "friedrichs": ("|x|", "x", "x^2", "xbar|x|"),
    "szego": ("1", "x", "x^2", "xbar|x|"),
    "holomorphic": ("x^-1", "1", "x", "x^2"),
    "holomorphic_local": ("x^-1", "1", "x", "x^2"),
}


class AssemblyError(SpinlapError, RuntimeError):
    """Enrichment Gram ill-conditioned or inconsistent gauge."""


class SolverError(SpinlapError, RuntimeError):
    """Eigensolve impossible (the shift is an eigenvalue), uncertified (the
    inertia count disagrees with the eigenpairs found) or its spectrum
    inconsistent with the extension."""


class WindowError(SpinlapError, ValueError):
    """Requested t outside the validity window of the truncated trace."""


class EigenCountError(SpinlapError, ValueError):
    """The number of eigenpairs asked for is not a positive integer."""


# 7-point degree-5 triangle rule (barycentric coordinates, weights sum to 1)
_QW = np.array([0.225,
                0.125939180544827, 0.125939180544827, 0.125939180544827,
                0.132394152788506, 0.132394152788506, 0.132394152788506])
_QB = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.797426985353087, 0.101286507323456, 0.101286507323456],
    [0.101286507323456, 0.797426985353087, 0.101286507323456],
    [0.101286507323456, 0.101286507323456, 0.797426985353087],
    [0.059715871789770, 0.470142064105115, 0.470142064105115],
    [0.470142064105115, 0.059715871789770, 0.470142064105115],
    [0.470142064105115, 0.470142064105115, 0.059715871789770],
])


_CUTOFF = (0.35, 0.85)      # chi's (r1, r2) over the patch's outer radius


def smoothstep(r, r1, r2):
    """Quintic cutoff: 1 for r <= r1, 0 for r >= r2, C^2 in between."""
    t = np.clip((r - r1) / (r2 - r1), 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def smoothstep_deriv(r, r1, r2):
    t = np.clip((r - r1) / (r2 - r1), 0.0, 1.0)
    return -(30.0 * t * t * (1.0 - t) ** 2) / (r2 - r1)


# ---------------------------------------------------------------------------
# singular cone modes in the flat chart

def cone_mode_rep(m, s, r, phi):
    """Flat-chart representative of f_{k,m,s} at (r, phi) with the 4 pi angle
    phi measured from the sign-flip gluing curve; the distinguished coordinate
    itself is x = sqrt(2 r) exp(i (phi + theta_ray)/2), and the theta_ray
    phase is handled by the caller (mode_phase)."""
    nu = (2.0 * m - 1.0) / 4.0
    ang = np.exp(1j * nu * phi)
    if s == +1:
        return (2.0 * r) ** nu * ang
    return (2.0 * r) ** (-nu) * ang / (math.pi * (m - 0.5))


def cone_mode_phase(m, s, theta_ray):
    """Constant phase relating the phi-rep above to the true f_{k,m,s}(x_k)."""
    nu = (2.0 * m - 1.0) / 4.0
    return np.exp(1j * nu * theta_ray)


def cone_mode_lambda_series(m, s, lam, r):
    """Correction series sum_n d(n, +-i mu_m)(lam r^2)^n, n < 3, of the
    local (Delta - lam)-solution attached to f_{k,m,s}."""
    nu = (2.0 * m - 1.0) / 4.0
    q = nu if s == +1 else -nu
    out = np.ones_like(np.asarray(r, dtype=complex))
    for n in (1, 2):
        out = out + pencil_coefficients(n, q) * (lam * np.asarray(r) ** 2) ** n
    return out


# ---------------------------------------------------------------------------
# discrete operator

@dataclass
class DiscreteOperator:
    mesh: object
    lift: object
    extension: str
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    dof_of_vertex: np.ndarray
    n_p1: int
    enrichment: list            # [{'cone': k, 'mode': (m, s) | 'szego', 'col': j}]

    @property
    def n_dofs(self):
        return self.stiffness.shape[0]


def assemble_operator(mesh, lift, extension, periods=None, char=None):
    """Stiffness/mass pair for the requested extension.

    periods/char are required for the 'holomorphic' (exact Szego kernel)
    variant.  The cone modes of 'szego' and 'holomorphic_local' are cut off
    by chi (_CUTOFF) inside their patch and integrated over its triangles.
    """
    if extension not in EXTENSIONS:
        raise ValueError(f"unknown extension {extension!r}")
    is_dof = np.ones(mesh.n_vertices, dtype=bool)
    is_dof[mesh.cone_vertex_ids()] = False
    dof_of_vertex = np.where(is_dof, np.cumsum(is_dof) - 1, -1)
    n_p1 = int(is_dof.sum())

    # (m, s, p): Darboux mode f_{k,m,s} times the regular radial modulation
    # (r/r0)^p; p > 0 companions stay inside the Friedrichs form domain and
    # only improve the radial resolution of the singular sector.
    modes = []
    if extension == "szego":
        modes = [(0, +1, 0), (0, +1, 1), (0, +1, 2), (0, +1, 3)]
    elif extension == "holomorphic_local":
        modes = [(-1, +1, 0), (-1, +1, 1), (0, +1, 0), (0, +1, 1)]
    elif extension == "holomorphic":
        modes = ["szego"]
    ncone = len(mesh.cone_patches)
    enrichment = [{"cone": k, "mode": mode, "col": n_p1 + len(modes) * k + i}
                  for k in range(ncone) for i, mode in enumerate(modes)]
    ndof = n_p1 + len(enrichment)

    # ----- P1 block, real symmetric.  dbar phi_c = -e_c / (4 i A) with e_c
    # the edge opposite corner c, so the dbar Gram entry of a triangle is
    # eta_a eta_b conj(e_a) e_b / (16 A).  Its imaginary part +-eta_a eta_b / 8
    # is antisymmetric in (a, b) and cancels across every interior edge (both
    # triangles carry the same edge sign), so only the real part is kept.
    pos = mesh.tri_pos
    area = mesh.signed_areas()
    e = np.roll(pos, -2, axis=1) - np.roll(pos, -1, axis=1)          # (nt, 3)
    eta = lift.eta.astype(float)
    ss = eta[:, :, None] * eta[:, None, :]
    a3 = area[:, None, None]
    p1_a = ss * (e.real[:, :, None] * e.real[:, None, :]
                 + e.imag[:, :, None] * e.imag[:, None, :]) / (16.0 * a3)
    p1_m = ss * a3 * ((1.0 + np.eye(3)) / 12.0)
    dofs = dof_of_vertex[mesh.triangles]
    p1_rows = np.broadcast_to(dofs[:, :, None], ss.shape)
    p1_cols = np.broadcast_to(dofs[:, None, :], ss.shape)
    keep = (p1_rows >= 0) & (p1_cols >= 0)          # cone vertices carry no dof
    border_a = [(p1_rows[keep], p1_cols[keep], p1_a[keep])]
    border_m = [(p1_rows[keep], p1_cols[keep], p1_m[keep])]

    # ----- enrichment borders (complex), integrated by the 7-point rule
    # (weights wq) against the gauged hats eta_c phi_c (mass) and their dbar
    # (stiffness)
    if extension == "holomorphic" and ncone:
        # the exact Szego kernels: P1 interpolants of their gauged vertex
        # values over every triangle; their stiffness rows vanish (dbar S = 0)
        if periods is None or char is None:
            raise AssemblyError("holomorphic variant needs periods and char")
        f = np.stack([szego_section_field(periods, char, k, lift)
                      for k in range(ncone)], axis=1)                # (nv, n)
        E = np.einsum("qc,tci->tqi", _QB, eta[:, :, None] * f[mesh.triangles])
        cols = n_p1 + np.arange(ncone)
        wq, hat = area[:, None] * _QW, eta[:, None, :] * _QB
        # each column scaled to unit mass: the pole values of S(., P_k)
        # (~1e15) otherwise put ~1e29 on the mass diagonal and the pencil's
        # condition number near 1e30
        E = E / np.sqrt(np.einsum("tq,tqi->i", wq, np.abs(E) ** 2))
        border_m.append(_border_triplets(dofs, cols, wq, hat, E)[0])
    elif extension in ("szego", "holomorphic_local"):
        dbar_hat = eta * -e / (4j * area[:, None])                   # (nt, 3)
        for k, patch in enumerate(mesh.cone_patches):
            tris = patch.triangles
            E, dE = _cone_mode_fields(mesh, k, modes)
            cols = n_p1 + len(modes) * k + np.arange(len(modes))
            wq, hat = area[tris, None] * _QW, eta[tris, None, :] * _QB
            trip, gram = _border_triplets(dofs[tris], cols, wq, hat, E)
            if np.linalg.cond(gram) > 1e12:
                raise AssemblyError("enrichment Gram near-singular")
            border_m.append(trip)
            d = np.broadcast_to(dbar_hat[tris, None, :], hat.shape)
            border_a.append(_border_triplets(dofs[tris], cols, wq, d, dE)[0])

    def pencil_matrix(triplets):
        rows, cols, vals = (np.concatenate(x) for x in zip(*triplets))
        X = sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()
        return 0.5 * (X + X.conj().T)

    A = pencil_matrix(border_a)
    M = pencil_matrix(border_m)
    # a complex border in either matrix makes the pencil complex Hermitian
    dtype = np.result_type(A.dtype, M.dtype)
    A, M = A.astype(dtype, copy=False), M.astype(dtype, copy=False)
    return DiscreteOperator(mesh=mesh, lift=lift, extension=extension,
                            stiffness=A.tocsr(), mass=M.tocsr(),
                            dof_of_vertex=dof_of_vertex, n_p1=n_p1,
                            enrichment=enrichment)


def _cone_mode_fields(mesh, k, modes):
    """The cutoff cone modes chi(r) (r/r0)^p f_{k,m,s} of `modes` and their
    dbar at the 7 quadrature points of the triangles of cone patch k: two
    (T, 7, len(modes)) arrays."""
    patch = mesh.cone_patches[k]
    tris = patch.triangles
    zq = np.einsum("qc,tc->tq", _QB, mesh.tri_pos[tris])
    zeta = zq - patch.cone.position
    r = np.abs(zeta)
    phi = cone_angle(patch.cone, zeta,
                     mesh.tri_chart[tris][:, None] != patch.sheet_tori[0])
    E, f_gr = _cone_mode_values(patch, modes, r, phi)
    # f is holomorphic in x, so dbar(g(r) f) = f g'(r) dbar(r)
    dbar_r = zeta / (2.0 * np.where(r > 0, r, 1.0))
    return E, f_gr * dbar_r[..., None]


def _cone_mode_values(patch, modes, r, phi):
    """The cutoff cone modes g(r) f_{k,m,s}, g = chi(r) (r/r0)^p, of `modes`
    = [(m, s, p)] at the flat polar points (r, phi) of a cone patch, and
    f_{k,m,s} g'(r): two (*shape, len(modes)) arrays."""
    cone = patch.cone
    r0 = patch.outer_radius
    r1, r2 = _CUTOFF[0] * r0, _CUTOFF[1] * r0
    chi, chi_r = smoothstep(r, r1, r2), smoothstep_deriv(r, r1, r2)
    E, f_gr = [], []
    for m, sgn, pw in modes:
        f = cone_mode_phase(m, sgn, cone.theta_ray) * cone_mode_rep(m, sgn, r, phi)
        gp = (chi_r * (r / r0) ** pw + chi * pw * r ** (pw - 1.0) / r0 ** pw
              if pw else chi_r)
        E.append(chi * (r / r0) ** pw * f)
        f_gr.append(f * gp)
    return np.stack(E, axis=-1), np.stack(f_gr, axis=-1)


def _border_triplets(dofs, cols, wq, hat, E):
    """COO triplets (rows, cols, vals) of one enrichment border, and its Gram.

    dofs (T, 3) are the corner dofs (-1 at cone vertices), wq (T, 7) the
    quadrature weights, hat (T, 7, 3) the corner test functions and E (T, 7, n)
    the fields of the enrichment columns `cols` at the quadrature points.  The
    triplets hold the couplings sum_q w_q conj(hat_c) E_i of every dof corner
    with every column, their Hermitian mirror, and the n x n Gram
    sum_q w_q conj(E_i) E_j.  Returns (triplets, Gram)."""
    coupling = np.einsum("tq,tqc,tqi->tci", wq, np.conj(hat), E)
    # optimize=True contracts through BLAS; the plain loop sums all T x 7
    # terms in one running total and loses ~1e-13 of a cancelling entry
    gram = np.einsum("tq,tqi,tqj->ij", wq, np.conj(E), E, optimize=True)
    t, c = np.nonzero(dofs >= 0)
    rows = np.repeat(dofs[t, c], len(cols))
    across = np.tile(cols, len(t))
    vals = coupling[t, c].ravel()
    gi, gj = np.meshgrid(cols, cols, indexing="ij")
    return (np.concatenate([rows, across, gi.ravel()]),
            np.concatenate([across, rows, gj.ravel()]),
            np.concatenate([vals, np.conj(vals), gram.ravel()])), gram


def szego_section_raw(periods, char, k, delta):
    """Theta-route vertex values of the section S(., P_k), on the spanning-
    tree branches of h_delta and of the Abel map (not in the FEM gauge).
    Products f_i conj(f_j) of two such fields at one vertex are gauge-free."""
    from . import theta as th
    pk = ("cone", k, 0.0)
    t0 = periods.theta0(char)
    a_pk = periods.abel(pk)
    h_pk = periods.h_delta(delta, pk)
    w = (periods.abel_vertex - a_pk[:, None]).T          # (nv, g)
    num, den = th.theta_batch([char, delta], w, periods.b_matrix)
    h2 = periods.h_delta_sq_vertex(delta)
    hz = periods._h_sign_field(delta) * np.sqrt(h2)
    # S(z, P_k) = theta[pq](A(z)-A(P_k)) h(z) h(P_k) / (theta0 * (-theta[d](A(z)-A(P_k))))
    # from S = theta(A(z)-A(pk)) / (t0 E(z, pk)), E(z, pk) = theta_d(A(pk)-A(z))/(h h)
    vals = num * hz * h_pk / (t0 * (-den))
    vals[np.abs(den) < 1e-300] = 0.0
    return vals


def szego_section_field(periods, char, k, lift, delta=None):
    """Vertex values of the section S(., P_k) in the FEM gauge.

    The raw theta-route values (szego_section_raw) differ from the FEM gauge
    by a sign field mu(v) = +-1.  A smooth section's dof values satisfy
    f_v ~ eps_uv f_u across each edge, so mu is propagated by that rule from
    the largest value off the cone vertices over a maximum-reliability tree:
    the spanning tree of the non-spoke edges that maximizes the smaller |f|
    of each edge.  Sign decisions are thus never made near the zeros of the
    section, where a single misdetection would flip a whole subtree.
    """
    from . import theta as th
    mesh = periods.mesh
    if delta is None:
        delta = th.odd_characteristics(periods.genus)[0]
    vals = szego_section_raw(periods, char, k, delta)
    absv = np.abs(vals)
    edges = mesh.edge_table.edges[lift.edge_sign != 0]      # spokes dropped
    # tree cost: rank of the edge by descending min |f|, strictly positive
    # (csgraph drops zero weights) and falling as the reliability rises
    rank = np.argsort(-np.minimum(absv[edges[:, 0]], absv[edges[:, 1]]),
                      kind="stable")
    cost = np.empty(len(edges))
    cost[rank] = np.arange(1.0, len(edges) + 1.0)
    nv = mesh.n_vertices
    tree = csgraph.minimum_spanning_tree(
        sp.coo_matrix((cost, (edges[:, 0], edges[:, 1])), shape=(nv, nv)))
    # the cone vertices have no tree edges; the pole's own value is rounding
    absv[mesh.cone_vertex_ids()] = -1.0
    order, pred = csgraph.breadth_first_order(tree, int(np.argmax(absv)),
                                              directed=False)
    child, parent = order[1:], pred[order[1:]]
    ref = lift.edge_sign[mesh.edge_table.lookup(parent, child)[0]] * vals[parent]
    rel = np.where(np.abs(vals[child] - ref) <= np.abs(vals[child] + ref), 1, -1)
    mu = np.ones(nv, dtype=np.int8)
    for v, u, s in zip(child.tolist(), parent.tolist(), rel.tolist()):
        mu[v] = s * mu[u]
    return mu * vals


# ---------------------------------------------------------------------------
# eigenvalues and spectral results

_ZERO_TOL = 1e-8                 # kernel: lambda <= _ZERO_TOL max(lambda_N, 1)


@dataclass
class SpectralResult:
    extension: str
    h: float
    genus: int
    area: float
    eigenvalues: np.ndarray
    n_dofs: int
    vectors: np.ndarray = None
    op: DiscreteOperator = None
    label: str = ""
    requested: int = None              # N passed to eigenvalues(), before
                                       # its clamp to n_dofs
    krylov_dim: int = None             # Lanczos steps the eigensolve took
    reorthogonalized: int = None       # of them, the steps that ran a full
                                       # Gram-Schmidt against the basis
    residual_bound: float = None       # largest relative Ritz bound of the
                                       # returned pairs (0 when exact)
    inertia: dict = None               # {sigma, d, count}: the pencil has
                                       # `count` eigenvalues below sigma + d,
                                       # the top of the last slice (and above
                                       # sigma - d for a sigma inside the
                                       # spectrum), by Sylvester inertia.
                                       # A restart keeps the top of the
                                       # first run's window, so count can
                                       # exceed N: 68 for N = 60 on the
                                       # square torus, (-,-) spin, h = 0.05
    slices: list = None                # one {sigma, pairs, steps,
                                       # reorthogonalized, restarts, rows,
                                       # released, used} per Lanczos shift,
                                       # in run order
    basis_rows: int = None             # the most Lanczos basis rows (of
                                       # n_dofs entries) held at once

    def positive(self):
        """Eigenvalues with the numerical kernel removed."""
        lam = self.eigenvalues
        return lam[lam > _ZERO_TOL * max(lam.max(), 1.0)]

    def kernel_dimension(self):
        return len(self.eigenvalues) - len(self.positive())


def eigenvalues(op: DiscreteOperator, N: int, vectors=False, sigma=None):
    """N smallest generalized eigenvalues of (stiffness, mass).

    More precisely the N nearest the shift sigma (by default below the
    spectrum), by shift-invert Lanczos in spectrum slices (_sliced_lanczos):
    one slice of N pairs at sigma, or, at the default shift for a request of
    more than _SLICE_MIN pairs and at most a quarter of n_dofs, a first one
    of N // 2 and more above it.  A pencil has n_dofs eigenvalues; a larger
    N is clamped, and the result records the N asked for as `requested`.
    With vectors=True the eigenvectors are mass-orthonormal and the
    eigenvalues their Rayleigh quotients.  The result's `slices` records the
    shift and the Lanczos steps of each slice run, and `basis_rows` the most
    Lanczos vectors held at once.
    The result's `inertia` certifies that no eigenvalue within d of sigma
    was missed.  Raises EigenCountError when N is not a positive integer,
    SolverError when sigma is an eigenvalue (A - sigma M singular; at the
    bottom of the spectrum also singular to rounding, as at the default
    shift 0.0 of a Friedrichs pencil with the constants in its kernel) or
    the certificate fails."""
    from .surface import flat_area
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 1:
        raise EigenCountError(f"N = {N!r}: the number of eigenpairs must be "
                              f"a positive integer")
    ndof = op.n_dofs
    requested, N = N, min(N, ndof)
    first = N
    if sigma is None:
        sigma = -0.1 if op.extension.startswith("holomorphic") else 0.0
        if op.extension == "szego":
            sigma = -0.05
        if _SLICE_MIN < N <= ndof // 4:
            first = N // 2
    v0 = np.ones(ndof) + 0.5 * np.cos(np.arange(ndof))   # deterministic start
    lam, vec, bound, inertia, slices, rows = _sliced_lanczos(
        op.stiffness, op.mass, N, first, sigma, v0, vectors)
    vec = vec.T if vectors else None
    lam = np.where(np.abs(lam) < 1e-13, 0.0, lam)
    return SpectralResult(extension=op.extension, h=op.mesh.h,
                          genus=op.mesh.genus, area=flat_area(op.mesh.surface),
                          eigenvalues=lam, n_dofs=ndof, vectors=vec, op=op,
                          requested=requested,
                          krylov_dim=sum(s["steps"] for s in slices),
                          reorthogonalized=sum(s["reorthogonalized"]
                                               for s in slices),
                          residual_bound=bound, inertia=inertia,
                          slices=slices, basis_rows=rows)


_RITZ_TOL = 1e-12                # relative Ritz bound of converged pairs
_DGKS = 1.0 / math.sqrt(2.0)     # norm drop that calls a second Gram-Schmidt
_EPS = np.finfo(float).eps
_SEMI_ORTHO = math.sqrt(_EPS)    # estimated |<q_j, q_i>_M| that calls a full
                                 # Gram-Schmidt (semi-orthogonality)
_WINDOW = 1e-8                   # least relative widening of a counted window
_SLICE_MIN = 128                 # larger default-shift requests are sliced
_OVERLAP = 6                     # spacings a slice's window reaches below
                                 # the top of the one before it
_ON_SPECTRUM = 1e-6              # an interior shift this close (relative) to
                                 # an eigenvalue it found is moved off it


def _factor(A, M, tau):
    """LDL^H factor of A - tau M and its number of negative pivots.

    splu with a symmetric ordering (minimum degree on A^T + A) and diagonal
    pivots only: for a Hermitian A - tau M that is P (A - tau M) P^T =
    L D L^H with D = diag(U), and by Sylvester's law of inertia the negative
    entries of D count the eigenvalues of the pencil below tau (M positive
    definite).  Raises SolverError on a singular factor (with no negative
    pivot, also one singular to rounding), an off-diagonal pivot or a D
    that is not real.  Returns (SuperLU object, count)."""
    B = (A - tau * M).tocsc()
    try:
        lu = spla.splu(B, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:        # "Factor is exactly singular"
        raise SolverError(f"A - {tau} M is singular: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(f"A - {tau} M needed an off-diagonal pivot")
    d = lu.U.diagonal()
    # with no negative pivot, sum_j |L_ij|^2 d_j = B_pp is the rounding
    # scale of pivot i (as for Cholesky, |dB| <= gamma_n+1 |L| |D| |L^H|;
    # Higham, Accuracy and Stability of Numerical Algorithms, ch. 10), so a
    # pivot within (n + 1) eps B_pp of zero is zero to rounding.  Inside the
    # spectrum the pivots grow and B_pp is no such scale: those shifts are
    # not judged by it
    diag = np.empty(len(d))
    diag[lu.perm_r] = np.abs(B.diagonal())
    tol = (len(d) + 1) * _EPS * diag
    if np.all(d.real >= -tol) and np.any(np.abs(d) <= tol):
        raise SolverError(f"A - {tau} M is singular to rounding: {tau} is an "
                          f"eigenvalue of the pencil")
    if np.iscomplexobj(d):
        # the rounding scale of pivot i, sum_j |L_ij| |U_ji|, grows with the
        # pivots near an eigenvalue.  It is at least |d_i| (L has a unit
        # diagonal), so it is built only when a pivot fails against that
        im = np.abs(d.imag)
        if np.any(im > 1e-8 * np.abs(d)) and np.any(im > 1e-8 * np.asarray(
                abs(lu.L).multiply(abs(lu.U).T).sum(axis=1)).ravel()):
            raise SolverError(f"A - {tau} M has a non-real pivot: not "
                              f"Hermitian")
    return lu, int(np.count_nonzero(d.real < 0))


def _count_below(A, M, tau):
    """The number of eigenvalues of the pencil (A, M) below tau; the factor
    is dropped as soon as its pivots are counted."""
    return _factor(A, M, tau)[1]


def _m_norm(x, Mx):
    return math.sqrt(max(np.vdot(x, Mx).real, 0.0))


def _orthogonalize(M, B, w, Mw, nrm):
    """w minus its M-projection on the rows of B (classical Gram-Schmidt,
    repeated once when it cancels); (w, M w, M-norm of w), the norm 0 when w
    lies in the span of the rows (breakdown)."""
    for _ in range(2):
        before = nrm
        w = w - B.T @ np.conj(B @ np.conj(Mw))
        Mw = M @ w
        nrm = _m_norm(w, Mw)
        if nrm >= _DGKS * before:
            return w, Mw, nrm
    return w, Mw, 0.0


class _Slice:
    """The Lanczos search for the N eigenpairs of the Hermitian pencil
    (A, M) nearest one shift sigma: one run, or after restart() several,
    each on the operator deflated by the pairs locked before it.

    Lanczos on K = (A - sigma M)^-1 M in the M inner product, where K is
    self-adjoint: alpha and beta are real and the projection is a real
    tridiagonal T.  Partial reorthogonalization (Simon, Math. Comp. 42,
    1984): Simon's recurrence, O(m) a step, estimates omega_ji = <q_j, q_i>_M
    for the run's vectors from alpha, beta and a rounding term.  Only when
    the largest estimate passes _SEMI_ORTHO = sqrt(eps) is the new vector
    orthogonalized against the whole stored basis (_orthogonalize), on that
    step and the next, and its estimates reset to eps.  That keeps the basis
    semi-orthogonal, which makes T, to rounding, the projection of K on the
    span of the basis: its Ritz values are exact to rounding and no ghost
    copy of a converged one appears.  The locked Ritz vectors are projected
    out at every step.
    The Gram-Schmidt of a triggered step runs against the whole run, not
    only against Simon's intervals of indices whose omega passes eps^(3/4):
    at a triggered step those hold 39 % of the rows on the g=2 Friedrichs
    pencil, 26 % on the Szego one (h = 0.04, N = 200) and 55 % on the torus
    (h = 0.028, N = 180).  A prototype that orthogonalized against them
    alone (and reset only their omega) took as many triggered steps and was
    no faster.
    A Ritz pair (theta, s) of T has converged when
    beta_m |s_m| / |theta| <= _RITZ_TOL; lambda = sigma + 1/theta.  A run
    also ends when its Krylov space is invariant (breakdown): its Ritz values
    are then exact, as they are once the basis spans the whole space.  At a
    shift inside the spectrum the converged Ritz values are replaced by the
    Rayleigh quotients of their Ritz vectors (_run).

    `found` holds theta = 1 / (lambda - sigma) of the pairs found: the
    locked ones, then the last run's converged ones; `th`, `rel` and `conv`
    are that run's Ritz values, relative Ritz bounds and converged mask.
    `rows` is the most basis rows written (the locked and the run's), and
    `released` tells that release() dropped the basis at some point."""

    def __init__(self, A, M, N, sigma, v0):
        self.A, self.M, self.N, self.sigma = A, M, N, sigma
        self.n = n = A.shape[0]
        self.dtype = np.result_type(A.dtype, M.dtype)
        lu, self.below = _factor(A, M, sigma)
        self.solve = lu.solve
        # rows [0, k) of `basis` hold the locked Ritz vectors, rows [k, k + m)
        # the current run's Lanczos vectors.  The first run converges within
        # about 2.5 N steps; a larger one grows the block by `chunk` rows,
        # which copies it
        self.chunk = max(N // 2, 32)
        self.v0, self.released = v0, False
        self.theta = self.bound = np.empty(0)        # of the locked pairs
        self.k = self.steps = self.full_steps = self.restarts = self.rows = 0
        self._first_run()

    def _first_run(self):
        """A new basis and the run from the start vector: the slice's first
        run, or its replay after release()."""
        self.basis = _unpaged_rows(min(self.n, 3 * self.N + self.chunk),
                                   self.n, self.dtype)
        self._run(np.asarray(self.v0, dtype=self.dtype))

    def release(self):
        """Drop the basis and the Ritz coefficients s of a slice that has
        locked nothing (one that has keeps them): its pairs (found, th, rel,
        conv, bound) and its window stay, and restart() replays its one run
        first."""
        if not self.k:
            self.basis = self.s = None
            self.released = True

    def _run(self, w):
        """One Lanczos run from w, until its wanted pairs converge."""
        # the factor is kept for one run only: a restart, which is rare,
        # factors again, and two slices do not hold two factors
        solve = self.solve or _factor(self.A, self.M, self.sigma)[0].solve
        self.solve = None
        M, N, n, k = self.M, self.N, self.n, self.k
        basis, dtype, noise = self.basis, self.dtype, _EPS * math.sqrt(self.n)
        Mw = M @ w
        w, Mw, nrm = _orthogonalize(M, basis[:k], w, Mw, _m_norm(w, Mw))
        size = n - k                   # dimension of the deflated space
        alpha, beta = np.zeros(size), np.zeros(size)
        # omega[j % 2, :j + 1] estimates <q_j, q_i>_M for i <= j
        omega = np.zeros((2, size + 1))
        omega[0, 0] = 1.0
        m, again, p, full_steps = 0, False, None, 0
        check = min(size, 2 * N if not self.restarts else max(1, N // 8))
        while True:
            if k + m == len(basis):
                grown = _unpaged_rows(min(n, k + m + self.chunk), n, dtype)
                grown[:k + m] = basis[:k + m]
                basis = self.basis = grown
            basis[k + m] = q = w / nrm
            p_last, p = p, Mw / nrm    # M q of the last step and this one
            w = solve(p)
            alpha[m] = np.vdot(p, w).real
            w -= alpha[m] * q
            skew = 0.0
            if m:
                w -= beta[m - 1] * basis[k + m - 1]
                # <K q_j, q_j-1>_M - beta_j-1: the rounding of this step
                # and the last one, as it reaches the previous vector
                skew = abs(np.vdot(p_last, w))
            j, m = m, m + 1            # q_j is done, w / nrm becomes q_m
            Mw = M @ w
            nrm = _m_norm(w, Mw)
            # Simon's recurrence: beta_j omega_mi = beta_i omega_j,i+1
            # + (alpha_i - alpha_j) omega_ji + beta_i-1 omega_j,i-1
            # - beta_j-1 omega_j-1,i, plus the rounding of steps i and j,
            # taken as eps sqrt(n) (beta_i + beta_j) or, when larger, as the
            # skew measured at i = j - 1.  The skew sees the rounding of
            # solves with an almost singular A - sigma M: without it a shift
            # within 1e-6 of an eigenvalue returned eigenvalues off by 1e-2.
            # Without the sqrt(n), vectors kept at a shift inside the
            # spectrum lost 1.7e-7 of orthogonality, 10 times sqrt(eps)
            cur, new = omega[j % 2], omega[m % 2]
            b = beta[:j]
            est = b * cur[1:m] + (alpha[:j] - alpha[j]) * cur[:j]
            if j:
                est[1:] += b[:-1] * cur[:j - 1]
                est -= beta[j - 1] * new[:j]
            est += np.copysign(np.maximum(noise * (b + nrm), skew), est)
            full = again or np.any(np.abs(est) > _SEMI_ORTHO * nrm)
            again = full and not again     # the step after one is full too
            if full:
                new[:m] = _EPS
                full_steps += 1
            else:
                new[:j], new[j] = est / nrm, _EPS
            new[m] = 1.0
            if full or k:              # the locked vectors, at every step
                w, Mw, nrm = _orthogonalize(M, basis[:k + m if full else k],
                                            w, Mw, nrm)
            if m == size:
                nrm = 0.0              # the basis spans the whole space
            beta[j] = nrm
            if nrm == 0.0 or m >= check:
                th, s = eigh_tridiagonal(alpha[:m], beta[:m - 1])
                rel = np.abs(nrm * s[-1]) / np.abs(th)
                # the N-th largest |theta| so far; this run's pairs above it
                # and its largest one must converge
                mags = np.sort(np.abs(np.concatenate([self.theta, th])))[::-1]
                cut = mags[min(N, len(mags)) - 1]
                want = np.abs(th) >= cut
                want[np.argmax(np.abs(th))] = True
                if nrm == 0.0 or rel[want].max() <= _RITZ_TOL:
                    break
                del s                  # free before the next check's
                check = min(size, m + max(1, N // 8))
        self.steps += m
        self.full_steps += full_steps
        self.rows = max(self.rows, k + m)
        self.m, self.th, self.s, self.rel = m, th, s, rel
        self.conv = rel <= _RITZ_TOL
        if self.below:
            # inside the spectrum the LDL^H grows, and its solves leave
            # relative residuals up to 7e-11 (g=2, h = 0.04): the Ritz values
            # carry up to 7e-12 of it, and the copies of a 4-fold one spread
            # over 2e-8.  The Rayleigh quotients of the Ritz vectors do not
            # see it; one step of iterative refinement in every solve would
            # cost a solve a step.  The real coefficients multiply a complex
            # basis as its float view, a real product, 16 vectors at a time
            cols, rows = np.flatnonzero(self.conv), basis[k:k + m]
            flat = rows.view(np.float64)
            for c in range(0, len(cols), 16):
                X = (s[:, cols[c:c + 16]].T @ flat).view(dtype)
                th[cols[c:c + 16]] = 1.0 / (
                    _rayleigh_quotients(self.A, M, X) - self.sigma)
        self.found = np.concatenate([self.theta, th[self.conv]])

    def window(self):
        """(d, inside): the half-width d of the window (sigma - d, sigma + d)
        that holds the N pairs found nearest sigma, and the number of pairs
        found inside it.  The window ends midway from the N-th of them to
        the next Ritz value beyond it, so that A - (sigma +- d) M stays as
        far from an eigenvalue as the search can tell, and at least
        _WINDOW (relative) beyond that N-th pair."""
        found = self.found
        cut = np.sort(np.abs(found))[::-1][min(self.N, len(found)) - 1]
        ritz = np.abs(np.concatenate([self.theta, self.th]))
        beyond = ritz[ritz < cut]
        d = (1.0 + _WINDOW) / cut
        if beyond.size:
            d = max(d, 0.5 * (1.0 / cut + 1.0 / beyond.max()))
        return d, int(np.count_nonzero(np.abs(found) * d > 1.0))

    def restart(self, d, grow=0):
        """Lock the last run's converged pairs within d of sigma (their Ritz
        vectors join the basis, M-orthonormalized) and run again, wanting
        `grow` more pairs, from a fixed random vector on the operator
        deflated by them.  False, with nothing run, when there is no pair to
        lock or nothing left to search."""
        if self.basis is None:
            # released: the first run again, from the same shift, factor and
            # start vector, builds the same Krylov space and the same pairs
            self._first_run()
        keep = self.conv & (np.abs(self.th) * d > 1.0)
        if not keep.any() or self.k + np.count_nonzero(keep) == self.n:
            return False
        # the Ritz vectors overwrite the run's first rows, a column block at
        # a time, so that no second copy of the basis is made
        basis, k, m = self.basis, self.k, self.m
        coef = self.s[:, keep].T.astype(self.dtype)
        self.s = None
        for c in range(0, self.n, 256):
            basis[k:k + len(coef), c:c + 256] = coef @ basis[k:k + m, c:c + 256]
        self.k = k = k + len(coef)
        basis[:k] = _m_orthonormal(basis[:k], self.M)
        self.theta = np.concatenate([self.theta, self.th[keep]])
        self.bound = np.concatenate([self.bound, self.rel[keep]])
        self.N += grow
        self.restarts += 1
        self._run(np.random.default_rng(self.restarts).standard_normal(self.n))
        return True

    def found_values(self):
        """lambda of the pairs found, in the order of `found`."""
        return self.sigma + 1.0 / self.found

    def pairs(self, idx, vectors):
        """(lambda, relative Ritz bounds, Ritz vectors as rows if `vectors`
        else None) of the found pairs idx, indices into `found`."""
        lam = self.found_values()[idx]
        bound = np.concatenate([self.bound, self.rel[self.conv]])[idx]
        if not vectors:
            return lam, bound, None
        k, basis = self.k, self.basis
        X = np.empty((len(idx), self.n), self.dtype)
        old = idx < k
        X[old] = basis[idx[old]]
        cols = np.flatnonzero(self.conv)[idx[~old] - k]
        X[~old] = self.s[:, cols].T.astype(self.dtype) @ basis[k:k + self.m]
        return lam, bound, X

    def record(self, used=True):
        return {"sigma": float(self.sigma), "pairs": self.N,
                "steps": self.steps, "reorthogonalized": self.full_steps,
                "restarts": self.restarts, "rows": self.rows,
                "released": self.released, "used": used}


def _sliced_lanczos(A, M, N, first, sigma, v0, vectors):
    """The N eigenpairs of the Hermitian pencil (A, M) nearest sigma, from
    one or more spectrum slices (Grimes, Lewis & Simon, SIAM J. Matrix Anal.
    Appl. 15, 1994): _Slice searches at one shift each.

    The first slice, at sigma, takes `first` pairs.  Its top t_0 = sigma +
    d_0 is the end of its count window (_Slice.window), and its bottom b is
    sigma - d_0 when sigma lies inside the spectrum, else -inf.  While the
    slices own fewer than N pairs, the next one sits above the last slice's
    top, at an interior shift placed from the spacing of the eigenvalues
    found so far (_interior_slice), with a window that reaches a few
    spacings below that top.  Slice i owns the pairs it found in
    [t_i-1, t_i) (t_-1 = b), so that no eigenvalue is taken from two slices.
    The Gram-Schmidt sweeps and the convergence checks of a run grow with
    the square of its length, about 2.2 N steps, so a large request at the
    default shift takes first = N // 2: two runs of about half the length,
    faster on the g=2 and the tilted-torus pencils of BENCH_eigensolve.json.
    On the square torus, whose 4- and 8-fold eigenvalues both slices miss
    copies of, a slice restarts and the sliced solve is slower.

    One Krylov space holds a single vector of each eigenspace, so a run
    whose wanted pairs have converged may still miss copies of a multiple
    eigenvalue.  The one exit test is an inertia count (Ericsson & Ruhe,
    Math. Comp. 35, 1980): the LDL^H pivots of A - t M count the eigenvalues
    below t (_factor), and the count below the last top, less the one below
    b, must equal the pairs the slices own.  Two slices take three
    factorizations (two shifts, one count) where two self-certified runs
    take five.  A larger count first moves the tops down into the overlaps
    (_moved_tops): the slice above a top may hold the copies of a multiple
    eigenvalue that the one below missed next to it.  If the count is still
    larger, the counts below the lower tops are made, bottom up, each once:
    the first slice that owns fewer pairs than its count says locks its
    converged pairs within reach of its part and runs again on the operator
    deflated by them, wanting the missing ones (_Slice.restart), and the
    certificate is checked again on the counts already made.  The tops stay
    where the first runs put them, so a restart costs no count.  A smaller
    count raises SolverError.
    An interior slice takes the Rayleigh quotients of its converged Ritz
    vectors for their Ritz values (_Slice._run): its own carry the rounding
    of solves with a grown LDL^H, too much to decide by them on which side
    of a top a copy of a multiple eigenvalue lies.
    Without `vectors`, a new slice first releases the basis of each earlier
    one that has locked nothing (_Slice.release): the result and the
    certificate read only their pairs, so a solve without a restart holds
    one basis at a time, about 1.3 N rows where two held 2.5 N (ARPACK
    holds 2N + 1).  A released slice that must restart (the square torus)
    first replays its run from the same shift, factor and start vector, and
    so rebuilds the same Krylov space; then two bases are held.

    Each slice's part is cut to the pairs nearest sigma.  Ritz vectors of a
    semi-orthogonal basis are M-orthonormal only to about 1e-10 (at g=2,
    h = 0.05; 5e-10 on the holomorphic pencil, whose kernel vectors then
    leave residuals of 1e-8), so with `vectors` the returned ones are
    M-orthonormalized by two Cholesky-QR passes and the pairs replaced by
    the Rayleigh-Ritz pairs of their span (_rayleigh_ritz): values and
    vectors are then consistent to rounding, and the values agree with the
    Lanczos ones to about 1e-14 relative.

    Returns (lambda in ascending order, M-orthonormal eigenvectors as rows
    if `vectors` else None, largest relative Ritz bound, inertia (sigma, d,
    count) = (sigma, last top - sigma, count in [b, last top)), one record
    per slice run, the most basis rows held at once)."""
    slices = [_Slice(A, M, first, sigma, v0)]
    d = slices[0].window()[0]
    tops, low, base = [sigma + d], -math.inf, 0
    if slices[0].below:                # sigma lies inside the spectrum
        low = sigma - d
        base = _count_below(A, M, low)
    ran, counts = list(slices), {}     # counts[i]: eigenvalues in [low, tops[i])
    peak = slices[0].rows              # the most basis rows held at once

    def count(i):
        if i not in counts:
            counts[i] = _count_below(A, M, tops[i]) - base
        return counts[i]

    def held():
        return sum(sl.rows for sl in slices if sl.basis is not None)

    while True:
        values = [sl.found_values() for sl in slices]
        parts = _owned(values, tops, low)
        have = sum(map(len, parts))
        # around a shift inside the spectrum the nearest pairs may lie on
        # either side: there the count alone decides
        if have < N and low == -math.inf:
            if not vectors:
                for sl in slices:
                    sl.release()
            union = np.sort(np.concatenate(
                [v[p] for v, p in zip(values, parts)]))
            sl, dropped = _interior_slice(A, M, union, tops[-1], N - have, v0)
            # a dropped run's basis goes before the next one starts
            peak = max(peak, held() + max([sl.rows] + [r["rows"]
                                                       for r in dropped]))
            ran += dropped + [sl]
            slices.append(sl)
            tops.append(sl.sigma + sl.window()[0])
            # the new slice may own nothing (a gap in the spectrum), but
            # its top must move up
            if tops[-1] <= tops[-2]:
                raise SolverError(f"the slice at {sl.sigma:.6g} ends at "
                                  f"{tops[-1]:.6g}, below {tops[-2]:.6g}")
            continue
        total = count(len(slices) - 1)
        if total != have:
            # the slice above a top may hold the copies that the one below
            # missed next to it
            moved = _owned(values, _moved_tops(values, tops, low), low)
            if sum(map(len, moved)) == total:
                parts, have = moved, total
        if total == have >= N:
            break
        below = 0
        for i, sl in enumerate(slices):
            below += len(parts[i])
            if below != count(i):
                break
        if below > count(i):
            raise SolverError(f"the slices found {below} eigenpairs below "
                              f"{tops[i]:.6g}, where the pencil has "
                              f"{count(i)}")
        # the slice's part lies within reach of its shift
        reach = max(tops[i] - sl.sigma, sl.sigma - tops[i - 1] if i else 0.0)
        if not sl.restart(reach * (1.0 + _WINDOW), grow=count(i) - below):
            raise SolverError(f"the pencil has {count(i)} eigenvalues below "
                              f"{tops[i]:.6g}, the slices found no more "
                              f"than {below}")
        peak = max(peak, held())
    records = [x if isinstance(x, dict) else x.record() for x in ran]
    del ran
    lam, bound, X = [], [], []
    for p in parts:                    # each slice goes once its pairs are out
        sl = slices.pop(0)
        found = sl.found_values()
        p = p[np.argsort(np.abs(found[p] - sigma))][:N - sum(map(len, lam))]
        lam_i, bound_i, X_i = sl.pairs(p[np.argsort(found[p])], vectors)
        lam.append(lam_i)
        bound.append(bound_i)
        X.append(X_i)
    lam, X = _rayleigh_ritz(A, M, np.concatenate(lam),
                            np.concatenate(X) if vectors else None)
    return (lam, X, float(np.concatenate(bound).max()),
            {"sigma": float(sigma), "d": float(tops[-1] - sigma),
             "count": total}, records, peak)


def _owned(values, tops, low):
    """The indices of the eigenvalues each slice owns: values[i] in
    [tops[i - 1], tops[i]), and in [low, tops[0]) for the first slice."""
    lows = [low] + list(tops[:-1])
    return [np.flatnonzero((v >= lo) & (v < hi))
            for v, lo, hi in zip(values, lows, tops)]


def _moved_tops(values, tops, low):
    """tops, each but the last moved down into the gap below it where the
    slices on either side own the most eigenvalues together (the highest
    such gap); the first slice's part begins at low.  A gap is one between
    consecutive values of the two slices wider than _WINDOW (relative), so
    the two values of one eigenvalue, 1e-13 apart, never fall on two sides
    of it and count twice."""
    tops = list(tops)
    for i in range(len(tops) - 1):
        lo = tops[i - 1] if i else low
        lower, upper = values[i], values[i + 1]
        both = np.sort(np.concatenate([lower, upper]))
        both = both[(both >= lo) & (both < tops[i])]
        gaps = np.flatnonzero(np.diff(both) > _WINDOW * both[1:])
        best, owned = tops[i], -1
        for t in np.append(0.5 * (both[gaps] + both[gaps + 1]), tops[i]):
            n = (np.count_nonzero((lower >= lo) & (lower < t))
                 + np.count_nonzero((upper >= t) & (upper < tops[i + 1])))
            if n >= owned:
                best, owned = t, n
        tops[i] = best
    return tops


def _interior_slice(A, M, lam, top, want, v0):
    """The slice above `top` for the `want` eigenvalues that the ascending
    `lam` below it lacks, at the shift _next_shift places.  A shift within
    _ON_SPECTRUM (relative) of an eigenvalue the slice found is moved to the
    midpoint of its two found neighbours, and the slice run again: there the
    Lanczos basis loses accuracy, and a spurious Ritz value can stand in for
    a missed eigenvalue.  Returns (slice, [record of the dropped run, if
    any])."""
    shift, pairs = _next_shift(lam, top, want)
    sl = _Slice(A, M, pairs, shift, v0)
    found = np.sort(sl.found_values())
    lo, hi = found[found <= shift], found[found > shift]
    if (np.min(np.abs(found - shift)) > _ON_SPECTRUM * abs(shift)
            or not lo.size or not hi.size):
        return sl, []
    dropped = [sl.record(used=False)]
    sl = None                          # its basis goes before the next one
    return _Slice(A, M, pairs, 0.5 * (lo[-1] + hi[0]), v0), dropped


def _next_shift(lam, top, want):
    """(shift, pairs) of the slice above `top` that finds the `want`
    eigenvalues missing from the ascending `lam` below it.  At the mean
    spacing of lam's upper half, its window of `pairs` eigenvalues reaches
    _OVERLAP spacings below top and want // 6, at least _OVERLAP, beyond the
    want-th: the spacing grows along the spectrum, and a window that falls
    short costs one more slice, where one that starts above top costs a
    restart."""
    upper = lam[len(lam) // 2:]
    spacing = (upper[-1] - upper[0]) / max(len(upper) - 1, 1)
    beyond = max(want // 6, _OVERLAP)
    return (top + 0.5 * (want + beyond - _OVERLAP) * spacing,
            want + beyond + _OVERLAP)


def _rayleigh_quotients(A, M, X):
    """x^H A x / x^H M x of each row x of X."""
    num = np.einsum("ij,ji->i", np.conj(X), A @ X.T).real
    return num / np.einsum("ij,ji->i", np.conj(X), M @ X.T).real


def _rayleigh_ritz(A, M, lam, X):
    """(lam, X) unchanged without vectors, else the Rayleigh-Ritz pairs of
    the span of the rows of X, made M-orthonormal first."""
    if X is None:
        return lam, X
    X = _m_orthonormal(X, M)
    lam, U = np.linalg.eigh(np.conj(X) @ (A @ X.T))
    return lam, U.T @ X


def _m_orthonormal(X, M):
    """The rows of X made M-orthonormal by two Cholesky-QR passes (the
    second one removes what rounding left of the first one's error)."""
    for _ in range(2):
        L = np.linalg.cholesky(np.conj(X) @ (M @ X.T))
        X = solve_triangular(np.conj(L), X, lower=True)
    return X


def _unpaged_rows(rows, n, dtype):
    """A zero (rows, n) array in its own anonymous memory map: a page takes
    memory only once written, and all of them go back to the system when the
    array is dropped, where a freed heap block of this size can stay
    resident and raise the peak of whatever runs next."""
    buf = mmap.mmap(-1, rows * n * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype).reshape(rows, n)


def richardson_eigenvalues(res_coarse: SpectralResult, res_fine: SpectralResult):
    """Index-paired h^2 Richardson extrapolation of two eigenvalue lists."""
    n = min(len(res_coarse.eigenvalues), len(res_fine.eigenvalues))
    h1, h2 = res_coarse.h, res_fine.h
    lam = (res_fine.eigenvalues[:n] * h1 ** 2
           - res_coarse.eigenvalues[:n] * h2 ** 2) / (h1 ** 2 - h2 ** 2)
    return SpectralResult(extension=res_fine.extension, h=res_fine.h,
                          genus=res_fine.genus, area=res_fine.area,
                          eigenvalues=lam, n_dofs=res_fine.n_dofs,
                          label="richardson")


# ---------------------------------------------------------------------------
# singular coefficient extraction

def extract_singular_coefficients(op: DiscreteOperator, u, lam, k):
    """Coefficients c_{k,m,+-} (m = -1..2) of the Darboux modes in the cone-k
    expansion of the discrete eigenfunction u (dof vector, eigenvalue lam).

    u is first mass-normalized and its phase fixed (its largest dof real
    positive), so the coefficients do not depend on the scale of u.  Ring
    values, with the enrichment added, are unwrapped to the continuous 4 pi
    representative, projected on the angular frequencies (2m-1)/4 by FFT,
    and the two radial profiles r^{+-nu} (with their lambda-correction
    series) are separated by least squares over the rings inside the
    enrichment cutoff, at least three of them.  Returns {(m, s): c} plus a
    fit residual under key 'residual'.  Raises ValueError on the
    'holomorphic' extension, whose global S(., P_k) columns have no ring
    expansion here.
    """
    if op.extension == "holomorphic":
        raise ValueError("extract_singular_coefficients cannot expand the "
                         "exact Szego kernel columns of the 'holomorphic' "
                         "extension; use 'holomorphic_local'")
    patch = op.mesh.cone_patches[k]
    theta_ray = patch.cone.theta_ray
    u = np.asarray(u) / np.sqrt(abs(np.vdot(u, op.mass @ u)))
    top = u[np.argmax(np.abs(u))]
    u = u * (abs(top) / top)
    # fit where the enrichment cutoff is identically 1, so the pure-mode
    # radial model is exact; rings are ordered outermost first
    r1 = _CUTOFF[0] * patch.outer_radius
    rings = slice(-max(3, np.count_nonzero(patch.ring_radii <= r1 * 1.0001)), None)
    radii, phi = patch.ring_radii[rings], patch.ring_phi

    # ring values in the continuous 4 pi representative: the slit gauge sign
    # of each P1 dof, plus the cone's own enrichment modes
    verts = patch.ring_vertices[rings]
    vals = (slit_sign(op.mesh, verts, patch.ring_tori)
            * u[op.dof_of_vertex[verts]])
    ents = [e for e in op.enrichment if e["cone"] == k]
    if ents:
        E, _ = _cone_mode_values(patch, [e["mode"] for e in ents],
                                 radii[:, None], phi)
        vals = vals + E @ u[[e["col"] for e in ents]]
    # anti-periodic unwrap: multiply by e^{-i phi/4}, FFT bins at n/2
    fft = np.fft.fft(vals * np.exp(-0.25j * phi), axis=1) / len(phi)

    out = {}
    resid_tot = 0.0
    for m in (-1, 0, 1, 2):
        pair = ((m, +1), (m, -1))
        # the radial parts (phi = 0) of the pair with their lambda series
        rows = np.stack([cone_mode_phase(*mode, theta_ray)
                         * cone_mode_rep(*mode, radii, 0.0)
                         * cone_mode_lambda_series(*mode, lam, radii)
                         for mode in pair], axis=1)
        # e^{i nu phi} e^{-i phi/4}, nu = (2m-1)/4, sits in FFT bin m - 1
        rhs = fft[:, (m - 1) % len(phi)]
        sol = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        resid_tot += float(np.sum(np.abs(rows @ sol - rhs) ** 2))
        out.update({mode: complex(c) for mode, c in zip(pair, sol)})
    out["residual"] = math.sqrt(resid_tot)
    return out


# ---------------------------------------------------------------------------
# heat trace and zeta determinant

def c0_theory(extension, genus):
    """Constant term of the short-time heat trace: 2g-2 cones of angle 4 pi at
    cone_trace_constant(4 pi) = -3/16 each for Friedrichs (and the holomorphic
    variants, almost isospectral to it); Szego adds zeta_S(0) - zeta_F(0) =
    p_inf = (1-g)/2, the exponent of det T(lambda) (det_t_exponent)."""
    c0 = (2 * genus - 2) * cone_trace_constant(4.0 * math.pi)
    if extension == "szego":
        c0 += det_t_exponent(genus)
    return c0


def _weyl_cutoff(lam, area):
    """Weyl-tail start of K_N: lambda_N plus half the mean spacing pi/A."""
    return lam[-1] + math.pi / (2.0 * area)


def _truncated_trace(lam, area, cutoff, t):
    """K_N(t) = sum_n exp(-lambda_n t) + (A/pi) exp(-cutoff t)/t at each t of
    an array, the eigenvalue sum completed by its Weyl tail."""
    t = np.asarray(t, dtype=float)
    return (np.exp(-np.multiply.outer(t, lam)).sum(axis=-1)
            + area / math.pi * np.exp(-cutoff * t) / t)


def heat_trace(res: SpectralResult, t):
    """K(t) from the eigenvalues (the kernel counted once per zero mode) and
    the Weyl tail of the truncated part, at a float t or an array of them.
    Raises WindowError if a t is below the resolvable window."""
    lam = res.positive()
    cutoff = _weyl_cutoff(lam, res.area)
    t = np.asarray(t, dtype=float)
    if t.min() < 2.0 / cutoff:
        raise WindowError(f"t={t.min()} below the window ~{2.0 / cutoff:.3g}")
    k = _truncated_trace(lam, res.area, cutoff, t) + res.kernel_dimension()
    return float(k) if k.ndim == 0 else k


def fit_heat_trace_constant(res: SpectralResult):
    """Fitted constant c0 in K(t) - Area/(pi t) over the plateau window.

    The plateau is detected as the flattest stretch of c0(t) = K(t) -
    Area/(pi t) on a log-spaced t grid inside the validity window.  The fit
    then uses the basis {1, t^(-1/2)} over a widened window around the
    plateau: the residual discretization defect of the graded cone patches
    shifts eigenvalues by O(sqrt(lambda)), which shows up in c0(t) as a
    t^(-1/2) tail; the corrected intercept removes it (the extra term fits ~0
    on cone-free surfaces).  Returns (c0, diagnostics)."""
    lam = res.positive()
    cutoff = _weyl_cutoff(lam, res.area)
    t_lo = 6.0 / cutoff
    t_hi = 1.5 / lam[min(len(lam) - 1, 12)]
    if t_hi <= t_lo * 1.05:
        t_hi = t_lo * 4.0
    ts = np.geomspace(t_lo, t_hi, 40)
    c0s = heat_trace(res, ts) - res.area / (math.pi * ts)
    slopes = np.abs(np.gradient(c0s, np.log(ts)))
    win = 5
    scores = np.array([slopes[i:i + win].mean() for i in range(len(ts) - win)])
    i0 = int(np.argmin(scores))
    lo = max(0, i0 - win)
    hi = min(len(ts), i0 + 2 * win)
    tt = ts[lo:hi]
    A = np.column_stack([np.ones_like(tt), tt ** -0.5])
    coef, *_ = np.linalg.lstsq(A, c0s[lo:hi], rcond=None)
    diag = {"t_window": (float(ts[i0]), float(ts[i0 + win - 1])),
            "c0_curve": c0s, "t_grid": ts,
            "plateau_slope": float(scores[i0]),
            "c0_plateau": float(c0s[i0:i0 + win].mean()),
            "defect_coefficient": float(coef[1])}
    return float(coef[0]), diag


def zeta_determinant(res: SpectralResult, t0=None, c0=None, fit_remainder=True):
    """(log det, error bar) by the split-Mellin regularization.

    zeta'(0) = -(A/pi)/t0 + c0 ln t0 + Jtilde(0) + int_t0^inf K_N(t)/t dt
               + euler_gamma * c0,

    with the t < t0 side modeled by Area/(pi t) + c0 (+ fitted a e^{-b/t}),
    and the t >= t0 side summed from the eigenvalues (Weyl tail included).
    t0 defaults to the smallest t where eigenvalue sum and model agree within
    0.5%; the error bar combines t0 variation and truncation sensitivity.
    """
    lam = res.positive()
    if res.kernel_dimension() > 0 and res.extension in ("friedrichs", "szego"):
        raise SolverError("unexpected kernel for a positive extension")
    area = res.area
    if c0 is None:
        c0 = c0_theory(res.extension, res.genus)
    cutoff = _weyl_cutoff(lam, area)

    def model(t):
        return area / (math.pi * t) + c0

    def gap(t, lam_v=lam):
        """K_N(t) - model(t); a truncated lam_v keeps the full set's cutoff."""
        return _truncated_trace(lam_v, area, cutoff, t) - model(t)

    overlap_gap = 0.0
    if t0 is None:
        # the remainder-fit window [0.55 t0, 0.95 t0] must itself be resolved
        # by the truncated sum, so the scan starts well above 1/cutoff
        ts = np.geomspace(16.0 / cutoff, 20.0 / lam[0], 200)
        miss, scale = np.abs(gap(ts)), np.abs(model(ts))
        for tol in (0.005, 0.01, 0.02):
            hit = np.flatnonzero(miss <= tol * scale)
            if hit.size:
                t0 = float(ts[hit[0]])
                break
        else:
            raise WindowError("no overlap window between eigenvalue sum and "
                              "short-time model")
        # move deeper into the overlap region: the truncation/extrapolation
        # residual of the eigenvalue side scales like 1/t0^3, so the best
        # split sits well above the first agreement point
        t0 = float(min(2.2 * t0, 0.9 / lam[0] if lam[0] > 0 else 2.2 * t0))
        overlap_gap = float(abs(gap(t0)))

    def log_det_at(t0v, lam_v):
        tail = float(np.sum(exp1(lam_v * t0v))) + \
            (area / math.pi) * float(exp1(cutoff * t0v))
        jt = 0.0
        if fit_remainder and 0.55 * t0v > 10.0 / cutoff:
            tt = np.geomspace(0.55 * t0v, 0.95 * t0v, 8)
            kt = gap(tt, lam_v)
            resolvable = np.max(np.abs(kt)) > 1e-4 * abs(model(t0v))
            if resolvable and np.all(np.abs(kt) > 0) and \
                    np.all(np.sign(kt) == np.sign(kt[0])):
                x = 1.0 / tt
                y = np.log(np.abs(kt))
                bfit, afit = np.polyfit(x, y, 1)
                if bfit < 0:
                    a = math.exp(afit) * np.sign(kt[0])
                    b = -bfit
                    jt = a * float(exp1(b / t0v))
        zeta_prime = (-(area / math.pi) / t0v + c0 * math.log(t0v) + jt
                      + tail + np.euler_gamma * c0)
        return -zeta_prime

    val = log_det_at(t0, lam)
    spread = [log_det_at(1.4 * t0, lam), log_det_at(t0 / 1.4, lam),
              log_det_at(t0, lam[: max(10, int(0.8 * len(lam)))])]
    err = max(abs(v - val) for v in spread) + overlap_gap * t0
    return val, err, {"t0": t0, "n_eigs": len(lam), "c0": c0,
                      "overlap_gap": overlap_gap}
