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
Gram cancels edge by edge), so the Friedrichs pencil is assembled in float64
and eigsh solves it with ARPACK's symmetric Lanczos solver.  Only the
enrichment borders of the szego and holomorphic variants are complex; their
pencils are complex Hermitian and go to the complex Arnoldi solver (eigs).

Heat traces and zeta determinants follow the split-Mellin regularization: for
t < t0 the two-term short-time model Area/(pi t) + c0 (c0 = -3(g-1)/8 for the
Friedrichs extension, -7(g-1)/8 for the Szego one) plus a fitted exponential
remainder, for t >= t0 the eigenvalue sum with an optional Weyl tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import exp1

from .cone_analysis import pencil_coefficients
from .surface import patch_triangle_ids

EULER_GAMMA = 0.5772156649015328606

EXTENSIONS = ("friedrichs", "szego", "holomorphic", "holomorphic_local")

ADMITTED_EXPONENTS = {
    "friedrichs": ("|x|", "x", "x^2", "xbar|x|"),
    "szego": ("1", "x", "x^2", "xbar|x|"),
    "holomorphic": ("x^-1", "1", "x", "x^2"),
    "holomorphic_local": ("x^-1", "1", "x", "x^2"),
}


class AssemblyError(RuntimeError):
    """Enrichment Gram ill-conditioned or inconsistent gauge."""


class SolverError(RuntimeError):
    """Eigensolver failed to converge."""


class WindowError(ValueError):
    """Requested t outside the validity window of the truncated trace."""


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


def cone_mode_lambda_series(m, s, lam, r, n_terms=3):
    """Correction series sum_n d(n, +-i mu_m)(lam r^2)^n of the local
    (Delta - lam)-solution attached to f_{k,m,s}."""
    nu = (2.0 * m - 1.0) / 4.0
    q = nu if s == +1 else -nu
    out = np.ones_like(np.asarray(r, dtype=complex))
    for n in range(1, n_terms):
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
    cutoff: tuple = (0.35, 0.85)

    @property
    def n_dofs(self):
        return self.stiffness.shape[0]


def _phi_at(cone, patch, chart, z):
    """4 pi angle of flat points z (array) in the chart `chart` near `cone`."""
    sheet0, _ = patch.sheet_tori
    flag = 0 if chart == sheet0 else 1
    zeta = np.asarray(z) - cone.position
    delta = (np.angle(zeta) - cone.theta_ray) % (2.0 * math.pi)
    return delta + 2.0 * math.pi * flag


def assemble_operator(mesh, lift, extension, periods=None, char=None,
                      cutoff=(0.35, 0.85)):
    """Stiffness/mass pair for the requested extension.

    periods/char are required for the 'holomorphic' (exact Szego kernel)
    variant.  cutoff = (r1, r2) are the enrichment cutoff radii as fractions
    of the patch outer radius.
    """
    if extension not in EXTENSIONS:
        raise ValueError(f"unknown extension {extension!r}")
    nv = mesh.n_vertices
    cone_vs = set(mesh.cone_vertex_ids())
    dof_of_vertex = np.full(nv, -1, dtype=int)
    j = 0
    for v in range(nv):
        if v not in cone_vs:
            dof_of_vertex[v] = j
            j += 1
    n_p1 = j

    # (m, s, p): Darboux mode f_{k,m,s} times the regular radial modulation
    # (r/r0)^p; p > 0 companions stay inside the Friedrichs form domain and
    # only improve the radial resolution of the singular sector.
    modes = []
    if extension == "szego":
        modes = [(0, +1, 0), (0, +1, 1), (0, +1, 2), (0, +1, 3)]
    elif extension == "holomorphic_local":
        modes = [(-1, +1, 0), (-1, +1, 1), (0, +1, 0), (0, +1, 1)]
    enrichment = []
    col = n_p1
    for k in range(len(mesh.cone_patches)):
        if extension == "holomorphic":
            enrichment.append({"cone": k, "mode": "szego", "col": col})
            col += 1
        else:
            for mode in modes:
                enrichment.append({"cone": k, "mode": mode, "col": col})
                col += 1
    ndof = col

    # ----- P1 block, real symmetric.  dbar phi_c = -e_c / (4 i A) with e_c
    # the edge opposite corner c, so the dbar Gram entry of a triangle is
    # eta_a eta_b conj(e_a) e_b / (16 A).  Its imaginary part +-eta_a eta_b / 8
    # is antisymmetric in (a, b) and cancels across every interior edge (both
    # triangles carry the same edge sign), so only the real part is kept.
    pos = mesh.tri_pos
    area = mesh.signed_areas()[:, None, None]
    e = np.roll(pos, -2, axis=1) - np.roll(pos, -1, axis=1)          # (nt, 3)
    eta = lift.eta.astype(float)
    ss = eta[:, :, None] * eta[:, None, :]
    p1_a = ss * (e.real[:, :, None] * e.real[:, None, :]
                 + e.imag[:, :, None] * e.imag[:, None, :]) / (16.0 * area)
    p1_m = ss * area * ((1.0 + np.eye(3)) / 12.0)
    dofs = dof_of_vertex[mesh.triangles]
    p1_rows = np.broadcast_to(dofs[:, :, None], ss.shape)
    p1_cols = np.broadcast_to(dofs[:, None, :], ss.shape)
    keep = (p1_rows >= 0) & (p1_cols >= 0)          # cone vertices carry no dof
    p1_rows, p1_cols = p1_rows[keep], p1_cols[keep]

    rows_a, cols_a, vals_a = [], [], []
    rows_m, cols_m, vals_m = [], [], []

    # ----- enrichment blocks (complex)
    if enrichment and extension != "holomorphic":
        _assemble_local_enrichment(mesh, lift, enrichment, dof_of_vertex,
                                   cutoff, rows_a, cols_a, vals_a,
                                   rows_m, cols_m, vals_m)
    elif enrichment:
        if periods is None or char is None:
            raise AssemblyError("holomorphic variant needs periods and char")
        _assemble_szego_enrichment(mesh, lift, enrichment, dof_of_vertex,
                                   periods, char,
                                   rows_m, cols_m, vals_m)
        # stiffness rows of the exact kernels vanish identically (dbar S = 0)

    def pencil_matrix(p1_vals, rows, cols, vals):
        rows = np.concatenate([p1_rows, np.asarray(rows, dtype=int)])
        cols = np.concatenate([p1_cols, np.asarray(cols, dtype=int)])
        vals = np.concatenate([p1_vals[keep], np.asarray(vals)])
        X = sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()
        return 0.5 * (X + X.conj().T)

    A = pencil_matrix(p1_a, rows_a, cols_a, vals_a)
    M = pencil_matrix(p1_m, rows_m, cols_m, vals_m)
    # a complex border in either matrix makes the pencil complex Hermitian
    dtype = np.result_type(A.dtype, M.dtype)
    A, M = A.astype(dtype, copy=False), M.astype(dtype, copy=False)
    return DiscreteOperator(mesh=mesh, lift=lift, extension=extension,
                            stiffness=A.tocsr(), mass=M.tocsr(),
                            dof_of_vertex=dof_of_vertex, n_p1=n_p1,
                            enrichment=enrichment, cutoff=tuple(cutoff))


def _assemble_local_enrichment(mesh, lift, enrichment, dof_of_vertex, cutoff,
                               rows_a, cols_a, vals_a, rows_m, cols_m, vals_m):
    eta = lift.eta

    def mode_fields(ent, r, phi, zeta, r1, r2, r0, theta_ray):
        """(E, dbarE) at quadrature points for one enrichment entry."""
        m, sgn, pw = ent["mode"]
        f = cone_mode_phase(m, sgn, theta_ray) * cone_mode_rep(m, sgn, r, phi)
        g = smoothstep(r, r1, r2) * (r / r0) ** pw
        gp = (smoothstep_deriv(r, r1, r2) * (r / r0) ** pw
              + smoothstep(r, r1, r2) * pw * r ** (pw - 1.0) / r0 ** pw
              if pw else smoothstep_deriv(r, r1, r2))
        dbar_r = zeta / (2.0 * np.where(r > 0, r, 1.0))
        return g * f, f * gp * dbar_r

    by_cone = {}
    for ent in enrichment:
        by_cone.setdefault(ent["cone"], []).append(ent)
    for k, ents in by_cone.items():
        patch = mesh.cone_patches[k]
        cone = patch.cone
        r0 = patch.outer_radius
        r1, r2 = cutoff[0] * r0, cutoff[1] * r0
        nE = len(ents)
        aEE = np.zeros((nE, nE), dtype=complex)
        mEE = np.zeros((nE, nE), dtype=complex)
        for t in patch_triangle_ids(mesh, k, r2 * 1.05):
            p = mesh.tri_pos[t]
            A2 = 0.5 * (np.conj(p[1] - p[0]) * (p[2] - p[0])).imag
            zq = _QB @ p
            wq = _QW * A2
            zeta = zq - cone.position
            r = np.abs(zeta)
            phi = _phi_at(cone, patch, int(mesh.tri_chart[t]), zq)
            Es, dEs = [], []
            for ent in ents:
                E, dE = mode_fields(ent, r, phi, zeta, r1, r2, r0, cone.theta_ray)
                Es.append(E)
                dEs.append(dE)
            dofs = [int(dof_of_vertex[int(mesh.triangles[t, c])]) for c in range(3)]
            dbar_hat = np.array([-(p[(c + 2) % 3] - p[(c + 1) % 3])
                                 for c in range(3)]) / (4j * A2)
            for c in range(3):
                if dofs[c] < 0:
                    continue
                g = eta[t, c]
                for i, ent in enumerate(ents):
                    a_val = np.sum(wq * np.conj(g * dbar_hat[c]) * dEs[i])
                    m_val = np.sum(wq * np.conj(g * _QB[:, c]) * Es[i])
                    col = ent["col"]
                    rows_a.append(dofs[c]); cols_a.append(col); vals_a.append(a_val)
                    rows_a.append(col); cols_a.append(dofs[c]); vals_a.append(np.conj(a_val))
                    rows_m.append(dofs[c]); cols_m.append(col); vals_m.append(m_val)
                    rows_m.append(col); cols_m.append(dofs[c]); vals_m.append(np.conj(m_val))
            for i in range(nE):
                for j2 in range(nE):
                    aEE[i, j2] += np.sum(wq * np.conj(dEs[i]) * dEs[j2])
                    mEE[i, j2] += np.sum(wq * np.conj(Es[i]) * Es[j2])
        if np.linalg.cond(mEE) > 1e12:
            raise AssemblyError("enrichment Gram near-singular; enlarge cutoff")
        for i, e1 in enumerate(ents):
            for j2, e2 in enumerate(ents):
                rows_a.append(e1["col"]); cols_a.append(e2["col"]); vals_a.append(aEE[i, j2])
                rows_m.append(e1["col"]); cols_m.append(e2["col"]); vals_m.append(mEE[i, j2])


def szego_section_field(periods, char, k, lift, delta=None):
    """Vertex values of the section S(., P_k) in the FEM gauge.

    The raw theta-route values carry the spanning-tree branch of h_delta and
    the tree branch of the Abel map; the FEM-gauge mismatch field mu(v) = +-1
    is propagated by continuity (mis-assignments can only occur near zeros of
    S, where the field is negligible).
    """
    from . import theta as th
    mesh = periods.mesh
    if delta is None:
        delta = th.odd_characteristics(periods.genus)[0]
    cone = mesh.cone_patches[k].cone
    pk = ("cone", k, 0.0)
    t0 = periods.theta0(char)
    a_pk = periods.abel(pk)
    h_pk = periods.h_delta(delta, pk)
    grad = periods.theta_gradient0(delta)

    nv = mesh.n_vertices
    w = (periods.abel_vertex - a_pk[:, None]).T          # (nv, g)
    num = th.theta_batch(char, w, periods.b_matrix)
    den = th.theta_batch(delta, w, periods.b_matrix)
    h2 = periods.h_delta_sq_vertex(delta)
    sgn = periods._h_sign_field(delta)
    hz = sgn * np.sqrt(h2)
    # S(z, P_k) = theta[pq](A(z)-A(P_k)) h(z) h(P_k) / (theta0 * (-theta[d](A(z)-A(P_k))))
    # from S = theta(A(z)-A(pk)) / (t0 E(z, pk)), E(z, pk) = theta_d(A(pk)-A(z))/(h h)
    vals = num * hz * h_pk / (t0 * (-den))
    vals[np.abs(den) < 1e-300] = 0.0

    # propagate the FEM-gauge mismatch field mu(v): a smooth section's dof
    # values satisfy f_v ~ eps_uv f_u across each edge.  The propagation runs
    # over a maximum-reliability tree (largest |vals| first), so sign
    # decisions are never made near the zeros of the section, where a single
    # misdetection would flip a whole subtree.
    import heapq
    edge_sign = lift.edge_sign
    mu = np.zeros(nv, dtype=np.int8)
    absv = np.abs(vals)
    adj = [[] for _ in range(nv)]
    for (u, v) in edge_sign:
        adj[u].append(v)
        adj[v].append(u)
    start = int(np.argmax(absv))
    mu[start] = 1
    heap = []

    def push_edges(u):
        for v in adj[u]:
            if mu[v] == 0:
                heapq.heappush(heap, (-min(absv[u], absv[v]), u, v))

    push_edges(start)
    while heap:
        _, u, v = heapq.heappop(heap)
        if mu[v] != 0:
            continue
        eps = edge_sign.get((min(u, v), max(u, v)), 1)
        ref = eps * mu[u] * vals[u]
        mu[v] = 1 if abs(vals[v] - ref) <= abs(vals[v] + ref) else -1
        push_edges(v)
    mu[mu == 0] = 1          # isolated vertices (cone centers have no edges)
    return mu * vals


def _assemble_szego_enrichment(mesh, lift, enrichment, dof_of_vertex,
                               periods, char, rows_m, cols_m, vals_m):
    """Mass couplings for the exact Szego-kernel enrichment columns.

    Fields are taken as the FEM-gauge vertex values interpolated P1-wise plus
    the exact pole behaviour is not needed for the kernel-dimension count, so
    a lumped high-order treatment is unnecessary: the integrals use the same
    7-point rule with P1-interpolated section values away from the pole and
    the exact local mode at the pole cone.
    """
    fields = {}
    for ent in enrichment:
        fields[ent["col"]] = szego_section_field(periods, char, ent["cone"], lift)
    eta = lift.eta
    cols = sorted(fields)
    for t in range(mesh.n_triangles):
        p = mesh.tri_pos[t]
        A2 = 0.5 * abs((np.conj(p[1] - p[0]) * (p[2] - p[0])).imag)
        wq = _QW * A2
        dofs = [int(dof_of_vertex[int(mesh.triangles[t, c])]) for c in range(3)]
        sgn = eta[t]
        # triangle-rep values of each section at quadrature points
        reps = {}
        for col in cols:
            fv = fields[col]
            corner = np.array([sgn[c] * fv[int(mesh.triangles[t, c])]
                               for c in range(3)])
            reps[col] = _QB @ corner
        for c in range(3):
            if dofs[c] < 0:
                continue
            hat = _QB[:, c]
            for col in cols:
                m_val = np.sum(wq * np.conj(sgn[c] * hat) * reps[col])
                rows_m.append(dofs[c]); cols_m.append(col); vals_m.append(m_val)
                rows_m.append(col); cols_m.append(dofs[c]); vals_m.append(np.conj(m_val))
        for ci, col in enumerate(cols):
            for col2 in cols[ci:]:
                m_val = np.sum(wq * np.conj(reps[col]) * reps[col2])
                rows_m.append(col); cols_m.append(col2); vals_m.append(m_val)
                if col2 != col:
                    rows_m.append(col2); cols_m.append(col); vals_m.append(np.conj(m_val))


# ---------------------------------------------------------------------------
# eigenvalues and spectral results

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
    cone_coefficients: dict = None     # filled by extract_singular_coefficients
    requested: int = None              # N passed to eigenvalues(), before
                                       # its clamp to n_dofs - 2

    def extract_cone_coefficients(self, modes, cones=None):
        """Populate cone_coefficients[(mode, k)] for selected eigenfunctions."""
        if self.vectors is None or self.op is None:
            raise ValueError("needs vectors=True eigensolve with the operator")
        cones = cones if cones is not None else range(len(self.op.mesh.cone_patches))
        out = {}
        for mode in modes:
            u = self.vectors[:, mode]
            u = u / np.sqrt(abs(np.vdot(u, self.op.mass @ u)))
            for k in cones:
                out[(mode, k)] = extract_singular_coefficients(
                    self.op, u, self.eigenvalues[mode], k)
        self.cone_coefficients = out
        return out

    def positive(self, zero_tol_factor=1e-8):
        """Eigenvalues with the numerical kernel removed."""
        lam = self.eigenvalues
        pos = lam[lam > zero_tol_factor * max(lam.max(), 1.0)]
        return pos

    def kernel_dimension(self, zero_tol_factor=1e-8):
        lam = self.eigenvalues
        return int(np.sum(lam <= zero_tol_factor * max(lam.max(), 1.0)))


def eigenvalues(op: DiscreteOperator, N: int, vectors=False, sigma=None):
    """N smallest generalized eigenvalues of (stiffness, mass).

    ARPACK's shift-invert solve gives at most n_dofs - 2 of them; a larger N
    is clamped, and the result records the N asked for as `requested`."""
    from .surface import flat_area
    ndof = op.n_dofs
    requested, N = N, min(N, ndof - 2)
    if sigma is None:
        sigma = -0.1 if op.extension.startswith("holomorphic") else 0.0
        if op.extension == "szego":
            sigma = -0.05
    v0 = np.ones(ndof) + 0.5 * np.cos(np.arange(ndof))   # deterministic start
    try:
        out = spla.eigsh(op.stiffness, k=N, M=op.mass, sigma=sigma,
                         which="LM", return_eigenvectors=vectors,
                         maxiter=8000, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    if vectors:
        lam, vec = out
        idx = np.argsort(lam)
        lam, vec = lam[idx], vec[:, idx]
    else:
        lam = np.sort(out)
        vec = None
    lam = np.where(np.abs(lam) < 1e-13, 0.0, lam)
    return SpectralResult(extension=op.extension, h=op.mesh.h,
                          genus=op.mesh.genus, area=flat_area(op.mesh.surface),
                          eigenvalues=lam, n_dofs=ndof, vectors=vec, op=op,
                          requested=requested)


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

def extract_singular_coefficients(op: DiscreteOperator, u, lam, k,
                                  rings_use=None, n_lambda_terms=3):
    """Coefficients c_{k,m,+-} (m = -1..2) of the Darboux modes in the cone-k
    expansion of the discrete eigenfunction u (dof vector, eigenvalue lam).

    Ring values are unwrapped to the continuous 4 pi representative, projected
    on the angular frequencies (2m-1)/4 by FFT, and the two radial profiles
    r^{+-nu} (with their lambda-correction series) are separated by least
    squares over several ring radii.  Returns {(m, s): c} plus a fit residual
    under key 'residual'.
    """
    mesh = op.mesh
    patch = mesh.cone_patches[k]
    cone = patch.cone
    eta_slot = _slot_gauge(mesh, op.lift, patch)
    if rings_use is None:
        # fit where the enrichment cutoff is identically 1, so the pure-mode
        # radial model is exact; rings are ordered outermost first
        r1 = op.cutoff[0] * patch.outer_radius
        n = len(patch.ring_radii)
        n_ok = sum(1 for rho in patch.ring_radii if rho <= r1 * 1.0001)
        rings_use = list(range(n - max(3, n_ok), n))

    modes = [(-1, +1), (0, +1), (1, +1), (2, +1),
             (-1, -1), (0, -1), (1, -1), (2, -1)]
    by_freq = {}
    for m, s in modes:
        nu = (2 * m - 1) / 4.0
        by_freq.setdefault(nu, []).append((m, s))

    # angular projections per ring
    proj = {}
    radii = []
    for ring in rings_use:
        slots = patch.ring_slots[ring]
        rho = patch.ring_radii[ring]
        vals = []
        for (vid, phi, torus), gsl in zip(slots, eta_slot[ring]):
            dof = int(op.dof_of_vertex[int(vid)])
            val = gsl * (u[dof] if dof >= 0 else 0.0)
            for ent in op.enrichment:
                if ent["cone"] != k or ent["mode"] == "szego":
                    continue
                m, s, pw = ent["mode"]
                r0 = patch.outer_radius
                g = smoothstep(rho, op.cutoff[0] * r0, op.cutoff[1] * r0) * \
                    (rho / r0) ** pw
                f = cone_mode_phase(m, s, cone.theta_ray) * \
                    cone_mode_rep(m, s, rho, phi)
                val = val + u[ent["col"]] * g * f
            vals.append(val)
        vals = np.asarray(vals, dtype=complex)
        phis = np.array([phi for _, phi, _ in slots])
        # anti-periodic unwrap: multiply by e^{-i phi/4}, FFT bins at n/2
        g = vals * np.exp(-0.25j * phis)
        fft = np.fft.fft(g) / len(g)
        coeffs = {}
        for nu in by_freq:
            bin_freq = nu - 0.25           # in units of 1/2 per bin
            n_bin = int(round(bin_freq * 2))
            coeffs[nu] = fft[n_bin % len(g)]
        proj[ring] = coeffs
        radii.append(rho)

    out = {}
    resid_tot = 0.0
    for nu, mode_pair in by_freq.items():
        rows, rhs = [], []
        for ring, rho in zip(rings_use, radii):
            row = []
            for m, s in mode_pair:
                base = cone_mode_phase(m, s, cone.theta_ray) * \
                    cone_mode_rep(m, s, rho, 0.0)     # radial part at phi=0
                corr = cone_mode_lambda_series(m, s, lam, rho, n_lambda_terms)
                row.append(base * corr)
            rows.append(row)
            rhs.append(proj[ring][nu])
        rows = np.array(rows, dtype=complex)
        rhs = np.array(rhs, dtype=complex)
        sol, res, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        fit = rows @ sol
        resid_tot += float(np.sum(np.abs(fit - rhs) ** 2))
        for (m, s), c in zip(mode_pair, sol):
            out[(m, s)] = complex(c)
    out["residual"] = math.sqrt(resid_tot)
    return out


def _slot_gauge(mesh, lift, patch):
    """Gauge sign per ring slot mapping dof values to the continuous 4 pi rep."""
    out = []
    chains = {}
    for ch in mesh.slit_chains:
        for v in ch["copy0"]:
            chains[v] = 0
        for v in ch["copy1"]:
            chains[v] = 1
    sl = mesh.surface.slits[patch.cone.slit_index]
    for slots in patch.ring_slots:
        gs = []
        for vid, phi, torus in slots:
            g = 1
            if chains.get(int(vid)) == 0 and torus == sl.torus_b:
                g = -1
            gs.append(g)
        out.append(gs)
    return out


# ---------------------------------------------------------------------------
# heat trace and zeta determinant

def c0_theory(extension, genus):
    """Constant term of the short-time heat trace: -3(g-1)/8 for Friedrichs
    (and the holomorphic variants, which are almost isospectral to it),
    -7(g-1)/8 for the Szego extension (shifted by zeta_S(0)-zeta_F(0) =
    p_inf = (1-g)/2)."""
    if extension == "szego":
        return -7.0 * (genus - 1) / 8.0
    return -3.0 * (genus - 1) / 8.0


def heat_trace(res: SpectralResult, t, weyl_completion=True):
    """K(t) ~ sum_n exp(-lambda_n t) (+ Weyl tail model for the truncated
    part).  Raises WindowError if t is below the resolvable window."""
    lam = res.positive()
    t = float(t)
    cutoff = lam[-1] + math.pi / (2.0 * res.area)
    if t < 2.0 / cutoff:
        raise WindowError(f"t={t} below the N-resolvable window ~{2.0 / cutoff:.3g}")
    base = float(np.sum(np.exp(-lam * t))) + res.kernel_dimension()
    if weyl_completion:
        base += res.area / math.pi * math.exp(-cutoff * t) / t
    return base


def fit_heat_trace_constant(res: SpectralResult, n_grid=40, weyl_completion=True,
                            defect_correction=True):
    """Fitted constant c0 in K(t) - Area/(pi t) over the plateau window.

    The plateau is detected as the flattest stretch of c0(t) = K(t) -
    Area/(pi t) on a log-spaced t grid inside the validity window.  With
    defect_correction the fit uses the basis {1, t^(-1/2)} over a widened
    window around the plateau: the residual discretization defect of the
    graded cone patches shifts eigenvalues by O(sqrt(lambda)), which shows up
    in c0(t) as a t^(-1/2) tail; the corrected intercept removes it (the
    extra term fits ~0 on cone-free surfaces).  Returns (c0, diagnostics)."""
    lam = res.positive()
    cutoff = lam[-1] + math.pi / (2.0 * res.area)
    t_lo = 6.0 / cutoff
    t_hi = 1.5 / lam[min(len(lam) - 1, 12)]
    if t_hi <= t_lo * 1.05:
        t_hi = t_lo * 4.0
    ts = np.geomspace(t_lo, t_hi, n_grid)
    c0s = np.array([heat_trace(res, t, weyl_completion) - res.area / (math.pi * t)
                    for t in ts])
    slopes = np.abs(np.gradient(c0s, np.log(ts)))
    win = 5
    scores = np.array([slopes[i:i + win].mean() for i in range(len(ts) - win)])
    i0 = int(np.argmin(scores))
    c0_plateau = float(c0s[i0:i0 + win].mean())
    diag = {"t_window": (float(ts[i0]), float(ts[i0 + win - 1])),
            "c0_curve": c0s, "t_grid": ts,
            "plateau_slope": float(scores[i0]),
            "c0_plateau": c0_plateau}
    if not defect_correction:
        return c0_plateau, diag
    lo = max(0, i0 - win)
    hi = min(len(ts), i0 + 2 * win)
    tt = ts[lo:hi]
    A = np.column_stack([np.ones_like(tt), tt ** -0.5])
    coef, *_ = np.linalg.lstsq(A, c0s[lo:hi], rcond=None)
    diag["defect_coefficient"] = float(coef[1])
    return float(coef[0]), diag


def zeta_determinant(res: SpectralResult, t0=None, c0=None,
                     fit_remainder=True, n_factor=1.0):
    """(log det, error bar) by the split-Mellin regularization.

    zeta'(0) = -(A/pi)/t0 + c0 ln t0 + Jtilde(0) + int_t0^inf K_N(t)/t dt
               + euler_gamma * c0,

    with the t < t0 side modeled by Area/(pi t) + c0 (+ fitted a e^{-b/t}),
    and the t >= t0 side summed from the eigenvalues (Weyl tail included).
    t0 defaults to the smallest t where eigenvalue sum and model agree within
    0.5%; the error bar combines t0 variation and truncation sensitivity.
    """
    lam = res.positive()
    if n_factor < 1.0:
        lam = lam[: int(len(lam) * n_factor)]
    if res.kernel_dimension() > 0 and res.extension in ("friedrichs", "szego"):
        raise SolverError("unexpected kernel for a positive extension")
    area = res.area
    if c0 is None:
        c0 = c0_theory(res.extension, res.genus)
    cutoff = lam[-1] + math.pi / (2.0 * area)

    def model(t):
        return area / (math.pi * t) + c0

    def k_eig(t):
        return float(np.sum(np.exp(-lam * t))) + \
            area / math.pi * math.exp(-cutoff * t) / t

    overlap_gap = 0.0
    if t0 is None:
        # the remainder-fit window [0.55 t0, 0.95 t0] must itself be resolved
        # by the truncated sum, so the scan starts well above 1/cutoff
        ts = np.geomspace(16.0 / cutoff, 20.0 / lam[0], 200)
        for tol in (0.005, 0.01, 0.02):
            for t in ts:
                if abs(k_eig(t) - model(t)) <= tol * abs(model(t)):
                    t0 = float(t)
                    break
            if t0 is not None:
                break
        if t0 is None:
            raise WindowError("no overlap window between eigenvalue sum and "
                              "short-time model")
        # move deeper into the overlap region: the truncation/extrapolation
        # residual of the eigenvalue side scales like 1/t0^3, so the best
        # split sits well above the first agreement point
        t0 = float(min(2.2 * t0, 0.9 / lam[0] if lam[0] > 0 else 2.2 * t0))
        overlap_gap = abs(k_eig(t0) - model(t0))

    def log_det_at(t0v, lam_v):
        tail = float(np.sum(exp1(lam_v * t0v))) + \
            (area / math.pi) * float(exp1(cutoff * t0v))
        jt = 0.0
        if fit_remainder and 0.55 * t0v > 10.0 / cutoff:
            tt = np.geomspace(0.55 * t0v, 0.95 * t0v, 8)
            kt = np.array([float(np.sum(np.exp(-lam_v * t)))
                           + area / math.pi * math.exp(-cutoff * t) / t
                           - model(t) for t in tt])
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
                      + tail + EULER_GAMMA * c0)
        return -zeta_prime

    val = log_det_at(t0, lam)
    spread = [log_det_at(1.4 * t0, lam), log_det_at(t0 / 1.4, lam),
              log_det_at(t0, lam[: max(10, int(0.8 * len(lam)))])]
    err = max(abs(v - val) for v in spread) + overlap_gap * t0
    return val, err, {"t0": t0, "n_eigs": len(lam), "c0": c0,
                      "overlap_gap": overlap_gap}
