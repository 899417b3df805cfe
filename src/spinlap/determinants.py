"""Headline determinant identities: the scattering matrix T(0) by surface
quadrature, the Friedrichs/Szego comparison formula, the D'Hoker-Phong ratio,
the Bergman kernel of the holomorphic extension, and the spin-structure
independence of the bosonization combination.

T(0) entries are assembled as

  T_ij(0) = kappa_i conj(kappa_j) / (pi^2 |theta[pq](0)|^2) *
            int  theta_i conj(theta_j) |h_delta^2(z)| / (td_i conj(td_j)) dmu,

with theta_i = theta[pq](A(z) - A(P_i)), td_i = theta[delta](A(z) - A(P_i)),
kappa_i the distinguished-chart value of h_delta at P_i, and dmu the flat
area measure divided by |omega| (equal to |x| dLeb in the distinguished
chart).  This is the paper integrand with the prime forms expanded; the
h_delta(z) branches enter only through |h^2|, and the kappa-sign ambiguity
is a diag(+-1) congruence that no downstream quantity sees.  Composite
quadrature: a degree-5 triangle rule in the bulk, a Gauss-Legendre x
trapezoid polar rule in the distinguished chart inside each cone patch.
The nodes stream through theta in fixed chunks: per chunk and cone one
theta_batch call gives theta[pq] and both odd reference characteristics,
and the chunk is added into the raw Gram sums, so memory does not grow
with the number of nodes.

The Bergman tau function is never evaluated: every test below is a
difference or ratio in which it cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import theta as th
from .cone_analysis import GAMMA_3_4, QuadratureError
from .errors import SpinlapError
from .spectral import _QB, _QW


class ConsistencyError(SpinlapError, RuntimeError):
    """T(0) failed a structural requirement (Hermiticity/positivity)."""


@dataclass
class ScatteringData:
    """T(0) at the cone points, with `quadrature_error`: the spread of
    t_matrix_zero between two odd reference characteristics, an estimate of
    the quadrature error and not a bound on it (see t_matrix_zero)."""
    t0: np.ndarray                 # (2g-2, 2g-2)
    quadrature_error: float
    char: object

    @property
    def s_gram(self):
        return math.pi ** 2 * self.t0

    @property
    def det_t0(self):
        return np.linalg.det(0.5 * (self.t0 + self.t0.conj().T)).real

    def log_det_t0(self):
        sign, logdet = np.linalg.slogdet(0.5 * (self.t0 + self.t0.conj().T))
        if sign.real <= 0:
            raise ConsistencyError("det T(0) not positive")
        return float(logdet.real)

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.t0 - self.t0.conj().T)))

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(0.5 * (self.t0 + self.t0.conj().T)).min())


def _bulk_triangles(mesh):
    """Ids of the triangles outside every cone patch, ascending."""
    in_patch = np.zeros(mesh.n_triangles, dtype=bool)
    for patch in mesh.cone_patches:
        in_patch[patch.triangles] = True
    return np.flatnonzero(~in_patch)


def _quadrature_nodes(periods, n_rad, n_ang):
    """Nodes of the composite rule for T(0): their Abel images (M, g), the
    ratios v_i = upsilon_i / omega there (in the distinguished chart
    upsilon_i / dx) as (M, g), and the weights (M,) of dmu.  The triangles
    outside every cone patch come first (7 nodes each), then the polar rule
    of each patch.  Its disk of radius r0 still overlaps the bulk on the
    circular segments outside the patch polygon, 1 - sin(2 pi/n)/(2 pi/n)
    of the disk (n = patch.n_ang): 2.5 % at h = 0.04, 0.8 % at h = 0.02."""
    mesh = periods.mesh
    g = periods.genus
    # ---- bulk triangles
    bulk = _bulk_triangles(mesh)
    pos = mesh.tri_pos[bulk]                                 # (T, 3)
    areas = 0.5 * np.abs((np.conj(pos[:, 1] - pos[:, 0])
                          * (pos[:, 2] - pos[:, 0])).imag)
    zq = np.einsum("qc,tc->tq", _QB, pos)                    # (T, 7)
    # Abel map by per-triangle linear model
    a0 = periods.abel_vertex[:, mesh.triangles[bulk, 0]].T   # (T, g)
    vt = periods.v_tri[:, bulk].T                            # (T, g)
    abel_q = a0[:, None, :] + vt[:, None, :] * (zq - pos[:, 0][:, None])[:, :, None]
    nodes = [abel_q.reshape(-1, g)]
    ratios = [np.repeat(vt, zq.shape[1], axis=0)]
    weights = [(areas[:, None] * _QW[None, :]).ravel()]

    # ---- cone patches: polar rule in the distinguished chart,
    # measure |x| dLeb(x) = R^2 rho drho dpsi with x = R rho e^{i psi}
    xg, wg = np.polynomial.legendre.leggauss(n_rad)
    rho = 0.5 * (xg + 1.0)
    wr = 0.5 * wg
    psi = 2.0 * math.pi * np.arange(n_ang) / n_ang
    wpsi = 2.0 * math.pi / n_ang
    for k, patch in enumerate(mesh.cone_patches):
        Rx = math.sqrt(2.0 * patch.outer_radius)
        xs = (Rx * rho[:, None] * np.exp(1j * psi[None, :])).ravel()
        weights.append((Rx ** 2 * rho[:, None] * wr[:, None] * wpsi
                        * np.ones_like(psi)[None, :]).ravel() * np.abs(xs))
        ratio, abel = periods.cone_series(k, xs)
        ratios.append(ratio.T)
        nodes.append(abel.T)
    return np.concatenate(nodes), np.concatenate(ratios), np.concatenate(weights)


_HERM_TOL = 5e-3                 # largest Hermiticity defect of T(0), relative
# quadrature nodes per theta evaluation: bounds the live theta tables
_CHUNK = 4096


def t_matrix_zero(surface, periods, char, delta=None, n_rad=24, n_ang=64,
                  error_estimate=True):
    """Scattering matrix T(0) (and S-Gram = pi^2 T(0)) by composite quadrature.

    The construction is Hermitian by assembly, so the reported quadrature
    error is estimated by re-evaluating with a different odd reference
    characteristic (the result is delta-independent in the continuum; the
    spread measures the prime-form discretization error).  The nodes are
    streamed in chunks of _CHUNK; per chunk and cone one theta_batch call
    evaluates theta[p,q] and both reference characteristics, and the chunk
    is added into the raw Gram matrices of both.  The estimate is not a
    bound: where one reference characteristic resolves the prime form poorly
    it can exceed the entries of T(0) (6.56 for [00|00] and 14.8 for
    [10|01] on the h = 0.04 mesh of the g = 2 test point; ROADMAP item 4(a))."""
    mesh = periods.mesh
    g = periods.genus
    ncone = len(mesh.cone_patches)
    if ncone == 0:
        return ScatteringData(t0=np.zeros((0, 0), dtype=complex),
                              quadrature_error=0.0, char=char)
    if not char.is_even:
        raise ValueError("T(0) requires an even characteristic")
    if delta is None:
        delta = th.odd_characteristics(g)[0]
    t0_theta = periods.theta0(char)
    if abs(t0_theta) < th.THETA0_TOL:
        raise th.DegenerateSpinError(f"theta{char.label()}(0) ~ 0")

    deltas = [delta]
    if error_estimate:
        deltas.append([d for d in th.odd_characteristics(g) if d != delta][0])
    B = periods.b_matrix
    nodes, ratios, weights = _quadrature_nodes(periods, n_rad, n_ang)
    grads = np.array([periods.theta_gradient0(d) for d in deltas])
    wh2 = weights * np.abs(grads @ ratios.T)                  # (D, M): w |h2|
    cones = [periods.abel(("cone", k, 0.0)) for k in range(ncone)]
    # raw[d] = sum_q w_q |h2| theta_i conj(theta_j) / (td_i conj(td_j))
    raw = np.zeros((len(deltas), ncone, ncone), dtype=complex)
    for s in range(0, len(nodes), _CHUNK):
        chunk = slice(s, s + _CHUNK)
        f = np.empty((len(deltas), ncone, len(nodes[chunk])), dtype=complex)
        for k in range(ncone):
            vals = th.theta_batch([char, *deltas], nodes[chunk] - cones[k], B)
            f[:, k] = vals[0] / vals[1:]
        raw += (f * wh2[:, None, chunk]) @ np.conj(f).transpose(0, 2, 1)

    def checked(ref, sums):
        """T(0) with reference characteristic ref from its raw sums, with
        its Hermiticity defect as the quadrature error."""
        kappa = np.array([periods.h_delta(ref, ("cone", k, 0.0))
                          for k in range(ncone)])
        scale = np.outer(kappa, np.conj(kappa)) / (math.pi ** 2 * abs(t0_theta) ** 2)
        data = ScatteringData(t0=scale * sums, quadrature_error=0.0, char=char)
        data.quadrature_error = herm = data.hermiticity_defect()
        if herm > _HERM_TOL * max(1e-30, float(np.max(np.abs(data.t0)))):
            raise QuadratureError(f"T(0) Hermiticity defect {herm:.2e} above threshold")
        if data.min_eigenvalue() <= 0:
            raise ConsistencyError("T(0) not positive definite")
        return data

    data = checked(deltas[0], raw[0])
    if error_estimate:
        alt = checked(deltas[1], raw[1])
        data.quadrature_error = float(np.max(np.abs(np.abs(alt.t0)
                                                    - np.abs(data.t0))))
    return data


def s_gram_direct(periods, char, delta=None, n_rad=20, n_ang=40):
    """The full Gram (S(P_i,.), S(P_j,.))_{L2} by an independent route:
    vertex-rule over the bulk with the sign-carrying kernel fields, polar rule
    with the pointwise szego_kernel evaluator inside the patches.

    Unlike t_matrix_zero this goes through the per-point kernel values with
    the tree-gauge h_delta branch, so it exercises a different assembly path;
    used for the diagonal cross-check and the Bergman projection test.  The
    bulk fields are the raw theta-route values, whose vertex products need no
    FEM gauge."""
    from .spectral import szego_section_raw
    mesh = periods.mesh
    g = periods.genus
    ncone = len(mesh.cone_patches)
    if delta is None:
        delta = th.odd_characteristics(g)[0]
    # the raw (ungauged) fields: f_i conj(f_j) at one vertex is gauge-free
    f = np.stack([szego_section_raw(periods, char, k, delta)
                  for k in range(ncone)], axis=1)                # (nv, ncone)
    bulk = _bulk_triangles(mesh)
    area = np.abs(mesh.signed_areas()[bulk])
    fb = f[mesh.triangles[bulk]]                                 # (T, 3, ncone)
    gram = np.einsum("t,tci,tcj->ij", area / 3.0, fb, np.conj(fb))
    # patches: polar rule with measure |x| dLeb in the distinguished chart
    xg, wg = np.polynomial.legendre.leggauss(n_rad)
    rho = 0.5 * (xg + 1.0)
    wr = 0.5 * wg
    psi = 2.0 * math.pi * (np.arange(n_ang) + 0.31) / n_ang
    for kk in range(ncone):
        Rz = mesh.cone_patches[kk].outer_radius
        Rx = math.sqrt(2.0 * Rz)
        for rr, ww in zip(rho, wr):
            for ps in psi:
                x = Rx * rr * np.exp(1j * ps)
                w = abs(x) * (Rx ** 2 * rr * ww * 2.0 * math.pi / n_ang)
                vals = [th.szego_kernel(char, periods, ("cone", i, 0.0),
                                        ("cone", kk, x), delta=delta)
                        for i in range(ncone)]
                for i in range(ncone):
                    for j in range(ncone):
                        gram[i, j] += w * vals[i] * np.conj(vals[j])
    return gram


def szego_norm_direct(periods, char, k, delta=None, n_rad=20, n_ang=40):
    """Direct quadrature of ||S(P_k, .)||^2 (= pi^2 T_kk(0))."""
    gram = s_gram_direct(periods, char, delta=delta, n_rad=n_rad, n_ang=n_ang)
    return float(gram[k, k].real)


# ---------------------------------------------------------------------------
# comparison formula and the D'Hoker-Phong ratio

def compare_determinants(log_det_f, t0_data, g):
    """log det Delta_S = log det Delta_F - 4(g-1) log Gamma(3/4) - log det T(0)."""
    if t0_data is None or t0_data.t0.size == 0:
        return float(log_det_f)
    return float(log_det_f - 4.0 * (g - 1) * math.log(GAMMA_3_4)
                 - t0_data.log_det_t0())


def invert_compare(log_det_s, t0_data, g):
    """log det Delta_F from log det Delta_S: the formula is x - shift, so
    -compare(-x) = x + shift exactly (negation is exact in floating point)."""
    return -compare_determinants(-log_det_s, t0_data, g)


def dhoker_phong_ratio(g):
    """Closed form (Gamma(3/4)/pi)^{4(g-1)}."""
    return (GAMMA_3_4 / math.pi) ** (4 * (g - 1))


def assembled_ratio(log_det_f, t0_data, g):
    """log of det Delta_F / (det Delta_S det S-Gram) from measured inputs.

    det Delta_S is the comparison-formula value, so algebraically this reduces
    to the closed form; evaluating it through the measured quantities checks
    the numerical pipeline's internal consistency (cancellation of the
    measured pieces) across moduli points.
    """
    log_det_s = compare_determinants(log_det_f, t0_data, g)
    sign, log_det_sgram = np.linalg.slogdet(t0_data.s_gram)
    if sign.real <= 0:
        raise ConsistencyError("S-Gram not positive definite")
    return float(log_det_f - log_det_s - log_det_sgram.real)


def dhoker_phong_symbolic_check(g, rng=None):
    """Exact cancellation of the ratio on synthetic inputs: substitute random
    Hermitian-PD T(0) and random det Delta_F into the assembled ratio."""
    rng = rng or np.random.default_rng(0)
    n = 2 * g - 2
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    t0 = m @ m.conj().T + 0.1 * np.eye(n)
    data = ScatteringData(t0=t0, quadrature_error=0.0, char=None)
    log_det_f = float(rng.normal())
    lhs = assembled_ratio(log_det_f, data, g)
    rhs = math.log(dhoker_phong_ratio(g))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Bergman kernel of the holomorphic extension

def bergman_kernel_h(periods, char, s_gram, z, zp, delta=None):
    """B^h(z, z') = -sum_{kj} S(z, P_k) SGram^{-1}_{kj} conj(S(P_j, z'))."""
    mesh = periods.mesh
    ncone = len(mesh.cone_patches)
    if ncone == 0:
        return 0.0 + 0.0j
    sinv = np.linalg.inv(0.5 * (s_gram + s_gram.conj().T))
    s_zk = np.array([th.szego_kernel(char, periods, z, ("cone", k, 0.0),
                                     delta=delta) for k in range(ncone)])
    s_jzp = np.array([th.szego_kernel(char, periods, ("cone", j, 0.0), zp,
                                      delta=delta) for j in range(ncone)])
    return -complex(s_zk @ sinv @ np.conj(s_jzp))


# ---------------------------------------------------------------------------
# reports and the spin-independence test

@dataclass
class DeterminantReport:
    genus: int
    spin: object                    # SpinStructure
    char_label: str
    log_det_f: float
    log_det_f_err: float
    log_det_t0: float
    theta0_abs: float
    log_det_s: float                # compare_determinants(log_det_f, T(0))
    zeta: dict                      # t0, overlap_gap, n_eigs, c0 of log_det_f
    q_value: float = field(init=False)
    ratio_log: float = None
    tau_placeholder: str = "not computed"

    def __post_init__(self):
        self.q_value = float(self.log_det_s - 2.0 * math.log(self.theta0_abs))

    def to_dict(self):
        return {"genus": self.genus,
                "spin": self.spin.to_dict() if self.spin is not None else None,
                "char": self.char_label,
                "log_det_F": self.log_det_f,
                "log_det_F_err": self.log_det_f_err,
                "log_det_T0": self.log_det_t0,
                "theta0_abs": self.theta0_abs,
                "log_det_S": self.log_det_s,
                "Q": self.q_value,
                "zeta": dict(self.zeta),
                "ratio_log": self.ratio_log,
                "tau_B": self.tau_placeholder}


def _hashable(obj):
    """Nested dicts, lists and arrays as nested tuples, for cache keys."""
    if isinstance(obj, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple, np.ndarray)):
        return tuple(_hashable(v) for v in obj)
    return obj


def _geometry(moduli, h, richardson, cache):
    """(surface, mesh, periods, Richardson partner mesh or None) of a run,
    kept in `cache` under everything that shapes them (moduli, h,
    richardson), so one cache can be shared across moduli points and
    settings."""
    from . import surface as sf
    from . import hodge

    cache = cache if cache is not None else {}
    key = ("geom", _hashable(moduli.to_dict()), h, bool(richardson))
    if key not in cache:
        surf = sf.build_surface(moduli)
        mesh = sf.generate_mesh(surf, h=h)
        periods = hodge.period_matrix(mesh)
        mesh2 = sf.generate_mesh(surf, h=1.4 * h) if richardson else None
        cache[key] = (surf, mesh, periods, mesh2)
    return cache[key]


def best_even_spins(moduli, count, h=0.02, richardson=True, cache=None):
    """The `count` even spin structures with the largest |theta[p,q](0)|
    (ties in enumeration order), ranked on the period matrix that
    determinant_report computes, and caches in `cache`, for the same
    moduli, h and richardson."""
    from . import homology_spin as hs

    periods = _geometry(moduli, h, richardson, cache)[2]
    evens = [spin for spin in hs.enumerate_spin_structures(moduli.genus)
             if spin.is_even]
    size = [abs(periods.theta0(hs.calibrate_characteristic(
        (spin.sigma_a, spin.sigma_b), periods))) for spin in evens]
    order = sorted(range(len(evens)), key=lambda k: -size[k])
    return [evens[k] for k in order[:count]]


def determinant_report(moduli, spin, h=0.02, n_eigs=280, richardson=True,
                       cache=None):
    """Full pipeline for one spin structure: mesh(es) -> periods -> F-spectrum
    -> zeta determinant; T(0) quadrature; assembled report.

    `cache` (a dict) reuses meshes/periods across spins; its entries are
    keyed on everything that shapes them (moduli, h, richardson),
    so one cache can be shared across moduli points and settings.
    """
    from . import homology_spin as hs
    from . import spectral as spec

    surf, mesh, periods, mesh2 = _geometry(moduli, h, richardson, cache)
    char = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b), periods)
    lift = hs.build_sign_lift(mesh, spin)
    res = spec.eigenvalues(spec.assemble_operator(mesh, lift, "friedrichs"),
                           n_eigs)
    if mesh2 is not None:
        lift2 = hs.build_sign_lift(mesh2, spin)
        res2 = spec.eigenvalues(spec.assemble_operator(mesh2, lift2, "friedrichs"),
                                n_eigs)
        res = spec.richardson_eigenvalues(res2, res)
    log_det_f, err_f, zeta = spec.zeta_determinant(res)

    t0_data = t_matrix_zero(surf, periods, char)
    report = DeterminantReport(
        genus=moduli.genus, spin=spin, char_label=char.label(),
        log_det_f=log_det_f, log_det_f_err=err_f,
        log_det_t0=t0_data.log_det_t0(),
        log_det_s=compare_determinants(log_det_f, t0_data, moduli.genus),
        theta0_abs=float(abs(periods.theta0(char))), zeta=zeta)
    report.ratio_log = assembled_ratio(log_det_f, t0_data, moduli.genus)
    return report, t0_data


def spin_independence_test(moduli, spins, h=0.02, n_eigs=280, richardson=True,
                           cache=None):
    """Q(p,q) = log det Delta_S - 2 log|theta[pq](0)| across even spins at a
    fixed moduli point and matched mesh; the paper predicts equal values.
    `cache` is determinant_report's."""
    cache = cache if cache is not None else {}
    reports = []
    for spin in spins:
        rep, _ = determinant_report(moduli, spin, h=h, n_eigs=n_eigs,
                                    richardson=richardson, cache=cache)
        reports.append(rep)
    qs = [r.q_value for r in reports]
    return {"reports": reports,
            "q_values": qs,
            "max_delta_q": float(max(qs) - min(qs)) if len(qs) > 1 else 0.0}
