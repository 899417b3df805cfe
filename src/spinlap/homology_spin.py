"""Spin structures as automorphy data and their realization on the mesh.

A spin structure is the sign data (sigma(a_j), sigma(b_j)) in {+-1}^{2g}: a
section's representative picks up sigma(a_j) across the A_j-seam of torus j,
sigma(b_j) across the B_j-seam, a fixed -1 across one of the two slit-gluing
curves (+1 across the other), and is 4*pi-anti-periodic around every cone
point (which the slit signs produce automatically: a small loop crosses both
gluing curves once).

The characteristic dictionary used throughout the package is

    sigma(a_j) = -exp(2 pi i p_j),      sigma(b_j) = -exp(-2 pi i q_j),

i.e. sigma = +1 <-> component 1/2; on the torus this puts the odd (trivial
bundle) structure at (p, q) = (1/2, 1/2) and the doubly anti-periodic one at
(0, 0).  `calibrate_characteristic` re-derives the dictionary per surface
from the quasi-periodicity of the theta-based Szego kernel combined with the
measured monodromy of the h_delta branch, so the pairing of FEM spin lifts
with theta characteristics never relies on the convention blindly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import hodge
from . import surface as sf
from . import theta as th
from .errors import SpinlapError


class LiftFailureError(SpinlapError, RuntimeError):
    """The edge-sign cocycle is inconsistent (cut-set bug)."""


class CalibrationError(SpinlapError, RuntimeError):
    """No characteristic reproduces the requested monodromy signs."""


@dataclass(frozen=True)
class SpinStructure:
    sigma_a: tuple
    sigma_b: tuple
    characteristic: th.ThetaCharacteristic

    @property
    def genus(self):
        return len(self.sigma_a)

    @property
    def parity(self):
        return self.characteristic.parity

    @property
    def is_even(self):
        return self.characteristic.is_even

    def to_dict(self):
        return {"sigma_a": list(self.sigma_a), "sigma_b": list(self.sigma_b),
                "p": list(self.characteristic.p), "q": list(self.characteristic.q),
                "parity": self.parity}


def default_char_of_signs(sigma_a, sigma_b):
    """Characteristic under the package dictionary (see module docstring)."""
    p = tuple(0.5 if s == 1 else 0.0 for s in sigma_a)
    q = tuple(0.5 if s == 1 else 0.0 for s in sigma_b)
    return th.ThetaCharacteristic(p, q)


def enumerate_spin_structures(g: int):
    """All 4^g spin structures with their characteristics and parity."""
    out = []
    for sa in itertools.product((1, -1), repeat=g):
        for sb in itertools.product((1, -1), repeat=g):
            out.append(SpinStructure(sa, sb, default_char_of_signs(sa, sb)))
    return out


# ---------------------------------------------------------------------------
# sign lift on the mesh

@dataclass
class SignLift:
    mesh: object
    spin: SpinStructure
    eta: np.ndarray              # (nt, 3) per-corner gauge signs
    edge_sign: np.ndarray        # (ne,) int8 sign of each mesh.edge_table edge,
                                 # 0 on the cone spokes, which carry none

    def loop_sign(self, path):
        """Product of edge signs along a closed vertex path; raises KeyError
        at a step that is not a mesh edge or runs along a cone spoke."""
        path = np.asarray(path, dtype=int)
        idx, _ = self.mesh.edge_table.lookup(path[:-1], path[1:])
        signs = self.edge_sign[idx]
        if np.any(signs == 0):
            k = int(np.argmax(signs == 0))
            raise KeyError((int(path[k]), int(path[k + 1])))
        return int(np.prod(signs, dtype=int))


def build_sign_lift(mesh, spin: SpinStructure) -> SignLift:
    """Per-corner gauge eta and derived edge signs for the given structure.

    eta(t, c) = sigma_a^{ws} sigma_b^{wt} * slit_sign, where (ws, wt) are the
    corner's fundamental-domain unwrap offsets in its chart and slit_sign is
    the -1 carried by the (T_a, +) = (T_b, -) gluing curve.  Raises
    LiftFailureError if the induced edge cocycle is inconsistent.
    """
    chart = mesh.tri_chart[:, None]
    flip_a = np.asarray(spin.sigma_a)[chart]
    flip_b = np.asarray(spin.sigma_b)[chart]
    ws, wt = mesh.tri_wrap[:, :, 0] % 2, mesh.tri_wrap[:, :, 1] % 2
    eta = (mesh.tri_slit_sign * np.where(ws, flip_a, 1)
           * np.where(wt, flip_b, 1)).astype(np.int8)

    # each edge's sign on its two triangle sides; cone spokes are excluded
    table = mesh.edge_table
    side_sign = (eta * np.roll(eta, -1, axis=1)).ravel()[table.slots]
    cone = np.zeros(mesh.n_vertices, dtype=bool)
    cone[mesh.cone_vertex_ids()] = True
    keep = ~cone[table.edges].any(axis=1)
    bad = keep & (side_sign[:, 0] != side_sign[:, 1])
    if np.any(bad):
        key = tuple(int(x) for x in table.edges[np.argmax(bad)])
        raise LiftFailureError(f"inconsistent cocycle at edge {key}")
    edge_sign = np.where(keep, side_sign[:, 0], 0).astype(np.int8)
    return SignLift(mesh=mesh, spin=spin, eta=eta, edge_sign=edge_sign)


def cone_loop_sign(lift: SignLift, patch):
    """Edge-sign product around the second-outermost mesh ring encircling a
    cone point."""
    ring = patch.ring_vertices[1]
    return lift.loop_sign(np.append(ring, ring[0]))


def sample_contractible_loops(mesh, rng, count=40):
    """Small triangle-fan loops around random non-singular vertices."""
    from collections import defaultdict
    cone_vs = set(mesh.cone_vertex_ids())
    star = defaultdict(list)
    for t in range(mesh.n_triangles):
        tri = [int(x) for x in mesh.triangles[t]]
        for c in range(3):
            star[tri[c]].append((tri[(c + 1) % 3], tri[(c + 2) % 3]))
    loops = []
    verts = [v for v in star if v not in cone_vs
             and all(u not in cone_vs and w not in cone_vs for u, w in star[v])]
    for v in rng.choice(len(verts), size=min(count, len(verts)), replace=False):
        v = verts[int(v)]
        nxt = {u: w for u, w in star[v]}
        start = next(iter(nxt))
        path = [start]
        while True:
            path.append(nxt[path[-1]])
            if path[-1] == start:
                break
            if len(path) > 64:
                break
        if path[-1] == start:
            loops.append(path)
    return loops


def cycle_monodromy(lift: SignLift, torus: int, which: str):
    """Edge-sign product along the stored a- or b-cycle path of a torus."""
    return lift.loop_sign(lift.mesh.cycle_paths[torus][which])


# ---------------------------------------------------------------------------
# characteristic calibration

def _routed_cycles(periods, delta, torus):
    """The a- and b-cycle of torus j routed away from small |h_delta^2|, so
    that the branch winding is reliably resolved: the least-cost cycles
    when a vertex costs 1/|h_delta^2|^2.  One search per torus and delta,
    kept in the periods' cache."""
    key = ("cycles", delta, torus)
    if key not in periods._cache:
        cost = 1.0 / (np.abs(periods.h_delta_sq_vertex(delta)) + 1e-300) ** 2
        periods._cache[key] = sf.find_torus_cycles(periods.mesh, torus,
                                                   vertex_cost=cost)
    return periods._cache[key]


def _safe_cycle(periods, delta, torus, which):
    """The routed cycle (_routed_cycles) and the h_delta monodromy along it;
    raises CalibrationError when there is none or the winding is not
    resolved."""
    path = _routed_cycles(periods, delta, torus)[which]
    if path is not None:
        try:
            eta = periods.h_monodromy(delta, path, max_step=1.2)
            return path, eta
        except hodge.MeshQualityError:
            pass
    raise CalibrationError("could not resolve h_delta monodromy for "
                           f"delta={delta.label()} torus={torus} cycle={which}")


def _eta_table(periods, delta):
    """The h_delta branch monodromies ((eta^a_j, eta^b_j) for each torus j)
    along zero-avoiding cycles; they depend on periods and delta alone, so
    they are kept in the periods' cache."""
    key = ("eta", delta)
    if key not in periods._cache:
        periods._cache[key] = tuple(
            (_safe_cycle(periods, delta, j, "a")[1],
             _safe_cycle(periods, delta, j, "b")[1])
            for j in range(periods.genus))
    return periods._cache[key]


def szego_cycle_signs(char, periods, delta=None):
    """Automorphy signs of the theta-route Szego kernel S(z0, .) along the
    basis cycles: sigma(a_j) = exp(2 pi i (p_j - dp_j)) eta^a_j and
    sigma(b_j) = exp(-2 pi i (q_j - dq_j)) eta^b_j, where eta are the measured
    h_delta branch monodromies."""
    g = periods.genus
    if delta is None:
        delta = th.odd_characteristics(g)[0]
    etas = _eta_table(periods, delta)
    sa, sb = [], []
    for j in range(g):
        eta_a, eta_b = etas[j]
        fa = np.exp(2j * math.pi * (char.p[j] - delta.p[j])) * eta_a
        fb = np.exp(-2j * math.pi * (char.q[j] - delta.q[j])) * eta_b
        sa.append(int(round(fa.real)))
        sb.append(int(round(fb.real)))
    return tuple(sa), tuple(sb)


def calibrate_characteristic(spin_signs, periods, delta=None):
    """Characteristic (p, q) whose Szego kernel has the monodromy signs
    (sigma_a, sigma_b) on this surface.

    Uses the h_delta branch monodromies along zero-avoiding mesh cycles;
    raises CalibrationError if no characteristic matches (inconsistent
    conventions)."""
    sigma_a, sigma_b = spin_signs
    g = periods.genus

    def solve(delta):
        etas = _eta_table(periods, delta)
        p, q = [], []
        for j in range(g):
            eta_a, eta_b = etas[j]
            ratio_a = sigma_a[j] * eta_a      # = exp(2 pi i (p_j - dp_j))
            ratio_b = sigma_b[j] * eta_b      # = exp(-2 pi i (q_j - dq_j))
            if ratio_a not in (-1, 1) or ratio_b not in (-1, 1):
                raise CalibrationError("non-real monodromy ratio")
            p.append((delta.p[j] + (0.0 if ratio_a == 1 else 0.5)) % 1.0)
            q.append((delta.q[j] + (0.0 if ratio_b == 1 else 0.5)) % 1.0)
        return th.ThetaCharacteristic(tuple(p), tuple(q))

    if delta is not None:
        return solve(delta)
    odd = th.odd_characteristics(g)
    first = solve(odd[0])
    if len(odd) > 1:
        second = solve(odd[1])
        if second != first:
            raise CalibrationError(
                "characteristic dictionary inconsistent across odd deltas: "
                f"{first.label()} vs {second.label()}")
    return first


def measure_szego_monodromy(char, periods, torus, which, z0=None, delta=None,
                            return_quality=False):
    """Direct monodromy sampling: continue S(z0, .) along a cycle path and
    return the sign after the loop.

    Heuristic continuity tracking of the pointwise kernel values; reliable
    when the path stays away from zeros of S and of h_delta (exact on the
    torus, where h_delta is constant).  With return_quality=True also returns
    the worst step ambiguity (0 = perfectly clean, -> 1 = unreliable).
    """
    mesh = periods.mesh
    g = periods.genus
    if delta is None:
        delta = th.odd_characteristics(g)[0]
    try:
        path, _ = _safe_cycle(periods, delta, torus, which)
    except CalibrationError:
        path = mesh.cycle_paths[torus][which]
    if z0 is None:
        z0 = _far_vertex(mesh, path)
    vals = [th.szego_kernel(char, periods, z0, int(v), delta=delta) for v in path]
    sign = 1
    cur = vals[0]
    worst = 0.0
    for k in range(1, len(vals)):
        keep = abs(sign * vals[k] - cur)
        flip = abs(-sign * vals[k] - cur)
        worst = max(worst, min(keep, flip) / max(keep, flip))
        if keep > flip:
            sign = -sign
        cur = sign * vals[k]
    if return_quality:
        return sign, worst
    return sign


def _far_vertex(mesh, path):
    pset = set(int(v) for v in path)
    cone_vs = set(mesh.cone_vertex_ids())
    best, best_d = None, -1.0
    pos = mesh.vertices
    ppos = pos[list(pset)]
    for v in range(0, mesh.n_vertices, max(1, mesh.n_vertices // 200)):
        if v in pset or v in cone_vs:
            continue
        d = np.min(np.hypot(ppos[:, 0] - pos[v, 0], ppos[:, 1] - pos[v, 1]))
        if d > best_d:
            best, best_d = v, d
    return int(best)
