"""Translation surfaces from period moduli: glued slit tori with 4*pi cones.

A genus-g surface is built from g flat tori T_j = C/(Z A_j + Z B_j) carrying
the differential dz, cross-glued along g-1 straight slits [C_{2j-1}, C_{2j}]
shared by T_j and T_{j+1}.  Each slit endpoint becomes a cone point of angle
4*pi (one 2*pi disk from each incident torus).

The mesh generator produces a single conforming triangulation of the glued
surface: a structured grid per torus away from the slits, matched node chains
along each slit (duplicated per side and re-identified crosswise), and
geometrically graded polar rings around every cone point.  Triangles store
their own unwrapped corner coordinates, so all downstream geometry (areas,
cotangents, edge vectors) is exact per chart.

Cone-patch angular convention: at each cone the 4*pi angle phi in [0, 4*pi)
is measured counterclockwise starting at the slit-gluing curve that carries
the spinor sign flip, so a section's z-representative r^nu e^{i nu phi} has
its branch cut exactly on that curve.  The distinguished coordinate is
x = sqrt(2 r) exp(i (phi + theta_ray)/2), with theta_ray the direction of the
slit ray at the endpoint; x^2/2 equals the local flat coordinate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay


class InvalidModuliError(ValueError):
    """Moduli violate the lattice/slit invariants."""


class MeshResolutionError(ValueError):
    """Mesh size h cannot resolve the requested geometry."""


class MeshConformityError(RuntimeError):
    """Generated mesh failed a structural validation."""


class OutOfChartError(ValueError):
    """Point outside the requested cone chart."""


# ---------------------------------------------------------------------------
# moduli and surface

@dataclass(frozen=True)
class ModuliPoint:
    """Period coordinates (A_i, B_i, C_k) of a point in H_g(1, ..., 1)."""
    genus: int
    A: tuple
    B: tuple
    C: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(complex(a) for a in self.A))
        object.__setattr__(self, "B", tuple(complex(b) for b in self.B))
        object.__setattr__(self, "C", tuple(complex(c) for c in self.C))

    def validate(self):
        g = self.genus
        if g < 1 or len(self.A) != g or len(self.B) != g:
            raise InvalidModuliError("need g a-periods and g b-periods")
        if len(self.C) != max(0, 2 * g - 2):
            raise InvalidModuliError("need 2g-2 slit endpoints")
        for a, b in zip(self.A, self.B):
            if (b / a).imag <= 0:
                raise InvalidModuliError("degenerate lattice: Im(B/A) <= 0")
        for j in range(g - 1):
            c0, c1 = self.C[2 * j], self.C[2 * j + 1]
            for lat in (j, j + 1):
                if _lattice_distance(c1 - c0, self.A[lat], self.B[lat]) < 1e-12:
                    raise InvalidModuliError("degenerate slit: C_%d = C_%d mod "
                                             "lattice %d" % (2 * j + 1, 2 * j + 2, lat))
        area = -sum((a * np.conj(b)).imag for a, b in zip(self.A, self.B))
        if area <= 0:
            raise InvalidModuliError("total area must be positive")

    def to_dict(self):
        return {"genus": self.genus,
                "A": [[a.real, a.imag] for a in self.A],
                "B": [[b.real, b.imag] for b in self.B],
                "C": [[c.real, c.imag] for c in self.C]}

    @classmethod
    def from_dict(cls, d):
        pair = lambda v: complex(v[0], v[1])
        return cls(genus=int(d["genus"]),
                   A=tuple(pair(v) for v in d["A"]),
                   B=tuple(pair(v) for v in d["B"]),
                   C=tuple(pair(v) for v in d.get("C", [])))


def _lattice_distance(dz, A, B):
    """Distance from dz to the lattice Z A + Z B."""
    M = np.array([[A.real, B.real], [A.imag, B.imag]])
    st = np.linalg.solve(M, [dz.real, dz.imag])
    best = np.inf
    for ds in (-1, 0, 1):
        for dt in (-1, 0, 1):
            n = np.round(st) + [ds, dt]
            w = dz - (n[0] * A + n[1] * B)
            best = min(best, abs(w))
    return best


@dataclass(frozen=True)
class Slit:
    """Straight cut [c_start, c_end] shared by tori torus_a < torus_b."""
    index: int
    torus_a: int
    torus_b: int
    c_start: complex
    c_end: complex

    @property
    def length(self):
        return abs(self.c_end - self.c_start)

    @property
    def direction(self):
        return (self.c_end - self.c_start) / self.length


@dataclass(frozen=True)
class ConePoint:
    """Cone point of angle 4*pi at a slit endpoint."""
    index: int
    position: complex
    slit_index: int
    end: int                 # 0: c_start, 1: c_end
    incident_tori: tuple
    theta_ray: float         # direction of the slit ray at this endpoint
    angle: float = 4.0 * math.pi


@dataclass
class TranslationSurface:
    moduli: ModuliPoint
    tori: list                      # [(A_j, B_j)]
    slits: list                     # [Slit]
    cone_points: list               # [ConePoint]
    anchors: list = field(default_factory=list)   # fundamental-domain anchors e_j

    @property
    def genus(self):
        return self.moduli.genus

    def to_dict(self):
        d = self.moduli.to_dict()
        d["cone_points"] = [{"position": [c.position.real, c.position.imag],
                             "slit": c.slit_index, "end": c.end,
                             "tori": list(c.incident_tori),
                             "angle": c.angle} for c in self.cone_points]
        return d


def build_surface(m: ModuliPoint) -> TranslationSurface:
    """Assemble the glued-slit-tori surface for the moduli point m.

    For g = 1 no slits are created (torus mode).  The a/b periods of omega
    are the stored A_j, B_j by construction; slit endpoints are the stored
    C-coordinates.
    """
    m.validate()
    g = m.genus
    tori = [(m.A[j], m.B[j]) for j in range(g)]
    slits, cones = [], []
    for j in range(g - 1):
        s = Slit(index=j, torus_a=j, torus_b=j + 1,
                 c_start=m.C[2 * j], c_end=m.C[2 * j + 1])
        slits.append(s)
        for end, pos in ((0, s.c_start), (1, s.c_end)):
            ray = s.direction if end == 0 else -s.direction
            cones.append(ConePoint(index=len(cones), position=complex(pos),
                                   slit_index=j, end=end,
                                   incident_tori=(s.torus_a, s.torus_b),
                                   theta_ray=float(np.angle(ray))))
    # fundamental-domain anchors: centre the domain on the torus's slit(s)
    anchors = []
    for j in range(g):
        local = [sl for sl in slits if j in (sl.torus_a, sl.torus_b)]
        if local:
            mid = sum(0.5 * (sl.c_start + sl.c_end) for sl in local) / len(local)
        else:
            mid = 0.0
        anchors.append(mid - 0.5 * m.A[j] - 0.5 * m.B[j])
    surf = TranslationSurface(moduli=m, tori=tori, slits=slits,
                              cone_points=cones, anchors=anchors)
    _check_slits_interior(surf)
    return surf


def _torus_st(surf, j, z):
    """Lattice coordinates (s, t) of z relative to torus j's anchored domain."""
    a, b = surf.tori[j]
    w = complex(z) - surf.anchors[j]
    M = np.array([[a.real, b.real], [a.imag, b.imag]])
    st = np.linalg.solve(M, [w.real, w.imag])
    return float(st[0]), float(st[1])


def _check_slits_interior(surf, margin=0.12):
    for sl in surf.slits:
        for j in (sl.torus_a, sl.torus_b):
            for z in (sl.c_start, sl.c_end):
                s, t = _torus_st(surf, j, z)
                if not (margin < s < 1 - margin and margin < t < 1 - margin):
                    raise InvalidModuliError(
                        "slit %d does not fit inside the fundamental domain of "
                        "torus %d with margin; such moduli are out of scope" %
                        (sl.index, j))
        # disjointness of slits sharing a torus
        for other in surf.slits:
            if other.index <= sl.index:
                continue
            shared = set((sl.torus_a, sl.torus_b)) & set((other.torus_a, other.torus_b))
            if shared:
                d = _segment_distance(sl.c_start, sl.c_end, other.c_start, other.c_end)
                if d < 1e-9:
                    raise InvalidModuliError("overlapping slits %d, %d"
                                             % (sl.index, other.index))


def _segment_distance(a0, a1, b0, b1):
    def pt_seg(p, q0, q1):
        d = q1 - q0
        u = np.clip(((p - q0) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
        return abs(p - (q0 + u * d))
    return min(pt_seg(a0, b0, b1), pt_seg(a1, b0, b1),
               pt_seg(b0, a0, a1), pt_seg(b1, a0, a1))


def flat_area(surf: TranslationSurface) -> float:
    """Total area of (X, |omega|^2) = -Im sum_k A_k conj(B_k)."""
    return float(-sum((a * np.conj(b)).imag for a, b in surf.tori))


# ---------------------------------------------------------------------------
# mesh data structures

@dataclass
class ConePatch:
    """Graded polar neighbourhood of one cone point inside the mesh."""
    cone: ConePoint
    center_vertex: int
    sheet_tori: tuple            # (torus covering phi in [0,2pi), torus for [2pi,4pi))
    ring_radii: list             # outermost first
    ring_slots: list             # per ring: list of (vertex, phi, torus) of length 2*n_ang
    n_ang: int

    @property
    def outer_radius(self):
        return self.ring_radii[0]


class EdgeTable:
    """Oriented edges of a closed triangle mesh.

    edges: (ne, 2) the unique undirected edges (u < v), sorted
        lexicographically; cochains are arrays over this order.
    index, sign: (nt, 3) the edge of the side from corner c to corner c + 1
        of each triangle, and +1 where that side runs from edges[:, 0] to
        edges[:, 1], -1 where it runs back.
    slots: (ne, 2) the two sides 3 t + c of each edge, ascending.
    """

    def __init__(self, triangles, n_vertices):
        heads = np.roll(triangles, -1, axis=1)
        keys = (np.minimum(triangles, heads) * n_vertices
                + np.maximum(triangles, heads)).ravel()
        self._keys, inverse = np.unique(keys, return_inverse=True)
        if np.any(np.bincount(inverse) != 2):
            raise MeshConformityError("an edge is not shared by exactly two "
                                      "triangle sides")
        self.n_vertices = n_vertices
        self.edges = np.column_stack([self._keys // n_vertices,
                                      self._keys % n_vertices])
        self.index = inverse.reshape(triangles.shape)
        self.sign = np.where(triangles < heads, 1, -1).astype(np.int8)
        self.slots = np.argsort(inverse, kind="stable").reshape(-1, 2)

    def lookup(self, tails, heads):
        """Edge index and orientation sign of each step tails[i] -> heads[i];
        raises KeyError at a step that is not a mesh edge."""
        tails, heads = np.asarray(tails), np.asarray(heads)
        keys = (np.minimum(tails, heads) * self.n_vertices
                + np.maximum(tails, heads))
        idx = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        missing = self._keys[idx] != keys
        if np.any(missing):
            k = int(np.argmax(missing))
            raise KeyError((int(tails[k]), int(heads[k])))
        return idx, np.where(tails < heads, 1, -1)


@dataclass
class SpinMesh:
    surface: TranslationSurface
    vertices: np.ndarray          # (nv, 2) representative planar coordinates
    vertex_chart: np.ndarray      # (nv,) chart (torus) id of the representative
    triangles: np.ndarray         # (nt, 3) global vertex ids, ccw in chart
    tri_chart: np.ndarray         # (nt,)
    tri_pos: np.ndarray           # (nt, 3) complex corner positions, unwrapped
    tri_wrap: np.ndarray          # (nt, 3, 2) lattice unwrap offsets per corner
    tri_slit_sign: np.ndarray     # (nt, 3) +1, or -1 when the corner dof lives
                                  # across the sign-flipping slit gluing
    cone_patches: list            # [ConePatch]
    slit_chains: list             # per slit: dict with the two vertex chains
    h: float
    grading: float
    cycle_paths: list = None      # per torus: {'a': [v...], 'b': [v...]}
    structure: dict = None        # frozen discrete counts (see generate_mesh)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def genus(self):
        return self.surface.genus

    @cached_property
    def edge_table(self):
        """The oriented edge table (EdgeTable) that indexes every cochain."""
        return EdgeTable(self.triangles, self.n_vertices)

    def edges(self):
        """Sorted unique undirected edges as an (ne, 2) array."""
        return self.edge_table.edges

    def edge_vectors(self):
        """omega along each table edge, from edges[:, 0] to edges[:, 1], read
        off the corner positions of the edge's first triangle side (exact
        across the fundamental-domain seams)."""
        table = self.edge_table
        sides = (np.roll(self.tri_pos, -1, axis=1) - self.tri_pos) * table.sign
        return sides.ravel()[table.slots[:, 0]]

    def triangle_areas(self):
        p = self.tri_pos
        cr = ((p[:, 1] - p[:, 0]) * np.conj(p[:, 2] - p[:, 0])).imag
        return 0.5 * np.abs(cr)

    def signed_areas(self):
        p = self.tri_pos
        return 0.5 * ((np.conj(p[:, 1] - p[:, 0]) * (p[:, 2] - p[:, 0])).imag)

    def cone_vertex_ids(self):
        return [p.center_vertex for p in self.cone_patches]

    def to_dict(self):
        d = self.surface.to_dict()
        d["vertices"] = [[float(v[0]), float(v[1])] for v in self.vertices]
        d["triangles"] = self.triangles.tolist()
        return d

    def save_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)


def distinguished_chart(surf: TranslationSurface, k: int, q, mesh=None):
    """Distinguished coordinate x_k at cone point k for q = (torus, z, sheet_hint).

    q may be a tuple (torus_id, z) or (torus_id, z, sheet) where sheet in
    {0, 1} resolves points on the branch ray.  Returns x with x^2/2 equal to
    the local flat coordinate z - P_k; the branch cut lies along the slit ray,
    and arg x = theta_ray/2 on the ray of the sheet-0 flank (theta_ray = 0 for
    the start endpoint of a horizontal slit, making x real positive there).
    """
    cone = surf.cone_points[k]
    if isinstance(q, tuple) and len(q) >= 2:
        torus_id, z = q[0], complex(q[1])
        sheet = q[2] if len(q) > 2 else None
    else:
        raise ValueError("q must be (torus_id, z[, sheet])")
    if torus_id not in cone.incident_tori:
        raise OutOfChartError("point's torus is not incident to this cone")
    zeta = z - cone.position
    r = abs(zeta)
    sl = surf.slits[cone.slit_index]
    if r > 0.49 * sl.length:
        raise OutOfChartError("point outside the double-disk chart")
    sheet0, sheet1 = _sheet_tori(cone, surf)
    flag = 0 if torus_id == sheet0 else 1
    if sheet is not None:
        flag = int(sheet)
    delta = (np.angle(zeta) - cone.theta_ray) % (2.0 * math.pi)
    phi = delta + 2.0 * math.pi * flag
    return math.sqrt(2.0 * r) * np.exp(0.5j * (phi + cone.theta_ray))


def _sheet_tori(cone: ConePoint, surf: TranslationSurface):
    """(torus for phi in [0,2pi), torus for [2pi,4pi)) at this cone.

    The angular origin sits on the sign-flipping gluing curve; at the start
    endpoint that curve opens into torus_a, at the end endpoint into torus_b.
    """
    sl = surf.slits[cone.slit_index]
    if cone.end == 0:
        return (sl.torus_a, sl.torus_b)
    return (sl.torus_b, sl.torus_a)


# ---------------------------------------------------------------------------
# mesh generation

def generate_mesh(surf: TranslationSurface, h: float, grading: float = None,
                  rings: int = None, n_ang: int = None,
                  structure: dict = None) -> SpinMesh:
    """Conforming mesh of the glued surface with graded cone refinement.

    h is the target mesh size in |omega| length units; grading in (0, 1) is
    the geometric ratio of consecutive cone-ring radii.  By default grading
    = 1 - h/r0 (clipped to [0.60, 0.82]), which keeps the patch triangles at
    aspect ratio ~1 and lets the discrete cone-trace constant converge under
    refinement (a fixed self-similar patch would leave an h-independent
    bias); ring count and angular resolution follow so the innermost ring
    radius is ~0.75 h and ring spacing matches h.

    `structure` (as stored on a previously built mesh) freezes all discrete
    counts (grid sizes, slit node counts, ring counts, radii); passing the
    structure of a base mesh to nearby moduli gives topologically identical
    meshes whose discretization errors cancel in finite differences.
    """
    if h <= 0 or (grading is not None and not (0 < grading < 1)):
        raise ValueError("h > 0 and grading in (0, 1) required")
    for a, b in surf.tori:
        if h > 0.34 * min(abs(a), abs(b)):
            raise MeshResolutionError("h too large for the torus dimensions")
    for sl in surf.slits:
        if sl.length < 4.0 * h:
            raise MeshResolutionError("h too large to resolve slit %d" % sl.index)
    if surf.genus == 1:
        return _torus_mesh(surf, h, grading or 0.7, structure)
    return _glued_mesh(surf, h, grading, rings, n_ang, structure)


def _torus_mesh(surf, h, grading, structure=None):
    """Structured union-jack mesh of a single torus (no cone points)."""
    a, b = surf.tori[0]
    if structure is not None:
        ns, nt = structure["grid"][0]
    else:
        ns = max(4, round(abs(a) / h))
        nt = max(4, round(abs(b) / h))
    anchor = surf.anchors[0]
    idx = lambda i, k: (i % ns) * nt + (k % nt)
    pos = lambda i, k: anchor + (i / ns) * a + (k / nt) * b
    verts = np.array([[pos(i, k).real, pos(i, k).imag]
                      for i in range(ns) for k in range(nt)])
    tris, tpos, twrap = [], [], []

    def corner_wrap(i, k):
        return (i // ns if i >= 0 else -((-i + ns - 1) // ns),
                k // nt if k >= 0 else -((-k + nt - 1) // nt))

    for i in range(ns):
        for k in range(nt):
            c = [(i, k), (i + 1, k), (i + 1, k + 1), (i, k + 1)]
            diag = (i + k) % 2
            quads = ([c[0], c[1], c[2]], [c[0], c[2], c[3]]) if diag == 0 else \
                    ([c[0], c[1], c[3]], [c[1], c[2], c[3]])
            for tri in quads:
                tris.append([idx(*p) for p in tri])
                tpos.append([pos(*p) for p in tri])
                twrap.append([corner_wrap(*p) for p in tri])
    mesh = SpinMesh(surface=surf,
                    vertices=verts,
                    vertex_chart=np.zeros(len(verts), dtype=int),
                    triangles=np.array(tris, dtype=int),
                    tri_chart=np.zeros(len(tris), dtype=int),
                    tri_pos=np.array(tpos, dtype=complex),
                    tri_wrap=np.array(twrap, dtype=np.int8),
                    tri_slit_sign=np.ones((len(tris), 3), dtype=np.int8),
                    cone_patches=[], slit_chains=[],
                    h=h, grading=grading)
    mesh.cycle_paths = _torus_cycle_paths(ns, nt, idx)
    mesh.structure = {"grid": {0: (ns, nt)}}
    validate_mesh(mesh)
    return mesh


def _torus_cycle_paths(ns, nt, idx):
    a_path = [idx(i, 1) for i in range(ns)] + [idx(0, 1)]
    b_path = [idx(1, k) for k in range(nt)] + [idx(1, 0)]
    return [{"a": a_path, "b": b_path}]


# -- glued multi-torus mesh ---------------------------------------------------

def _slit_node_params(sl, h, r0, grading, rings, n_mid=None):
    """Distances from c_start along the slit for the shared node chain."""
    L = sl.length
    head = [r0 * grading ** m for m in range(rings)][::-1]   # increasing
    lo = head[-1]
    mid_lo, mid_hi = lo, L - lo
    if n_mid is None:
        n_mid = max(2, int(round((mid_hi - mid_lo) / h)))
    mid = list(np.linspace(mid_lo, mid_hi, n_mid + 1))[1:-1]
    tail = [L - d for d in head][::-1]
    return np.array(head + mid + tail), n_mid


def _glued_mesh(surf, h, grading, rings, n_ang, structure=None):
    g = surf.genus
    if structure is not None:
        r0s = dict(structure["r0"])
        rings = structure["rings"]
        n_ang = structure["n_ang"]
        n_mids = dict(structure["n_mid"])
        grid = dict(structure["grid"])
        if grading is None:
            grading = structure.get("grading",
                                    float(np.clip(1.0 - h / min(r0s.values()),
                                                  0.60, 0.82)))
    else:
        r0s, n_mids, grid = {}, {}, {}
        for sl in surf.slits:
            r0 = max(2.5 * h, min(10.0 * h, 0.30 * sl.length))
            r0 = min(r0, 0.38 * sl.length)
            if r0 < 2.0 * h:
                raise MeshResolutionError("slit %d too short for cone rings" % sl.index)
            r0s[sl.index] = r0
        r0_min = min(r0s.values())
        if grading is None:
            grading = float(np.clip(1.0 - h / r0_min, 0.60, 0.82))
        if rings is None:
            rings = max(3, int(math.ceil(math.log(0.75 * h / r0_min) / math.log(grading))))
        if n_ang is None:
            n_ang = int(np.clip(round(2.0 * math.pi * max(r0s.values()) / h), 12, 48))
        for j in range(g):
            a, b = surf.tori[j]
            grid[j] = (max(6, 2 * round(abs(a) / (2 * h))),
                       max(6, 2 * round(abs(b) / (2 * h))))

    slit_params = {}
    for sl in surf.slits:
        slit_params[sl.index], n_mids[sl.index] = _slit_node_params(
            sl, h, r0s[sl.index], grading, rings, n_mids.get(sl.index))
    kept_sets = {}

    # per-torus point sets; slit/ring/cone points carry tags for later lookup
    torus_pts = []           # list of (complex position, tag) per torus
    for j in range(g):
        a, b = surf.tori[j]
        anchor = surf.anchors[j]
        pts = []
        local_slits = [sl for sl in surf.slits if j in (sl.torus_a, sl.torus_b)]

        for sl in local_slits:
            dirn = sl.direction
            dists = slit_params[sl.index]
            for m, d in enumerate(dists):
                pts.append((sl.c_start + d * dirn, ("slit", sl.index, m)))
            pts.append((sl.c_start, ("cone", _cone_id(surf, sl.index, 0))))
            pts.append((sl.c_end, ("cone", _cone_id(surf, sl.index, 1))))
            for end, cen in ((0, sl.c_start), (1, sl.c_end)):
                cid = _cone_id(surf, sl.index, end)
                theta = surf.cone_points[cid].theta_ray
                for m in range(rings):
                    r = r0s[sl.index] * grading ** m
                    for i in range(1, n_ang):
                        ang = theta + 2.0 * math.pi * i / n_ang
                        pts.append((cen + r * np.exp(1j * ang),
                                    ("ring", cid, m, i)))

        # structured grid, offset by half a cell, protected near slits/rings.
        # A deterministic sub-h jitter breaks the cocircular degeneracy of
        # perfect squares (otherwise the periodic-tiling Delaunay may split
        # tile copies along different diagonals).
        ns, ntv = grid[j]
        rng = np.random.default_rng(90011 + 7 * j)
        jit = rng.uniform(-0.09, 0.09, size=(ns, ntv, 2))
        frozen_kept = None if structure is None else structure["kept"][j]
        kept = []
        for i in range(ns):
            for k in range(ntv):
                z = anchor + ((i + 0.5 + jit[i, k, 0]) / ns) * a \
                    + ((k + 0.5 + jit[i, k, 1]) / ntv) * b
                if frozen_kept is not None:
                    if (i, k) not in frozen_kept:
                        continue
                elif _protected(z, local_slits, slit_params, r0s, h, n_ang):
                    continue
                kept.append((i, k))
                pts.append((z, ("grid", i, k)))
        kept_sets[j] = frozenset(kept)
        torus_pts.append(pts)

    tris_out = {}
    mesh = _assemble_glued(surf, torus_pts, slit_params, r0s,
                           h, grading, rings, n_ang,
                           frozen_tris=None if structure is None
                           else structure.get("tris"),
                           tris_out=tris_out)
    mesh.structure = {"r0": r0s, "rings": rings, "n_ang": n_ang,
                      "grading": grading,
                      "n_mid": n_mids, "grid": grid, "kept": kept_sets,
                      "tris": (structure["tris"] if structure is not None
                               and "tris" in structure else tris_out)}
    return mesh


def _cone_id(surf, slit_index, end):
    for c in surf.cone_points:
        if c.slit_index == slit_index and c.end == end:
            return c.index
    raise KeyError


def _protected(z, slits, slit_params, r0s, h, n_ang):
    for sl in slits:
        L = sl.length
        dirn = sl.direction
        u = ((z - sl.c_start) * np.conj(dirn)).real
        d_perp = abs(z - sl.c_start - np.clip(u, 0.0, L) * dirn)
        # protection radius near the chain: local spacing along the slit
        dists = slit_params[sl.index]
        if -2 * h < u < L + 2 * h:
            i = np.searchsorted(dists, np.clip(u, 0.0, L))
            lo = dists[max(0, i - 1)]
            hi = dists[min(len(dists) - 1, i)]
            spacing = max(hi - lo, 1e-12) if hi > lo else h
            if d_perp < 0.75 * min(spacing, h):
                return True
        for cen in (sl.c_start, sl.c_end):
            r0 = r0s[sl.index]
            if abs(z - cen) < r0 + 0.7 * min(h, 2 * math.pi * r0 / n_ang):
                return True
    return False


def _assemble_glued(surf, torus_pts, slit_params, r0s, h, grading, rings, n_ang,
                    frozen_tris=None, tris_out=None):
    g = surf.genus

    # ----- global vertex allocation
    verts, vchart = [], []

    def new_vertex(z, chart):
        verts.append([z.real, z.imag])
        vchart.append(chart)
        return len(verts) - 1

    cone_vid = {}
    for c in surf.cone_points:
        cone_vid[c.index] = new_vertex(c.position, c.incident_tori[0])
    # interior slit nodes: two global copies each (crosswise identification)
    slit_vid = {}            # (slit, m, copy) -> vertex; copy 0: (Ta+)=(Tb-), 1: (Ta-)=(Tb+)
    for sl in surf.slits:
        for m, d in enumerate(slit_params[sl.index]):
            z = sl.c_start + d * sl.direction
            slit_vid[(sl.index, m, 0)] = new_vertex(z, sl.torus_a)
            slit_vid[(sl.index, m, 1)] = new_vertex(z, sl.torus_a)

    # ----- per-torus triangulation with 3x3 periodic tiling
    tris, tchart, tpos, twrap = [], [], [], []
    local_vid = {}           # (torus, local tag) -> global vertex for regular points
    for j in range(g):
        pts = torus_pts[j]
        a, b = surf.tori[j]
        base = np.array([z for z, _ in pts])
        tags = [tag for _, tag in pts]
        npts = len(base)

        gids = np.empty(npts, dtype=int)
        for i, tag in enumerate(tags):
            if tag[0] == "cone":
                gids[i] = cone_vid[tag[1]]
            elif tag[0] == "slit":
                gids[i] = -1           # resolved per triangle by slit side
            else:
                gids[i] = new_vertex(base[i], j)
                local_vid[(j, tag)] = gids[i]

        offsets = [(di, dk) for di in (-1, 0, 1) for dk in (-1, 0, 1)]
        if frozen_tris is None:
            tiled = np.concatenate([base + di * a + dk * b for di, dk in offsets])
            xy = np.column_stack([tiled.real, tiled.imag])
            dt = Delaunay(xy)
            M = np.array([[a.real, b.real], [a.imag, b.imag]])
            Minv = np.linalg.inv(M)
            anchor = surf.anchors[j]
            # keep the simplices whose centroid lies in the base tile, in
            # Delaunay order, oriented counter-clockwise
            simplices = dt.simplices
            corner_pos = tiled[simplices]                        # (S, 3)
            zc = corner_pos.mean(axis=1)
            x, y = zc.real - anchor.real, zc.imag - anchor.imag
            # written out: a matrix product may fuse multiply-adds, which
            # moves centroids on the tile boundary across it
            u = Minv[0, 0] * x + Minv[0, 1] * y
            v = Minv[1, 0] * x + Minv[1, 1] * y
            inside = (0.0 <= u) & (u < 1.0) & (0.0 <= v) & (v < 1.0)
            d1 = corner_pos[:, 1] - corner_pos[:, 0]
            d2 = corner_pos[:, 2] - corner_pos[:, 0]
            ccw = d1.real * d2.imag - d1.imag * d2.real > 0
            in_tile = np.where(ccw[:, None], simplices, simplices[:, [0, 2, 1]])[inside]
            combi = [tuple((c % npts, offsets[c // npts]) for c in row)
                     for row in in_tile.tolist()]
        else:
            combi = frozen_tris[j]
        if tris_out is not None:
            tris_out[j] = combi

        for corners in combi:
            corner_pos = np.array([base[li] + di * a + dk * b
                                   for li, (di, dk) in corners])
            centroid = corner_pos.mean()
            ids = []
            for (li, (di, dk)), zpos in zip(corners, corner_pos):
                tag = tags[li]
                if tag[0] == "slit":
                    sl = surf.slits[tag[1]]
                    node = sl.c_start + slit_params[tag[1]][tag[2]] * sl.direction
                    # triangles live in the tiled plane; compare in-tile
                    tile_shift = zpos - base[li]
                    side = (np.conj(sl.direction) * (centroid - tile_shift - node)).imag
                    copy = 0 if ((side > 0) == (j == sl.torus_a)) else 1
                    ids.append(slit_vid[(tag[1], tag[2], copy)])
                else:
                    ids.append(int(gids[li]))
            tris.append(ids)
            tchart.append(j)
            tpos.append(list(corner_pos))
            twrap.append([off for _, off in corners])

    tris = np.array(tris, dtype=int)
    if tris.min() < 0:
        raise MeshConformityError("unresolved slit vertex in triangulation")

    # slit-gluing dof signs: a torus_b corner using a copy-0 vertex flips sign
    slit_of_v, copy_of_v = {}, {}
    for (s, m, c), vid in slit_vid.items():
        slit_of_v[vid] = s
        copy_of_v[vid] = c
    tslit = np.ones(tris.shape, dtype=np.int8)
    for t in range(len(tris)):
        j = tchart[t]
        for c in range(3):
            v = int(tris[t, c])
            if copy_of_v.get(v) == 0 and j == surf.slits[slit_of_v[v]].torus_b:
                tslit[t, c] = -1

    mesh = SpinMesh(surface=surf,
                    vertices=np.array(verts),
                    vertex_chart=np.array(vchart, dtype=int),
                    triangles=tris,
                    tri_chart=np.array(tchart, dtype=int),
                    tri_pos=np.array(tpos, dtype=complex),
                    tri_wrap=np.array(twrap, dtype=np.int8),
                    tri_slit_sign=tslit,
                    cone_patches=[], slit_chains=[],
                    h=h, grading=grading)
    mesh.cone_patches = _build_cone_patches(surf, mesh, local_vid, slit_vid,
                                            slit_params, r0s, rings, n_ang, cone_vid)
    mesh.slit_chains = _build_slit_chains(surf, slit_vid, slit_params)
    mesh.cycle_paths = _find_cycle_paths(surf, mesh, local_vid)
    validate_mesh(mesh)
    return mesh


def _build_slit_chains(surf, slit_vid, slit_params):
    chains = []
    for sl in surf.slits:
        n = len(slit_params[sl.index])
        chains.append({
            "slit": sl.index,
            "copy0": [slit_vid[(sl.index, m, 0)] for m in range(n)],
            "copy1": [slit_vid[(sl.index, m, 1)] for m in range(n)],
        })
    return chains


def _build_cone_patches(surf, mesh, local_vid, slit_vid, slit_params,
                        r0s, rings, n_ang, cone_vid):
    patches = []
    for cone in surf.cone_points:
        sl = surf.slits[cone.slit_index]
        r0 = r0s[sl.index]
        sheet0, sheet1 = _sheet_tori(cone, surf)
        dists = slit_params[sl.index]
        nchain = len(dists)
        radii, slots_all = [], []
        for m in range(rings):
            r = r0 * (mesh.grading ** m)
            radii.append(r)
            # slit-node index at distance r from this endpoint
            if cone.end == 0:
                chain_m = rings - 1 - m
            else:
                chain_m = nchain - rings + m
            w1 = slit_vid[(sl.index, chain_m, 0)]
            w2 = slit_vid[(sl.index, chain_m, 1)]
            slots = [(w1, 0.0, sheet0)]
            for i in range(1, n_ang):
                v = local_vid[(sheet0, ("ring", cone.index, m, i))]
                slots.append((v, 2.0 * math.pi * i / n_ang, sheet0))
            slots.append((w2, 2.0 * math.pi, sheet1))
            for i in range(1, n_ang):
                v = local_vid[(sheet1, ("ring", cone.index, m, i))]
                slots.append((v, 2.0 * math.pi * (1.0 + i / n_ang), sheet1))
            slots_all.append(slots)
        patches.append(ConePatch(cone=cone, center_vertex=cone_vid[cone.index],
                                 sheet_tori=(sheet0, sheet1),
                                 ring_radii=radii, ring_slots=slots_all,
                                 n_ang=n_ang))
    return patches


def _torus_graph_data(mesh):
    """Per-torus regular-zone vertex graph with seam-wrap edge labels."""
    from collections import defaultdict
    if getattr(mesh, "_torus_graph", None) is not None:
        return mesh._torus_graph
    edges_by_torus = defaultdict(set)
    wrap_of_edge = {}
    slitish = set()
    for p in mesh.cone_patches:
        slitish.add(p.center_vertex)
        for slots in p.ring_slots:
            slitish.update(v for v, _, _ in slots)
    for ch in mesh.slit_chains:
        slitish.update(ch["copy0"])
        slitish.update(ch["copy1"])
    for t in range(mesh.n_triangles):
        j = int(mesh.tri_chart[t])
        tri = mesh.triangles[t]
        for c in range(3):
            u, v = int(tri[c]), int(tri[(c + 1) % 3])
            du = mesh.tri_wrap[t, (c + 1) % 3] - mesh.tri_wrap[t, c]
            edges_by_torus[j].add((u, v))
            wrap_of_edge[(u, v)] = (int(du[0]), int(du[1]))
            wrap_of_edge[(v, u)] = (-int(du[0]), -int(du[1]))
    mesh._torus_graph = (edges_by_torus, wrap_of_edge, slitish)
    return mesh._torus_graph


def find_torus_cycle(mesh, torus, which, allowed=None, vertex_cost=None):
    """Vertex cycle homologous to a_j ('a') or b_j ('b') in torus j, staying
    in the regular zone.  `allowed` optionally masks vertices; `vertex_cost`
    (array) switches to a Dijkstra search minimizing the summed cost, e.g. to
    route the cycle away from zeros of some field."""
    from collections import defaultdict
    edges_by_torus, wrap_of_edge, slitish = _torus_graph_data(mesh)
    adj = defaultdict(list)
    for (u, v) in edges_by_torus[torus]:
        if u in slitish or v in slitish:
            continue
        if allowed is not None and not (allowed[u] and allowed[v]):
            continue
        adj[u].append(v)
    if not adj:
        return None
    if vertex_cost is None:
        seed = next(iter(sorted(adj)))
        return _lifted_cycle(adj, wrap_of_edge, seed, 0 if which == "a" else 1)
    seeds = sorted(adj, key=lambda v: vertex_cost[v])[:1]
    return _lifted_cycle_dijkstra(adj, wrap_of_edge, seeds[0],
                                  0 if which == "a" else 1, vertex_cost)


def _lifted_cycle_dijkstra(adj, wrap_of_edge, seed, axis, cost):
    import heapq
    start = (seed, 0, 0)
    target = (seed, 1, 0) if axis == 0 else (seed, 0, 1)
    dist = {start: 0.0}
    prev = {start: None}
    heap = [(0.0, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == target:
            path = []
            while node is not None:
                path.append(node[0])
                node = prev[node]
            return path[::-1]
        if d > dist.get(node, math.inf):
            continue
        u, ws, wt = node
        for v in adj[u]:
            dw = wrap_of_edge[(u, v)]
            nxt = (v, ws + dw[0], wt + dw[1])
            if abs(nxt[1]) > 1 or abs(nxt[2]) > 1:
                continue
            nd = d + cost[v]
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                prev[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    return None


def _find_cycle_paths(surf, mesh, local_vid):
    """Default a/b vertex cycles per torus."""
    paths = []
    for j in range(surf.genus):
        res = {}
        for name in ("a", "b"):
            res[name] = find_torus_cycle(mesh, j, name)
            if res[name] is None:
                raise MeshConformityError("no %s-cycle found in torus %d" % (name, j))
        paths.append(res)
    return paths


def _lifted_cycle(adj, wrap_of_edge, seed, axis):
    """BFS in the Z-cover: find a path seed -> seed with net wrap +1 along
    `axis` and 0 along the other axis."""
    from collections import deque
    start = (seed, 0, 0)
    prev = {start: None}
    dq = deque([start])
    target = (seed, 1, 0) if axis == 0 else (seed, 0, 1)
    while dq:
        node = dq.popleft()
        if node == target:
            path = []
            while node is not None:
                path.append(node[0])
                node = prev[node]
            return path[::-1]
        u, ws, wt = node
        for v in adj[u]:
            dw = wrap_of_edge[(u, v)]
            nxt = (v, ws + dw[0], wt + dw[1])
            if abs(nxt[1]) > 1 or abs(nxt[2]) > 1 or nxt in prev:
                continue
            prev[nxt] = node
            dq.append(nxt)
    return None


# ---------------------------------------------------------------------------
# validation

def validate_mesh(mesh: SpinMesh, min_angle_deg: float = 20.0):
    """Structural checks: conformity, Euler characteristic, positive areas,
    4*pi cone angles, triangle quality away from cone patches."""
    from collections import Counter
    tris = mesh.triangles
    edge_count = Counter()
    for t in range(len(tris)):
        for c in range(3):
            u, v = int(tris[t, c]), int(tris[t, (c + 1) % 3])
            edge_count[(min(u, v), max(u, v))] += 1
    bad = [e for e, n in edge_count.items() if n != 2]
    if bad:
        raise MeshConformityError("%d non-conforming edges, e.g. %s"
                                  % (len(bad), bad[:3]))
    nv = mesh.n_vertices
    ne = len(edge_count)
    nf = mesh.n_triangles
    chi = nv - ne + nf
    if chi != 2 - 2 * mesh.genus:
        raise MeshConformityError("Euler characteristic %d != %d"
                                  % (chi, 2 - 2 * mesh.genus))
    if np.any(mesh.signed_areas() <= 0):
        raise MeshConformityError("non-ccw or degenerate triangle")

    for patch in mesh.cone_patches:
        total = _angle_sum_at(mesh, patch.center_vertex)
        if abs(total - 4.0 * math.pi) > 1e-10:
            raise MeshConformityError("cone angle %.12f != 4 pi" % total)

    # quality away from cone patches
    in_patch = set()
    for p in mesh.cone_patches:
        in_patch.add(p.center_vertex)
        for slots in p.ring_slots:
            in_patch.update(v for v, _, _ in slots)
    min_angle = math.inf
    for t in range(mesh.n_triangles):
        if any(int(v) in in_patch for v in mesh.triangles[t]):
            continue
        p = mesh.tri_pos[t]
        for c in range(3):
            u = p[(c + 1) % 3] - p[c]
            w = p[(c + 2) % 3] - p[c]
            ang = abs(np.angle(w / u))
            min_angle = min(min_angle, ang)
    if min_angle < math.radians(min_angle_deg) * 0.75:
        raise MeshConformityError("bulk min angle %.2f deg below threshold"
                                  % math.degrees(min_angle))
    return {"min_bulk_angle_deg": math.degrees(min_angle) if min_angle < math.inf else 60.0,
            "n_vertices": nv, "n_edges": ne, "n_triangles": nf}


def _angle_sum_at(mesh, vertex):
    total = 0.0
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        for c in range(3):
            if int(tri[c]) == vertex:
                p = mesh.tri_pos[t]
                u = p[(c + 1) % 3] - p[c]
                w = p[(c + 2) % 3] - p[c]
                total += abs(np.angle(w / u))
    return total


def patch_triangle_ids(mesh: SpinMesh, k: int, radius: float):
    """Ids of the triangles around cone k: charted on one of the cone's
    incident tori, with every corner within radius of the cone point."""
    cone = mesh.cone_patches[k].cone
    near = np.max(np.abs(mesh.tri_pos - cone.position), axis=1) <= radius
    return np.flatnonzero(near & np.isin(mesh.tri_chart, cone.incident_tori))


def cone_patch_triangles(mesh: SpinMesh, radius_factor: float = 1.02):
    """Per cone patch, the triangles inside it with their corner coordinates
    in the distinguished chart.

    Returns a list (one entry per patch) of pairs (ids, x_corners): the
    triangles within radius_factor times the patch's outer radius, and their
    (n, 3) corner positions in the x-chart (x^2/2 = z - P, sheet-aware,
    branch cut along the slit ray).  Corners on the ray are disambiguated by
    the triangle side; the cone vertex maps to 0.
    """
    out = []
    for k, patch in enumerate(mesh.cone_patches):
        cone = patch.cone
        ids = patch_triangle_ids(mesh, k, patch.outer_radius * radius_factor)
        zeta = mesh.tri_pos[ids] - cone.position
        r = np.hypot(zeta.real, zeta.imag)
        sheet = mesh.tri_chart[ids] != patch.sheet_tori[0]
        left_of_ray = (zeta.mean(axis=1) / np.exp(1j * cone.theta_ray)).imag > 0
        delta = (np.angle(zeta) - cone.theta_ray) % (2.0 * math.pi)
        on_ray = np.minimum(delta, 2.0 * math.pi - delta) < 1e-9
        delta = np.where(on_ray, np.where(left_of_ray, 0.0, 2.0 * math.pi)[:, None],
                         delta)
        phi = delta + 2.0 * math.pi * sheet[:, None]
        x = np.sqrt(2.0 * r) * np.exp(0.5j * (phi + cone.theta_ray))
        x[r < 1e-14] = 0.0
        out.append((ids, x))
    return out


def cycle_period(mesh: SpinMesh, path) -> complex:
    """Integral of omega along a mesh vertex path (sum of edge increments).

    Edge increments are taken from triangle corner positions, so wraps across
    the fundamental-domain seams are handled exactly.
    """
    path = np.asarray(path)
    idx, sign = mesh.edge_table.lookup(path[:-1], path[1:])
    return complex(np.sum(sign * mesh.edge_vectors()[idx]))
