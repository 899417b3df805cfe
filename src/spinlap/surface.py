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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra
from scipy.spatial import Delaunay

from .errors import SpinlapError


class InvalidModuliError(SpinlapError, ValueError):
    """Moduli violate the lattice/slit invariants."""


class MeshResolutionError(SpinlapError, ValueError):
    """Mesh size h cannot resolve the requested geometry."""


class MeshConformityError(SpinlapError, RuntimeError):
    """Generated mesh failed a structural validation."""


class OutOfChartError(SpinlapError, ValueError):
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
    """Graded polar neighbourhood of one cone point inside the mesh.

    ring_vertices[m, i] is the mesh vertex at flat distance ring_radii[m]
    from the cone (rings outermost first) and at the 4 pi angle
    phi_i = 2 pi i / n_ang (ring_phi) from the sign-flip gluing curve, on the
    torus sheet_tori[i >= n_ang] (ring_tori).  Columns 0 and n_ang are the two
    copies of the slit node at that distance; in the flat chart of its torus
    the vertex sits at P + ring_radii[m] exp(i (phi_i + theta_ray)).
    triangles are the patch itself: the triangles whose every corner is the
    cone vertex or a ring vertex, which tile the polygon of the outer ring.
    """
    cone: ConePoint
    center_vertex: int
    sheet_tori: tuple            # (torus covering phi in [0,2pi), torus for [2pi,4pi))
    ring_radii: np.ndarray       # (n_rings,) outermost first
    ring_vertices: np.ndarray    # (n_rings, 2 n_ang) vertex ids
    n_ang: int
    triangles: np.ndarray        # triangle ids, ascending

    @property
    def outer_radius(self):
        return self.ring_radii[0]

    @property
    def ring_phi(self):
        """The 4 pi angle of each ring column, (2 n_ang,)."""
        return 2.0 * math.pi * np.arange(2 * self.n_ang) / self.n_ang

    @property
    def ring_tori(self):
        """The torus of each ring column, (2 n_ang,)."""
        return np.where(np.arange(2 * self.n_ang) < self.n_ang,
                        *self.sheet_tori)


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
    _covers: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)     # torus -> TorusCover

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

    def torus_cover(self, torus):
        """The cover graph (TorusCover) of torus j's regular edges, built on
        first use and kept on this mesh."""
        if torus not in self._covers:
            self._covers[torus] = TorusCover.build(self, torus)
        return self._covers[torus]

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


def distinguished_chart(surf: TranslationSurface, k: int, q):
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
    if sheet is None:
        sheet = torus_id != _sheet_tori(cone, surf)[0]
    return cone_coordinate(cone, r, cone_angle(cone, zeta, int(sheet)))


def cone_angle(cone: ConePoint, zeta, sheet):
    """The 4 pi angle phi in [0, 4 pi) of flat offsets zeta = z - P from the
    cone, seen on sheet 0 (phi < 2 pi) or 1 of its double disk (broadcast
    together).  phi is measured counterclockwise from the sign-flip gluing
    curve, so the slit ray reads phi = 0 on sheet 0."""
    return ((np.angle(zeta) - cone.theta_ray) % (2.0 * math.pi)
            + 2.0 * math.pi * np.asarray(sheet))


def cone_coordinate(cone: ConePoint, r, phi):
    """The distinguished coordinate x = sqrt(2 r) exp(i (phi + theta_ray)/2)
    of the flat polar points (r, phi) at the cone, so that x^2/2 = z - P."""
    return np.sqrt(2.0 * r) * np.exp(0.5j * (phi + cone.theta_ray))


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
                  structure: dict = None) -> SpinMesh:
    """Conforming mesh of the glued surface with graded cone refinement.

    h is the target mesh size in |omega| length units; grading in (0, 1) is
    the geometric ratio of consecutive cone-ring radii.  By default grading
    = 1 - h/r0 (clipped to [0.60, 0.82]), which keeps the patch triangles at
    aspect ratio ~1 and lets the discrete cone-trace constant converge under
    refinement (a fixed self-similar patch would leave an h-independent
    bias); ring count and angular resolution follow so the innermost ring
    radius is ~0.75 h and ring spacing matches h.

    On each torus of a glued surface the triangles are the unique Delaunay
    triangulation of the periodic point set after a fixed tie-break shift of
    1e-9 of the lattice size (the vertices keep their unshifted places), so
    they do not depend on the order of the points.  They are computed on the
    base tile plus a strip of its neighbours, and the strip is certified:
    every kept circumdisk lies inside it (_tile_triangles).  Two cone
    patches that would touch or overlap on a torus raise MeshResolutionError
    before anything is triangulated.

    `structure` (as stored on a previously built mesh) freezes all discrete
    counts (grid sizes, slit node counts, ring counts, radii) and the
    triangles; passing the structure of a base mesh to nearby moduli gives
    topologically identical meshes whose discretization errors cancel in
    finite differences.  Its "strip" entry holds each torus's strip width.
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
    return _glued_mesh(surf, h, grading, structure)


# corner steps (di, dk) of the two triangles of grid cell (i, k), by the
# parity of i + k (the diagonal alternates)
_CELL_TRIANGLES = np.array([[[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]],
                            [[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)]]])


def _torus_mesh(surf, h, grading, structure=None):
    """Structured union-jack mesh of a single torus (no cone points)."""
    a, b = surf.tori[0]
    if structure is not None:
        ns, nt = structure["grid"][0]
    else:
        ns = max(4, round(abs(a) / h))
        nt = max(4, round(abs(b) / h))
    # grid nodes (i, k), 0 <= i <= ns, 0 <= k <= nt: the vertices and their
    # unwrapped copies on the far seams
    i, k = np.meshgrid(np.arange(ns + 1), np.arange(nt + 1), indexing="ij")
    pos = surf.anchors[0] + (i / ns) * a + (k / nt) * b
    i, k = i[:ns, :nt], k[:ns, :nt]
    steps = _CELL_TRIANGLES[(i + k) % 2]                  # (ns, nt, 2, 3, 2)
    ci = (i[..., None, None] + steps[..., 0]).reshape(-1, 3)
    ck = (k[..., None, None] + steps[..., 1]).reshape(-1, 3)
    verts = pos[:ns, :nt].ravel()
    mesh = SpinMesh(surface=surf,
                    vertices=np.column_stack([verts.real, verts.imag]),
                    vertex_chart=np.zeros(len(verts), dtype=int),
                    triangles=(ci % ns) * nt + ck % nt,
                    tri_chart=np.zeros(len(ci), dtype=int),
                    tri_pos=pos[ci, ck],
                    tri_wrap=np.stack([ci // ns, ck // nt], axis=-1).astype(np.int8),
                    tri_slit_sign=np.ones(ci.shape, dtype=np.int8),
                    cone_patches=[], slit_chains=[],
                    h=h, grading=grading)
    mesh.cycle_paths = [{"a": np.r_[np.arange(ns) * nt + 1, 1].tolist(),
                         "b": np.r_[nt + np.arange(nt), nt].tolist()}]
    mesh.structure = {"grid": {0: (ns, nt)}}
    validate_mesh(mesh)
    return mesh


# -- glued multi-torus mesh ---------------------------------------------------

def _slit_node_params(sl, h, radii, n_mid=None):
    """Distances from c_start along the slit for the shared node chain: the
    cone-ring radii from either end, evenly spaced nodes between."""
    L = sl.length
    head = radii[::-1]                                       # increasing
    lo = head[-1]
    mid_lo, mid_hi = lo, L - lo
    if n_mid is None:
        n_mid = max(2, int(round((mid_hi - mid_lo) / h)))
    mid = list(np.linspace(mid_lo, mid_hi, n_mid + 1))[1:-1]
    tail = [L - d for d in head][::-1]
    return np.array(head + mid + tail), n_mid


def _glued_mesh(surf, h, grading, structure=None):
    g = surf.genus
    if structure is not None:
        r0s, n_mids, grid = (dict(structure[k]) for k in ("r0", "n_mid", "grid"))
        rings, n_ang = structure["rings"], structure["n_ang"]
        if grading is None:
            grading = structure["grading"]
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
        rings = max(3, int(math.ceil(math.log(0.75 * h / r0_min) / math.log(grading))))
        n_ang = int(np.clip(round(2.0 * math.pi * max(r0s.values()) / h), 12, 48))
        for j in range(g):
            a, b = surf.tori[j]
            grid[j] = (max(6, 2 * round(abs(a) / (2 * h))),
                       max(6, 2 * round(abs(b) / (2 * h))))

    ring_radii = {s: [r0 * grading ** m for m in range(rings)]
                  for s, r0 in r0s.items()}
    _check_patches_apart(surf, ring_radii, grading, h)
    slit_params = {}
    for sl in surf.slits:
        slit_params[sl.index], n_mids[sl.index] = _slit_node_params(
            sl, h, ring_radii[sl.index], n_mids.get(sl.index))

    torus_pts, kept = [], {}
    for j in range(g):
        local = [sl for sl in surf.slits if j in (sl.torus_a, sl.torus_b)]
        z = _grid_points(surf, j, grid[j])
        kept[j] = (~_protected(z, local, slit_params, r0s, h, n_ang)
                   if structure is None else structure["kept"][j])
        torus_pts.append(_torus_points(surf, local, slit_params, ring_radii,
                                       n_ang, z[kept[j]]))

    mesh, tris, strips = _assemble_glued(surf, torus_pts, slit_params,
                                         ring_radii, h, grading, n_ang, structure)
    mesh.structure = {"r0": r0s, "rings": rings, "n_ang": n_ang,
                      "grading": grading, "n_mid": n_mids, "grid": grid,
                      "kept": kept, "tris": tris, "strip": strips}
    return mesh


def _check_patches_apart(surf, ring_radii, grading, h):
    """Raise MeshResolutionError when two cones on a shared torus, at the
    nearest lattice image, are closer than the sum of their outer ring radii
    plus a ring spacing ((1 - grading) times the innermost ring radius, the
    finest step of the grading): their patches would touch or overlap, and
    ring vertices of one would land on or inside the rings of the other."""
    cones = surf.cone_points
    for i, p in enumerate(cones):
        for q in cones[i + 1:]:
            rp, rq = ring_radii[p.slit_index], ring_radii[q.slit_index]
            need = rp[0] + rq[0] + (1.0 - grading) * min(rp[-1], rq[-1])
            for j in sorted(set(p.incident_tori) & set(q.incident_tori)):
                gap = _lattice_distance(q.position - p.position, *surf.tori[j])
                if gap < need:
                    raise MeshResolutionError(
                        "the patches of cones %d and %d overlap on torus %d at "
                        "h = %g: %.4g apart, their rings need %.4g"
                        % (p.index, q.index, j, h, gap, need))


def _grid_points(surf, j, shape):
    """Torus j's structured grid, offset by half a cell.  A deterministic
    sub-h jitter keeps the grid squares from being cocircular, so that their
    diagonals follow the geometry rather than the tie-break shift."""
    a, b = surf.tori[j]
    ns, nt = shape
    jit = np.random.default_rng(90011 + 7 * j).uniform(-0.09, 0.09,
                                                        size=(ns, nt, 2))
    i, k = np.meshgrid(np.arange(ns), np.arange(nt), indexing="ij")
    return (surf.anchors[j] + ((i + 0.5 + jit[..., 0]) / ns) * a
            + ((k + 0.5 + jit[..., 1]) / nt) * b)


def _protected(z, slits, slit_params, r0s, h, n_ang):
    """Mask of the grid points z too close to a slit's node chain or to a
    cone ring to be kept."""
    out = np.zeros(z.shape, dtype=bool)
    for sl in slits:
        L = sl.length
        dirn = sl.direction
        w = z - sl.c_start
        u = w.real * dirn.real + w.imag * dirn.imag
        uc = np.clip(u, 0.0, L)
        d_perp = np.abs(w - uc * dirn)
        # protection radius near the chain: local spacing along the slit
        dists = slit_params[sl.index]
        i = np.searchsorted(dists, uc)
        lo = dists[np.maximum(i - 1, 0)]
        hi = dists[np.minimum(i, len(dists) - 1)]
        spacing = np.where(hi > lo, np.maximum(hi - lo, 1e-12), h)
        out |= ((-2 * h < u) & (u < L + 2 * h)
                & (d_perp < 0.75 * np.minimum(spacing, h)))
        r0 = r0s[sl.index]
        for cen in (sl.c_start, sl.c_end):
            out |= np.abs(z - cen) < r0 + 0.7 * min(h, 2 * math.pi * r0 / n_ang)
    return out


def _torus_points(surf, slits, slit_params, ring_radii, n_ang, grid_z):
    """The points of one torus in triangulation order: per incident slit its
    node chain, its two cone points and their rings (outermost first, angles
    i = 1 .. n_ang - 1 from the slit ray), then the kept grid points.

    Returns (z, slit, node, cone, rings): the positions; per point the slit
    and chain node of a slit node and the cone of a cone point, -1 elsewhere;
    per cone the slice of its ring points.  build_surface numbers the cones
    of slit s as 2 s (start) and 2 s + 1 (end).
    """
    segs, rings, n = [], {}, 0          # segs: (z, slit, node, cone)
    for sl in slits:
        s = sl.index
        chain = sl.c_start + slit_params[s] * sl.direction
        segs.append((chain, s, np.arange(len(chain)), -1))
        segs.append((np.array([sl.c_start, sl.c_end]), -1, -1,
                     np.array([2 * s, 2 * s + 1])))
        n += len(chain) + 2
        for cid, cen in ((2 * s, sl.c_start), (2 * s + 1, sl.c_end)):
            ang = (surf.cone_points[cid].theta_ray
                   + 2.0 * math.pi * np.arange(1, n_ang) / n_ang)
            ring = cen + np.array(ring_radii[s])[:, None] * np.exp(1j * ang)
            segs.append((ring.ravel(), -1, -1, -1))
            rings[cid] = slice(n, n + ring.size)
            n += ring.size
    segs.append((grid_z, -1, -1, -1))

    def column(k):
        return np.concatenate([np.broadcast_to(sg[k], len(sg[0])) for sg in segs])
    return column(0), column(1), column(2), column(3), rings


# tile offsets (di, dk) of the 3 x 3 periodic tiling
_TILES = [(di, dk) for di in (-1, 0, 1) for dk in (-1, 0, 1)]

# Margin, in mesh sizes h, by which the strip of neighbouring tiles that is
# triangulated with the base tile reaches past it (_tile_triangles).  A kept
# triangle's circumdisk reaches at most 2 R past its centroid, and R stays
# below about 1.06 h on the meshes this module makes, so one strip is
# certified at once.
_STRIP_MARGIN = 2.5


def _tie_break(z, a, b):
    """The fixed shift of 1e-9 of the lattice size that breaks the ties of
    cocircular points: seeded draws handed out in the lexicographic order of
    the points, so that a point's shift does not depend on its place in z."""
    draws = np.random.default_rng(7).uniform(-1.0, 1.0, (2, len(z)))
    shift = np.empty(len(z), dtype=complex)
    shift[np.lexsort((z.imag, z.real))] = draws[0] + 1j * draws[1]
    return 1e-9 * min(abs(a), abs(b)) * shift


def _tile_triangles(z, a, b, anchor, h):
    """Triangles of the torus points z, as (n, 3) indices t len(z) + i into
    their 3 x 3 tiling (point i in tile t), counter-clockwise, with the
    centroid in the base tile; and the strip width w that gave them.

    The triangles are the unique Delaunay triangulation of the periodic
    point set after the fixed tie-break shift (_tie_break): ring and slit
    nodes are cocircular, and the shift decides every tie the same way
    whatever the order of the points.  The points keep their unshifted
    positions in the mesh.

    Only the base tile plus a strip of its neighbours, lattice coordinates
    in [-w, 1 + w]^2 with w from _STRIP_MARGIN h, is triangulated.  The
    result is certified: 2 len(z) triangles are kept, and each one's
    circumdisk lies inside the strip, so no periodic image of a point falls
    inside it and it is Delaunay for the whole periodic set.  Otherwise w
    doubles, up to w = 1, the whole 3 x 3 tiling, where it stops.  Either
    way the triangles must close up into a triangulation of the torus.
    """
    zs = z + _tie_break(z, a, b)
    area = abs((np.conj(a) * b).imag)
    w = min(1.0, float(_STRIP_MARGIN * h * max(abs(a), abs(b)) / area))
    while True:
        tiles, certified = _strip_delaunay(zs, a, b, anchor, w)
        if certified or w == 1.0:
            break
        w = min(1.0, 2.0 * w)
    if not _closes_up(tiles, len(z)):
        raise MeshConformityError("the periodic Delaunay triangles of a "
                                  "torus do not close up")
    return tiles, w


def _strip_delaunay(zs, a, b, anchor, w):
    """The Delaunay triangles of the tiled points zs with lattice
    coordinates in [-w, 1 + w]^2 whose centroid lies in the base tile (as
    in _tile_triangles), and whether they are certified for the periodic
    set."""
    Minv = np.linalg.inv(np.array([[a.real, b.real], [a.imag, b.imag]]))

    def lattice(p):
        # written out: a matrix product may fuse multiply-adds, which moves
        # centroids on the tile boundary across it
        x, y = p.real - anchor.real, p.imag - anchor.imag
        return Minv[0, 0] * x + Minv[0, 1] * y, Minv[1, 0] * x + Minv[1, 1] * y

    off = np.array(_TILES)
    tiled = (zs + (off[:, 0] * a + off[:, 1] * b)[:, None]).ravel()
    s, t = lattice(tiled)
    pick = np.flatnonzero((-w <= s) & (s <= 1.0 + w)
                          & (-w <= t) & (t <= 1.0 + w))
    centre = anchor + 0.5 * (a + b)          # qhull sees small coordinates
    simplices = pick[Delaunay(np.column_stack([tiled[pick].real - centre.real,
                                               tiled[pick].imag - centre.imag])
                              ).simplices]
    corner_pos = tiled[simplices]                        # (S, 3)
    u, v = lattice(corner_pos.mean(axis=1))
    inside = (0.0 <= u) & (u < 1.0) & (0.0 <= v) & (v < 1.0)
    simplices, corner_pos = simplices[inside], corner_pos[inside]
    d1 = corner_pos[:, 1] - corner_pos[:, 0]
    d2 = corner_pos[:, 2] - corner_pos[:, 0]
    cross = d1.real * d2.imag - d1.imag * d2.real
    tiles = np.where((cross > 0)[:, None], simplices, simplices[:, [0, 2, 1]])

    # the circumdisks against the strip, in lattice coordinates (a disk of
    # radius R spans R |grad s| = R |Minv[0]| in s)
    offset = (abs(d1) ** 2 * d2 - abs(d2) ** 2 * d1) / (2j * cross)
    cs, ct = lattice(corner_pos[:, 0] + offset)
    rs, rt = np.outer(np.hypot(Minv[:, 0], Minv[:, 1]), np.abs(offset))
    certified = (len(tiles) == 2 * len(zs)
                 and np.all((-w <= cs - rs) & (cs + rs <= 1.0 + w)
                            & (-w <= ct - rt) & (ct + rt <= 1.0 + w)))
    return tiles, certified


def _closes_up(tiles, n):
    """Whether the triangles (tiling indices over n points) triangulate the
    torus: 2 n of them, and each side i -> k with tile step d meets exactly
    one side k -> i with step -d."""
    i, off = tiles % n, np.array(_TILES)[tiles // n]
    k, step = np.roll(i, -1, axis=1), np.roll(off, -1, axis=1) - off

    def key(tail, head, d):
        return ((tail * n + head) * 5 + d[..., 0] + 2) * 5 + d[..., 1] + 2
    sides = np.sort(key(i, k, step), axis=None)
    partners = np.sort(key(k, i, -step), axis=None)
    return (len(tiles) == 2 * n and np.array_equal(sides, partners)
            and np.all(sides[1:] != sides[:-1]))


def _assemble_glued(surf, torus_pts, slit_params, ring_radii, h, grading, n_ang,
                    frozen=None):
    """Glue the per-torus triangulations into one mesh.

    Vertex ids: the cone points first, then both copies of every slit node
    (slit by slit, node by node; copy 0 is (Ta+) = (Tb-), copy 1 is (Ta-) =
    (Tb+)), then the other points of each torus in point order.  A slit-node
    corner takes the copy on the side of its triangle.  Returns the mesh, the
    per-torus triangles as tiling indices and the per-torus strip widths
    (see _tile_triangles), both taken from `frozen` (a mesh structure) when
    given.
    """
    cones, slits = surf.cone_points, surf.slits
    chains = [sl.c_start + slit_params[sl.index] * sl.direction for sl in slits]
    chain_vid = len(cones) + 2 * np.cumsum([0] + [len(c) for c in chains])
    torus_a = np.array([sl.torus_a for sl in slits])
    dirn = np.array([sl.direction for sl in slits])
    verts = [np.array([c.position for c in cones])] + [np.repeat(c, 2) for c in chains]
    vchart = ([np.array([c.incident_tori[0] for c in cones])]
              + [np.full(2 * len(c), sl.torus_a) for c, sl in zip(chains, slits)])
    next_id = chain_vid[-1]
    tris, tchart, tpos, twrap, ring_vid = [], [], [], [], {}
    tiles, strips = (({}, {}) if frozen is None
                     else (frozen["tris"], frozen["strip"]))
    for j, (z, slit, node, cone, rings) in enumerate(torus_pts):
        a, b = surf.tori[j]
        regular = (slit < 0) & (cone < 0)
        n_reg = np.count_nonzero(regular)
        gid = cone.copy()                     # cone ids are their vertex ids
        gid[regular] = next_id + np.arange(n_reg)
        next_id += n_reg
        verts.append(z[regular])
        vchart.append(np.full(n_reg, j))
        for cid, span in rings.items():
            ring_vid[(j, cid)] = gid[span].reshape(-1, n_ang - 1)

        if frozen is None:
            tiles[j], strips[j] = _tile_triangles(z, a, b, surf.anchors[j], h)
        li = tiles[j] % len(z)
        off = np.array(_TILES)[tiles[j] // len(z)]            # (n, 3, 2)
        pos = z[li] + off[..., 0] * a + off[..., 1] * b
        # a slit node's copy: the side of the slit the triangle's centroid
        # lies on, compared in the node's own tile
        s = slit[li]
        w = pos.mean(axis=1)[:, None] - (pos - z[li]) - z[li]
        side = dirn[s].real * w.imag - dirn[s].imag * w.real
        copy = np.where((side > 0) == (torus_a[s] == j), 0, 1)
        tris.append(np.where(s >= 0, chain_vid[s] + 2 * node[li] + copy, gid[li]))
        tchart.append(np.full(len(li), j))
        tpos.append(pos)
        twrap.append(off)

    verts = np.concatenate(verts)
    slit_chains = [{"slit": s, "copy0": list(range(lo, hi, 2)),
                    "copy1": list(range(lo + 1, hi, 2))}
                   for s, (lo, hi) in enumerate(zip(chain_vid[:-1], chain_vid[1:]))]
    mesh = SpinMesh(surface=surf,
                    vertices=np.column_stack([verts.real, verts.imag]),
                    vertex_chart=np.concatenate(vchart),
                    triangles=np.concatenate(tris),
                    tri_chart=np.concatenate(tchart),
                    tri_pos=np.concatenate(tpos),
                    tri_wrap=np.concatenate(twrap).astype(np.int8),
                    tri_slit_sign=None, cone_patches=[], slit_chains=slit_chains,
                    h=h, grading=grading)
    mesh.tri_slit_sign = slit_sign(mesh, mesh.triangles, mesh.tri_chart[:, None])
    mesh.cone_patches = _build_cone_patches(surf, mesh, ring_vid, ring_radii,
                                            n_ang)
    mesh.cycle_paths = []
    for j in range(surf.genus):
        paths = find_torus_cycles(mesh, j)
        for w, path in paths.items():
            if path is None:
                raise MeshResolutionError(
                    "no %s-cycle of torus %d clears its slits and cone patches "
                    "at h = %g" % (w, j, h))
        mesh.cycle_paths.append(paths)
    validate_mesh(mesh)
    return mesh, tiles, strips


def slit_sign(mesh: SpinMesh, vertices, charts):
    """Slit-gluing sign of the vertex dofs `vertices` seen from the charts
    `charts` (broadcast together): -1 where a copy-0 slit node is seen from
    its slit's torus_b, +1 elsewhere."""
    flip_chart = np.full(mesh.n_vertices, -1)
    for ch in mesh.slit_chains:
        flip_chart[ch["copy0"]] = mesh.surface.slits[ch["slit"]].torus_b
    return np.where(flip_chart[vertices] == charts, -1, 1).astype(np.int8)


def _build_cone_patches(surf, mesh, ring_vid, ring_radii, n_ang):
    patches = []
    for cone in surf.cone_points:
        s = cone.slit_index
        chain = mesh.slit_chains[s]
        sheet0, sheet1 = _sheet_tori(cone, surf)
        m = np.arange(len(ring_radii[s]))
        # the slit node at distance ring_radii[s][m] from this endpoint
        node = (len(m) - 1 - m if cone.end == 0
                else len(chain["copy0"]) - len(m) + m)
        ring_vertices = np.column_stack([
            np.asarray(chain["copy0"])[node], ring_vid[(sheet0, cone.index)],
            np.asarray(chain["copy1"])[node], ring_vid[(sheet1, cone.index)]])
        corners = np.isin(mesh.triangles, np.append(ring_vertices, cone.index))
        patches.append(ConePatch(cone=cone, center_vertex=cone.index,
                                 sheet_tori=(sheet0, sheet1),
                                 ring_radii=np.array(ring_radii[s]),
                                 ring_vertices=ring_vertices, n_ang=n_ang,
                                 triangles=np.flatnonzero(corners.all(axis=1))))
    return patches


def _patch_vertices(mesh):
    """The cone vertices and the vertices of their rings."""
    return np.concatenate([np.array(mesh.cone_vertex_ids(), dtype=int)]
                          + [p.ring_vertices.ravel() for p in mesh.cone_patches])


def _cover_node(n, x, shift):
    """Cover node of vertex number x (of n) in the tile shifted by (s, t) in
    {-1, 0, 1}^2."""
    return (3 * (shift[..., 0] + 1) + shift[..., 1] + 1) * n + x


@dataclass(frozen=True)
class TorusCover:
    """The regular edges of one torus (off the cone patches and slit chains),
    lifted to its 3 x 3 cover by the lattice wrap along them.  Its nodes are
    _cover_node(n, k, (s, t)) for the k-th of the torus's n regular
    vertices, and it holds each edge once, from the lower vertex id to the
    higher one.  Only int32 structure is kept: the vertex ids, ascending,
    and the adjacency in canonical CSR form (indptr, indices: sorted rows,
    no duplicates)."""
    vertices: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def build(cls, mesh, torus):
        table = mesh.edge_table
        t, c = np.divmod(table.slots[:, 0], 3)
        # lattice wrap from edges[:, 0] to edges[:, 1], off the edge's first side
        wrap = ((mesh.tri_wrap[t, (c + 1) % 3].astype(int) - mesh.tri_wrap[t, c])
                * table.sign[t, c][:, None])
        singular = np.zeros(mesh.n_vertices, dtype=bool)
        singular[_patch_vertices(mesh)] = True
        for ch in mesh.slit_chains:
            singular[ch["copy0"] + ch["copy1"]] = True
        u, v = table.edges.T
        keep = (mesh.tri_chart[t] == torus) & ~singular[u] & ~singular[v]
        u, v, wrap = u[keep], v[keep], wrap[keep]
        # numbered in id order, the vertices keep the order of every row
        vertices = np.union1d(u, v)
        u, v = np.searchsorted(vertices, u), np.searchsorted(vertices, v)
        n = len(vertices)

        shift = np.array(_TILES)[:, None, :]                 # (9, 1, 2)
        to = shift + wrap                                    # (9, E, 2)
        ok = np.all(np.abs(to) <= 1, axis=-1)
        tails = _cover_node(n, np.broadcast_to(u, ok.shape), shift)[ok]
        heads = _cover_node(n, np.broadcast_to(v, ok.shape), to)[ok]
        graph = csr_matrix((np.ones(len(tails), dtype=np.int8), (tails, heads)),
                           shape=(9 * n, 9 * n))
        arrays = [np.array(a, dtype=np.int32)
                  for a in (vertices, graph.indptr, graph.indices)]
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays)


def find_torus_cycles(mesh, torus, vertex_cost=None):
    """Vertex cycles homologous to a_j and b_j in torus j, staying in the
    regular zone (off the cone patches and slit chains): {'a': path,
    'b': path}.

    In the torus's cover graph (mesh.torus_cover) each cycle is a path from
    a seed vertex to its copy shifted by A_j or B_j.  One search from the
    seed gives both: breadth first, or, given `vertex_cost` (array), the
    paths of least summed cost of the vertices they enter (Dijkstra), e.g.
    to route the cycles away from zeros of some field.  A cycle is None when
    the torus has no regular edge or the search does not reach its end.
    """
    cover = mesh.torus_cover(torus)
    n = len(cover.vertices)
    if n == 0:
        return {"a": None, "b": None}
    seed = 0 if vertex_cost is None else np.argmin(vertex_cost[cover.vertices])
    start = _cover_node(n, seed, np.zeros(2, dtype=int))
    graph = csr_matrix((np.ones(len(cover.indices)), cover.indices,
                        cover.indptr), shape=(9 * n, 9 * n))
    if vertex_cost is None:
        # an undirected search visits a node's out-edges before its
        # in-edges, and that order picks the cycles
        _, pred = breadth_first_order(graph, start, directed=False,
                                      return_predecessors=True)
    else:
        # each edge both ways, costing the vertex it enters
        graph = (graph + graph.T).tocsr()
        graph.data = vertex_cost[cover.vertices[graph.indices % n]]
        _, pred = dijkstra(graph, indices=start, return_predecessors=True)
    paths = {}
    for which, step in (("a", (1, 0)), ("b", (0, 1))):
        path = [_cover_node(n, seed, np.array(step))]
        while path[-1] >= 0 and path[-1] != start:
            path.append(pred[path[-1]])
        paths[which] = (None if path[-1] < 0
                        else cover.vertices[np.array(path[::-1]) % n].tolist())
    return paths


# ---------------------------------------------------------------------------
# validation

def validate_mesh(mesh: SpinMesh):
    """Structural checks: conformity, Euler characteristic, positive areas,
    4*pi cone angles, triangle quality away from cone patches."""
    table = mesh.edge_table      # raises unless every edge has two sides
    if np.any(np.bincount(table.index.ravel(), weights=table.sign.ravel())):
        raise MeshConformityError("the two sides of an edge run the same way")
    nv, ne, nf = mesh.n_vertices, len(table.edges), mesh.n_triangles
    chi = nv - ne + nf
    if chi != 2 - 2 * mesh.genus:
        raise MeshConformityError("Euler characteristic %d != %d"
                                  % (chi, 2 - 2 * mesh.genus))
    if np.any(mesh.signed_areas() <= 0):
        raise MeshConformityError("non-ccw or degenerate triangle")

    p = mesh.tri_pos
    angles = np.abs(np.angle((np.roll(p, -2, axis=1) - p)
                             / (np.roll(p, -1, axis=1) - p)))   # at corner c
    angle_sums = np.bincount(mesh.triangles.ravel(), weights=angles.ravel(),
                             minlength=nv)
    for patch in mesh.cone_patches:
        total = angle_sums[patch.center_vertex]
        if abs(total - 4.0 * math.pi) > 1e-10:
            raise MeshConformityError("cone angle %.12f != 4 pi" % total)

    # quality away from cone patches
    bulk = ~np.any(np.isin(mesh.triangles, _patch_vertices(mesh)), axis=1)
    min_angle = angles[bulk].min(initial=math.inf)
    if min_angle < math.radians(15.0):
        raise MeshConformityError("bulk min angle %.2f deg below threshold"
                                  % math.degrees(min_angle))
    return {"min_bulk_angle_deg": (math.degrees(min_angle)
                                   if min_angle < math.inf else 60.0),
            "n_vertices": nv, "n_edges": ne, "n_triangles": nf}


def cone_patch_triangles(mesh: SpinMesh):
    """Per cone patch, the triangles inside it with their corner coordinates
    in the distinguished chart.

    Returns a list (one entry per patch) of pairs (ids, x_corners): the
    patch's triangles, and their (n, 3) corner positions in the x-chart
    (x^2/2 = z - P, sheet-aware, branch cut along the slit ray).  Corners on
    the ray are disambiguated by the triangle side; the cone vertex maps to 0.
    """
    out = []
    for patch in mesh.cone_patches:
        cone, ids = patch.cone, patch.triangles
        zeta = mesh.tri_pos[ids] - cone.position
        r = np.hypot(zeta.real, zeta.imag)
        sheet = (mesh.tri_chart[ids] != patch.sheet_tori[0])[:, None]
        phi = cone_angle(cone, zeta, sheet)
        left_of_ray = (zeta.mean(axis=1) / np.exp(1j * cone.theta_ray)).imag > 0
        # a corner on the ray takes the angle of its triangle's side of it
        turns = np.round(phi / (2.0 * math.pi))
        on_ray = np.abs(phi - 2.0 * math.pi * turns) < 1e-9
        phi = np.where(on_ray, np.where(left_of_ray, 0.0, 2.0 * math.pi)[:, None]
                       + 2.0 * math.pi * sheet, phi)
        x = cone_coordinate(cone, r, phi)
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
