"""Independent oracles used by the test suite.

Everything here is deliberately written from scratch against the defining
formulas (brute-force lattice sums, explicit torus spectra, Poisson-resummed
Epstein zeta, single-sum Fourier Szego kernel) so that package code is checked
against arithmetic that shares none of its implementation.
"""

import itertools
import math

import numpy as np
from scipy.special import exp1

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# brute-force theta sum (no reduction, no vectorized shortcuts)

def brute_theta(p, q, xi, B, radius=20, deriv=()):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    xi = np.asarray(xi, dtype=complex)
    B = np.asarray(B, dtype=complex)
    g = len(p)
    total = 0.0 + 0.0j
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        m = np.array(n, dtype=float) + p
        expo = 1j * math.pi * (m @ B @ m) + 2j * math.pi * (m @ (xi + q))
        term = np.exp(expo)
        for i in deriv:
            term = term * 2j * math.pi * m[i]
        total += term
    return total


# ---------------------------------------------------------------------------
# exact period data for a flat torus C / (Z A + Z B)

class ExactTorusPeriods:
    """PeriodData-compatible object for the torus, with exact entries."""

    def __init__(self, A, B):
        from spinlap import theta as th
        self._th = th
        self.A = complex(A)
        self.B = complex(B)
        self.genus = 1
        self.b_matrix = np.array([[self.B / self.A]])
        self._cache = {}

    def abel(self, z):
        return np.array([complex(z) / self.A])

    def v(self, z):
        return np.array([1.0 / self.A])

    def offset_point(self, z, dz):
        return complex(z) + complex(dz)

    def theta0(self, char):
        key = ("t0", char)
        if key not in self._cache:
            self._cache[key] = self._th.theta(char, np.zeros(1), self.b_matrix)
        return self._cache[key]

    def theta_gradient0(self, char):
        key = ("g0", char)
        if key not in self._cache:
            self._cache[key] = self._th.theta_gradient0(char, self.b_matrix)
        return self._cache[key]

    def h_delta_sq(self, delta, pt):
        return complex(np.dot(self.theta_gradient0(delta), self.v(pt)))

    def h_delta(self, delta, pt):
        # h_delta^2 is a nonzero constant on the torus: principal branch
        return np.sqrt(self.h_delta_sq(delta, pt))


# ---------------------------------------------------------------------------
# Fourier-sum Szego kernel on the torus, both cycles anti-periodic

def fourier_szego_torus(A, B, z, zp, kmax=400):
    """S(z, z') for the (sigma_a, sigma_b) = (-1, -1) spin structure, from the
    eigenbasis exp(2 pi i (mu1 s + mu2 t)), mu in (Z + 1/2)^2, summing the mu2
    series in closed form:

        S_ker = (D/|D|) (-i pi / A) sum_{mu1} e^{2 pi i mu1 ds}
                                  e^{-i pi mu1 tau (1 - 2 dt)} / cos(pi mu1 tau),

    valid for dt in (0, 1), where z - z' = ds A + dt B and tau = B/A.  S_ker
    has the operator-kernel pole 1/(z' - z); the returned value is -S_ker so
    the convention matches the package's S = 1/(z - z') + O(1).
    """
    A, B = complex(A), complex(B)
    D = (A * np.conj(B)).imag
    dz = complex(z) - complex(zp)
    ds = (dz * np.conj(B)).imag / D
    dt = -(dz * np.conj(A)).imag / D
    if not (0.0 < dt < 1.0):
        if -1.0 < dt < 0.0:
            return -fourier_szego_torus(A, B, zp, z, kmax=kmax)
        raise ValueError("oracle needs dt in (-1, 1), dt != 0")
    tau = B / A
    total = 0.0 + 0.0j
    for n in range(-kmax, kmax):
        mu1 = n + 0.5
        w = math.pi * mu1 * tau
        s = 1.0 if w.imag >= 0 else -1.0
        # 1/cos(w) = 2 e^{i w s} / (1 + e^{2 i w s}), |e^{i w s}| <= 1
        expo = (2j * math.pi * mu1 * ds
                - 1j * math.pi * mu1 * tau * (1.0 - 2.0 * dt)
                + 1j * w * s)
        total += 2.0 * np.exp(expo) / (1.0 + np.exp(2j * w * s))
    s_ker = (D / abs(D)) * (-1.0 / A) * 1j * math.pi * total
    return -s_ker


# ---------------------------------------------------------------------------
# explicit torus spectra and Epstein-type zeta determinant

def torus_spectrum(A, B, sigma_a, sigma_b, count):
    """Smallest `count` eigenvalues of Delta = -(1/4) Laplace on the twisted
    torus: lambda = pi^2 |mu1 B - mu2 A|^2 / D^2 over mu in (Z+p~) x (Z+q~)."""
    A, B = complex(A), complex(B)
    D = (A * np.conj(B)).imag
    p = 0.0 if sigma_a == 1 else 0.5
    q = 0.0 if sigma_b == 1 else 0.5
    n = 40
    vals = []
    for m1 in np.arange(-n, n + 1) + p:
        for m2 in np.arange(-n, n + 1) + q:
            lam = math.pi ** 2 * abs(m1 * B - m2 * A) ** 2 / D ** 2
            vals.append(lam)
    vals = np.sort(np.array(vals))
    if (p, q) == (0.0, 0.0):
        vals = vals[1:]          # remove the zero mode of the trivial bundle
    return vals[:count]


def torus_theta_trace(A, B, sigma_a, sigma_b, t):
    """K(t) = sum exp(-lambda t) via Poisson resummation (small-t stable)."""
    A, B = complex(A), complex(B)
    D = (A * np.conj(B)).imag
    area = abs(D)
    p = 0.0 if sigma_a == 1 else 0.5
    q = 0.0 if sigma_b == 1 else 0.5
    a = math.pi ** 2 * t / D ** 2
    M = np.array([[a * abs(B) ** 2, -a * (B * np.conj(A)).real],
                  [-a * (B * np.conj(A)).real, a * abs(A) ** 2]])
    Minv = np.linalg.inv(M)
    total = 0.0
    n = 25
    for m1 in range(-n, n + 1):
        for m2 in range(-n, n + 1):
            m = np.array([m1, m2])
            total += math.cos(2 * math.pi * (m1 * p + m2 * q)) * \
                math.exp(-math.pi ** 2 * (m @ Minv @ m))
    return area / (math.pi * t) * total


def torus_logdet(A, B, sigma_a, sigma_b):
    """log det of the twisted torus Laplacian, zeta-regularized, via the
    incomplete-gamma split at t0 = 1 (independent of the FEM pipeline)."""
    if (sigma_a, sigma_b) == (1, 1):
        raise ValueError("trivial structure has a zero mode; not supported")
    A, B = complex(A), complex(B)
    area = abs((A * np.conj(B)).imag)

    lams = torus_spectrum(A, B, sigma_a, sigma_b, count=6000)
    i2 = float(np.sum(exp1(lams)))            # int_1^inf K(t)/t dt

    # int_0^1 (K(t) - area/(pi t)) dt / t, integrand exponentially small at 0
    xg, wg = np.polynomial.legendre.leggauss(80)
    tt = 0.5 * (xg + 1.0)
    ww = 0.5 * wg
    vals = np.array([torus_theta_trace(A, B, sigma_a, sigma_b, t)
                     - area / (math.pi * t) for t in tt])
    j0 = float(np.sum(ww * vals / tt))

    zeta_prime_0 = -(area / math.pi) + j0 + i2      # c0 = 0 on the torus
    return -zeta_prime_0


def dedekind_eta(tau, nmax=200):
    q = np.exp(2j * math.pi * tau)
    prod = 1.0 + 0.0j
    for n in range(1, nmax + 1):
        prod *= (1.0 - q ** n)
    return np.exp(1j * math.pi * tau / 12.0) * prod


# ---------------------------------------------------------------------------
# edge cochains read from the triangle list alone

def sorted_edges(triangles):
    """Unique undirected edges (u, v), u < v, of a triangle list in ascending
    order: the order in which spinlap stores edge cochains."""
    return sorted({(min(int(a), int(b)), max(int(a), int(b)))
                   for tri in triangles for a, b in zip(tri, np.roll(tri, -1))})


def _oriented(cochain, index, u, v):
    return cochain[..., index[(u, v)]] if u < v else -cochain[..., index[(v, u)]]


def edge_path_sum(triangles, cochain, path):
    """Sum of an edge cochain along a vertex path, each step u -> v counted
    with sign -1 when it runs against its edge (u > v)."""
    index = {e: i for i, e in enumerate(sorted_edges(triangles))}
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        total = total + _oriented(cochain, index, int(u), int(v))
    return total


def edge_vectors(triangles, tri_pos):
    """z(v) - z(u) along each sorted edge (u, v), from the corner positions of
    a triangle that carries it."""
    dz = {}
    for tri, pos in zip(triangles, tri_pos):
        for c in range(3):
            u, v = int(tri[c]), int(tri[(c + 1) % 3])
            d = pos[(c + 1) % 3] - pos[c]
            dz[(u, v) if u < v else (v, u)] = d if u < v else -d
    return np.array([dz[e] for e in sorted_edges(triangles)])


def triangle_pq_lstsq(triangles, corners, cochains):
    """Per-triangle (p, q), each (m, nt), with cochain ~ p dz + q dzbar in the
    coordinates of corners: one least-squares solve per triangle on its three
    sides, for all m cochains (m, ne) at once."""
    index = {e: i for i, e in enumerate(sorted_edges(triangles))}
    m, nt = len(cochains), len(triangles)
    p = np.zeros((m, nt), dtype=complex)
    q = np.zeros((m, nt), dtype=complex)
    for t, (tri, pos) in enumerate(zip(triangles, corners)):
        A = np.zeros((3, 2), dtype=complex)
        b = np.zeros((3, m), dtype=complex)
        for c in range(3):
            u, v = int(tri[c]), int(tri[(c + 1) % 3])
            dz = pos[(c + 1) % 3] - pos[c]
            A[c] = (dz, np.conj(dz))
            b[c] = _oriented(cochains, index, u, v)
        (p[:, t], q[:, t]), *_ = np.linalg.lstsq(A, b, rcond=None)
    return p, q


def bfs_tree(triangles, n_vertices, root=0):
    """Breadth-first spanning tree over ascending neighbours: the visit order
    and each vertex's parent (-1 at the root)."""
    from collections import deque
    neighbours = [set() for _ in range(n_vertices)]
    for tri in triangles:
        for a, b in zip(tri, np.roll(tri, -1)):
            neighbours[int(a)].add(int(b))
            neighbours[int(b)].add(int(a))
    parent = np.full(n_vertices, -1)
    order, queue = [root], deque([root])
    seen = {root}
    while queue:
        u = queue.popleft()
        for v in sorted(neighbours[u]):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                order.append(v)
                queue.append(v)
    return order, parent
