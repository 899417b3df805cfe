"""Riemann theta functions with half-integer characteristics, the prime form,
and the Szego kernel.

theta[p,q](xi | B) = sum_{n in Z^g} exp( i pi (n+p)^T B (n+p)
                                         + 2 pi i (n+p)^T (xi + q) ),

with p, q in {0, 1/2}^g and Im B positive definite.  One lattice-sum kernel
evaluates any number of characteristics at once.  Arguments are first
reduced modulo Z^g + B Z^g, once for all characteristics, with the exact
quasi-periodicity factor multiplied back in, so the returned value is the
true theta value (not a reduced representative).  At the reduced arguments
xi0 the sum runs over the box n = k + p, k in [-r, r]^g, whose half-width r
is set by the Gaussian tail bound and the largest |Im xi0| of the batch.
Each term factors as

    exp(2 pi i p.xi0) * exp(i pi n^T B n + 2 pi i n.q) * prod_i z_i^k_i,

z_i = exp(2 pi i xi0_i): p enters as a per-argument factor, q as a phase
in the (2r+1)^g coefficient tensor of each characteristic, and the axis
factors z_i^k, shared by every characteristic, are running products of z_i
rather than one exp per term.  The stacked coefficient tensors of all
characteristics are contracted with the axis factors in one matmul, then
one axis at a time.  xi-derivatives weight the coefficient tensors by
2 pi i n_i, the B-derivative by i pi n_i n_j.

The prime form and Szego kernel are built on top of a PeriodData-like object
(see hodge.PeriodData) that provides the Abel map, the ratios v_i = upsilon_i
/ omega, and a continuous branch of h_delta = sqrt(sum_i d_i theta[delta] v_i).

Conventions: E(x, y) ~ (y - x) in the flat chart as y -> x, and

    S(z, z') = theta[p,q](A(z') - A(z)) / (theta[p,q](0) E(z', z)),

which gives the simple pole S(z, z') = 1/(z - z') + O(1) and the constant
term a0(z) = -sum_i d_i log theta[p,q](0) v_i(z) on the diagonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpinlapError

TWO_PI_I = 2j * math.pi
THETA0_TOL = 1e-10      # |theta[p,q](0)| below this is a vanishing theta


class ThetaDomainError(SpinlapError, ValueError):
    """Im B not positive definite."""


class DegenerateSpinError(SpinlapError, ValueError):
    """theta[p,q](0) vanishes (the genericity assumption h^0(C)=0 fails)."""


class DegeneratePointError(SpinlapError, ValueError):
    """No odd characteristic gives a usable h_delta at the requested points."""


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Half-integer characteristic (p, q), entries in {0, 1/2}."""
    p: tuple
    q: tuple

    def __post_init__(self):
        for v in (*self.p, *self.q):
            if v not in (0.0, 0.5):
                raise ValueError("characteristic entries must be 0 or 1/2")

    @property
    def genus(self) -> int:
        return len(self.p)

    @property
    def parity(self) -> str:
        return "even" if self.is_even else "odd"

    @property
    def is_even(self) -> bool:
        return int(round(4.0 * np.dot(self.p, self.q))) % 2 == 0

    def label(self) -> str:
        bits = "".join(str(int(2 * v)) for v in self.p + self.q)
        return f"[{bits[:self.genus]}|{bits[self.genus:]}]"


def all_characteristics(g: int):
    """All 4^g half-integer characteristics, lexicographic in (p, q) bits."""
    vals = (0.0, 0.5)
    return [ThetaCharacteristic(p, q)
            for p in itertools.product(vals, repeat=g)
            for q in itertools.product(vals, repeat=g)]


def even_characteristics(g: int):
    return [c for c in all_characteristics(g) if c.is_even]


def odd_characteristics(g: int):
    return [c for c in all_characteristics(g) if not c.is_even]


# ---------------------------------------------------------------------------
# lattice machinery

def _check_b(B):
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("B must be a square matrix")
    asym = np.max(np.abs(B - B.T)) if B.size else 0.0
    if asym > 1e-8 * max(1.0, np.max(np.abs(B))):
        raise ValueError("B must be symmetric")
    B = 0.5 * (B + B.T)
    w = np.linalg.eigvalsh(B.imag)
    if w.min() <= 0:
        raise ThetaDomainError("Im B is not positive definite")
    return B, float(w.min())


def _halves(chars):
    """The (C, g) arrays p and q of a sequence of characteristics."""
    return (np.array([c.p for c in chars], dtype=float),
            np.array([c.q for c in chars], dtype=float))


def _reduce(chars, xi, B):
    """Split each row of the (M, g) batch xi as xi0 + nu + B mu with integer
    vectors nu, mu and small xi0, once for all characteristics.

    Returns (xi0, mu, fac) with theta[p_c,q_c](xi) = fac[c] * theta[p_c,q_c](xi0)
    and fac (C, M) = exp(2 pi i p.nu - 2 pi i mu.(xi0 + q) - i pi mu.B.mu).
    """
    p, q = _halves(chars)
    mu = np.round(np.linalg.solve(B.imag, xi.imag.T)).T.astype(int)   # (M, g)
    shifted = xi - mu @ B
    nu = np.round(shifted.real).astype(int)
    xi0 = shifted - nu
    common = (-TWO_PI_I * np.einsum("mi,mi->m", mu, xi0)
              - 1j * math.pi * np.einsum("mi,ij,mj->m", mu, B, mu))
    return xi0, mu, np.exp(TWO_PI_I * (p @ nu.T - q @ mu.T) + common)


def _contract(coef, powers):
    """sum_k coef[l, k] prod_i powers[i, k_i, m] for the (L, K^g) stack of
    coefficient tensors coef and the (g, K, M) axis factors: one matmul over
    the last axis for the whole stack, then one einsum per remaining axis.
    Returns (L, M)."""
    g, K, M = powers.shape
    t = coef.reshape(-1, K) @ powers[-1]                     # (L K^(g-1), M)
    for f in powers[-2::-1]:
        t = np.einsum("akm,km->am", t.reshape(len(t) // K, K, M), f)
    return t


def _theta_raw(chars, xi0, B, lam_min, tol, monomials=((1.0, ()),)):
    """Truncated lattice sums of several characteristics at the (M, g) batch
    xi0 of reduced arguments, each term weighted by a monomial in n.

    Each entry (c, axes) of monomials weights the term of n by
    c prod_{i in axes} n_i (the product in the coefficient tensor, c on the
    sum): (1, ()) gives theta itself, ((2 pi i)^d, axes)
    the xi-derivative along axes, and (i pi, (i, j)) the term-wise
    derivative in B_ij (B_ij and B_ji taken as independent entries).
    Returns (C, len(monomials), M).

    All characteristics sum over the same box n = k + p, k in [-r, r]^g.
    The axis factors exp(2 pi i k_i xi0_i) do not depend on the
    characteristic; they are powers of exp(2 pi i xi0_i), one table for all.
    q enters each coefficient tensor as the phase exp(2 pi i n.q), and p as
    the per-argument factor exp(2 pi i p.xi0).
    """
    M, g = xi0.shape
    p, q = _halves(chars)
    im_shift = np.max(np.linalg.norm(xi0.imag, axis=1)) if xi0.size else 0.0
    radius = math.sqrt(max(math.log(1.0 / tol), 1.0) / (math.pi * lam_min)) \
        + im_shift / lam_min + 1.5
    r = int(math.ceil(radius))
    k = np.arange(-r, r + 1)
    grid = np.stack(np.meshgrid(*[k] * g, indexing="ij"), axis=-1).reshape(-1, g)
    n = grid[None, :, :] + p[:, None, :]                     # (C, K^g, g)
    coef = np.exp(1j * math.pi * np.einsum("cai,ij,caj->ca", n, B, n)
                  + TWO_PI_I * np.einsum("cai,ci->ca", n, q))
    stack = np.stack([np.prod(n[:, :, list(axes)], axis=-1) * coef
                      for _, axes in monomials], axis=1)     # (C, W, K^g)
    # z^k for k = -r..r: running products of z = exp(2 pi i xi0) and of 1/z
    z, zinv = np.exp(TWO_PI_I * xi0.T), np.exp(-TWO_PI_I * xi0.T)      # (g, M)
    powers = np.empty((g, len(k), M), dtype=complex)
    powers[:, r] = 1.0
    for j in range(1, r + 1):
        np.multiply(powers[:, r + j - 1], z, out=powers[:, r + j])
        np.multiply(powers[:, r - j + 1], zinv, out=powers[:, r - j])
    sums = _contract(stack.reshape(-1, len(k) ** g), powers)
    scale = np.array([c for c, _ in monomials])
    shift = np.exp(TWO_PI_I * (p @ xi0.T))                  # (C, M)
    return (sums.reshape(len(chars), len(monomials), M)
            * scale[None, :, None] * shift[:, None, :])


def _theta_values(chars, xi, B, deriv, tol):
    """theta[p,q] or one of its xi-derivatives over the (M, g) batch xi, for
    each characteristic in chars: (C, M)."""
    B, lam_min = _check_b(B)
    g = xi.shape[1]
    if any(c.genus != g for c in chars):
        raise ValueError("characteristic size does not match xi")
    if len(deriv) > 2:
        raise ValueError("derivatives of order <= 2 only")
    if any(not 0 <= i < g for i in deriv):
        raise ValueError(f"derivative axes must lie in [0, {g})")
    xi0, mu, fac = _reduce(chars, xi, B)
    # d/dxi_i (fac F(xi0)) = fac (d/dxi0_i - 2 pi i mu_i) F: expand the product
    # over the subsets of deriv taken by d/dxi0
    subsets = [s for size in range(len(deriv) + 1)
               for s in itertools.combinations(range(len(deriv)), size)]
    sums = _theta_raw(chars, xi0, B, lam_min, tol,
                      [(TWO_PI_I ** len(s), tuple(deriv[a] for a in s))
                       for s in subsets])
    out = 0.0
    for w, s in enumerate(subsets):
        rest = [deriv[a] for a in range(len(deriv)) if a not in s]
        out = out + sums[:, w] * np.prod([-TWO_PI_I * mu[:, i] for i in rest],
                                         axis=0)
    return fac * out


def theta(char, xi, B, deriv=(), tol=1e-12):
    """theta[p,q](xi | B) or a xi-derivative of order <= 2.

    deriv is a tuple of axis indices in [0, g), e.g. () value, (0,)
    d/dxi_0, (0, 1) d^2/dxi_0 dxi_1.  xi may be a vector (one point) or an
    (M, g) batch.  The argument is reduced modulo the period lattice and the
    exact quasi-periodicity factor is restored, so values are exact (not
    reduced representatives).
    """
    xi = np.asarray(xi, dtype=complex)
    out = _theta_values([char], np.atleast_2d(xi), B, tuple(deriv), tol)[0]
    return out[0] if xi.ndim <= 1 else out


def theta_batch(chars, xi, B, tol=1e-12):
    """Vectorized theta values over an (M, g) batch of arguments: the entry
    point for quadrature-scale workloads.

    chars is one characteristic (returns (M,)) or a sequence of them
    (returns (C, M)); a sequence shares one argument reduction, one table of
    axis factors and one contraction."""
    xi = np.atleast_2d(np.asarray(xi, dtype=complex))
    if isinstance(chars, ThetaCharacteristic):
        return _theta_values([chars], xi, B, (), tol)[0]
    return _theta_values(list(chars), xi, B, (), tol)


def theta_gradient0(char, B, tol=1e-12):
    """Gradient of theta[p,q] at xi = 0 (vector of d/dxi_i)."""
    g = char.genus
    return np.array([theta(char, np.zeros(g), B, deriv=(i,), tol=tol)
                     for i in range(g)])


def heat_equation_residual(char, xi, B, tol=1e-13):
    """max_ij | dtheta/dB_ij - (1/(4 pi i)) d^2 theta / dxi_i dxi_j |.

    Both sides are term-wise derivatives of the same truncated lattice sum;
    B_ij and B_ji are treated as independent entries (no off-diagonal
    symmetry factor), the convention in which the identity holds term by
    term.  The residual is therefore rounding only: it cannot see a
    truncation or reduction error (tests difference `theta` in B for that).
    """
    B, lam_min = _check_b(B)
    xi0, _, _ = _reduce([char], np.atleast_2d(np.asarray(xi, dtype=complex)), B)
    pairs = list(itertools.product(range(char.genus), repeat=2))
    sums = _theta_raw([char], xi0, B, lam_min, tol,
                      [(TWO_PI_I ** 2, ij) for ij in pairs]
                      + [(1j * math.pi, ij) for ij in pairs])[0, :, 0]
    hess, dB = sums[:len(pairs)], sums[len(pairs):]
    return float(np.max(np.abs(dB - hess / (4j * math.pi))))


# ---------------------------------------------------------------------------
# prime form and Szego kernel

def choose_odd_characteristic(periods, pts, h_tol=1e-8):
    """First odd characteristic whose h_delta is bounded away from 0 at pts."""
    for delta in odd_characteristics(periods.genus):
        ok = all(abs(periods.h_delta_sq(delta, pt)) > h_tol for pt in pts)
        if ok:
            return delta
    raise DegeneratePointError("h_delta vanishes at the evaluation points "
                               "for every odd characteristic")


def prime_form(periods, x, y, delta=None):
    """Prime form E(x, y) = theta[delta](A(y) - A(x)) / (h_delta(x) h_delta(y)).

    Antisymmetric, E(x, y) ~ (y - x) (leading coefficient 1) in the flat chart
    as y -> x.  delta defaults to the first odd characteristic usable at both
    points; the h_delta branch is the sign field carried by `periods`.
    """
    if delta is None:
        delta = choose_odd_characteristic(periods, (x, y))
    w = periods.abel(y) - periods.abel(x)
    num = theta(delta, w, periods.b_matrix)
    return num / (periods.h_delta(delta, x) * periods.h_delta(delta, y))


def szego_kernel(char, periods, z, zp, delta=None):
    """Szego kernel S(z, z') for an even characteristic with theta(0) != 0.

    S(z, z') = theta[p,q](A(z') - A(z)) / (theta[p,q](0) E(z', z)); it is
    antisymmetric and S(z, z') = 1/(z - z') + O(1) near the diagonal.
    """
    if not char.is_even:
        raise ValueError("Szego kernel requires an even characteristic")
    t0 = periods.theta0(char)
    if abs(t0) < THETA0_TOL:
        raise DegenerateSpinError(f"theta{char.label()}(0) ~ 0")
    w = periods.abel(zp) - periods.abel(z)
    num = theta(char, w, periods.b_matrix)
    return num / (t0 * prime_form(periods, zp, z, delta=delta))


def szego_a0_formula(char, periods, z):
    """Diagonal constant a0(z) = -sum_i d_i log theta[p,q](0) v_i(z)."""
    grad = periods.theta_gradient0(char)
    t0 = periods.theta0(char)
    return complex(-np.dot(grad / t0, periods.v(z)))


def szego_near_diagonal(char, periods, z, radius=1e-3, n_angle=8, delta=None):
    """Extract (a0, a1) from S(z, z') - 1/(z - z') = a0 + a1 (z' - z) + ...

    Samples z' on two circles of radius `radius` and `radius/2` around z in
    the flat chart and solves the least-squares fit with basis {1, e, e^2}.
    """
    eps, rows, rhs = [], [], []
    for rad in (radius, 0.5 * radius):
        for k in range(n_angle):
            e = rad * np.exp(2j * math.pi * (k + 0.31) / n_angle)
            zp = periods.offset_point(z, e)
            s = szego_kernel(char, periods, z, zp, delta=delta)
            rows.append([1.0, e, e * e])
            rhs.append(s - 1.0 / (-e))          # z - z' = -e
            eps.append(e)
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return coef[0], coef[1]
