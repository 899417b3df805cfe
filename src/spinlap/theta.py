"""Riemann theta functions with half-integer characteristics, the prime form,
and the Szego kernel.

theta[p,q](xi | B) = sum_{n in Z^g} exp( i pi (n+p)^T B (n+p)
                                         + 2 pi i (n+p)^T (xi + q) ),

with p, q in {0, 1/2}^g and Im B positive definite.  Arguments are first
reduced modulo Z^g + B Z^g, with the exact quasi-periodicity factor
multiplied back in, so the returned value is the true theta value (not a
reduced representative).  At the reduced arguments the sum runs over the
box n = k + p, k in [-r, r]^g, whose half-width r is set by the Gaussian
tail bound and the largest |Im xi| of the batch.  Each term factors over
the axes,

    exp(i pi n^T B n) * prod_i exp(2 pi i n_i (xi_i + q_i)),

so per argument only the g (2r+1) axis factors are exponentiated; they are
contracted with the (2r+1)^g coefficient tensor exp(i pi n^T B n), one axis
at a time.  xi-derivatives weight the axis factors by 2 pi i n_i, the
B-derivative weights the coefficient tensor by i pi n_i n_j.

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

TWO_PI_I = 2j * math.pi


class ThetaDomainError(ValueError):
    """Im B not positive definite."""


class DegenerateSpinError(ValueError):
    """theta[p,q](0) vanishes (the genericity assumption h^0(C)=0 fails)."""


class DegeneratePointError(ValueError):
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


def _reduce(char, xi, B):
    """Split each row of the (M, g) batch xi as xi0 + nu + B mu with integer
    vectors nu, mu and small xi0.

    Returns (xi0, mu, fac) with theta[p,q](xi) = fac * theta[p,q](xi0) and
    fac = exp(2 pi i p.nu - 2 pi i mu.(xi0 + q) - i pi mu.B.mu).
    """
    p = np.asarray(char.p)
    q = np.asarray(char.q)
    mu = np.round(np.linalg.solve(B.imag, xi.imag.T)).T.astype(int)   # (M, g)
    shifted = xi - mu @ B
    nu = np.round(shifted.real).astype(int)
    xi0 = shifted - nu
    expo = (TWO_PI_I * (nu @ p)
            - TWO_PI_I * np.einsum("mi,mi->m", mu, xi0 + q)
            - 1j * math.pi * np.einsum("mi,ij,mj->m", mu, B, mu))
    return xi0, mu, np.exp(expo)


def _contract(coef, factors):
    """sum_k coef[k] prod_i factors[i][m, k_i] for the K^g tensor coef and g
    axis factors of shape (M, K): a matmul over the last axis, then one
    einsum per remaining axis."""
    K = coef.shape[-1]
    M = factors[0].shape[0]
    t = coef.reshape(-1, K) @ factors[-1].T                  # (K^(g-1), M)
    for f in factors[-2::-1]:
        t = np.einsum("akm,mk->am", t.reshape(len(t) // K, K, M), f)
    return t[0]


def _theta_raw(char, xi, B, lam_min, tol, order=0):
    """Truncated lattice sum at the (M, g) batch xi of reduced arguments.

    Returns (val (M,), grad (M, g), hess (M, g, g), dB (M, g, g)); order 0
    computes the value only, order 1 adds the xi-gradient and order 2 the
    xi-Hessian and dB, the term-wise derivative in B_ij treating B_ij and
    B_ji as independent entries.  Entries not computed are None.
    """
    M, g = xi.shape
    p = np.asarray(char.p)
    q = np.asarray(char.q)
    im_shift = np.max(np.linalg.norm(xi.imag, axis=1)) if xi.size else 0.0
    radius = math.sqrt(max(math.log(1.0 / tol), 1.0) / (math.pi * lam_min)) \
        + im_shift / lam_min + 1.5
    r = int(math.ceil(radius))
    nk = np.arange(-r, r + 1)[None, :] + p[:, None]          # (g, K): n_i = k + p_i
    n = np.stack(np.meshgrid(*nk, indexing="ij"), axis=-1)   # (K,)*g + (g,)
    coef = np.exp(1j * math.pi * np.einsum("...i,ij,...j->...", n, B, n))
    e = np.exp(TWO_PI_I * (xi + q).T[:, :, None] * nk[:, None, :])   # (g, M, K)
    val = _contract(coef, list(e))
    if order == 0:
        return val, None, None, None
    w = TWO_PI_I * nk                                        # d/dxi_i weights

    def weighted(*axes):
        """The axis factors with e_i times w_i once per occurrence of i."""
        f = list(e)
        for i in axes:
            f[i] = w[i] * f[i]
        return f

    grad = np.stack([_contract(coef, weighted(i)) for i in range(g)], axis=1)
    if order == 1:
        return val, grad, None, None
    hess = np.empty((M, g, g), dtype=complex)
    dB = np.empty((M, g, g), dtype=complex)
    for i in range(g):
        for j in range(i, g):
            hess[:, i, j] = hess[:, j, i] = _contract(coef, weighted(i, j))
            dB_coef = 1j * math.pi * n[..., i] * n[..., j] * coef
            dB[:, i, j] = dB[:, j, i] = _contract(dB_coef, list(e))
    return val, grad, hess, dB


def _theta_values(char, xi, B, deriv, tol):
    """theta[p,q] or one of its xi-derivatives over the (M, g) batch xi."""
    B, lam_min = _check_b(B)
    g = xi.shape[1]
    if g != char.genus:
        raise ValueError("characteristic size does not match xi")
    if len(deriv) > 2:
        raise ValueError("derivatives of order <= 2 only")
    if any(not 0 <= i < g for i in deriv):
        raise ValueError(f"derivative axes must lie in [0, {g})")
    xi0, mu, fac = _reduce(char, xi, B)
    val, grad, hess, _ = _theta_raw(char, xi0, B, lam_min, tol, order=len(deriv))
    if len(deriv) == 0:
        return fac * val
    if len(deriv) == 1:
        i, = deriv
        return fac * (grad[:, i] - TWO_PI_I * mu[:, i] * val)
    i, j = deriv
    return fac * (hess[:, i, j]
                  - TWO_PI_I * mu[:, i] * grad[:, j]
                  - TWO_PI_I * mu[:, j] * grad[:, i]
                  + (TWO_PI_I ** 2) * mu[:, i] * mu[:, j] * val)


def theta(char, xi, B, deriv=(), tol=1e-12):
    """theta[p,q](xi | B) or a xi-derivative of order <= 2.

    deriv is a tuple of axis indices in [0, g), e.g. () value, (0,)
    d/dxi_0, (0, 1) d^2/dxi_0 dxi_1.  xi may be a vector (one point) or an
    (M, g) batch.  The argument is reduced modulo the period lattice and the
    exact quasi-periodicity factor is restored, so values are exact (not
    reduced representatives).
    """
    xi = np.asarray(xi, dtype=complex)
    out = _theta_values(char, np.atleast_2d(xi), B, tuple(deriv), tol)
    return out[0] if xi.ndim <= 1 else out


def theta_batch(char, xi, B, tol=1e-12):
    """Vectorized theta values over an (M, g) batch of arguments: the entry
    point for quadrature-scale workloads."""
    xi = np.atleast_2d(np.asarray(xi, dtype=complex))
    return _theta_values(char, xi, B, (), tol)


def theta_gradient0(char, B, tol=1e-12):
    """Gradient of theta[p,q] at xi = 0 (vector of d/dxi_i)."""
    g = char.genus
    return np.array([theta(char, np.zeros(g), B, deriv=(i,), tol=tol)
                     for i in range(g)])


def heat_equation_residual(char, xi, B, tol=1e-13):
    """max_ij | dtheta/dB_ij - (1/(4 pi i)) d^2 theta / dxi_i dxi_j |.

    Both sides are term-wise derivatives of the lattice sum; B_ij and B_ji are
    treated as independent entries (no off-diagonal symmetry factor), the
    convention in which the identity holds exactly and the residual is pure
    truncation.
    """
    B, lam_min = _check_b(B)
    xi0, _, _ = _reduce(char, np.atleast_2d(np.asarray(xi, dtype=complex)), B)
    _, _, hess, dB = _theta_raw(char, xi0, B, lam_min, tol, order=2)
    lhs = dB[0]
    rhs = hess[0] / (4j * math.pi)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# prime form and Szego kernel

def h_delta(delta, periods, pt):
    """Continuous branch of sqrt(sum_i d_i theta[delta](0) v_i(pt))."""
    return periods.h_delta(delta, pt)


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
    return num / (h_delta(delta, periods, x) * h_delta(delta, periods, y))


def szego_kernel(char, periods, z, zp, delta=None, theta0_tol=1e-10):
    """Szego kernel S(z, z') for an even characteristic with theta(0) != 0.

    S(z, z') = theta[p,q](A(z') - A(z)) / (theta[p,q](0) E(z', z)); it is
    antisymmetric and S(z, z') = 1/(z - z') + O(1) near the diagonal.
    """
    if not char.is_even:
        raise ValueError("Szego kernel requires an even characteristic")
    t0 = periods.theta0(char)
    if abs(t0) < theta0_tol:
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
