"""Flat-torus spectra and zeta determinants computed apart from spinlap.

The operator is Delta = -(1/4)(d_x^2 + d_y^2) on C / (Z A + Z B) acting on
sections with monodromy sigma_a across the A-cycle and sigma_b across the
B-cycle.  Its spectrum is explicit,

    lambda = pi^2 |m1 B - m2 A|^2 / D^2,   m in (Z + p) x (Z + q),

with D = Im(A conj(B)), p = 0 for sigma_a = +1 and 1/2 for sigma_a = -1 (q
likewise), and its heat trace has the Poisson-resummed form

    K(t) = Area/(pi t) sum_{n in Z^2} cos(2 pi (n1 p + n2 q))
                                       exp(-|n1 A + n2 B|^2 / t).

The zeta determinant splits the Mellin integral at T:

    zeta'(0) = -Area/(pi T) + int_0^T (K(t) - Area/(pi t)) dt/t
               + sum_lambda E1(lambda T),

because zeta(0) = 0 for every structure without a zero mode.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1


def _half(sigma):
    return 0.0 if sigma == 1 else 0.5


def torus_spectrum(A, B, sigma_a, sigma_b, count, n=60):
    """The `count` smallest eigenvalues (sigma = (1, 1) has a zero mode and
    is not supported)."""
    if (sigma_a, sigma_b) == (1, 1):
        raise ValueError("the trivial structure has a zero mode")
    A, B = complex(A), complex(B)
    D = (A * np.conj(B)).imag
    m1 = np.arange(-n, n + 1) + _half(sigma_a)
    m2 = np.arange(-n, n + 1) + _half(sigma_b)
    lam = math.pi ** 2 * np.abs(m1[:, None] * B - m2[None, :] * A) ** 2 / D ** 2
    return np.sort(lam.ravel())[:count]


def torus_heat_trace(A, B, sigma_a, sigma_b, t, n=12):
    """K(t) by Poisson resummation; accurate for t up to about the area."""
    A, B = complex(A), complex(B)
    area = abs((A * np.conj(B)).imag)
    k = np.arange(-n, n + 1)
    n1, n2 = np.meshgrid(k, k, indexing="ij")
    quad = np.abs(n1 * A + n2 * B) ** 2
    phase = np.cos(2 * math.pi * (n1 * _half(sigma_a) + n2 * _half(sigma_b)))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    terms = phase[None] * np.exp(-quad[None] / t[:, None, None])
    return area / (math.pi * t) * terms.sum(axis=(1, 2))


def torus_logdet(A, B, sigma_a, sigma_b, n_quad=80):
    """log det Delta (zeta-regularized) by the split-Mellin formula."""
    A, B = complex(A), complex(B)
    area = abs((A * np.conj(B)).imag)
    lam = torus_spectrum(A, B, sigma_a, sigma_b, count=None)
    T = 1.0 / lam[0]
    tail = float(np.sum(exp1(lam * T)))
    x, w = np.polynomial.legendre.leggauss(n_quad)
    t = 0.5 * T * (x + 1.0)
    smooth = torus_heat_trace(A, B, sigma_a, sigma_b, t) - area / (math.pi * t)
    head = float(np.sum(0.5 * T * w * smooth / t))
    return -(-area / (math.pi * T) + head + tail)
