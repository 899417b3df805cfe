"""Model-cone analysis: operator-pencil data, Carslaw-type heat kernels on a
flat cone of angle alpha, the per-cone heat-trace constant, the parabolic
cylinder function D_{-1/2}, and the large-|lambda| model scattering asymptote.

Conventions.  The Laplacian is Delta = -(1/4)(d^2/dx^2 + d^2/dy^2) in flat
coordinates, so the free-plane heat kernel is exp(-|z-z'|^2/t)/(pi t).  Polar
coordinates (r, phi) live on the cone of total angle alpha; the periodic
kernel H_per below is alpha-periodic in phi - phi', the anti-periodic kernel
H_anti flips sign under phi -> phi + alpha.

The anti-periodic kernel is evaluated by two independent routes (deformed
contour quadrature, and a modified-Bessel series) that are cross-checked in
the test suite.  Note: the Bessel series carries the prefactor 4/(alpha*t);
this is fixed by requiring that the alpha = 2*pi periodic kernel degenerate
to the plane kernel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, ive


class ResonanceError(ValueError):
    """A recurrence denominator vanished (resonant exponent)."""


class PoleError(ValueError):
    """Evaluation requested at a pole of the angular resolvent."""


class QuadratureError(RuntimeError):
    """A quadrature missed its accuracy requirement (a non-convergent contour
    here, a T(0) Hermiticity defect in determinants)."""


GAMMA_3_4 = float(gamma(0.75))
GAMMA_1_4 = float(gamma(0.25))


# ---------------------------------------------------------------------------
# pencil coefficient recurrences

def pencil_coefficients(n: int, q: complex) -> complex:
    """d(n, q) with d(0, q) = 1 and -n(q + n) d(n, q) = d(n-1, q).

    These are the coefficients of the local (Delta - lambda)-harmonic series
    f * sum_n d(n, q) (lambda |x|^4 / 4)^n attached to the angular exponent q.
    Raises ResonanceError if q + k = 0 for some 1 <= k <= n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    d = 1.0 + 0.0j
    for k in range(1, n + 1):
        denom = -k * (q + k)
        if denom == 0:
            raise ResonanceError(f"resonant exponent: q + {k} = 0")
        d = d / denom
    return d


def general_cone_coefficients(p: float, q: float, j: int, b: float) -> float:
    """d(p, q, j, b) for a cone of angle 2*pi*(b+1): d(p,q,0,b) = 1 and

        -(q + n(b+1)) (p + n(b+1) - b/2) d(p,q,j,b) = d(p,q,j-1,b),  n = j.

    For rational b <= 0 the chain may be non-solvable (power-logarithmic
    terms appear); a ResonanceError is raised on an exact zero factor.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    d = 1.0
    for n in range(1, j + 1):
        denom = -(q + n * (b + 1.0)) * (p + n * (b + 1.0) - b / 2.0)
        if denom == 0:
            raise ResonanceError(f"zero factor in chain at n = {n}")
        d = d / denom
    return d


def resolvent_poles(alpha: float, m_range=range(-6, 8)):
    """Poles mu_m = i*pi*(1 - 2m)/alpha of the angular pencil resolvent."""
    return [1j * math.pi * (1.0 - 2 * m) / alpha for m in m_range]


def pencil_resolvent(phi: float, phip: float, mu2: complex, alpha: float) -> complex:
    """Angular resolvent sh(mu(|phi-phi'| - alpha/2)) / (2 mu ch(alpha mu / 2)).

    Even in mu, hence a single-valued function of mu^2; the mu -> 0 limit is
    (|phi - phi'| - alpha/2)/2.  Raises PoleError at ch(alpha mu / 2) = 0.
    """
    x = abs(phi - phip) - alpha / 2.0
    mu = np.sqrt(complex(mu2))
    ch = np.cosh(alpha * mu / 2.0)
    if abs(ch) < 1e-13:
        raise PoleError("mu^2 is at a pole of the angular resolvent")
    if abs(mu) < 1e-8:
        # series: sh(mu x)/(2 mu ch) = x/2 * (1 + mu^2 x^2/6) / ch
        return (x / 2.0) * (1.0 + mu2 * x * x / 6.0) / ch
    return np.sinh(mu * x) / (2.0 * mu * ch)


# ---------------------------------------------------------------------------
# Carslaw contour kernel

def _cot_upper(w):
    """cot(w) for Im w >= 0, stable for large Im w."""
    e = np.exp(2j * w)
    return 1j * (e + 1.0) / (e - 1.0)


def _gauss_panels(s_max: float, n_panel: int, order: int = 20):
    """Gauss-Legendre nodes/weights on [0, s_max] split into n_panel panels."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, s_max, n_panel + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def carslaw_kernel(r, phi, rp, phip, t, alpha, s_max=None, n_panel=None):
    """alpha-periodic heat kernel H_per(r, phi, r', phi', t | alpha) on the cone.

    Deformed-contour evaluation: image-source residues at theta_k = k*alpha -
    (phi - phi') with |theta_k| < c, plus quadrature along the vertical lines
    Re theta = +-c (pi/2 < c <= pi), where the integrand decays like
    exp(-2 r r' cosh(s)/t) * exp(-2 pi s / alpha).  The value is independent
    of c; c is chosen away from the poles.  alpha = 2*pi reproduces the plane
    kernel exp(-d^2/t)/(pi t).
    """
    dphi = float(phi) - float(phip)
    r, rp, t, alpha = float(r), float(rp), float(t), float(alpha)
    if t <= 0:
        raise ValueError("t must be positive")

    # image sources: poles of cot(pi(theta+dphi)/alpha) inside (-c, c)
    kmin = int(np.floor((dphi - math.pi) / alpha)) - 1
    kmax = int(np.ceil((dphi + math.pi) / alpha)) + 1
    thetas = np.array([k * alpha - dphi for k in range(kmin, kmax + 1)])
    thetas = thetas[np.abs(thetas) < math.pi + 0.49 * math.pi]

    # vertical lines at Re theta = +-c with c in (pi/2, pi], kept away from
    # the poles; c = pi is preferred (there cos(c + i s) is real and the two
    # cot factors cancel as s grows).
    if len(thetas) == 0 or np.min(np.abs(np.abs(thetas) - math.pi)) > 0.05:
        c = math.pi
    else:
        candidates = np.linspace(0.55 * math.pi, math.pi, 41)
        dist = np.array([np.min(np.abs(np.abs(thetas) - cc)) for cc in candidates])
        c = float(candidates[np.argmax(dist)])
        if dist.max() < 1e-6:
            raise QuadratureError("cot pole pinned to the contour lines")

    inside = thetas[np.abs(thetas) < c]
    res_sum = np.sum(np.exp(-(r * r - 2.0 * r * rp * np.cos(inside) + rp * rp) / t))

    # quadrature along the two lines, folded to s >= 0 via G(+-c, -s) = conj(G(+-c, s))
    if s_max is None:
        # the integrand decays at least like exp(-2 pi s/alpha) * gaussian
        s_max = max(12.0, alpha / (2.0 * math.pi) * 40.0)
    if n_panel is None:
        n_panel = max(10, int(s_max / 1.2))
    s, w = _gauss_panels(s_max, n_panel)

    def g_line(x0):
        cos_theta = math.cos(x0) * np.cosh(s) - 1j * math.sin(x0) * np.sinh(s)
        expo = -(r * r - 2.0 * r * rp * cos_theta + rp * rp) / t
        return np.exp(expo) * _cot_upper(math.pi * (x0 + 1j * s + dphi) / alpha)

    line = np.sum(w * 2.0 * np.real(g_line(-c) - g_line(c)))
    return float(res_sum / (math.pi * t) + line / (2.0 * math.pi * alpha * t))


def antiperiodic_kernel_contour(r, phi, rp, phip, t, alpha):
    """alpha-anti-periodic cone kernel via H_per(.|2 alpha) - H_per(phi+alpha, .|2 alpha)."""
    return (carslaw_kernel(r, phi, rp, phip, t, 2.0 * alpha)
            - carslaw_kernel(r, phi + alpha, rp, phip, t, 2.0 * alpha))


def antiperiodic_kernel_bessel(r, phi, rp, phip, t, alpha, tol=1e-15):
    """alpha-anti-periodic cone kernel via the modified-Bessel series

        (4/(alpha t)) e^{-(r^2+r'^2)/t} sum_k cos(pi(2k+1)(phi-phi')/alpha)
                                              I_{(2k+1)pi/alpha}(2 r r'/t).

    Scaled Bessel functions keep the evaluation overflow-free; the series is
    truncated when the scaled tail drops below tol.  Behaves as O(r^{pi/alpha})
    as r -> 0.
    """
    r, rp, t, alpha = float(r), float(rp), float(t), float(alpha)
    x = 2.0 * r * rp / t
    dphi = float(phi) - float(phip)
    pref = 4.0 / (alpha * t) * math.exp(-(r - rp) ** 2 / t)
    total = 0.0
    k = 0
    block = 32
    while True:
        ks = np.arange(k, k + block)
        nu = (2 * ks + 1) * math.pi / alpha
        terms = np.cos(math.pi * (2 * ks + 1) * dphi / alpha) * ive(nu, x)
        total += terms.sum()
        k += block
        if np.max(np.abs(ive(nu[-1], x))) < tol or k > 20000:
            break
    return float(pref * total)


def antiperiodic_kernel(r, phi, rp, phip, t, alpha, route="contour"):
    """Anti-periodic cone kernel; route is 'contour' or 'bessel'."""
    if route == "contour":
        return antiperiodic_kernel_contour(r, phi, rp, phip, t, alpha)
    if route == "bessel":
        return antiperiodic_kernel_bessel(r, phi, rp, phip, t, alpha)
    raise ValueError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# per-cone heat-trace constant

def cone_trace_constant(alpha: float) -> float:
    """Closed form -(1/8)(alpha/(3 pi) + 2 pi/(3 alpha)); equals -3/16 at 4 pi."""
    return -0.125 * (alpha / (3.0 * math.pi) + 2.0 * math.pi / (3.0 * alpha))


def cone_trace_constant_numeric(alpha: float, t: float = 1e-3, r_max_factor: float = 12.0,
                                n_panel: int = 240) -> float:
    """Numeric route: integrate (H_anti(r,phi,r,phi,t) - 1/(pi t)) r dr dphi
    over a truncated cone at small t.

    On the diagonal the integrand depends on r and t only through x = 2 r^2/t,
    so the integral is evaluated in x; r_max = r_max_factor * sqrt(t) truncates
    where the deviation from the plane kernel is exponentially small.
    """
    x_max = 2.0 * r_max_factor ** 2
    x, w = _gauss_panels(x_max, n_panel)

    def diag_sum(xv):
        out = np.zeros_like(xv)
        k = 0
        block = 64
        while True:
            nu = (2 * np.arange(k, k + block) + 1) * math.pi / alpha
            out += ive(nu[:, None], xv[None, :]).sum(axis=0)
            k += block
            if np.max(ive(nu[-1], xv)) < 1e-16 or k > 8000:
                break
        return out

    integrand = diag_sum(x) - alpha / (4.0 * math.pi)
    return float(np.sum(w * integrand))


# ---------------------------------------------------------------------------
# parabolic cylinder function, paper normalization

def _kummer_m(a: float, b: float, x, nmax: int = 400):
    """Kummer's M(a, b, x) by power series (entire in x)."""
    x = np.asarray(x, dtype=complex)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(nmax):
        term = term * (a + n) / ((b + n) * (n + 1.0)) * x
        total = total + term
        if np.all(np.abs(term) < 1e-18 * (1.0 + np.abs(total))):
            break
    return total


def parabolic_cylinder_Dmhalf(z, switch: float = 6.0):
    """D_{-1/2}(z), normalized so that

        D_{-1/2}(0)  =  pi^{3/2} 2^{-1/4} / Gamma(3/4),
        D'_{-1/2}(0) = -pi^{3/2} 2^{1/4}  / Gamma(1/4)

    (pi times the classical Whittaker normalization; this is the normalization
    under which the model solution c(lambda) D_{-1/2}(2 r (-lambda)^{1/4})
    carries the stated constants).  Power series for |z| < switch, Poincare
    asymptotics (valid for |arg z| < 3 pi/4) beyond; exponentially decaying as
    z -> +infinity.
    """
    z = complex(z)
    if abs(z) < switch:
        x = z * z / 2.0
        t1 = _kummer_m(0.25, 0.5, x) / GAMMA_3_4
        t2 = -math.sqrt(2.0) * z * _kummer_m(0.75, 1.5, x) / GAMMA_1_4
        d_std = 2.0 ** (-0.25) * math.sqrt(math.pi) * np.exp(-x / 2.0) * (t1 + t2)
    else:
        if abs(np.angle(z)) >= 0.75 * math.pi:
            raise ValueError("asymptotic branch requires |arg z| < 3 pi/4")
        # D_nu(z) ~ e^{-z^2/4} z^nu sum_s (-1)^s (-nu)_{2s} / (s! (2 z^2)^s)
        zz2 = 2.0 * z * z
        term = 1.0 + 0.0j
        total = 1.0 + 0.0j
        prev = np.inf
        for s in range(60):
            term = term * -((0.5 + 2 * s) * (1.5 + 2 * s)) / ((s + 1.0) * zz2)
            if abs(term) > prev:
                break
            total += term
            prev = abs(term)
        d_std = np.exp(-z * z / 4.0) * z ** (-0.5) * total
    val = math.pi * d_std
    if abs(val.imag) < 1e-14 * abs(val.real):
        return complex(val.real, 0.0)
    return val


# ---------------------------------------------------------------------------
# model scattering asymptotics

def scattering_c_lambda(lam: complex) -> complex:
    """Normalizing constant c(lambda) = (-2/lambda)^{1/4} pi^{-3/2} / Gamma(3/4)."""
    return (-2.0 / lam) ** 0.25 * math.pi ** (-1.5) / GAMMA_3_4


def model_special_solution(x_abs: float, lam: complex) -> complex:
    """Radial model solution f^lambda_{k,0,-}(|x|) = c(lambda) D_{-1/2}(2|x|(-lam)^{1/4})."""
    z = 2.0 * x_abs * (-lam) ** 0.25
    return scattering_c_lambda(lam) * parabolic_cylinder_Dmhalf(z)


def model_scattering_asymptote(lam: complex, g: int, x_probe: float | None = None):
    """Model T(lambda) data for Re(lambda) -> -infinity.

    Returns (t_diag, det_t): t_diag is the diagonal entry rebuilt from the
    parabolic-cylinder solution as the x -> 0 constant term of
    f^lambda_{k,0,-} - f_{k,0,-}, and det_t = t_diag^{2g-2}.  The closed-form
    asymptote is t_inf (-lambda)^{p_inf} with t_inf = Gamma(3/4)^{4-4g},
    p_inf = (1-g)/2.
    """
    if x_probe is None:
        x_probe = 0.005 / abs((-lam) ** 0.25)
    f_model = model_special_solution(x_probe, lam)
    f_flat = -2.0 * x_probe / math.pi          # f_{k,0,-}(x) = -(2/pi)|x|
    t_diag = f_model - f_flat
    det_t = t_diag ** (2 * g - 2)
    return t_diag, det_t


def det_t_asymptote(lam: complex, g: int) -> complex:
    """Closed-form det T(lambda) asymptote t_inf * (-lambda)^{p_inf}."""
    t_inf = GAMMA_3_4 ** (4 - 4 * g)
    p_inf = 0.5 * (1 - g)
    return t_inf * (-lam) ** p_inf
