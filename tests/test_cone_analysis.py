"""Tests for the model-cone machinery: recurrences, resolvent, heat kernels,
trace constant, parabolic cylinder function, scattering asymptote."""

import math

import numpy as np
import pytest

from spinlap import cone_analysis as ca


GAMMA_3_4_REF = 1.2254167024651776451290983034  # high-precision literal
GAMMA_1_4_REF = 3.6256099082219083119306851559


def test_gamma_literals():
    assert abs(ca.GAMMA_3_4 - GAMMA_3_4_REF) < 1e-13
    assert abs(ca.GAMMA_1_4 - GAMMA_1_4_REF) < 5e-13


# -- pencil coefficients -----------------------------------------------------

def test_pencil_d0_is_one():
    for q in (0.25, -0.3 + 0.2j, 2.0):
        assert ca.pencil_coefficients(0, q) == 1.0


def test_pencil_d1_quarter():
    assert abs(ca.pencil_coefficients(1, 0.25) - (-4.0 / 5.0)) < 1e-15


def test_pencil_d2_quarter():
    assert abs(ca.pencil_coefficients(2, 0.25) - (8.0 / 45.0)) < 1e-15


def test_pencil_recurrence_exact():
    q = 0.37 - 0.11j
    for n in range(1, 8):
        lhs = -n * (q + n) * ca.pencil_coefficients(n, q)
        rhs = ca.pencil_coefficients(n - 1, q)
        assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(rhs))


def test_pencil_resonance_raises():
    with pytest.raises(ca.ResonanceError):
        ca.pencil_coefficients(2, -2.0)


def test_general_cone_j0():
    assert ca.general_cone_coefficients(0.3, 0.7, 0, 1.0) == 1.0


def test_general_cone_4pi_example():
    # b = 1 (angle 4pi), p = q = 0, j = 1: -(2)(2 - 1/2) d = 1
    assert abs(ca.general_cone_coefficients(0.0, 0.0, 1, 1.0) - (-1.0 / 3.0)) < 1e-15


def test_general_cone_recurrence():
    p, q, b = 0.25, -0.25, 1.0
    for j in range(1, 6):
        lhs = -(q + j * (b + 1)) * (p + j * (b + 1) - b / 2) * \
            ca.general_cone_coefficients(p, q, j, b)
        rhs = ca.general_cone_coefficients(p, q, j - 1, b)
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))


# -- angular resolvent --------------------------------------------------------

def test_resolvent_poles_4pi():
    poles = ca.resolvent_poles(4 * math.pi, range(-2, 4))
    expected = [1j * (1 - 2 * m) / 4 for m in range(-2, 4)]
    assert np.allclose(poles, expected)


def test_resolvent_symmetric():
    val1 = ca.pencil_resolvent(1.0, 3.5, 0.3 + 0.1j, 4 * math.pi)
    val2 = ca.pencil_resolvent(3.5, 1.0, 0.3 + 0.1j, 4 * math.pi)
    assert abs(val1 - val2) < 1e-14


def test_resolvent_pole_raises():
    alpha = 4 * math.pi
    mu = 1j * 0.25   # m = 0 pole
    with pytest.raises(ca.PoleError):
        ca.pencil_resolvent(0.5, 1.0, mu ** 2, alpha)


def test_resolvent_mu0_limit():
    alpha = 4 * math.pi
    x = abs(0.7 - 2.1) - alpha / 2
    val = ca.pencil_resolvent(0.7, 2.1, 0.0, alpha)
    assert abs(val - x / 2) < 1e-12


def test_resolvent_decay_at_real_infinity():
    # ||R(mu^2)|| = O(|mu|^-2) along real mu: check pointwise decay rate
    alpha = 4 * math.pi
    phis = np.linspace(0.1, alpha - 0.1, 7)
    mus = np.array([20.0, 40.0, 80.0])
    for p in phis:
        vals = np.array([abs(ca.pencil_resolvent(p, 0.35, m * m, alpha)) for m in mus])
        ratios = vals[:-1] / vals[1:]
        assert np.all(ratios > 1.9)  # at least ~ mu^-1 pointwise off-diagonal


def test_resolvent_satisfies_ode():
    # (d^2/dphi^2 - mu^2) R = 0 away from phi = phi'
    alpha = 4 * math.pi
    mu2 = 0.7 + 0.3j
    phip = 2.0
    h = 1e-4
    for phi in (4.0, 9.0):
        vals = [ca.pencil_resolvent(phi + k * h, phip, mu2, alpha) for k in (-1, 0, 1)]
        second = (vals[0] - 2 * vals[1] + vals[2]) / h ** 2
        assert abs(second - mu2 * vals[1]) < 1e-5


# -- heat kernels ---------------------------------------------------------------

def test_carslaw_plane_degeneration():
    # alpha = 2 pi: exact plane kernel
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        r, rp = rng.uniform(0.1, 2.0, 2)
        phi, phip = rng.uniform(0.0, 2 * math.pi, 2)
        t = rng.uniform(0.05, 1.0)
        val = ca.carslaw_kernel(r, phi, rp, phip, t, 2 * math.pi)
        d2 = r * r - 2 * r * rp * math.cos(phi - phip) + rp * rp
        ref = math.exp(-d2 / t) / (math.pi * t)
        worst = max(worst, abs(val - ref))
    assert worst < 1e-10


def test_carslaw_diag_value_2pi():
    val = ca.carslaw_kernel(0.7, 1.3, 0.7, 1.3, 0.2, 2 * math.pi)
    assert abs(val - 1.0 / (math.pi * 0.2)) < 1e-11


def test_dual_route_agreement_4pi():
    alpha = 4 * math.pi
    rs = np.linspace(0.15, 1.6, 5)
    ts = [0.08, 0.3, 0.9]
    phi, phip = 2.3, 7.9
    worst = 0.0
    for r in rs:
        for rp in rs:
            for t in ts:
                v1 = ca.antiperiodic_kernel(r, phi, rp, phip, t, alpha, route="contour")
                v2 = ca.antiperiodic_kernel(r, phi, rp, phip, t, alpha, route="bessel")
                worst = max(worst, abs(v1 - v2))
    assert worst < 1e-8


def test_antiperiodicity():
    alpha = 4 * math.pi
    v = ca.antiperiodic_kernel_bessel(0.6, 1.0, 0.8, 2.0, 0.3, alpha)
    v_shift = ca.antiperiodic_kernel_bessel(0.6, 1.0 + alpha, 0.8, 2.0, 0.3, alpha)
    assert abs(v_shift + v) < 1e-12
    # contour route too
    w = ca.antiperiodic_kernel_contour(0.6, 1.0, 0.8, 2.0, 0.3, alpha)
    w_shift = ca.antiperiodic_kernel_contour(0.6, 1.0 + alpha, 0.8, 2.0, 0.3, alpha)
    assert abs(w_shift + w) < 1e-10


def test_kernel_positive_on_diagonal_slice():
    alpha = 4 * math.pi
    for r in np.linspace(0.05, 1.2, 9):
        v = ca.antiperiodic_kernel_bessel(r, 0.7, r, 0.7, 0.25, alpha)
        assert v > 0.0


def test_small_r_scaling_exponent():
    # H_anti = O(r^{pi/alpha}) as r -> 0: log-log slope ~ 1/4 for alpha = 4 pi
    alpha = 4 * math.pi
    rs = np.array([1e-4, 1e-5])
    vals = np.array([ca.antiperiodic_kernel_bessel(r, 1.0, 0.5, 2.0, 0.3, alpha)
                     for r in rs])
    slope = np.log(vals[0] / vals[1]) / np.log(rs[0] / rs[1])
    assert abs(slope - 0.25) < 5e-3


def test_exponential_decay_in_separation():
    alpha = 4 * math.pi
    t = 0.02
    vals = [abs(ca.antiperiodic_kernel_bessel(1.0, 1.0, 1.0 + d, 1.0, t, alpha))
            for d in (0.3, 0.6, 0.9)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < vals[0] * math.exp(-0.8 ** 2 / t) * 10


# -- trace constant ------------------------------------------------------------

def test_trace_constant_closed_form_4pi():
    assert abs(ca.cone_trace_constant(4 * math.pi) - (-3.0 / 16.0)) < 1e-15


def test_trace_constant_global_consistency():
    for g in (2, 3, 5):
        total = (2 * g - 2) * ca.cone_trace_constant(4 * math.pi)
        assert abs(total - (-3.0 * (g - 1) / 8.0)) < 1e-14


@pytest.mark.parametrize("alpha", [2 * math.pi, 3 * math.pi, 4 * math.pi])
def test_trace_constant_numeric(alpha):
    num = ca.cone_trace_constant_numeric(alpha)
    assert abs(num - ca.cone_trace_constant(alpha)) < 1e-3


# -- parabolic cylinder ----------------------------------------------------------

def test_dmhalf_at_zero():
    ref = math.pi ** 1.5 * 2 ** (-0.25) / GAMMA_3_4_REF
    assert abs(ca.parabolic_cylinder_Dmhalf(0.0) - ref) < 1e-12


def test_dmhalf_derivative_at_zero():
    ref = -math.pi ** 1.5 * 2 ** 0.25 / GAMMA_1_4_REF
    h = 1e-6
    der = (ca.parabolic_cylinder_Dmhalf(h) - ca.parabolic_cylinder_Dmhalf(-h)) / (2 * h)
    assert abs(der - ref) < 1e-7


def test_dmhalf_against_scipy_scaled():
    # classical normalization from scipy, times pi
    pbdv = pytest.importorskip("scipy.special").pbdv
    for z in (0.3, 1.7, 4.0, 5.9, 7.5, 12.0):
        ref = math.pi * pbdv(-0.5, z)[0]
        val = ca.parabolic_cylinder_Dmhalf(z)
        assert abs(val - ref) < 2e-10 * max(1.0, abs(ref)), z


def test_dmhalf_complex_series_against_mpmath():
    # the power-series branch (|z| < 6) at complex z, around the whole circle
    mpmath = pytest.importorskip("mpmath")
    for r in (0.5, 1.5, 2.5, 3.5, 4.0):
        for ang in np.linspace(-math.pi, math.pi, 16, endpoint=False):
            z = r * complex(math.cos(ang), math.sin(ang))
            ref = complex(mpmath.pi * mpmath.pcfd(-0.5, mpmath.mpc(z.real, z.imag)))
            val = ca.parabolic_cylinder_Dmhalf(z)
            assert abs(val - ref) < 1e-10 * abs(ref), z


def test_dmhalf_branch_consistency():
    # series and asymptotic branches evaluated at the same points
    for z in (5.0, 5.9, 6.5):
        ser = ca.parabolic_cylinder_Dmhalf(z, switch=8.0)
        asy = ca.parabolic_cylinder_Dmhalf(z, switch=4.0)
        assert abs(ser - asy) < 1e-6 * abs(ser), z


def test_dmhalf_refuses_the_inaccurate_complex_series():
    # switch = 8 would send z^2/2 of modulus 21.1 to scipy's complex hyp1f1
    z = 6.5 * complex(math.cos(0.3), math.sin(0.3))
    with pytest.raises(ValueError):
        ca.parabolic_cylinder_Dmhalf(z, switch=8.0)
    assert np.isfinite(ca.parabolic_cylinder_Dmhalf(z))


def test_dmhalf_exponential_decay():
    vals = [abs(ca.parabolic_cylinder_Dmhalf(z)) for z in (2.0, 6.0, 10.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < math.exp(-(10.0 ** 2) / 4.0) * 10


# -- scattering asymptote ---------------------------------------------------------

def test_scattering_diag_constant():
    for lam in (-1e3, -1e4, -3e5):
        t_diag, _ = ca.model_scattering_asymptote(lam, g=2)
        ratio = t_diag * GAMMA_3_4_REF ** 2 * (-lam) ** 0.25
        assert abs(ratio - 1.0) < 1e-6, lam


def test_det_t_asymptote_identity():
    # det of the diagonal asymptote equals t_inf (-lam)^{p_inf} identically
    for g in (2, 3, 4):
        lam = -2500.0
        diag = GAMMA_3_4_REF ** (-2) * (-lam) ** (-0.25)
        det_direct = diag ** (2 * g - 2)
        assert abs(det_direct - ca.det_t_asymptote(lam, g)) < 1e-12 * abs(det_direct)


def test_det_t_constants_g2():
    lam = -1e4
    t_diag, det_t = ca.model_scattering_asymptote(lam, g=2)
    ref = GAMMA_3_4_REF ** (-4) * (-lam) ** (-0.5)
    assert abs(det_t - ref) < 1e-5 * abs(ref)
