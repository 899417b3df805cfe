"""Theta function, prime form and Szego kernel tests."""

import math

import numpy as np
import pytest

from spinlap import theta as th
from spinlap.cone_analysis import GAMMA_3_4

import oracles


def random_siegel(g, rng):
    re = rng.normal(size=(g, g))
    re = 0.5 * (re + re.T) * 0.3
    m = rng.normal(size=(g, g)) * 0.4
    im = m @ m.T + np.eye(g)
    return re + 1j * im


# -- characteristics ----------------------------------------------------------

def test_characteristic_counts():
    for g in (1, 2, 3):
        chars = th.all_characteristics(g)
        assert len(chars) == 4 ** g
        n_even = len(th.even_characteristics(g))
        n_odd = len(th.odd_characteristics(g))
        assert n_even == 2 ** (g - 1) * (2 ** g + 1)
        assert n_odd == 2 ** (g - 1) * (2 ** g - 1)


def test_g1_odd_char_is_half_half():
    odd = th.odd_characteristics(1)
    assert len(odd) == 1
    assert odd[0].p == (0.5,) and odd[0].q == (0.5,)


def test_g2_even_count_brute():
    # brute force over {0, 1/2}^4
    import itertools
    count = 0
    for bits in itertools.product((0.0, 0.5), repeat=4):
        p, q = bits[:2], bits[2:]
        if int(round(4 * (p[0] * q[0] + p[1] * q[1]))) % 2 == 0:
            count += 1
    assert count == 10
    assert len(th.even_characteristics(2)) == 10


# -- values --------------------------------------------------------------------

def test_theta3_special_value():
    # theta[0,0](0 | i) = pi^{1/4} / Gamma(3/4)
    c = th.ThetaCharacteristic((0.0,), (0.0,))
    val = th.theta(c, np.zeros(1), np.array([[1j]]))
    ref = math.pi ** 0.25 / GAMMA_3_4
    assert abs(val - ref) < 1e-12


def test_against_brute_force():
    rng = np.random.default_rng(3)
    for g in (1, 2):
        B = random_siegel(g, rng)
        for char in th.all_characteristics(g)[:: 2 ** g]:
            xi = rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.2
            mine = th.theta(char, xi, B)
            ref = oracles.brute_theta(char.p, char.q, xi, B, radius=14)
            assert abs(mine - ref) < 1e-10 * max(1.0, abs(ref))


def test_gradient_against_brute_force():
    rng = np.random.default_rng(4)
    B = random_siegel(2, rng)
    char = th.ThetaCharacteristic((0.5, 0.0), (0.0, 0.5))
    xi = np.array([0.21 - 0.05j, -0.13 + 0.11j])
    for i in range(2):
        mine = th.theta(char, xi, B, deriv=(i,))
        ref = oracles.brute_theta(char.p, char.q, xi, B, radius=14, deriv=(i,))
        assert abs(mine - ref) < 1e-9 * max(1.0, abs(ref))


def test_hessian_against_brute_force():
    rng = np.random.default_rng(5)
    B = random_siegel(2, rng)
    char = th.ThetaCharacteristic((0.0, 0.0), (0.5, 0.0))
    xi = np.array([0.1 + 0.21j, 0.32 - 0.07j])
    for i in range(2):
        for j in range(2):
            mine = th.theta(char, xi, B, deriv=(i, j))
            ref = oracles.brute_theta(char.p, char.q, xi, B, radius=14, deriv=(i, j))
            assert abs(mine - ref) < 1e-8 * max(1.0, abs(ref))


def test_odd_theta_constants_vanish():
    rng = np.random.default_rng(6)
    for g in (1, 2):
        B = random_siegel(g, rng)
        for char in th.odd_characteristics(g):
            assert abs(th.theta(char, np.zeros(g), B)) < 1e-12


def test_parity_symmetry():
    rng = np.random.default_rng(7)
    for g in (1, 2):
        B = random_siegel(g, rng)
        for char in th.all_characteristics(g):
            xi = rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.3
            plus = th.theta(char, xi, B)
            minus = th.theta(char, -xi, B)
            sign = 1.0 if char.is_even else -1.0
            assert abs(minus - sign * plus) < 1e-10 * max(1.0, abs(plus))


def test_quasi_periodicity():
    rng = np.random.default_rng(8)
    for g in (1, 2):
        B = random_siegel(g, rng)
        for char in (th.all_characteristics(g)[1], th.all_characteristics(g)[-1]):
            xi = rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.2
            base = th.theta(char, xi, B)
            for j in range(g):
                e = np.zeros(g)
                e[j] = 1.0
                # xi + e_j
                shifted = th.theta(char, xi + e, B)
                ref = np.exp(2j * math.pi * char.p[j]) * base
                assert abs(shifted - ref) < 1e-9 * max(1.0, abs(ref))
                # xi + B e_j
                shifted = th.theta(char, xi + B @ e, B)
                fac = np.exp(-2j * math.pi * char.q[j]
                             - 1j * math.pi * B[j, j]
                             - 2j * math.pi * xi[j])
                assert abs(shifted - fac * base) < 1e-9 * max(1.0, abs(fac * base))


def test_batch_matches_scalar():
    rng = np.random.default_rng(9)
    B = random_siegel(2, rng)
    char = th.ThetaCharacteristic((0.0, 0.5), (0.5, 0.5))
    xis = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)) * 0.3
    batch = th.theta_batch(char, xis, B)
    for k in range(5):
        assert abs(batch[k] - th.theta(char, xis[k], B)) < 1e-11 * max(1.0, abs(batch[k]))


def _cell_edge_and_far_batch(B):
    """Arguments a + B b: two with a, b in {+-1/2}^g, whose reduced arguments
    lie on the edge of the period cell, one inside the cell, and one far up
    the imaginary directions, which needs reduction."""
    g = len(B)
    signs = np.where(np.arange(g) % 2 == 0, 1.0, -1.0)
    rows = [(0.5 * np.ones(g), 0.5 * np.ones(g)),
            (0.5 * signs, -0.5 * signs),
            (np.full(g, 0.13), np.full(g, -0.21)),
            (np.full(g, 0.3), 2.3 * signs)]
    return np.array([a + B @ b for a, b in rows])


def test_batch_against_brute_force_every_characteristic():
    rng = np.random.default_rng(12)
    for g in (1, 2, 3):
        B = random_siegel(g, rng)
        xis = _cell_edge_and_far_batch(B)
        # the unreduced sum peaks near n = -Im(B)^-1 Im(xi): the box must reach past it
        peaks = np.abs(np.linalg.solve(B.imag, xis.imag.T)).max(axis=0)
        assert th.theta_batch(th.all_characteristics(g)[0],
                              np.zeros((0, g)), B).shape == (0,)
        for char in th.all_characteristics(g):
            batch = th.theta_batch(char, xis, B)
            for xi, val, peak in zip(xis, batch, peaks):
                ref = oracles.brute_theta(char.p, char.q, xi, B,
                                          radius=int(math.ceil(peak)) + 4)
                assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))


def test_multi_characteristic_batch_against_brute_force():
    """One theta_batch call over every characteristic matches the brute sum
    of each; the arguments a + B b with b in [-1, 1]^g span two lattice cells
    along each axis, so the shared reduction moves them by different
    lattice vectors."""
    rng = np.random.default_rng(14)
    for g, m in ((1, 8), (2, 6), (3, 3)):
        B = random_siegel(g, rng)
        b = rng.uniform(-1.0, 1.0, size=(m, g))
        b[0] = -0.95
        b[1] = 0.95
        xis = rng.uniform(-0.5, 0.5, size=(m, g)) + b @ B.T
        peaks = np.abs(np.linalg.solve(B.imag, xis.imag.T)).max(axis=0)
        chars = th.all_characteristics(g)
        batch = th.theta_batch(chars, xis, B)
        assert batch.shape == (len(chars), m)
        for char, row in zip(chars, batch):
            for xi, val, peak in zip(xis, row, peaks):
                ref = oracles.brute_theta(char.p, char.q, xi, B,
                                          radius=int(math.ceil(peak)) + 4)
                assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))


def test_derivative_axes_outside_genus_rejected():
    B = np.array([[1.0j, 0.2], [0.2, 1.5j]])
    char = th.ThetaCharacteristic((0.5, 0.0), (0.0, 0.5))
    for deriv in ((-1,), (2,), (0, 2), (-1, 1)):
        with pytest.raises(ValueError):
            th.theta(char, np.zeros(2), B, deriv=deriv)


# -- heat equation ---------------------------------------------------------------

def test_heat_equation_residual_g1():
    rng = np.random.default_rng(10)
    for _ in range(10):
        B = random_siegel(1, rng)
        xi = rng.normal(size=1) * 0.5 + 1j * rng.normal(size=1) * 0.3
        for char in th.all_characteristics(1):
            assert th.heat_equation_residual(char, xi, B) < 1e-10


def test_heat_equation_residual_g2_g3():
    rng = np.random.default_rng(11)
    for g in (2, 3):
        for _ in range(5):
            B = random_siegel(g, rng)
            xi = rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.2
            char = th.all_characteristics(g)[rng.integers(4 ** g)]
            assert th.heat_equation_residual(char, xi, B) < 1e-8


def test_b_derivative_by_central_differences():
    # independent of heat_equation_residual: theta differenced in B (B_ij and
    # B_ji moved together, so an off-diagonal step counts the entry twice)
    # against the xi-Hessian / (4 pi i); fourth-order central differences
    # with step 1e-3 leave a truncation of order 1e-12
    rng = np.random.default_rng(13)
    eps = 1e-3
    for g in (2, 3):
        for _ in range(3):
            B = random_siegel(g, rng)
            xi = rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.2
            char = th.all_characteristics(g)[rng.integers(4 ** g)]
            for i in range(g):
                for j in range(i, g):
                    E = np.zeros((g, g))
                    E[i, j] = E[j, i] = 1.0

                    def f(s):
                        return th.theta(char, xi, B + s * E)
                    fd = (8 * (f(eps) - f(-eps)) - (f(2 * eps) - f(-2 * eps))) / (12 * eps)
                    hess = th.theta(char, xi, B, deriv=(i, j))
                    ref = (1 if i == j else 2) * hess / (4j * math.pi)
                    assert abs(fd - ref) < 1e-8 * max(1.0, abs(ref)), (g, i, j)


def test_heat_residual_decreases_with_truncation():
    B = np.array([[0.1 + 1.0j]])
    char = th.ThetaCharacteristic((0.5,), (0.0,))
    xi = np.array([0.3 + 0.1j])
    loose = th.heat_equation_residual(char, xi, B, tol=1e-4)
    tight = th.heat_equation_residual(char, xi, B, tol=1e-14)
    assert tight <= loose + 1e-16


# -- prime form and Szego kernel on the exact torus -------------------------------

@pytest.fixture(scope="module")
def torus():
    return oracles.ExactTorusPeriods(1.0, 0.6 + 0.9j)


def test_prime_form_antisymmetry(torus):
    x, y = 0.21 + 0.33j, 0.52 + 0.11j
    assert abs(th.prime_form(torus, x, y) + th.prime_form(torus, y, x)) < 1e-12


def test_prime_form_leading_coefficient(torus):
    x = 0.31 + 0.4j
    for eps in (1e-3, 1e-3j, 7e-4 - 7e-4j):
        val = th.prime_form(torus, x, x + eps)
        assert abs(val / eps - 1.0) < 1e-4


def test_prime_form_loop_consistency(torus):
    # continuation along a closed contractible loop returns the same value
    x = 0.25 + 0.35j
    y0 = 0.6 + 0.5j
    loop = [y0 + 0.1 * np.exp(2j * math.pi * k / 24) for k in range(25)]
    vals = [th.prime_form(torus, x, y) for y in loop]
    assert abs(vals[0] - vals[-1]) < 1e-12


def test_szego_antisymmetry(torus):
    char = th.ThetaCharacteristic((0.0,), (0.0,))
    z, zp = 0.2 + 0.3j, 0.55 + 0.62j
    s1 = th.szego_kernel(char, torus, z, zp)
    s2 = th.szego_kernel(char, torus, zp, z)
    assert abs(s1 + s2) < 1e-9 * max(1.0, abs(s1))


def test_szego_pole_normalization(torus):
    char = th.ThetaCharacteristic((0.0,), (0.5,))
    z = 0.4 + 0.21j
    for eps in (1e-3, -1e-3j):
        s = th.szego_kernel(char, torus, z, z + eps)
        assert abs(s - 1.0 / (-eps)) < 10.0   # bounded remainder
    # remainder actually converges to a0
    a0, _ = th.szego_near_diagonal(char, torus, z)
    ref = th.szego_a0_formula(char, torus, z)
    assert abs(a0 - ref) < 1e-6


def test_szego_near_diagonal_radius_stability(torus):
    char = th.ThetaCharacteristic((0.5,), (0.0,))
    z = 0.33 + 0.42j
    a0a, _ = th.szego_near_diagonal(char, torus, z, radius=1e-3)
    a0b, _ = th.szego_near_diagonal(char, torus, z, radius=5e-4)
    assert abs(a0a - a0b) < 1e-5


def test_szego_odd_char_rejected(torus):
    with pytest.raises(ValueError):
        th.szego_kernel(th.ThetaCharacteristic((0.5,), (0.5,)), torus, 0.1, 0.2)


def test_szego_matches_fourier_oracle(torus):
    """The (sigma_a, sigma_b) = (-1, -1) structure corresponds to (p, q) =
    (0, 0) under the package convention sigma_a = -e^{2 pi i p},
    sigma_b = -e^{-2 pi i q}; exactly one even characteristic matches the
    independent Fourier-sum kernel."""
    A, B = 1.0, 0.6 + 0.9j
    pairs = [(0.21 + 0.13j, 0.52 + 0.45j), (0.1 + 0.05j, 0.4 + 0.72j)]
    matches = []
    for char in th.even_characteristics(1):
        err = 0.0
        for z, zp in pairs:
            s_theta = th.szego_kernel(char, torus, z, zp)
            s_fourier = oracles.fourier_szego_torus(A, B, z, zp)
            err = max(err, abs(s_theta - s_fourier) / abs(s_fourier))
        if err < 1e-8:
            matches.append(char)
    assert len(matches) == 1
    assert matches[0].p == (0.0,) and matches[0].q == (0.0,)


def test_szego_automorphy_signs(torus):
    # S(z, z' + A) = sigma_a S(z, z') with sigma_a = -e^{2 pi i p}
    A, B = 1.0, 0.6 + 0.9j
    z, zp = 0.2 + 0.3j, 0.5 + 0.6j
    for char in th.even_characteristics(1):
        s = th.szego_kernel(char, torus, z, zp)
        sa = th.szego_kernel(char, torus, z, zp + A)
        sb = th.szego_kernel(char, torus, z, zp + B)
        sig_a = -np.exp(2j * math.pi * char.p[0])
        sig_b = -np.exp(-2j * math.pi * char.q[0])
        assert abs(sa - sig_a * s) < 1e-9 * abs(s)
        assert abs(sb - sig_b * s) < 1e-9 * abs(s)
