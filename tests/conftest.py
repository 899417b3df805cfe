"""Shared fixtures: the expensive g2 pipelines are session-scoped, so the
acceptance tests build each of them once."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spinlap import surface as sf, hodge, homology_spin as hs, spectral as spec


@pytest.fixture(scope="session")
def g2_moduli():
    return sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])


@pytest.fixture(scope="session")
def g2_surface_s(g2_moduli):
    return sf.build_surface(g2_moduli)


@pytest.fixture(scope="session")
def g2_mesh_fine(g2_surface_s):
    return sf.generate_mesh(g2_surface_s, h=0.02)


@pytest.fixture(scope="session")
def g2_mesh_coarse(g2_surface_s):
    return sf.generate_mesh(g2_surface_s, h=0.028)


@pytest.fixture(scope="session")
def g2_periods_fine(g2_mesh_fine):
    return hodge.period_matrix(g2_mesh_fine)


@pytest.fixture(scope="session")
def g2_even_spins(g2_periods_fine):
    """The three best-conditioned even spin structures (largest |theta(0)|)."""
    ranked = []
    for spin in hs.enumerate_spin_structures(2):
        if not spin.is_even:
            continue
        ch = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b),
                                         g2_periods_fine)
        ranked.append((abs(g2_periods_fine.theta0(ch)), id(spin), spin, ch))
    ranked.sort(reverse=True)
    return [(spin, ch) for _, _, spin, ch in ranked[:3]]


@pytest.fixture(scope="session")
def g2_friedrichs_fine(g2_mesh_fine, g2_even_spins):
    spin, _ = g2_even_spins[0]
    lift = hs.build_sign_lift(g2_mesh_fine, spin)
    op = spec.assemble_operator(g2_mesh_fine, lift, "friedrichs")
    return spec.eigenvalues(op, 280)


@pytest.fixture(scope="session")
def g2_friedrichs_coarse(g2_mesh_coarse, g2_even_spins):
    spin, _ = g2_even_spins[0]
    lift = hs.build_sign_lift(g2_mesh_coarse, spin)
    op = spec.assemble_operator(g2_mesh_coarse, lift, "friedrichs")
    return spec.eigenvalues(op, 280)


@pytest.fixture(scope="session")
def g2_h05():
    m = sf.ModuliPoint(genus=2, A=[1.0, 1.0], B=[1j, 2j], C=[0.2, 0.5])
    mesh = sf.generate_mesh(sf.build_surface(m), h=0.05)
    spin = hs.enumerate_spin_structures(2)[0]
    return mesh, spin, hs.build_sign_lift(mesh, spin)


@pytest.fixture(scope="session")
def g2_h05_periods(g2_h05):
    mesh, spin, _ = g2_h05
    pd = hodge.period_matrix(mesh)
    return pd, hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b), pd)
