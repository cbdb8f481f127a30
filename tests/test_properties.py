"""Property checks of the cold closed form over random couplings, decay
rates, times and pulse positions."""

import numpy as np
from hypothesis import given, settings, strategies as st

from stationary_light import (
    CouplingSchedule,
    SimulationGrid,
    cold_adiabatic_evolve,
    gaussian_profile,
)

GRID = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=256)

kappa_plus_sq = st.floats(0.0, 1.0)
gamma_bc = st.builds(complex, st.floats(0.0, 1.0), st.floats(-2.0, 2.0))
times = st.floats(0.0, 20.0)
centers = st.floats(-3.0, 3.0)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def mirror(values):
    """values(-z) on GRID, which is symmetric about z = 0."""
    return np.roll(values[::-1], 1)


@PROPERTY_SETTINGS
@given(kappa_plus_sq, gamma_bc, times, centers)
def test_mirror_symmetry(kp2, gamma, t, center):
    # z -> -z with kappa+ <-> kappa- swapped maps solutions onto solutions;
    # the two sides take opposite branches of the coupling ordering
    psi0 = gaussian_profile(GRID, center=center)
    direct = cold_adiabatic_evolve(psi0, GRID, CouplingSchedule.from_intensities(kp2), t, gamma)
    swapped = cold_adiabatic_evolve(
        mirror(psi0), GRID, CouplingSchedule.from_intensities(1.0 - kp2, kp2), t, gamma
    )
    np.testing.assert_allclose(direct.psi_plus, mirror(swapped.psi_minus), rtol=0, atol=1e-12)
    np.testing.assert_allclose(direct.psi_minus, mirror(swapped.psi_plus), rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(kappa_plus_sq, gamma_bc, times, centers)
def test_decay_factorization(kp2, gamma, t, center):
    psi0 = gaussian_profile(GRID, center=center)
    sched = CouplingSchedule.from_intensities(kp2)
    bare = cold_adiabatic_evolve(psi0, GRID, sched, t)
    damped = cold_adiabatic_evolve(psi0, GRID, sched, t, gamma)
    factor = np.exp(-gamma * t)
    np.testing.assert_allclose(damped.psi_plus, bare.psi_plus * factor, rtol=0, atol=1e-14)
    np.testing.assert_allclose(damped.psi_minus, bare.psi_minus * factor, rtol=0, atol=1e-14)
