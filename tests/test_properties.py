"""Property checks of the cold closed form over random couplings, decay
rates, times and pulse positions, and of the ladder oracle's linearity and
translation covariance."""

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from stationary_light import (
    CouplingSchedule,
    MediumParams,
    ProbeField,
    SimulationGrid,
    cold_adiabatic_evolve,
    evolve_mb_harmonics,
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


# A coarse, strongly absorbing ladder: about 70 steps per solve.  Shrinking is
# off, since it would repeat these solves for minutes on a failure.
LADDER_GRID = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=32)
LADDER_SETTINGS = settings(
    max_examples=10, deadline=None, derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
amplitudes = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def ladder_rows(kp2, gamma, inputs):
    """Every row of every state returned by a two-shell ladder run, stacked.

    ``inputs`` holds the initial E+, E- and stored spin profile as rows.
    """
    e_plus, e_minus, spin = inputs
    medium = MediumParams(gamma_ba=10.0, l_a=0.05, Gamma_bc=gamma)
    history = evolve_mb_harmonics(
        ProbeField(e_plus, e_minus), CouplingSchedule.from_intensities(kp2), medium,
        LADDER_GRID, 2, 0.2, initial_sigma_bc0=spin, snapshot_times=[0.1],
    )
    return np.array([
        [s.e_plus, s.e_minus, *s.sigma_ba_harmonics.values(), *s.sigma_bc_harmonics.values()]
        for s in history
    ])


@LADDER_SETTINGS
@given(kappa_plus_sq, gamma_bc, amplitudes, amplitudes, centers)
def test_ladder_linearity(kp2, gamma, a, b, center):
    narrow = gaussian_profile(LADDER_GRID, center=center)
    wide = 1j * gaussian_profile(LADDER_GRID, center=-center, pulse_length=2.0)
    x = np.array([0.1 * wide, 0.2 * narrow, narrow])
    y = np.array([0.3 * narrow, -0.1j * wide, wide])
    combined = ladder_rows(kp2, gamma, a * x + b * y)
    separate = a * ladder_rows(kp2, gamma, x) + b * ladder_rows(kp2, gamma, y)
    scale = max(abs(a), abs(b), 1.0) * np.max(np.abs(separate))
    np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-12 * scale)


@LADDER_SETTINGS
@given(kappa_plus_sq, gamma_bc, st.integers(1, LADDER_GRID.n_z - 1), centers)
def test_ladder_shift_covariance(kp2, gamma, shift, center):
    # a stored profile moved by whole cells yields every coherence and probe
    # row moved by the same cells, at every returned time
    zeros = np.zeros(LADDER_GRID.n_z, complex)
    inputs = np.array([zeros, zeros, -gaussian_profile(LADDER_GRID, center=center)])
    direct = ladder_rows(kp2, gamma, inputs)
    moved = ladder_rows(kp2, gamma, np.roll(inputs, shift, axis=-1))
    scale = np.max(np.abs(direct))
    np.testing.assert_allclose(moved, np.roll(direct, shift, axis=-1), rtol=0, atol=1e-12 * scale)
