"""Property checks of the cold closed form over random couplings, decay
rates, times and pulse positions, of its agreement with the dispersive mode
propagator at zero absorption length, and of the ladder oracle's linearity,
translation covariance, mirror covariance and coupling-phase covariance."""

import cmath
import math

import numpy as np
from hypothesis import Phase, example, given, settings, strategies as st

from stationary_light import (
    CouplingSchedule,
    MediumParams,
    ProbeField,
    SimulationGrid,
    cold_adiabatic_evolve,
    evolve_mb_harmonics,
    gaussian_profile,
    initial_split,
    nonadiabatic_spectral_evolve,
)

GRID = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=256)

kappa_plus_sq = st.floats(0.0, 1.0)
gamma_bc = st.builds(complex, st.floats(0.0, 1.0), st.floats(-2.0, 2.0))
times = st.floats(0.0, 20.0)
centers = st.floats(-3.0, 3.0)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def mirror(values):
    """values(-z) along the last axis on GRID or LADDER_GRID, both symmetric about z = 0."""
    return np.roll(values[..., ::-1], 1, axis=-1)


@PROPERTY_SETTINGS
@given(kappa_plus_sq, gamma_bc, times, centers)
def test_mirror_symmetry(kp2, gamma, t, center):
    # z -> -z with kappa+ <-> kappa- swapped maps solutions onto solutions;
    # the two sides take opposite branches of the coupling ordering
    psi0 = gaussian_profile(GRID, center=center)
    medium = MediumParams(Gamma_bc=gamma)
    (direct,) = cold_adiabatic_evolve(
        psi0, GRID, CouplingSchedule.from_intensities(kp2), medium, [t]
    )
    (swapped,) = cold_adiabatic_evolve(
        mirror(psi0), GRID, CouplingSchedule(math.sqrt(1.0 - kp2), math.sqrt(kp2)), medium, [t]
    )
    np.testing.assert_allclose(direct.psi_plus, mirror(swapped.psi_minus), rtol=0, atol=1e-12)
    np.testing.assert_allclose(direct.psi_minus, mirror(swapped.psi_plus), rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(kappa_plus_sq, gamma_bc, times, centers)
def test_decay_factorization(kp2, gamma, t, center):
    # only the spin part dephases: the decay is exp(-gamma * integral of sin^2(theta))
    psi0 = gaussian_profile(GRID, center=center)
    sched = CouplingSchedule.from_intensities(kp2)
    (bare,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [t])
    (damped,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(Gamma_bc=gamma), [t])
    factor = cmath.exp(-gamma * (t - sched.cos2_theta0 * math.log(math.cosh(t))))
    np.testing.assert_allclose(damped.psi_plus, bare.psi_plus * factor, rtol=0, atol=1e-14)
    np.testing.assert_allclose(damped.psi_minus, bare.psi_minus * factor, rtol=0, atol=1e-14)


phases = st.floats(-math.pi, math.pi)
#: (z_min, grid length, n_z) of a periodic grid.
extents = st.tuples(st.floats(-30.0, -5.0), st.floats(10.0, 40.0), st.sampled_from([64, 128, 256]))


@PROPERTY_SETTINGS
@example(kp2=0.5 + 1e-6, arg_plus=0.0, arg_minus=0.0, t=20.0, center=0.0, extent=(-10.0, 20.0, 256))
@example(kp2=0.5 - 1e-6, arg_plus=0.0, arg_minus=0.0, t=20.0, center=0.0, extent=(-10.0, 20.0, 256))
@given(st.floats(0.0, 1.0), phases, phases, times, centers, extents)
def test_dispersionless_propagator_matches_closed_form(kp2, arg_plus, arg_minus, t, center, extent):
    # at l_a = 0 the 2x2 mode propagator of each wavenumber and the
    # characteristic shifts of the closed form are two derivations of one
    # motion, for either ordering of |kappa+|, |kappa-|; the explicit examples
    # sit just off the standing wave, where beta*r(t) is still a visible shift
    z_min, length, n_z = extent
    grid = SimulationGrid(z_min=z_min, z_max=z_min + length, n_z=n_z)
    schedule = CouplingSchedule(math.sqrt(kp2) * cmath.exp(1j * arg_plus),
                                math.sqrt(1.0 - kp2) * cmath.exp(1j * arg_minus))
    psi0 = gaussian_profile(grid, center=z_min + 0.5 * length + center)
    (got,) = nonadiabatic_spectral_evolve(psi0, grid, schedule, MediumParams(l_a=0.0), [t])
    (expected,) = cold_adiabatic_evolve(psi0, grid, schedule, MediumParams(), [t])
    np.testing.assert_allclose(got.psi_plus, expected.psi_plus, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.psi_minus, expected.psi_minus, rtol=0, atol=1e-12)


# A coarse, strongly absorbing ladder: about 70 steps per solve.  Shrinking is
# off, since it would repeat these solves for minutes on a failure.
LADDER_GRID = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=32)
LADDER_SETTINGS = settings(
    max_examples=10, deadline=None, derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
amplitudes = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def ladder_rows(schedule, gamma, inputs):
    """E+ and E- of every probe field returned by a two-shell ladder run, stacked.

    ``inputs`` holds the initial E+, E- and stored spin profile as rows.
    """
    e_plus, e_minus, spin = inputs
    medium = MediumParams(gamma_ba=10.0, l_a=0.05, Gamma_bc=gamma)
    history = evolve_mb_harmonics(
        ProbeField(e_plus, e_minus), schedule, medium,
        LADDER_GRID, 2, 0.2, initial_sigma_bc0=spin, snapshot_times=[0.1],
    )
    return np.array([[s.e_plus, s.e_minus] for s in history])


@LADDER_SETTINGS
@given(kappa_plus_sq, gamma_bc, amplitudes, amplitudes, centers)
def test_ladder_linearity(kp2, gamma, a, b, center):
    narrow = gaussian_profile(LADDER_GRID, center=center)
    wide = 1j * np.exp(-(((LADDER_GRID.z + center) / 2.0) ** 2))
    x = np.array([0.1 * wide, 0.2 * narrow, narrow])
    y = np.array([0.3 * narrow, -0.1j * wide, wide])
    schedule = CouplingSchedule.from_intensities(kp2)
    combined = ladder_rows(schedule, gamma, a * x + b * y)
    separate = a * ladder_rows(schedule, gamma, x) + b * ladder_rows(schedule, gamma, y)
    scale = max(abs(a), abs(b), 1.0) * np.max(np.abs(separate))
    np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-12 * scale)


@LADDER_SETTINGS
@given(kappa_plus_sq, gamma_bc, st.integers(1, LADDER_GRID.n_z - 1), centers)
def test_ladder_shift_covariance(kp2, gamma, shift, center):
    # a stored profile moved by whole cells yields both probe envelopes moved
    # by the same cells, at every returned time
    zeros = np.zeros(LADDER_GRID.n_z, complex)
    inputs = np.array([zeros, zeros, -gaussian_profile(LADDER_GRID, center=center)])
    schedule = CouplingSchedule.from_intensities(kp2)
    direct = ladder_rows(schedule, gamma, inputs)
    moved = ladder_rows(schedule, gamma, np.roll(inputs, shift, axis=-1))
    scale = np.max(np.abs(direct))
    np.testing.assert_allclose(moved, np.roll(direct, shift, axis=-1), rtol=0, atol=1e-12 * scale)


@LADDER_SETTINGS
@example(kp2=0.0, arg_plus=0.4, arg_minus=-1.1, common=0.9, relative=-2.3, gamma=0.2j)
@example(kp2=1.0, arg_plus=2.0, arg_minus=0.7, common=-1.7, relative=1.2, gamma=0.1)
@given(kappa_plus_sq, phases, phases, phases, phases, gamma_bc)
def test_ladder_coupling_phase_covariance(kp2, arg_plus, arg_minus, common, relative, gamma):
    # kappa+- -> kappa+- exp(i(common +- relative/2)) with the inputs E+-
    # times exp(+-i relative/2) and the stored spin times exp(-i common) maps
    # solutions onto solutions: E+- gain exp(+-i relative/2) at every
    # returned time
    kp = math.sqrt(kp2) * cmath.exp(1j * arg_plus)
    km = math.sqrt(1.0 - kp2) * cmath.exp(1j * arg_minus)
    rotated = CouplingSchedule(kp * cmath.exp(1j * (common + relative / 2)),
                               km * cmath.exp(1j * (common - relative / 2)))
    pulse = gaussian_profile(LADDER_GRID, center=0.5)
    inputs = np.array([0.3 * pulse, -0.2j * np.roll(pulse, 5), -pulse])
    factors = np.exp(1j * np.array([relative / 2, -relative / 2, -common]))[:, None]
    direct = ladder_rows(CouplingSchedule(kp, km), gamma, inputs)
    moved = ladder_rows(rotated, gamma, factors * inputs)
    scale = np.max(np.abs(direct))
    np.testing.assert_allclose(moved, factors[:2] * direct, rtol=0, atol=1e-12 * scale)


@LADDER_SETTINGS
@example(kp2=0.2, arg_plus=0.4, arg_minus=-1.1, gamma=0.2j, center=0.5)
@example(kp2=0.7, arg_plus=2.0, arg_minus=0.7, gamma=0.1, center=-1.0)
@given(kappa_plus_sq, phases, phases, gamma_bc, centers)
def test_ladder_mirror_covariance(kp2, arg_plus, arg_minus, gamma, center):
    # z -> -z with kappa+ <-> kappa- and E+ <-> E- swapped maps solutions
    # onto solutions, the Nyquist column of this even grid included
    kp = math.sqrt(kp2) * cmath.exp(1j * arg_plus)
    km = math.sqrt(1.0 - kp2) * cmath.exp(1j * arg_minus)
    pulse = gaussian_profile(LADDER_GRID, center=center)
    inputs = np.array([0.3 * pulse, -0.2j * np.roll(pulse, 5), -pulse])
    direct = ladder_rows(CouplingSchedule(kp, km), gamma, inputs)
    swapped = ladder_rows(CouplingSchedule(km, kp), gamma, mirror(inputs[[1, 0, 2]]))
    scale = np.max(np.abs(direct))
    np.testing.assert_allclose(mirror(swapped[:, ::-1]), direct, rtol=0, atol=1e-12 * scale)
