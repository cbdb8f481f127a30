import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from stationary_light import (
    CouplingSchedule,
    MediumParams,
    PolaritonField,
    ProbeField,
    SimulationGrid,
    beta,
    cold_adiabatic_evolve,
    cold_transport_evolve,
    cos2_theta,
    displacement_r,
    evolve_cold_numeric,
    evolve_mb_harmonics,
    gaussian_profile,
    group_velocity,
    initial_split,
    nonadiabatic_spectral_evolve,
    probe_from_polariton,
    raman_harmonics,
    thermal_adiabatic_evolve,
)
from stationary_light import analytic
from stationary_light.analytic import _dispersive_modes

GRID = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=512)


def mirror(values):
    return np.roll(values[::-1], 1)


def field_norm(field, grid):
    return grid.dz * np.sum(field.density())


def taylor_expm(a, terms=30):
    """exp(a) of a small square matrix: Taylor series with scaling and squaring."""
    norm = np.max(np.sum(np.abs(a), axis=1))
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    a = a / 2.0 ** squarings
    result = term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def dispersive_generator(schedule, l_a, q):
    """(G, xi): the dispersive coupled-mode generator at wavenumber q, assembled
    from the PDE coefficients, and its dispersion length in the grating form
    xi = |kappa+|^2 l_a / sqrt(1 - y^2), y = 2|kappa+||kappa-| (independent of
    the propagator's xi, b and d)."""
    kp2 = schedule.kappa_plus_sq
    y = 2.0 * abs(schedule.kappa_plus) * abs(schedule.kappa_minus)
    xi = kp2 * l_a / math.sqrt(1.0 - y * y) if l_a else 0.0
    cp = schedule.kappa_plus * np.conj(schedule.kappa_minus)
    cm = np.conj(cp)
    advection = 1j * q * np.array([[-kp2, cp], [-cm, kp2]])
    diffusion = -(q ** 2) * xi * np.array([[kp2, -cp], [-cm, kp2]])
    return advection + diffusion, xi


def transport_generator(schedule):
    """M of the cold transport d/dt psi(q) = i v_g q M psi(q), assembled from the
    PDE coefficients: d/dt psi+ = v_g (-a d/dz psi+ + kappa+ conj(kappa-) d/dz psi-)
    and d/dt psi- = v_g (a d/dz psi- - conj(kappa+) kappa- d/dz psi+), with a the
    larger of |kappa+|^2, |kappa-|^2."""
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    a = max(abs(kp) ** 2, abs(km) ** 2)
    return np.array([[-a, kp * np.conj(km)], [-np.conj(kp) * km, a]])


def decay_factor(schedule, gamma_bc, t):
    """exp(-Gamma_bc * integral of sin^2(theta) from 0 to t) for the tanh
    switch-on: only the spin part of the dark-state polariton dephases."""
    return cmath.exp(-gamma_bc * (t - schedule.cos2_theta0 * math.log(math.cosh(t))))


def nyquist_profile(grid):
    """The stored pulse at z = 1 plus a (-1)^j ripple, which on an even grid is
    a Nyquist component."""
    return gaussian_profile(grid, center=1.0) + 0.1 * (-1.0) ** np.arange(grid.n_z)


def random_pair(n_z, seed=0):
    """A polariton pair with content at every wavenumber, Nyquist included:
    no dark split, so the whole generator acts on it."""
    rng = np.random.default_rng(seed)
    plus, minus = rng.normal(size=(2, n_z)) + 1j * rng.normal(size=(2, n_z))
    return PolaritonField(plus, minus)


def _evolve(kappa_plus_sq, l_a, times):
    sched = CouplingSchedule.from_intensities(kappa_plus_sq)
    medium = MediumParams(l_a=l_a)
    return nonadiabatic_spectral_evolve(gaussian_profile(GRID), GRID, sched, medium, times)


def _evolve_thermal(kappa_plus_sq, l_a, times):
    sched = CouplingSchedule.from_intensities(kappa_plus_sq)
    medium = MediumParams(Gamma_bc=0.2 + 0.3j, l_a=l_a)
    return thermal_adiabatic_evolve(gaussian_profile(GRID), GRID, sched, medium, times)


FIELD_CLOSED_FORMS = {
    "cold_adiabatic_evolve": cold_adiabatic_evolve,
    "thermal_adiabatic_evolve": thermal_adiabatic_evolve,
    "nonadiabatic_spectral_evolve": nonadiabatic_spectral_evolve,
    "cold_transport_evolve": lambda psi0, grid, schedule, medium, times: cold_transport_evolve(
        initial_split(psi0, schedule), grid, schedule, medium, times
    ),
}


@pytest.mark.parametrize("name", list(FIELD_CLOSED_FORMS))
def test_one_signature_one_field_per_time(name):
    # every field closed form takes (profile, grid, schedule, medium, times) and
    # returns one field per time, in the order given, repeats included; each is
    # bit for bit the field of the call at that time alone
    evolve = FIELD_CLOSED_FORMS[name]
    psi0 = gaussian_profile(GRID, center=1.0)
    sched = CouplingSchedule.from_intensities(0.55)
    medium = MediumParams(Gamma_bc=0.3 + 0.2j, l_a=0.1)
    times = [2.0, 0.0, 2.0, 1.0]
    fields = evolve(psi0, GRID, sched, medium, times)
    assert [field.time_stamp for field in fields] == times
    for t, field in zip(times, fields, strict=True):
        (alone,) = evolve(psi0, GRID, sched, medium, [t])
        assert np.array_equal(field.psi_plus, alone.psi_plus)
        assert np.array_equal(field.psi_minus, alone.psi_minus)


class TestInitialSplit:
    def test_traveling_wave(self):
        psi0 = gaussian_profile(GRID)
        sched = CouplingSchedule.from_intensities(1.0)
        field = initial_split(psi0, sched)
        np.testing.assert_allclose(field.psi_plus, psi0, atol=1e-15)
        np.testing.assert_allclose(field.psi_minus, 0.0, atol=1e-15)

    def test_standing_wave(self):
        psi0 = gaussian_profile(GRID)
        sched = CouplingSchedule.from_intensities(0.5)
        field = initial_split(psi0, sched)
        np.testing.assert_allclose(field.psi_plus, psi0 / math.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(field.psi_minus, psi0 / math.sqrt(2), atol=1e-15)

    def test_density_preserved_pointwise(self):
        psi0 = (1.3 + 0.4j) * gaussian_profile(GRID)
        sched = CouplingSchedule.from_intensities(0.7)
        field = initial_split(psi0, sched)
        np.testing.assert_allclose(field.density(), np.abs(psi0) ** 2, atol=1e-14)


class TestColdAdiabaticEvolve:
    def test_standing_wave_is_frozen(self):
        psi0 = gaussian_profile(GRID)
        sched = CouplingSchedule.from_intensities(0.5)
        for field in cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [0.0, 2.0, 7.0]):
            np.testing.assert_allclose(field.psi_plus, psi0 / math.sqrt(2), atol=1e-13)
            np.testing.assert_allclose(field.psi_minus, psi0 / math.sqrt(2), atol=1e-13)

    def test_split_subpulse_amplitudes(self):
        # after full separation the forward/backward parts of psi+ carry the
        # closed-form weights (1 +- beta/|k+|^2)/2 of kappa+ * amplitude
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        t = 25.0  # beta * r ~ 5.7 pulse lengths
        (field,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [t])
        weight = beta(sched) / 0.55
        kp = abs(sched.kappa_plus)
        z = GRID.z
        forward_peak = np.max(np.abs(field.psi_plus[z > 0]))
        backward_peak = np.max(np.abs(field.psi_plus[z < 0]))
        assert forward_peak == pytest.approx(kp * (1 + weight) / 2, rel=1e-4)
        assert backward_peak == pytest.approx(kp * (1 - weight) / 2, rel=1e-4)
        assert (1 + weight) / 2 == pytest.approx(0.7132007163556104, abs=1e-12)
        assert (1 - weight) / 2 == pytest.approx(0.2867992836443896, abs=1e-12)

    def test_decay_factorization(self):
        psi0 = gaussian_profile(GRID)
        sched = CouplingSchedule.from_intensities(0.55)
        gamma = 0.3 + 0.2j
        t = 4.0
        (bare,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [t])
        (damped,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(Gamma_bc=gamma), [t])
        factor = decay_factor(sched, gamma, t)
        np.testing.assert_allclose(damped.psi_plus, bare.psi_plus * factor, atol=1e-14)
        np.testing.assert_allclose(damped.psi_minus, bare.psi_minus * factor, atol=1e-14)

    @pytest.mark.parametrize(
        "n_z, profile, t",
        [
            (512, lambda grid: gaussian_profile(grid, center=1.5), 5.0),
            (64, nyquist_profile, 3.0),
            (63, nyquist_profile, 3.0),
        ],
        ids=["pulse-512", "nyquist-64", "ripple-63"],
    )
    def test_mirror_symmetry(self, n_z, profile, t):
        # the shifts are phase ramps on the grid's wavenumbers, which must be
        # odd under the mirror, the Nyquist column of an even grid included
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=n_z)
        psi0 = profile(grid)
        (direct,) = cold_adiabatic_evolve(
            psi0, grid, CouplingSchedule.from_intensities(0.45), MediumParams(), [t]
        )
        (swapped,) = cold_adiabatic_evolve(
            mirror(psi0), grid, CouplingSchedule.from_intensities(0.55), MediumParams(), [t]
        )
        np.testing.assert_allclose(direct.psi_plus, mirror(swapped.psi_minus), atol=1e-12)
        np.testing.assert_allclose(direct.psi_minus, mirror(swapped.psi_plus), atol=1e-12)

    @pytest.mark.parametrize("kappa_plus_sq", [0.2, 0.4, 0.45, 0.5, 0.55, 0.7, 0.9, 1.0])
    def test_mirrored_ordering_on_asymmetric_grid_matches_numeric(self, kappa_plus_sq):
        # the closed form moves its sub-pulses at +-beta*v_g; the stepper
        # integrates the assembled advection matrix, so agreement checks beta
        # against that matrix in both orderings
        grid = SimulationGrid(z_min=-6.0, z_max=8.0, n_z=256)
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        psi0 = gaussian_profile(grid)
        t = 4.0
        (closed,) = cold_adiabatic_evolve(psi0, grid, sched, MediumParams(), [t])
        final = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), grid, t)[-1]
        got = np.concatenate([final.psi_plus, final.psi_minus])
        want = np.concatenate([closed.psi_plus, closed.psi_minus])
        assert np.linalg.norm(got - want) < 1e-6 * np.linalg.norm(want)
        if kappa_plus_sq == 0.5:
            return
        # the stronger coupling carries the larger sub-pulse along its own direction
        z = grid.z
        stronger, ahead = (
            (closed.psi_plus, z > 0) if kappa_plus_sq > 0.5 else (closed.psi_minus, z < 0)
        )
        assert np.max(np.abs(stronger[ahead])) > np.max(np.abs(stronger[~ahead]))

    def test_standing_norm_time_independent(self):
        psi0 = gaussian_profile(GRID)
        sched = CouplingSchedule.from_intensities(0.5)
        fields = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [0, 3, 7])
        norms = [field_norm(field, GRID) for field in fields]
        assert max(norms) - min(norms) < 1e-12 * norms[0]

    def test_pde_residual(self):
        # centered time difference + spectral space derivative residual of the
        # transport equations, evaluated on the closed-form solution
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        gamma = 0.1 + 0.05j
        t, dt = 3.0, 1e-3
        now, plus, minus = cold_adiabatic_evolve(
            psi0, GRID, sched, MediumParams(Gamma_bc=gamma), [t, t + dt, t - dt]
        )
        ddt_p = (plus.psi_plus - minus.psi_plus) / (2 * dt)
        ddt_m = (plus.psi_minus - minus.psi_minus) / (2 * dt)
        iq = 1j * GRID.wavenumbers
        dz_p = np.fft.ifft(iq * np.fft.fft(now.psi_plus))
        dz_m = np.fft.ifft(iq * np.fft.fft(now.psi_minus))
        v = group_velocity(t)
        kp, km = sched.kappa_plus, sched.kappa_minus
        rate = gamma * (1.0 - cos2_theta(sched, t))  # Gamma_bc sin^2(theta(t))
        res_p = ddt_p + rate * now.psi_plus + 0.55 * v * dz_p - kp * np.conj(km) * v * dz_m
        res_m = ddt_m + rate * now.psi_minus - 0.55 * v * dz_m + np.conj(kp) * km * v * dz_p
        scale = np.linalg.norm(np.concatenate([now.psi_plus, now.psi_minus]))
        residual = np.linalg.norm(np.concatenate([res_p, res_m]))
        assert residual < 1e-6 * scale


class TestColdTransportEvolve:
    @pytest.mark.parametrize("gamma_bc", [0.0, 0.25 + 0.1j])
    @pytest.mark.parametrize("n_z", [64, 63])
    @pytest.mark.parametrize(
        "kappa_plus, kappa_minus",
        [
            pytest.param(math.sqrt(0.7) * cmath.exp(0.9j), math.sqrt(0.3), id="stronger-plus"),
            pytest.param(math.sqrt(0.3), math.sqrt(0.7) * cmath.exp(-0.4j), id="stronger-minus"),
            pytest.param(math.sqrt(0.5) * cmath.exp(0.9j), math.sqrt(0.5), id="beta0"),
        ],
    )
    def test_matches_matrix_exponential_at_every_wavenumber(
        self, kappa_plus, kappa_minus, n_z, gamma_bc
    ):
        # each column of the output spectrum must be exp(i q r M) times the decay
        # exp(-Gamma_bc (t - cos^2(theta0) r)) applied to the input column, exp
        # by scaling and squaring of the Taylor series (M is defective at
        # beta = 0, so no eigendecomposition); the Nyquist column of an even
        # grid is advected as q = 0
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=n_z)
        sched = CouplingSchedule(kappa_plus, kappa_minus)
        initial = random_pair(n_z)
        times = [0.0, 1.5, 6.0]
        fields = cold_transport_evolve(initial, grid, sched, MediumParams(Gamma_bc=gamma_bc), times)
        q = 2.0 * np.pi * np.fft.fftfreq(n_z, d=grid.dz)
        if n_z % 2 == 0:
            q[n_z // 2] = 0.0
        generator = transport_generator(sched)
        start = np.array([np.fft.fft(initial.psi_plus), np.fft.fft(initial.psi_minus)])
        for t, field in zip(times, fields, strict=True):
            assert field.time_stamp == t
            r = displacement_r(t)
            expected = np.array([
                decay_factor(sched, gamma_bc, t) * taylor_expm(1j * qi * r * generator)
                @ start[:, k]
                for k, qi in enumerate(q)
            ]).T
            got = np.array([np.fft.fft(field.psi_plus), np.fft.fft(field.psi_minus)])
            assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected)), t

    @pytest.mark.parametrize("n_z", [64, 63])
    def test_mirror_symmetry(self, n_z):
        # z -> -z with kappa+ <-> kappa- and psi+ <-> psi- maps solutions onto
        # solutions; the core uses no reflection, so this can fail (it does for
        # an even grid whose Nyquist column moves)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=n_z)
        kp, km = math.sqrt(0.7) * cmath.exp(0.9j), math.sqrt(0.3) * cmath.exp(-0.4j)
        medium = MediumParams(Gamma_bc=0.25 + 0.1j)
        initial = random_pair(n_z)
        swapped_initial = PolaritonField(mirror(initial.psi_minus), mirror(initial.psi_plus))
        times = [2.0, 6.0]
        direct = cold_transport_evolve(initial, grid, CouplingSchedule(kp, km), medium, times)
        swapped = cold_transport_evolve(
            swapped_initial, grid, CouplingSchedule(km, kp), medium, times
        )
        for one, other in zip(direct, swapped, strict=True):
            peak = np.max(np.abs(np.concatenate([one.psi_plus, one.psi_minus])))
            assert np.max(np.abs(one.psi_plus - mirror(other.psi_minus))) < 1e-13 * peak
            assert np.max(np.abs(one.psi_minus - mirror(other.psi_plus))) < 1e-13 * peak

    @pytest.mark.parametrize("kappa_plus_sq, l_a", [(0.3, 0.0), (0.5, 0.0), (0.7, 0.0), (0.7, 0.1)])
    def test_restart_composes(self, kappa_plus_sq, l_a):
        # a field held to t 1.3 and restarted to t 4 is the field evolved to
        # t 4 in one call: the restart moves by r(4) - r(1.3) and decays over
        # [1.3, 4]
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        medium = MediumParams(Gamma_bc=0.05, l_a=l_a)
        modes = _dispersive_modes(sched, l_a, GRID.wavenumbers)

        def evolve(initial, t):
            if l_a == 0.0:
                return cold_transport_evolve(initial, GRID, sched, medium, [t])[0]
            return analytic._evolve(initial, GRID, sched, medium, [t], modes)[0]

        initial = initial_split(gaussian_profile(GRID), sched)
        restarted, direct = evolve(evolve(initial, 1.3), 4.0), evolve(initial, 4.0)
        assert restarted.time_stamp == direct.time_stamp == 4.0
        got = np.concatenate([restarted.psi_plus, restarted.psi_minus])
        want = np.concatenate([direct.psi_plus, direct.psi_minus])
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "kappa_plus_sq, gamma_bc, n_z",
        [
            pytest.param(kp2, gamma, 2048, id=f"{kp2}-{gamma}")
            for kp2 in (0.3, 0.45, 0.5, 0.55, 0.7)
            for gamma in (0.0, 0.05, 0.25 + 0.1j)
        ]
        + [pytest.param(kp2, 0.0, 64, id=f"{kp2}-0.0-nyquist") for kp2 in (0.55, 0.7)],
    )
    def test_dark_split_matches_characteristic_shifts(self, kappa_plus_sq, gamma_bc, n_z):
        # two derivations of the stored pulse's motion: the exponential of the
        # assembled generator, and the closed form's sub-pulse shifts; they
        # agree only if both read one wavenumber array (at n_z 64 the profile
        # has a Nyquist component)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=n_z)
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        psi0 = gaussian_profile(grid) if n_z == 2048 else nyquist_profile(grid)
        medium = MediumParams(Gamma_bc=gamma_bc)
        (got,) = cold_transport_evolve(initial_split(psi0, sched), grid, sched, medium, [10.0])
        (want,) = cold_adiabatic_evolve(psi0, grid, sched, medium, [10.0])
        if kappa_plus_sq == 0.5:
            # at the standing wave the dark split is stationary: the assembly
            # C v + S (M v) adds an exact zero, so the fields agree bit for bit
            assert np.array_equal(got.psi_plus, want.psi_plus)
            assert np.array_equal(got.psi_minus, want.psi_minus)
        peak = np.max(np.abs(np.concatenate([want.psi_plus, want.psi_minus])))
        assert np.max(np.abs(got.psi_plus - want.psi_plus)) < 1e-14 * peak
        assert np.max(np.abs(got.psi_minus - want.psi_minus)) < 1e-14 * peak

    @pytest.mark.parametrize(
        "kappa_plus_sq, bound", [(0.5, 1e-15), (0.55, 2e-12), (0.45, 2e-12), (0.7, 1e-10)]
    )
    def test_matches_rk4_within_its_step_error(self, kappa_plus_sq, bound):
        # the RK4 steps the same generator; its error grows with beta (measured
        # at n_z 2048, t 10, 1,907 steps in r: 1.9e-16, 1.0e-12, 1.0e-12 and
        # 6.0e-11 of peak)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=2048)
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        initial = initial_split(gaussian_profile(grid), sched)
        (exact,) = cold_transport_evolve(initial, grid, sched, MediumParams(), [10.0])
        stepped = evolve_cold_numeric(initial, sched, MediumParams(), grid, 10.0)[-1]
        peak = np.max(np.abs(np.concatenate([exact.psi_plus, exact.psi_minus])))
        assert np.max(np.abs(stepped.psi_plus - exact.psi_plus)) < bound * peak
        assert np.max(np.abs(stepped.psi_minus - exact.psi_minus)) < bound * peak

    @pytest.mark.parametrize("plus, minus", [(0.6, 0.8), (0.8, 0.6)])
    def test_matches_rk4_with_complex_couplings(self, plus, minus):
        # the RK4 steps in the gauge psi+- e^(-i arg kappa+-), where the
        # coupling is real; a gauge that drops or doubles a phase steps another
        # generator.  On a pair that is not a dark split, at n_z 1024 and t 4
        # (339 steps in r) the RK4 missed the exact fields by 1.12e-10 of the
        # peak in both orderings (before the gauge too); the pulses moved by
        # 0.91 of it, and with the phases dropped the RK4 missed by 0.62
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=1024)
        sched = CouplingSchedule(plus * cmath.exp(0.4j), minus * cmath.exp(-1.1j))
        initial = PolaritonField(gaussian_profile(grid, center=1.0),
                                 0.5j * gaussian_profile(grid, center=-1.5))
        (exact,) = cold_transport_evolve(initial, grid, sched, MediumParams(), [4.0])
        stepped = evolve_cold_numeric(initial, sched, MediumParams(), grid, 4.0)[-1]
        peak = np.max(np.abs(np.concatenate([exact.psi_plus, exact.psi_minus])))
        # 2.7x the measured error
        assert np.max(np.abs(stepped.psi_plus - exact.psi_plus)) < 3e-10 * peak
        assert np.max(np.abs(stepped.psi_minus - exact.psi_minus)) < 3e-10 * peak


class TestProbeRecovery:
    def test_zero_probe_at_switch_on(self):
        sched = CouplingSchedule.from_intensities(0.5)
        field = initial_split(gaussian_profile(GRID), sched)
        probe = probe_from_polariton(field, sched)
        np.testing.assert_allclose(probe.e_plus, 0.0, atol=1e-15)
        np.testing.assert_allclose(probe.e_minus, 0.0, atol=1e-15)

    def test_saturated_probe(self):
        sched = CouplingSchedule.from_intensities(0.5)
        field = dataclasses.replace(initial_split(gaussian_profile(GRID), sched), time_stamp=60.0)
        probe = probe_from_polariton(field, sched)
        cos0 = math.sqrt(sched.cos2_theta0)
        np.testing.assert_allclose(probe.e_plus, cos0 * field.psi_plus, rtol=1e-10)

    def test_standing_wave_retrieval_formula(self):
        # E+- = (1/sqrt(2)) (cos th(t)/cos th0) E0 exp(-(z/L)^2)
        # exp(-Gamma (t - cos^2(th0) r(t))), with Psi0 = E0/cos(theta0) = 1
        sched = CouplingSchedule.from_intensities(0.5)
        gamma = 0.05 + 0.02j
        t = 2.0
        psi0 = gaussian_profile(GRID)
        (field,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(Gamma_bc=gamma), [t])
        probe = probe_from_polariton(field, sched)
        cos_t = math.sqrt(cos2_theta(sched, t))
        expected = psi0 / math.sqrt(2) * cos_t * decay_factor(sched, gamma, t)
        np.testing.assert_allclose(probe.e_plus, expected, atol=1e-14)
        np.testing.assert_allclose(probe.e_minus, expected, atol=1e-14)

    def test_energy_density(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        (field,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [40.0])
        probe = probe_from_polariton(field, sched)
        density = probe.density()
        e0_sq = sched.cos2_theta0
        i0 = np.argmin(np.abs(GRID.z))
        # two halves of 1/2 at the pulse center, in units of |E0|^2
        assert density[i0] == pytest.approx(e0_sq, rel=1e-8)

    def test_density_phase_invariance(self):
        sched = CouplingSchedule.from_intensities(0.5)
        field = dataclasses.replace(initial_split(gaussian_profile(GRID), sched), time_stamp=3.0)
        probe = probe_from_polariton(field, sched)
        rotated = probe_from_polariton(
            dataclasses.replace(
                initial_split(np.exp(0.7j) * gaussian_profile(GRID), sched), time_stamp=3.0
            ),
            sched,
        )
        np.testing.assert_allclose(rotated.density(), probe.density(), atol=1e-14)

    def test_zero_field_zero_density(self):
        sched = CouplingSchedule.from_intensities(0.5)
        field = dataclasses.replace(
            initial_split(np.zeros(GRID.n_z, complex), sched), time_stamp=1.0
        )
        assert np.all(probe_from_polariton(field, sched).density() == 0.0)


class TestRamanHarmonics:
    def test_standing_wave_dc_only(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        t = 3.0
        expansion = raman_harmonics(psi0, GRID, sched, t, n_max=5)
        sin_t = math.sqrt(1.0 - cos2_theta(sched, t))
        np.testing.assert_allclose(expansion[0], -sin_t * psi0, atol=1e-12)
        for n in range(1, 6):
            np.testing.assert_allclose(expansion[-2 * n], 0.0, atol=1e-12)
            np.testing.assert_allclose(expansion[2 * n], 0.0, atol=1e-15)

    def test_positive_harmonics_vanish(self):
        sched = CouplingSchedule.from_intensities(0.55)
        expansion = raman_harmonics(gaussian_profile(GRID), GRID, sched, 4.0, n_max=6)
        for n in range(1, 7):
            assert np.all(expansion[2 * n] == 0.0)

    def test_successive_ratio(self):
        sched = CouplingSchedule.from_intensities(0.55)
        expansion = raman_harmonics(gaussian_profile(GRID), GRID, sched, 4.0, n_max=4)
        ratio = -sched.kappa_minus / sched.kappa_plus
        assert abs(ratio) == pytest.approx(0.9045340337332909, abs=1e-12)
        for n in range(1, 4):
            upper = expansion[-2 * (n + 1)]
            lower = expansion[-2 * n]
            mask = np.abs(lower) > 1e-6
            np.testing.assert_allclose(upper[mask] / lower[mask], ratio, atol=1e-10)

    def test_mirrored_ordering_at_positive_indices(self):
        # |kappa-| > |kappa+|: the series moves to positive indices and equals
        # the z -> -z image of the swapped ordering's negative-index series
        psi0 = gaussian_profile(GRID, center=1.5)
        direct = raman_harmonics(psi0, GRID, CouplingSchedule.from_intensities(0.45), 4.0, 4)
        swapped = raman_harmonics(
            mirror(psi0), GRID, CouplingSchedule(math.sqrt(0.55), math.sqrt(0.45)), 4.0, 4
        )
        np.testing.assert_allclose(direct[0], mirror(swapped[0]), atol=1e-12)
        for n in range(1, 5):
            assert np.all(direct[-2 * n] == 0.0)
            assert np.max(np.abs(direct[2 * n])) > 1e-3
            np.testing.assert_allclose(
                direct[2 * n], mirror(swapped[-2 * n]), atol=1e-12
            )

    @pytest.mark.parametrize(
        "kappa_plus_sq,n_max",
        # (0.599497, 160): y = 0.98; 0.3 and 0.400503 are the mirrored orderings;
        # 1.0 and 0.0 are the traveling waves, whose weaker coupling is zero
        [(0.9, 40), (0.7, 40), (0.599497, 160), (0.3, 40), (0.400503, 160), (1.0, 4),
         (0.0, 4)],
    )
    def test_reconstruction_matches_direct_quotient(self, kappa_plus_sq, n_max):
        grid = SimulationGrid(z_min=-2.0, z_max=2.0, n_z=1024)
        k_opt = 200.0
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        psi0 = gaussian_profile(grid)
        t = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expansion = raman_harmonics(psi0, grid, sched, t, n_max=n_max)
        if kappa_plus_sq in (0.0, 1.0):
            assert all(np.all(samples == 0.0) for m, samples in expansion.items() if m)
        reconstructed = sum(
            samples * np.exp(1j * m * k_opt * grid.z) for m, samples in expansion.items()
        )
        (field,) = cold_adiabatic_evolve(psi0, grid, sched, MediumParams(), [t])
        sin_t = math.sqrt(1.0 - cos2_theta(sched, t))
        phase = np.exp(1j * k_opt * grid.z)
        quotient = -sin_t * (field.psi_plus * phase + field.psi_minus / phase) / (
            sched.kappa_plus * phase + sched.kappa_minus / phase
        )
        scale = np.max(np.abs(quotient))
        assert np.max(np.abs(reconstructed - quotient)) < 1e-6 * scale


class TestSpectralPropagator:
    @pytest.mark.parametrize("l_a", [0.0, 0.1, 1.0])
    def test_standing_wave_limit_is_frozen(self, l_a):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        (out,) = nonadiabatic_spectral_evolve(psi0, GRID, sched, MediumParams(l_a=l_a), [10.0])
        np.testing.assert_allclose(out.psi_plus, psi0 / math.sqrt(2), atol=1e-10)
        np.testing.assert_allclose(out.psi_minus, psi0 / math.sqrt(2), atol=1e-10)

    @pytest.mark.parametrize("kappa_plus_sq", [0.5, 0.5 + 1e-9, 0.55, 0.45, 0.3])
    def test_dispersionless_limit_reduces_to_adiabatic(self, kappa_plus_sq):
        # the standing wave (beta = 0) and a hair off it give the same motion,
        # and so does either ordering of |kappa+|, |kappa-|
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        psi0 = gaussian_profile(GRID)
        (out,) = nonadiabatic_spectral_evolve(psi0, GRID, sched, MediumParams(l_a=0.0), [5.0])
        (reference,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [5.0])
        np.testing.assert_allclose(out.psi_plus, reference.psi_plus, atol=1e-10)
        np.testing.assert_allclose(out.psi_minus, reference.psi_minus, atol=1e-10)

    def test_traveling_wave_heat_kernel_moments(self):
        # second moment of the density grows like the drift-diffusion kernel
        sched = CouplingSchedule.from_intensities(1.0)
        l_a, t = 0.1, 8.0
        psi0 = gaussian_profile(GRID, center=-4.0)
        (out,) = nonadiabatic_spectral_evolve(psi0, GRID, sched, MediumParams(l_a=l_a), [t])
        z = GRID.z
        r = displacement_r(t)

        def width_sq(density):
            total = np.sum(density)
            mean = np.sum(z * density) / total
            return 2.0 * np.sum((z - mean) ** 2 * density) / total

        density0 = np.abs(psi0) ** 2
        density1 = out.density()
        centroid = np.sum(z * density1) / np.sum(density1)
        assert centroid == pytest.approx(-4.0 + r, rel=1e-6)
        assert width_sq(density1) - width_sq(density0) == pytest.approx(2 * l_a * r, rel=1e-6)

    def test_norm_never_increases(self):
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        fields = nonadiabatic_spectral_evolve(
            psi0, GRID, sched, MediumParams(l_a=0.3), np.linspace(0.0, 6.0, 13)
        )
        norms = [field_norm(out, GRID) for out in fields]
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-12 * norms[0])

    @pytest.mark.parametrize("l_a", [0.0, 1e-3, 0.1, 0.3])
    @pytest.mark.parametrize("phase", [0.0, 0.9])
    @pytest.mark.parametrize("kappa_plus_sq", [0.55, 0.7, 1.0])
    def test_mode_crossing_matches_matrix_exponential(self, kappa_plus_sq, phase, l_a):
        # at every q the propagator must equal exp(r G) for the generator G
        # assembled from the PDE coefficients; where the modes cross (d(q_c) = 0)
        # that holds for its confluent limit at q_c and for the difference form
        # a hair either side of the crossing
        sched = CouplingSchedule(
            math.sqrt(kappa_plus_sq) * cmath.exp(1j * phase), math.sqrt(1.0 - kappa_plus_sq)
        )
        r = displacement_r(1.0)
        q = [0.0, 0.25, 1.0, 2.0, 5.0, -3.0]
        _, xi = dispersive_generator(sched, l_a, 0.0)
        if kappa_plus_sq < 1.0 and l_a > 0.0:
            q_c = beta(sched) / (abs(sched.kappa_plus) * abs(sched.kappa_minus) * xi)
            q += [q_c, q_c * (1 - 1e-7), q_c * (1 + 1e-7)]
        q = np.array(q)
        modes = _dispersive_modes(sched, l_a, q)
        for column in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            plus, minus = modes(
                np.full(q.size, column[0], complex), np.full(q.size, column[1], complex),
            )(r)
            for i, qi in enumerate(q):
                generator, _ = dispersive_generator(sched, l_a, qi)
                expected = taylor_expm(r * generator) @ column
                got = np.array([plus[i], minus[i]])
                assert np.max(np.abs(got - expected)) < 1e-12, (qi, got, expected)

    @pytest.mark.parametrize("l_a", [1e-12, 1e-3])
    def test_continuous_in_l_a_next_to_the_standing_wave(self, l_a):
        # y = 1 - 2e-10: a vanishing dispersion length must give back the
        # dispersionless motion, a small one a finite, non-growing field
        sched = CouplingSchedule.from_intensities(0.50001)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=256)
        psi0 = gaussian_profile(grid)
        t = 20.0
        (reference,) = nonadiabatic_spectral_evolve(psi0, grid, sched, MediumParams(l_a=0.0), [t])
        (out,) = nonadiabatic_spectral_evolve(psi0, grid, sched, MediumParams(l_a=l_a), [t])
        assert np.all(np.isfinite(out.psi_plus)) and np.all(np.isfinite(out.psi_minus))
        assert field_norm(out, grid) <= field_norm(initial_split(psi0, sched), grid) * (1 + 1e-12)
        if l_a == 1e-12:
            peak = np.max(np.abs(reference.psi_plus))
            for got, want in ((out.psi_plus, reference.psi_plus),
                              (out.psi_minus, reference.psi_minus)):
                assert np.max(np.abs(got - want)) < 1e-7 * peak

    @pytest.mark.parametrize("l_a, bound", [(0.1, 0.015), (0.3, 0.03)])
    def test_thermal_slaved_difference_mode_matches_the_dc_ladder(self, l_a, bound):
        # C09's configuration, whose bound of 0.10 cannot see the slaved mode
        # psi_D = -2 k+ k- l_a d/dz psi_S: the closed form is 0.0059 (l_a 0.1)
        # and 0.0163 (l_a 0.3) off the ladder N 1 with it, 0.0285 and 0.057
        # with it halved, 0.0564 and 0.111 without it
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
        sched = CouplingSchedule.from_intensities(0.55)
        medium = MediumParams(gamma_ba=100.0, l_a=l_a)
        psi0 = gaussian_profile(grid)
        zeros = np.zeros(grid.n_z, complex)
        ladder = evolve_mb_harmonics(ProbeField(zeros, zeros), sched, medium, grid, 1, 6.0,
                                     initial_sigma_bc0=-psi0)[-1]
        (thermal,) = thermal_adiabatic_evolve(psi0, grid, sched, medium, [6.0])
        probe = probe_from_polariton(thermal, sched)
        got = np.concatenate([ladder.e_plus, ladder.e_minus])
        want = np.concatenate([probe.e_plus, probe.e_minus])
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < bound

    @pytest.mark.parametrize(
        "evolve, kappa_plus_sq",
        [
            pytest.param(_evolve, 0.5, id="0.5"),
            pytest.param(_evolve, 0.7, id="0.7"),
            pytest.param(_evolve_thermal, 0.5, id="thermal-0.5"),
            pytest.param(_evolve_thermal, 0.7, id="thermal-0.7"),
        ],
    )
    def test_each_time_evolves_independently(self, evolve, kappa_plus_sq):
        # a call over [t1, t2] returns bitwise the fields of calls over [t1] and [t2]
        together = evolve(kappa_plus_sq, 0.1, [2.0, 7.0])
        apart = evolve(kappa_plus_sq, 0.1, [2.0]) + evolve(kappa_plus_sq, 0.1, [7.0])
        for got, want in zip(together, apart, strict=True):
            assert got.time_stamp == want.time_stamp
            assert got.psi_plus.tobytes() == want.psi_plus.tobytes()
            assert got.psi_minus.tobytes() == want.psi_minus.tobytes()
