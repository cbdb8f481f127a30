import math
import warnings

import numpy as np
import pytest

from stationary_light import (
    CouplingSchedule,
    MediumParams,
    SimulationGrid,
    beta,
    cold_adiabatic_evolve,
    cos2_theta,
    displacement_r,
    evolve_cold_numeric,
    gaussian_profile,
    group_velocity,
    initial_split,
    nonadiabatic_spectral_evolve,
    probe_from_polariton,
    raman_harmonics,
    thermal_adiabatic_evolve,
)
from stationary_light.analytic import _propagate_modes
from stationary_light.fourier import dispersion_params

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


def _evolve(kappa_plus_sq, l_a, times):
    sched = CouplingSchedule.from_intensities(kappa_plus_sq)
    return nonadiabatic_spectral_evolve(gaussian_profile(GRID), GRID, sched, l_a, times)


def _evolve_thermal(kappa_plus_sq, l_a, times):
    sched = CouplingSchedule.from_intensities(kappa_plus_sq)
    medium = MediumParams(Gamma_bc=0.2 + 0.3j, l_a=l_a)
    return thermal_adiabatic_evolve(gaussian_profile(GRID), GRID, sched, medium, times)


TIME_FUNCTIONS = {
    "cos2_theta": lambda t: cos2_theta(CouplingSchedule.from_intensities(0.5), t),
    "cos2_theta_array": lambda t: cos2_theta(
        CouplingSchedule.from_intensities(0.5), np.array([1.0, t])
    ),
    "displacement_r": lambda t: displacement_r(CouplingSchedule.from_intensities(0.5), t),
    "cold_adiabatic_evolve": lambda t: cold_adiabatic_evolve(
        gaussian_profile(GRID), GRID, CouplingSchedule.from_intensities(0.5), t
    ),
    "raman_harmonics": lambda t: raman_harmonics(
        gaussian_profile(GRID), GRID, CouplingSchedule.from_intensities(0.55), t, 2
    ),
    "probe_from_polariton": lambda t: probe_from_polariton(
        initial_split(gaussian_profile(GRID), CouplingSchedule.from_intensities(0.5)),
        CouplingSchedule.from_intensities(0.5), t,
    ),
    "spectral_quasi_standing": lambda t: _evolve(0.7, 0.1, [1.0, t]),
    "spectral_standing": lambda t: _evolve(0.5, 0.0, [1.0, t]),
    "thermal_adiabatic_evolve": lambda t: _evolve_thermal(0.55, 0.1, [1.0, t]),
}


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("name", list(TIME_FUNCTIONS))
def test_non_finite_time_rejected_without_warnings(name, t):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="finite"):
            TIME_FUNCTIONS[name](t)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
        psi0 = gaussian_profile(GRID, amplitude=1.3 + 0.4j)
        sched = CouplingSchedule.from_intensities(0.7)
        field = initial_split(psi0, sched)
        np.testing.assert_allclose(field.density(), np.abs(psi0) ** 2, atol=1e-14)


class TestColdAdiabaticEvolve:
    def test_standing_wave_is_frozen(self):
        psi0 = gaussian_profile(GRID)
        sched = CouplingSchedule.from_intensities(0.5)
        for t in (0.0, 2.0, 7.0):
            field = cold_adiabatic_evolve(psi0, GRID, sched, t)
            np.testing.assert_allclose(field.psi_plus, psi0 / math.sqrt(2), atol=1e-13)
            np.testing.assert_allclose(field.psi_minus, psi0 / math.sqrt(2), atol=1e-13)

    def test_split_subpulse_amplitudes(self):
        # after full separation the forward/backward parts of psi+ carry the
        # closed-form weights (1 +- beta/|k+|^2)/2 of kappa+ * amplitude
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        t = 25.0  # beta * r ~ 5.7 pulse lengths
        field = cold_adiabatic_evolve(psi0, GRID, sched, t)
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
        bare = cold_adiabatic_evolve(psi0, GRID, sched, t)
        damped = cold_adiabatic_evolve(psi0, GRID, sched, t, gamma_bc=gamma)
        factor = np.exp(-gamma * t)
        np.testing.assert_allclose(damped.psi_plus, bare.psi_plus * factor, atol=1e-14)
        np.testing.assert_allclose(damped.psi_minus, bare.psi_minus * factor, atol=1e-14)

    def test_mirror_symmetry(self):
        psi0 = gaussian_profile(GRID, center=1.5)
        direct = cold_adiabatic_evolve(psi0, GRID, CouplingSchedule.from_intensities(0.45), 5.0)
        swapped = cold_adiabatic_evolve(
            mirror(psi0), GRID, CouplingSchedule.from_intensities(0.55), 5.0
        )
        np.testing.assert_allclose(direct.psi_plus, mirror(swapped.psi_minus), atol=1e-12)
        np.testing.assert_allclose(direct.psi_minus, mirror(swapped.psi_plus), atol=1e-12)

    def test_mirrored_ordering_on_asymmetric_grid_matches_numeric(self):
        grid = SimulationGrid(z_min=-6.0, z_max=14.0, n_z=256)
        sched = CouplingSchedule.from_intensities(0.4)
        psi0 = gaussian_profile(grid)
        t = 8.0
        closed = cold_adiabatic_evolve(psi0, grid, sched, t)
        report = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), grid, t)
        got = np.concatenate([report.final_field.psi_plus, report.final_field.psi_minus])
        want = np.concatenate([closed.psi_plus, closed.psi_minus])
        assert np.linalg.norm(got - want) < 1e-6 * np.linalg.norm(want)
        # the stronger (backward) coupling carries the larger sub-pulse towards -z
        z = grid.z
        assert np.max(np.abs(closed.psi_minus[z < 0])) > np.max(np.abs(closed.psi_minus[z > 0]))

    def test_standing_norm_time_independent(self):
        psi0 = gaussian_profile(GRID)
        sched = CouplingSchedule.from_intensities(0.5)
        norms = [field_norm(cold_adiabatic_evolve(psi0, GRID, sched, t), GRID) for t in (0, 3, 7)]
        assert max(norms) - min(norms) < 1e-12 * norms[0]

    def test_pde_residual(self):
        # centered time difference + spectral space derivative residual of the
        # transport equations, evaluated on the closed-form solution
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        gamma = 0.1 + 0.05j
        t, dt = 3.0, 1e-3
        now = cold_adiabatic_evolve(psi0, GRID, sched, t, gamma)
        plus = cold_adiabatic_evolve(psi0, GRID, sched, t + dt, gamma)
        minus = cold_adiabatic_evolve(psi0, GRID, sched, t - dt, gamma)
        ddt_p = (plus.psi_plus - minus.psi_plus) / (2 * dt)
        ddt_m = (plus.psi_minus - minus.psi_minus) / (2 * dt)
        iq = 1j * GRID.wavenumbers
        dz_p = np.fft.ifft(iq * np.fft.fft(now.psi_plus))
        dz_m = np.fft.ifft(iq * np.fft.fft(now.psi_minus))
        v = group_velocity(sched, t)
        kp, km = sched.kappa_plus, sched.kappa_minus
        res_p = ddt_p + gamma * now.psi_plus + 0.55 * v * dz_p - kp * np.conj(km) * v * dz_m
        res_m = ddt_m + gamma * now.psi_minus - 0.55 * v * dz_m + np.conj(kp) * km * v * dz_p
        scale = np.linalg.norm(np.concatenate([now.psi_plus, now.psi_minus]))
        residual = np.linalg.norm(np.concatenate([res_p, res_m]))
        assert residual < 1e-6 * scale


class TestProbeRecovery:
    def test_zero_probe_at_switch_on(self):
        sched = CouplingSchedule.from_intensities(0.5)
        field = initial_split(gaussian_profile(GRID), sched)
        probe = probe_from_polariton(field, sched, 0.0)
        np.testing.assert_allclose(probe.e_plus, 0.0, atol=1e-15)
        np.testing.assert_allclose(probe.e_minus, 0.0, atol=1e-15)

    def test_saturated_probe(self):
        sched = CouplingSchedule.from_intensities(0.5)
        field = initial_split(gaussian_profile(GRID), sched)
        probe = probe_from_polariton(field, sched, 60.0)
        cos0 = math.sqrt(sched.cos2_theta0)
        np.testing.assert_allclose(probe.e_plus, cos0 * field.psi_plus, rtol=1e-10)

    def test_standing_wave_retrieval_formula(self):
        # E+- = (1/sqrt(2)) (cos th(t)/cos th0) E0 exp(-(z/L)^2) exp(-Gamma t),
        # with Psi0 = E0/cos(theta0) = 1
        sched = CouplingSchedule.from_intensities(0.5)
        gamma = 0.05 + 0.02j
        t = 2.0
        psi0 = gaussian_profile(GRID)
        field = cold_adiabatic_evolve(psi0, GRID, sched, t, gamma)
        probe = probe_from_polariton(field, sched, t)
        cos_t = math.sqrt(cos2_theta(sched, t))
        expected = psi0 / math.sqrt(2) * cos_t * np.exp(-gamma * t)
        np.testing.assert_allclose(probe.e_plus, expected, atol=1e-14)
        np.testing.assert_allclose(probe.e_minus, expected, atol=1e-14)

    def test_energy_density(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        field = cold_adiabatic_evolve(psi0, GRID, sched, 40.0)
        probe = probe_from_polariton(field, sched, 40.0)
        density = probe.density()
        e0_sq = sched.cos2_theta0
        i0 = np.argmin(np.abs(GRID.z))
        # two halves of 1/2 at the pulse center, in units of |E0|^2
        assert density[i0] == pytest.approx(e0_sq, rel=1e-8)

    def test_density_phase_invariance(self):
        sched = CouplingSchedule.from_intensities(0.5)
        field = initial_split(gaussian_profile(GRID), sched)
        probe = probe_from_polariton(field, sched, 3.0)
        rotated = probe_from_polariton(
            initial_split(gaussian_profile(GRID, amplitude=np.exp(0.7j)), sched), sched, 3.0
        )
        np.testing.assert_allclose(rotated.density(), probe.density(), atol=1e-14)

    def test_zero_field_zero_density(self):
        sched = CouplingSchedule.from_intensities(0.5)
        field = initial_split(np.zeros(GRID.n_z, complex), sched)
        assert np.all(probe_from_polariton(field, sched, 1.0).density() == 0.0)


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
            mirror(psi0), GRID, CouplingSchedule.from_intensities(0.55, 0.45), 4.0, 4
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
        # (0.599497, 160): y = 0.98; 0.3 and 0.400503 are the mirrored orderings
        [(0.9, 40), (0.7, 40), (0.599497, 160), (0.3, 40), (0.400503, 160)],
    )
    def test_reconstruction_matches_direct_quotient(self, kappa_plus_sq, n_max):
        grid = SimulationGrid(z_min=-2.0, z_max=2.0, n_z=1024)
        k_opt = 200.0
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        psi0 = gaussian_profile(grid)
        t = 0.5
        expansion = raman_harmonics(psi0, grid, sched, t, n_max=n_max)
        reconstructed = sum(
            samples * np.exp(1j * m * k_opt * grid.z) for m, samples in expansion.items()
        )
        field = cold_adiabatic_evolve(psi0, grid, sched, t)
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
        (out,) = nonadiabatic_spectral_evolve(psi0, GRID, sched, l_a, [10.0])
        np.testing.assert_allclose(out.psi_plus, psi0 / math.sqrt(2), atol=1e-10)
        np.testing.assert_allclose(out.psi_minus, psi0 / math.sqrt(2), atol=1e-10)

    @pytest.mark.parametrize("kappa_plus_sq", [0.5, 0.5 + 1e-9, 0.55])
    def test_dispersionless_limit_reduces_to_adiabatic(self, kappa_plus_sq):
        # the standing wave (beta = 0) and a hair off it give the same motion
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        psi0 = gaussian_profile(GRID)
        (out,) = nonadiabatic_spectral_evolve(psi0, GRID, sched, 0.0, [5.0])
        reference = cold_adiabatic_evolve(psi0, GRID, sched, 5.0)
        np.testing.assert_allclose(out.psi_plus, reference.psi_plus, atol=1e-10)
        np.testing.assert_allclose(out.psi_minus, reference.psi_minus, atol=1e-10)

    def test_traveling_wave_heat_kernel_moments(self):
        # second moment of the density grows like the drift-diffusion kernel
        sched = CouplingSchedule.from_intensities(1.0)
        l_a, t = 0.1, 8.0
        psi0 = gaussian_profile(GRID, center=-4.0)
        (out,) = nonadiabatic_spectral_evolve(psi0, GRID, sched, l_a, [t])
        z = GRID.z
        r = displacement_r(sched, t)

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
        fields = nonadiabatic_spectral_evolve(psi0, GRID, sched, 0.3, np.linspace(0.0, 6.0, 13))
        norms = [field_norm(out, GRID) for out in fields]
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-12 * norms[0])

    def test_mode_crossing_matches_matrix_exponential(self):
        # at q_c the modes cross (d = 0): the propagator's confluent limit must
        # equal exp(r G) for the assembled generator
        # G = i q (i kp2 xi q I + [[-kp2, b], [-conj(b), kp2]]), and so must the
        # difference form a hair either side of the crossing
        sched = CouplingSchedule.from_intensities(0.55)
        l_a, t = 0.1, 1.0
        kp2, km2 = sched.kappa_plus_sq, sched.kappa_minus_sq
        xi = kp2 * l_a / (kp2 - km2)
        q_c = beta(sched) / (math.sqrt(kp2 * km2) * xi)
        q = np.array([0.0, q_c, q_c * (1 - 1e-7), q_c * (1 + 1e-7), 3.0])
        r = displacement_r(sched, t)
        cross = sched.kappa_plus * np.conj(sched.kappa_minus)
        params = dispersion_params(sched, l_a, q)
        for column in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            plus, minus = _propagate_modes(
                params, kp2, q, r,
                np.full(q.size, column[0], complex), np.full(q.size, column[1], complex),
            )
            for i, qi in enumerate(q):
                b = cross * (1.0 - 1j * qi * xi)
                coupled = np.array([[-kp2, b], [-np.conj(b), kp2]])
                generator = 1j * qi * (1j * kp2 * xi * qi * np.eye(2) + coupled)
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
        (reference,) = nonadiabatic_spectral_evolve(psi0, grid, sched, 0.0, [t])
        (out,) = nonadiabatic_spectral_evolve(psi0, grid, sched, l_a, [t])
        assert np.all(np.isfinite(out.psi_plus)) and np.all(np.isfinite(out.psi_minus))
        assert field_norm(out, grid) <= field_norm(initial_split(psi0, sched), grid) * (1 + 1e-12)
        if l_a == 1e-12:
            peak = np.max(np.abs(reference.psi_plus))
            for got, want in ((out.psi_plus, reference.psi_plus),
                              (out.psi_minus, reference.psi_minus)):
                assert np.max(np.abs(got - want)) < 1e-7 * peak

    def test_rejects_mirrored_ordering(self):
        sched = CouplingSchedule.from_intensities(0.45)
        with pytest.raises(ValueError, match="mirror"):
            nonadiabatic_spectral_evolve(gaussian_profile(GRID), GRID, sched, 0.1, [1.0])

    @pytest.mark.parametrize("l_a", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("kappa_plus_sq", [0.5, 0.7])
    def test_rejects_bad_absorption_length_without_warnings(self, kappa_plus_sq, l_a):
        # also at the standing wave, where the field is returned frozen
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="l_a"):
                _evolve(kappa_plus_sq, l_a, [1.0])

    def test_rejects_off_grid_profile(self):
        sched = CouplingSchedule.from_intensities(0.7)
        with pytest.raises(ValueError, match="grid"):
            nonadiabatic_spectral_evolve(np.ones(GRID.n_z + 1), GRID, sched, 0.1, [1.0])

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
