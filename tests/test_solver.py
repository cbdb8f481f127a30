import math
import time
import warnings

import numpy as np
import pytest

from stationary_light import (
    CouplingSchedule,
    MediumParams,
    PolaritonField,
    ProbeField,
    SimulationGrid,
    SolverError,
    beta,
    characteristic_speeds,
    cold_adiabatic_evolve,
    compute_metrics,
    displacement_r,
    evolve_cold_numeric,
    evolve_mb_harmonics,
    gaussian_profile,
    group_velocity,
    initial_split,
    probe_from_polariton,
    thermal_adiabatic_evolve,
    variance_growth_rate,
)
from stationary_light.solver import _aligned_zeros

GRID = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=512)


def rel_l2(field, reference):
    err = np.linalg.norm(
        np.concatenate(
            [field.psi_plus - reference.psi_plus, field.psi_minus - reference.psi_minus]
        )
    )
    ref = np.linalg.norm(np.concatenate([reference.psi_plus, reference.psi_minus]))
    return err / ref


class TestColdSolver:
    def test_zero_field_stays_zero(self):
        sched = CouplingSchedule.from_intensities(0.55)
        init = PolaritonField(np.zeros(GRID.n_z, complex), np.zeros(GRID.n_z, complex))
        report = evolve_cold_numeric(init, sched, MediumParams(), GRID, 3.0)
        assert np.all(report.final_field.psi_plus == 0.0)
        assert np.all(report.final_field.psi_minus == 0.0)

    def test_standing_wave_revival_is_stationary(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        report = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), GRID, 10.0)
        target = psi0 / math.sqrt(2)
        peak = np.max(np.abs(target))
        assert np.max(np.abs(report.final_field.psi_plus - target)) < 0.01 * peak
        assert np.max(np.abs(report.final_field.psi_minus - target)) < 0.01 * peak

    def test_quasi_standing_matches_analytic(self):
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        report = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), GRID, 10.0)
        reference = cold_adiabatic_evolve(psi0, GRID, sched, 10.0)
        assert rel_l2(report.final_field, reference) < 0.01

    def test_fourth_order_convergence(self):
        sched = CouplingSchedule.from_intensities(0.55)
        errors = {}
        for n_z in (256, 512):
            grid = SimulationGrid(n_z=n_z)
            psi0 = gaussian_profile(grid)
            report = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), grid, 4.0)
            errors[n_z] = rel_l2(report.final_field, cold_adiabatic_evolve(psi0, grid, sched, 4.0))
        # halving dz halves dt via the CFL rule; 4th-order stepping gives ~16x
        assert errors[256] / errors[512] > 8.0

    def test_gamma_decay(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        med = MediumParams(Gamma_bc=0.25 + 0.1j)
        report = evolve_cold_numeric(initial_split(psi0, sched), sched, med, GRID, 5.0)
        expected = cold_adiabatic_evolve(psi0, GRID, sched, 5.0, gamma_bc=0.25 + 0.1j)
        assert rel_l2(report.final_field, expected) < 1e-6

    def test_norm_history_and_cfl_bookkeeping(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        t_end = 2.0
        report = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), GRID, t_end)
        assert report.norm_history.shape == (report.steps + 1,)
        # v_g peaks at t_end, so the CFL number stays <= 1/2 only if the steps
        # average at most dz / (2 v_g(t_end))
        v_max = float(group_velocity(sched, t_end))
        assert report.steps * 0.5 * GRID.dz / v_max >= t_end * (1 - 1e-12)

    def test_standing_norm_conserved(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        report = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), GRID, 10.0)
        drift = np.max(np.abs(report.norm_history - report.norm_history[0]))
        assert drift < 1e-3 * report.norm_history[0]

    def test_quasi_standing_norm_approaches_analytic_value(self):
        # after full separation the surviving norm is |kappa+|^2 of the initial
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        report = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), GRID, 25.0)
        norm0 = report.norm_history[0]
        assert np.all(report.norm_history <= norm0 * (1 + 1e-9))
        assert report.norm_history[-1] == pytest.approx(0.55 * norm0, rel=0.01)

    def test_snapshots_at_requested_times(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        times = [0.0, 1.0, 2.5]
        report = evolve_cold_numeric(
            initial_split(psi0, sched), sched, MediumParams(), GRID, 2.5, snapshot_times=times
        )
        assert [snap.time_stamp for snap in report.snapshots] == times

    def test_large_gamma_bc_costs_no_extra_steps(self):
        # the decay factors out exactly, so it must not shrink the step size
        sched = CouplingSchedule.from_intensities(0.55)
        grid = SimulationGrid(n_z=64)
        init = initial_split(gaussian_profile(grid), sched)
        undamped = evolve_cold_numeric(init, sched, MediumParams(), grid, 2.0)
        damped = evolve_cold_numeric(init, sched, MediumParams(Gamma_bc=1e6), grid, 2.0)
        assert damped.steps == undamped.steps
        assert np.all(damped.final_field.psi_plus == 0.0)
        assert np.all(damped.final_field.psi_minus == 0.0)
        assert damped.norm_history[-1] == 0.0

    def test_bright_split_at_standing_wave(self):
        # at |kappa+|^2 = 1/2 the advection matrix is nilpotent, so a bright
        # start psi+ = psi0, psi- = 0 evolves exactly as
        # psi+ = psi0 - r psi0'/2, psi- = -r psi0'/2
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        dpsi0 = -2.0 * GRID.z * psi0
        t_end = 4.0
        report = evolve_cold_numeric(
            PolaritonField(psi0, np.zeros(GRID.n_z, complex)), sched, MediumParams(), GRID, t_end
        )
        r = float(displacement_r(sched, t_end))
        expected = PolaritonField(psi0 - 0.5 * r * dpsi0, -0.5 * r * dpsi0)
        assert rel_l2(report.final_field, expected) < 1e-8

    def test_rejects_bad_inputs(self):
        sched = CouplingSchedule.from_intensities(0.5)
        init = initial_split(gaussian_profile(GRID), sched)
        with pytest.raises(ValueError):
            evolve_cold_numeric(init, sched, MediumParams(), SimulationGrid(n_z=64), 1.0)
        with pytest.raises(ValueError):
            evolve_cold_numeric(init, sched, MediumParams(), GRID, -1.0)


class TestCharacteristicSpeeds:
    def test_standing_wave(self):
        sched = CouplingSchedule.from_intensities(0.5)
        assert characteristic_speeds(sched, 5.0) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_traveling_wave(self):
        sched = CouplingSchedule.from_intensities(1.0)
        v = group_velocity(sched, 5.0)
        fast, slow = characteristic_speeds(sched, 5.0)
        assert fast == pytest.approx(v, abs=1e-12)
        assert slow == pytest.approx(-v, abs=1e-12)

    @pytest.mark.parametrize("kp_sq", [0.5, 0.55, 0.7, 0.9, 1.0, 0.45, 0.2])
    def test_matches_closed_form_splitting_factor(self, kp_sq):
        sched = CouplingSchedule.from_intensities(kp_sq)
        mirrored = CouplingSchedule.from_intensities(max(kp_sq, 1 - kp_sq))
        expected = beta(mirrored) * group_velocity(sched, 3.0)
        fast, slow = characteristic_speeds(sched, 3.0)
        assert fast == pytest.approx(expected, abs=1e-12)
        assert slow == pytest.approx(-expected, abs=1e-12)


def sum_mode(field, schedule):
    return np.conj(schedule.kappa_plus) * field.psi_plus + np.conj(
        schedule.kappa_minus
    ) * field.psi_minus


class TestThermalSolver:
    def test_frozen_without_transport(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        med = MediumParams(l_a=0.0)
        (final,) = thermal_adiabatic_evolve(psi0, GRID, sched, med, [5.0])
        assert rel_l2(final, initial_split(psi0, sched)) < 1e-12

    def test_standing_wave_diffusive_broadening(self):
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=256)
        psi0 = gaussian_profile(grid)
        times = np.arange(0.0, 5.5, 0.5)
        fields = thermal_adiabatic_evolve(psi0, grid, sched, MediumParams(l_a=0.1), times)
        history = [
            compute_metrics(ProbeField(sum_mode(s, sched), np.zeros(grid.n_z), time_stamp=s.time_stamp), grid)
            for s in fields
        ]
        slope = variance_growth_rate(history, sched)
        assert slope == pytest.approx(0.2, rel=0.05)

    def test_quasi_standing_drift(self):
        sched = CouplingSchedule.from_intensities(0.55)
        grid = SimulationGrid(n_z=256)
        psi0 = gaussian_profile(grid)
        times = np.arange(0.0, 8.5, 1.0)
        fields = thermal_adiabatic_evolve(psi0, grid, sched, MediumParams(l_a=0.1), times)
        r_vals, centroids = [], []
        for snap in fields:
            metrics = compute_metrics(snap, grid)
            r_vals.append(float(displacement_r(sched, snap.time_stamp)))
            centroids.append(metrics.centroid)
        slope, _ = np.polyfit(r_vals, centroids, 1)
        assert slope == pytest.approx(0.1, rel=0.02)

    def test_zeroth_moment_conserved(self):
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        (evolved,) = thermal_adiabatic_evolve(psi0, GRID, sched, MediumParams(l_a=0.1), [5.0])
        initial = GRID.dz * np.sum(sum_mode(initial_split(psi0, sched), sched))
        final = GRID.dz * np.sum(sum_mode(evolved, sched))
        assert abs(final - initial) < 1e-12 * abs(initial)

    def test_heat_kernel_with_complex_decay(self):
        # the sum mode of exp(-z^2) drifts and spreads as a heat kernel and
        # decays by the integral of Gamma_bc sin^2(theta(t))
        sched = CouplingSchedule.from_intensities(0.55)
        gamma = 0.2 + 0.3j
        med = MediumParams(l_a=0.1, Gamma_bc=gamma)
        psi0 = gaussian_profile(GRID)
        t_end = 6.0
        (final,) = thermal_adiabatic_evolve(psi0, GRID, sched, med, [t_end])
        r = float(displacement_r(sched, t_end))
        drift = sched.kappa_plus_sq - sched.kappa_minus_sq
        spread = 1.0 + 4.0 * (4.0 * sched.kappa_plus_sq * sched.kappa_minus_sq * med.l_a) * r
        expected = (
            np.exp(-((GRID.z - drift * r) ** 2) / spread) / math.sqrt(spread)
            * np.exp(-gamma * (t_end - sched.cos2_theta0 * r))
        )
        got = sum_mode(final, sched)
        assert np.max(np.abs(got - expected)) < 1e-10


class TestLadderOracle:
    def test_group_velocity_of_dark_pulse(self):
        # traveling-wave retrieval: the probe is switched on from the stored
        # spin wave and crosses the medium at v_g(t) = c cos^2(theta(t)), so
        # its centroid moves by r(t)
        sched = CouplingSchedule.from_intensities(1.0)
        grid = SimulationGrid(n_z=128)
        psi0 = gaussian_profile(grid, center=-4.0)
        zeros = np.zeros(grid.n_z, complex)
        # a short absorption length keeps the finite-l_a correction to the
        # centroid small (0.13 % here, 1.6 % at l_a = 0.1)
        med = MediumParams(gamma_ba=100.0, l_a=5e-3)
        t_end = 4.0
        history = evolve_mb_harmonics(
            ProbeField(zeros, zeros), sched, med, grid, 2, t_end, initial_sigma_bc0=-psi0
        )
        final = history[-1]
        density = np.abs(final.e_plus) ** 2
        centroid = np.sum(grid.z * density) / np.sum(density)
        expected = -4.0 + displacement_r(sched, t_end)
        assert centroid - (-4.0) == pytest.approx(expected - (-4.0), rel=0.02)

    def test_standing_retrieval_matches_adiabatic_theory(self):
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=96)
        psi0 = gaussian_profile(grid)
        zeros = np.zeros(grid.n_z, complex)
        med = MediumParams(gamma_ba=100.0, l_a=5e-4)
        t_end = 3.0
        history = evolve_mb_harmonics(
            ProbeField(zeros, zeros), sched, med, grid, 4, t_end, initial_sigma_bc0=-psi0
        )
        final = history[-1]
        probe = probe_from_polariton(cold_adiabatic_evolve(psi0, grid, sched, t_end), sched, t_end)
        got = np.concatenate([final.e_plus, final.e_minus])
        ref = np.concatenate([probe.e_plus, probe.e_minus])
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 0.05

    def test_error_decreases_with_adiabaticity(self):
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=96)
        psi0 = gaussian_profile(grid)
        zeros = np.zeros(grid.n_z, complex)
        t_end = 3.0
        probe = probe_from_polariton(cold_adiabatic_evolve(psi0, grid, sched, t_end), sched, t_end)
        ref = np.concatenate([probe.e_plus, probe.e_minus])
        errors = []
        for gamma_ba in (10.0, 300.0):
            med = MediumParams(gamma_ba=gamma_ba, l_a=5e-4)
            history = evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, med, grid, 4, t_end, initial_sigma_bc0=-psi0
            )
            got = np.concatenate([history[-1].e_plus, history[-1].e_minus])
            errors.append(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        assert errors[1] <= errors[0] + 1e-5

    def test_single_shell_reproduces_thermal_broadening(self):
        # keeping only the dc spin component is the rapid-dephasing reduction:
        # a standing-wave pulse then broadens diffusively at 2 * l_a per unit r
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=128)
        psi0 = gaussian_profile(grid)
        zeros = np.zeros(grid.n_z, complex)
        med = MediumParams(gamma_ba=100.0, l_a=0.1)
        times = [2.0, 3.0, 4.0, 5.0, 6.0]
        history = evolve_mb_harmonics(
            ProbeField(zeros, zeros), sched, med, grid, 1, 6.0,
            initial_sigma_bc0=-psi0, snapshot_times=times,
        )
        metrics = [compute_metrics(s, grid) for s in history if s.time_stamp >= 2.0]
        slope = variance_growth_rate(metrics, sched)
        assert slope == pytest.approx(0.2, rel=0.1)

    def test_state_structure(self):
        # one probe field at t = 0, at each requested snapshot and at t_end
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        history = evolve_mb_harmonics(
            ProbeField(zeros, zeros), sched, MediumParams(), grid, 3, 0.5,
            initial_sigma_bc0=-gaussian_profile(grid), snapshot_times=[0.2, 0.1],
        )
        assert all(type(state) is ProbeField for state in history)
        assert [state.time_stamp for state in history] == [0.0, 0.1, 0.2, 0.5]
        assert all(state.e_plus.shape == (grid.n_z,) for state in history)
        assert np.max(np.abs(history[-1].e_plus)) > 0.0

    def test_strong_dephasing_decays_without_warnings(self):
        # h is about 2e-3 here, so the spin factor exp(-Gamma_bc h/2) underflows
        # to 0; the field must decay completely, with no inf/nan on the way
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=32)
        zeros = np.zeros(grid.n_z, complex)
        med = MediumParams(gamma_ba=10.0, l_a=0.002, Gamma_bc=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            history = evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, med, grid, 1, 0.5,
                initial_sigma_bc0=-gaussian_profile(grid),
            )
        final = history[-1]
        rows = [final.e_plus, final.e_minus]
        assert all(np.all(np.isfinite(row)) for row in rows)
        assert max(np.max(np.abs(row)) for row in rows) < 1e-100

    def test_unbounded_horizon_fails_before_stepping(self):
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        started = time.perf_counter()
        with pytest.raises(SolverError, match="budget"):
            evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, MediumParams(), grid, 2, 1e7,
                initial_sigma_bc0=-gaussian_profile(grid),
            )
        assert time.perf_counter() - started < 5.0

    def test_validation(self):
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        with pytest.raises(ValueError):
            evolve_mb_harmonics(ProbeField(zeros, zeros), sched, MediumParams(), grid, 0, 1.0)
        with pytest.raises(ValueError):
            evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, MediumParams(), grid, 2, 1.0,
                initial_sigma_bc0=np.zeros(12, complex),
            )
        with pytest.raises(ValueError):
            evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, MediumParams(l_a=0.0), grid, 2, 1.0
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stored_spin_fails_before_stepping(self, bad):
        # bad input, not a SolverError blow-up after the first steps
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        spin = -gaussian_profile(grid)
        spin[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="initial_sigma_bc0"):
                evolve_mb_harmonics(
                    ProbeField(zeros, zeros), sched, MediumParams(), grid, 2, 1.0,
                    initial_sigma_bc0=spin,
                )


def _solve_cold(t_end, snapshot_times, grid, sched, psi0):
    return evolve_cold_numeric(
        initial_split(psi0, sched), sched, MediumParams(), grid, t_end,
        snapshot_times=snapshot_times,
    )


def _solve_thermal(t_end, snapshot_times, grid, sched, psi0):
    times = [t_end] if snapshot_times is None else [*snapshot_times, t_end]
    return thermal_adiabatic_evolve(psi0, grid, sched, MediumParams(), times)


def _solve_ladder(t_end, snapshot_times, grid, sched, psi0):
    zeros = np.zeros(grid.n_z, complex)
    return evolve_mb_harmonics(
        ProbeField(zeros, zeros), sched, MediumParams(), grid, 1, t_end,
        initial_sigma_bc0=-psi0, snapshot_times=snapshot_times,
    )


# the thermal closed form takes one list of times and refuses a bad one
# through displacement_r
_HORIZON_MESSAGES = {
    _solve_cold: "t_end must be|snapshot time",
    _solve_thermal: "t must be finite and non-negative",
    _solve_ladder: "t_end must be|snapshot time",
}


@pytest.mark.parametrize("solve", [_solve_cold, _solve_thermal, _solve_ladder])
@pytest.mark.parametrize(
    "t_end, snapshot_times",
    [(math.nan, None), (math.inf, None), (2.0, [0.0, math.nan]), (2.0, [math.inf])],
    ids=["t_end_nan", "t_end_inf", "snapshot_nan", "snapshot_inf"],
)
def test_non_finite_horizon_is_rejected(solve, t_end, snapshot_times):
    # bad input, not a step-budget SolverError or a non-finite field
    sched = CouplingSchedule.from_intensities(0.55)
    grid = SimulationGrid(n_z=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=_HORIZON_MESSAGES[solve]):
            solve(t_end, snapshot_times, grid, sched, gaussian_profile(grid))


@pytest.mark.parametrize("shape", [(33, 128), (5, 7), (1,)])
def test_aligned_zeros_start_on_64_byte_boundaries(shape):
    # the ladder's matrix-product operands; numpy alone places consecutive
    # arrays at every multiple of 16 bytes
    arrays = [_aligned_zeros(shape) for _ in range(8)]
    for a in arrays:
        assert a.ctypes.data % 64 == 0
        assert a.shape == shape and a.dtype == complex and not a.any()
