import cmath
import math
import time
import tracemalloc
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
    cold_adiabatic_evolve,
    compute_metrics,
    cos2_theta,
    displacement_r,
    evolve_cold_numeric,
    evolve_mb_harmonics,
    gaussian_profile,
    initial_split,
    probe_from_polariton,
    thermal_adiabatic_evolve,
    variance_growth_rate,
)
from stationary_light import solver
from stationary_light.solver import _plan_steps, _rk4, _sdirk3_solve, _sdirk3_step

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
        history = evolve_cold_numeric(init, sched, MediumParams(), GRID, 3.0)
        assert all(not np.any(f.psi_plus) and not np.any(f.psi_minus) for f in history)

    def test_standing_wave_revival_is_stationary(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        final = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), GRID, 10.0)[-1]
        target = psi0 / math.sqrt(2)
        peak = np.max(np.abs(target))
        assert np.max(np.abs(final.psi_plus - target)) < 0.01 * peak
        assert np.max(np.abs(final.psi_minus - target)) < 0.01 * peak

    def test_quasi_standing_matches_analytic(self):
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        final = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), GRID, 10.0)[-1]
        (reference,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [10.0])
        assert rel_l2(final, reference) < 0.01

    def test_fourth_order_convergence(self):
        sched = CouplingSchedule.from_intensities(0.55)
        errors = {}
        for n_z in (256, 512):
            grid = SimulationGrid(n_z=n_z)
            psi0 = gaussian_profile(grid)
            final = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), grid, 4.0)[-1]
            (closed,) = cold_adiabatic_evolve(psi0, grid, sched, MediumParams(), [4.0])
            errors[n_z] = rel_l2(final, closed)
        # halving dz halves dt via the CFL rule; 4th-order stepping gives ~16x
        assert errors[256] / errors[512] > 8.0

    def test_gamma_decay(self):
        # only the spin part dephases: exp(-Gamma_bc * integral of sin^2(theta))
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        med = MediumParams(Gamma_bc=0.25 + 0.1j)
        final = evolve_cold_numeric(initial_split(psi0, sched), sched, med, GRID, 5.0)[-1]
        (bare,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [5.0])
        factor = cmath.exp(-med.Gamma_bc * (5.0 - sched.cos2_theta0 * math.log(math.cosh(5.0))))
        expected = PolaritonField(factor * bare.psi_plus, factor * bare.psi_minus)
        assert rel_l2(final, expected) < 1e-6

    def test_norm_checks_and_cfl_bookkeeping(self, monkeypatch):
        # the blow-up check runs once at r = 0 and once after every step, in r
        checks = []
        norm_sq = solver._norm_sq
        monkeypatch.setattr(solver, "_norm_sq",
                            lambda v, r, variable: checks.append((variable, r)) or norm_sq(v, r))
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        t_end = 2.0
        history = evolve_cold_numeric(initial_split(psi0, sched), sched, MediumParams(), GRID, t_end)
        assert history.steps == len(checks) - 1 > 0
        r_end = float(displacement_r(sched, t_end))
        assert {variable for variable, _ in checks} == {"r"}
        assert checks[-1][1] == pytest.approx(r_end, rel=1e-12)
        # the generator is constant in r, so the CFL number stays <= 1/2 only
        # if the steps average at most dz / 2 (or the 0.05 cap) in r
        assert history.steps * min(0.5 * GRID.dz, 0.05) >= r_end * (1 - 1e-12)

    @staticmethod
    def norms(history):
        return np.array([GRID.dz * np.sum(f.density()) for f in history])

    def test_standing_norm_conserved(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        history = evolve_cold_numeric(
            initial_split(psi0, sched), sched, MediumParams(), GRID, 10.0,
            snapshot_times=np.linspace(0.0, 10.0, 51),
        )
        norms = self.norms(history)
        assert norms.size == 51
        assert np.max(np.abs(norms - norms[0])) < 1e-3 * norms[0]

    def test_quasi_standing_norm_approaches_analytic_value(self):
        # after full separation the surviving norm is |kappa+|^2 of the initial
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        history = evolve_cold_numeric(
            initial_split(psi0, sched), sched, MediumParams(), GRID, 25.0,
            snapshot_times=np.linspace(0.0, 25.0, 51),
        )
        norms = self.norms(history)
        assert norms.size == 51
        assert np.all(norms <= norms[0] * (1 + 1e-9))
        assert norms[-1] == pytest.approx(0.55 * norms[0], rel=0.01)

    def test_snapshots_at_requested_times(self):
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        times = [0.0, 1.0, 2.5]
        history = evolve_cold_numeric(
            initial_split(psi0, sched), sched, MediumParams(), GRID, 2.5, snapshot_times=times
        )
        assert [snap.time_stamp for snap in history] == times

    def test_snapshots_own_their_arrays(self):
        # the stepper updates its state in place, and PolaritonField keeps
        # complex input without copying it
        sched = CouplingSchedule.from_intensities(0.55)
        grid = SimulationGrid(n_z=64)
        init = initial_split(gaussian_profile(grid), sched)
        plus0, minus0 = init.psi_plus.copy(), init.psi_minus.copy()
        history = evolve_cold_numeric(
            init, sched, MediumParams(), grid, 2.5, snapshot_times=[0.0, 1.0, 2.5]
        )
        first = history[0]
        assert np.array_equal(first.psi_plus, plus0) and np.array_equal(first.psi_minus, minus0)
        assert np.array_equal(init.psi_plus, plus0) and np.array_equal(init.psi_minus, minus0)
        arrays = [init.psi_plus, init.psi_minus]
        for snap in history:
            arrays += [snap.psi_plus, snap.psi_minus]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_overflowing_field_fails_before_stepping(self, monkeypatch):
        # finite samples whose squared norm overflows: refused at t = 0, with
        # no overflow warning and before any FFT of a first step
        sched = CouplingSchedule.from_intensities(0.55)
        grid = SimulationGrid(n_z=64)
        init = initial_split(1e160 * gaussian_profile(grid), sched)

        def no_step(*args, **kwargs):
            raise AssertionError("the stepper started")

        monkeypatch.setattr(np.fft, "fft", no_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="non-finite"):
                evolve_cold_numeric(init, sched, MediumParams(), grid, 1.0)

    @pytest.mark.parametrize("gamma_bc", [0.05, 0.05 + 0.03j])
    def test_decay_is_one_factor_on_the_undamped_steps(self, gamma_bc):
        # the decay commutes with the transport, so it must multiply the
        # undamped steps by one exact factor; a factor rounded per step
        # compounds past 1e-15 of the peak within these 27 steps
        sched = CouplingSchedule.from_intensities(0.55)
        grid = SimulationGrid(n_z=64)
        init = initial_split(gaussian_profile(grid), sched)
        t_end = 2.0
        undamped = evolve_cold_numeric(init, sched, MediumParams(), grid, t_end)
        damped = evolve_cold_numeric(init, sched, MediumParams(Gamma_bc=gamma_bc), grid, t_end)
        assert damped.steps == undamped.steps == 27
        factor = cmath.exp(-gamma_bc * (t_end - sched.cos2_theta0 * math.log(math.cosh(t_end))))
        final, bare = damped[-1], undamped[-1]
        peak = np.max(np.abs(np.concatenate([bare.psi_plus, bare.psi_minus])))
        assert np.max(np.abs(final.psi_plus - factor * bare.psi_plus)) < 1e-15 * peak
        assert np.max(np.abs(final.psi_minus - factor * bare.psi_minus)) < 1e-15 * peak

    def test_large_gamma_bc_costs_no_extra_steps(self):
        # the decay factors out exactly, so it must not shrink the step size
        sched = CouplingSchedule.from_intensities(0.55)
        grid = SimulationGrid(n_z=64)
        init = initial_split(gaussian_profile(grid), sched)
        undamped = evolve_cold_numeric(init, sched, MediumParams(), grid, 2.0)
        damped = evolve_cold_numeric(init, sched, MediumParams(Gamma_bc=1e6), grid, 2.0)
        assert damped.steps == undamped.steps
        assert np.all(damped[-1].psi_plus == 0.0)
        assert np.all(damped[-1].psi_minus == 0.0)

    def test_bright_split_at_standing_wave(self):
        # at |kappa+|^2 = 1/2 the advection matrix is nilpotent, so a bright
        # start psi+ = psi0, psi- = 0 evolves exactly as
        # psi+ = psi0 - r psi0'/2, psi- = -r psi0'/2
        sched = CouplingSchedule.from_intensities(0.5)
        psi0 = gaussian_profile(GRID)
        dpsi0 = -2.0 * GRID.z * psi0
        t_end = 4.0
        final = evolve_cold_numeric(
            PolaritonField(psi0, np.zeros(GRID.n_z, complex)), sched, MediumParams(), GRID, t_end
        )[-1]
        r = float(displacement_r(sched, t_end))
        expected = PolaritonField(psi0 - 0.5 * r * dpsi0, -0.5 * r * dpsi0)
        assert rel_l2(final, expected) < 1e-8

    @pytest.mark.parametrize("n_z", [128, 127])
    def test_mirror_symmetry_with_a_nyquist_component(self, n_z):
        # z -> -z with kappa+ <-> kappa- and psi+ <-> psi- maps solutions onto
        # solutions; on an even grid the (-1)^j ripple sits in the Nyquist
        # column, which an odd derivative must not advect
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=n_z)
        psi0 = gaussian_profile(grid, center=1.5) + 0.01 * (-1.0) ** np.arange(n_z)

        def mirror(values):
            return np.roll(values[::-1], 1)

        direct_sched = CouplingSchedule.from_intensities(0.55)
        swapped_sched = CouplingSchedule.from_intensities(0.45)
        direct = evolve_cold_numeric(
            initial_split(psi0, direct_sched), direct_sched, MediumParams(), grid, 3.0
        )[-1]
        swapped = evolve_cold_numeric(
            initial_split(mirror(psi0), swapped_sched), swapped_sched, MediumParams(), grid, 3.0
        )[-1]
        peak = np.max(np.abs(direct.psi_plus))
        assert np.max(np.abs(direct.psi_plus - mirror(swapped.psi_minus))) < 1e-12 * peak
        assert np.max(np.abs(direct.psi_minus - mirror(swapped.psi_plus))) < 1e-12 * peak

    def test_work_over_budget_fails_before_stepping(self, monkeypatch):
        # steps of dz/2 in r on 16384 points to t = 20 (r = 19.3): 31,633
        # steps of 16 FFTs
        self.assert_refused_before_any_transform(
            monkeypatch, 16384, 20.0, "31633 steps of 16384 columns")

    @pytest.mark.parametrize("n_z, t_end, message", [
        # 2,843 steps to t = 1 (r = 0.434): a step priced per grid point
        # admitted it, and it took about a minute
        (65536, 1.0, "2843 steps of 65536 columns"),
        # a prime size, which numpy transforms by Bluestein's algorithm, costs
        # about 10x the power of two beside it: 291 steps to t = 0.3 took
        # about 80 s
        (65521, 0.3, "291 steps of 65521 columns"),
    ])
    def test_work_priced_by_transform_size_fails_before_stepping(self, monkeypatch, n_z,
                                                                 t_end, message):
        self.assert_refused_before_any_transform(monkeypatch, n_z, t_end, message)

    @staticmethod
    def assert_refused_before_any_transform(monkeypatch, n_z, t_end, message):
        sched = CouplingSchedule.from_intensities(0.55)
        grid = SimulationGrid(n_z=n_z)
        init = initial_split(gaussian_profile(grid), sched)

        def no_transform(*args, **kwargs):
            raise AssertionError("a transform ran")

        monkeypatch.setattr(np.fft, "fft", no_transform)
        started = time.perf_counter()
        with pytest.raises(SolverError, match=rf"{message} exceed the work budget of 2e\+09 units"):
            evolve_cold_numeric(init, sched, MediumParams(), grid, t_end)
        assert time.perf_counter() - started < 5.0

    def test_underflowing_r_returns_the_initial_pair(self):
        # r(t) underflows to 0 at every returned time, so each segment has
        # zero length and its one step of 0 leaves the pair bit for bit
        sched = CouplingSchedule.from_intensities(0.55)
        grid = SimulationGrid(n_z=64)
        init = initial_split(gaussian_profile(grid), sched)
        t_end = 1e-200
        history = evolve_cold_numeric(init, sched, MediumParams(), grid, t_end,
                                      snapshot_times=[0.0, 0.5 * t_end])
        assert [f.time_stamp for f in history] == [0.0, 0.5 * t_end, t_end]
        assert all(displacement_r(sched, f.time_stamp) == 0.0 for f in history)
        assert history.steps == 2
        for f in history:
            assert f.psi_plus.tobytes() == init.psi_plus.tobytes()
            assert f.psi_minus.tobytes() == init.psi_minus.tobytes()

    def test_rejects_bad_inputs(self):
        sched = CouplingSchedule.from_intensities(0.5)
        init = initial_split(gaussian_profile(GRID), sched)
        with pytest.raises(ValueError):
            evolve_cold_numeric(init, sched, MediumParams(), SimulationGrid(n_z=64), 1.0)
        with pytest.raises(ValueError):
            evolve_cold_numeric(init, sched, MediumParams(), GRID, -1.0)


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
        (closed,) = cold_adiabatic_evolve(psi0, grid, sched, MediumParams(), [t_end])
        probe = probe_from_polariton(closed, sched)
        got = np.concatenate([final.e_plus, final.e_minus])
        ref = np.concatenate([probe.e_plus, probe.e_minus])
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 0.05

    def test_error_decreases_with_adiabaticity(self):
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=96)
        psi0 = gaussian_profile(grid)
        zeros = np.zeros(grid.n_z, complex)
        t_end = 3.0
        (closed,) = cold_adiabatic_evolve(psi0, grid, sched, MediumParams(), [t_end])
        probe = probe_from_polariton(closed, sched)
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

    @pytest.mark.parametrize("kappa_plus_sq", [1.0, 0.0], ids=["forward", "backward"])
    def test_traveling_wave_is_independent_of_truncation(self, kappa_plus_sq):
        # a one-way coupling gives every link past the first shell weight 0,
        # so the lit envelope is the same, bit for bit, at every N and the
        # dark one is exactly zero
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        med = MediumParams(gamma_ba=100.0, l_a=0.02)
        runs = [
            evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, med, grid, n_shells, 2.0,
                initial_sigma_bc0=-gaussian_profile(grid), snapshot_times=[0.5],
            )
            for n_shells in (1, 2, 4)
        ]
        for fields in zip(*runs):
            pairs = [(f.e_plus, f.e_minus) if kappa_plus_sq else (f.e_minus, f.e_plus)
                     for f in fields]
            for lit, dark in pairs:
                np.testing.assert_array_equal(lit, pairs[0][0])
                assert not np.any(dark)
        assert np.max(np.abs(pairs[0][0])) > 0.05  # the retrieved pulse at t = 2

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
        # Gamma_bc h grows from about 400 in the first step to 2.7e4 in the
        # last, so each spin stage divides by a huge pivot; the stored pulse
        # must dephase, with no inf/nan on the way.  What it feeds into the
        # optical coherence in its first ~1e-6 T_s survives as a bright
        # transient: a per-column matrix exponential on 4,000 and 16,000
        # sqrt(t)-graded steps puts E+- at 1.82e-9 and 1.80e-9 at t = 0.5, so
        # no stepper may leave more of the dephased pulse than 2e-9.  (This
        # step damps that transient to 8e-24: see evolve_mb_harmonics.)
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
        assert max(np.max(np.abs(row)) for row in rows) < 2e-9

    def test_unbounded_horizon_fails_before_stepping(self, monkeypatch):
        # t 1e9 is 1,581,139 steps in sqrt(t), about two minutes at N 2: the
        # work rule refuses it before any chunk of stages is factored
        def no_stages(*args):
            raise AssertionError("a chunk of stages was factored")

        monkeypatch.setattr(solver, "_LadderStages", no_stages)
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        started = time.perf_counter()
        with pytest.raises(SolverError, match=r"^1581139 steps of \d+ columns of 9 rows exceed "
                                              r"the work budget"):
            evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, MediumParams(), grid, 2, 1e9,
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
        off_grid = np.zeros(12, complex)
        with pytest.raises(ValueError, match="initial probe field must be sampled on the grid"):
            evolve_mb_harmonics(ProbeField(off_grid, off_grid), sched, MediumParams(), grid, 2, 1.0)

    @pytest.mark.parametrize("n", ["3", 2.5, 2.0, math.nan, True, np.True_, None, 0])
    def test_non_integer_truncation_rejected_before_any_work(self, n):
        # the count is checked first: the off-grid probe below is never read
        sched = CouplingSchedule.from_intensities(0.5)
        off_grid = np.zeros(12, complex)
        with pytest.raises(ValueError, match="truncation_N must be an integer of at least 1"):
            evolve_mb_harmonics(
                ProbeField(off_grid, off_grid), sched, MediumParams(), SimulationGrid(n_z=64),
                n, 1.0,
            )

    def test_numpy_integer_truncation_accepted(self):
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=32)
        zeros = np.zeros(grid.n_z, complex)
        spin = -gaussian_profile(grid)
        runs = [
            evolve_mb_harmonics(ProbeField(zeros, zeros), sched, MediumParams(), grid, n, 0.05,
                                initial_sigma_bc0=spin)[-1]
            for n in (2, np.int64(2))
        ]
        assert np.array_equal(runs[0].e_plus, runs[1].e_plus)

    def test_trimmed_columns_match_full_grid(self):
        # tiny occupies every wavenumber column, psi0 only about 77 of 128; by
        # linearity the two solves must add up to the solve of their sum, which
        # fails if the kept columns set the step or scatter back wrongly
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
        med = MediumParams(gamma_ba=10.0, l_a=5e-4)
        zeros = np.zeros(grid.n_z, complex)
        psi0 = gaussian_profile(grid)
        phases = np.exp(2j * np.pi * np.random.default_rng(0).random(grid.n_z))
        tiny = np.fft.ifft(1e-13 * phases)

        def solve(stored):
            final = evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, med, grid, 2, 1.0, initial_sigma_bc0=-stored
            )[-1]
            return np.concatenate([final.e_plus, final.e_minus])

        reference = solve(psi0)
        residual = solve(psi0 + tiny) - reference - solve(tiny)
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n_z", [64, 65])
    @pytest.mark.parametrize(
        "kappas, probe",
        [
            ((0.55, None), "real"),
            ((0.6 * cmath.exp(0.4j), 0.8 * cmath.exp(-2.1j)), None),
            ((0.6 * cmath.exp(0.4j), 0.8 * cmath.exp(-1.1j)), "gauged"),
        ],
    )
    def test_half_spectrum_matches_full_spectrum(self, n_z, kappas, probe):
        # real gauged inputs evolve only q >= 0 and mirror the rest; the same
        # problem times exp(0.9i) is complex, so it evolves every column, and
        # by linearity it must give the same fields times exp(0.9i).  With
        # from_intensities the gauge is 1, so real probe envelopes stay real.
        # E+ = exp(i arg kappa+) * real is real in the gauge frame, but the
        # division by that phase leaves ~1e-17 imaginary parts.
        kp, km = kappas
        sched = CouplingSchedule.from_intensities(kp) if km is None else CouplingSchedule(kp, km)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=n_z)
        med = MediumParams(gamma_ba=10.0, l_a=5e-3, Gamma_bc=0.05)
        zeros = np.zeros(n_z, complex)
        e_plus = 0.3 * gaussian_profile(grid, center=-1.0) if probe else zeros
        e_minus = -0.2 * gaussian_profile(grid, center=2.0) if probe == "real" else zeros
        if probe == "gauged":
            e_plus = cmath.exp(1j * cmath.phase(kp)) * e_plus
        spin = -gaussian_profile(grid, center=0.7)

        def solve(factor):
            return evolve_mb_harmonics(
                ProbeField(factor * e_plus, factor * e_minus), sched, med, grid, 3, 0.6,
                initial_sigma_bc0=factor * spin, snapshot_times=[0.0, 0.25, 0.5],
            )

        half, full = solve(1.0), solve(cmath.exp(0.9j))
        assert (half.columns, full.columns) == (n_z // 2 + 1, n_z)
        assert [s.time_stamp for s in half] == [s.time_stamp for s in full] == [0.0, 0.25, 0.5, 0.6]
        got = np.array([[s.e_plus, s.e_minus] for s in half])
        reference = np.array([[s.e_plus, s.e_minus] for s in full]) / cmath.exp(0.9j)
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize(
        "gamma_bc, spin_phase, columns",
        [(0.0, 1.0, 39), (0.05 - 0.1j, 1.0, 77), (0.0, 1j, 77)],
    )
    def test_evolved_columns_and_steps(self, monkeypatch, gamma_bc, spin_phase, columns):
        # C08's stored pulse occupies 77 of 128 columns, 39 of them at q >= 0;
        # a complex Gamma_bc or stored spin breaks the conjugate mirror.  The
        # blow-up check runs on the whole spectrum before the columns are
        # chosen, on the evolved state at t = 0, and after every step.
        checks = []
        norm_sq = solver._norm_sq
        monkeypatch.setattr(solver, "_norm_sq", lambda v, t: checks.append(t) or norm_sq(v, t))
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
        med = MediumParams(gamma_ba=100.0, l_a=5e-4, Gamma_bc=gamma_bc)
        zeros = np.zeros(grid.n_z, complex)
        history = evolve_mb_harmonics(
            ProbeField(zeros, zeros), sched, med, grid, 8, 0.05,
            initial_sigma_bc0=-spin_phase * gaussian_profile(grid),
        )
        assert history.columns == columns
        assert history.steps == len(checks) - 2 > 0

    @pytest.mark.parametrize("gamma_bc, columns", [(0.0, 39), (0.1 - 0.3j, 77)],
                             ids=["mirrored", "full"])
    def test_stages_hold_one_inverse_and_the_evolved_columns(self, monkeypatch, gamma_bc,
                                                             columns):
        # the column-dependent part of a stage (E+-'s advection) is built on
        # the evolved columns only: the factored chunks hold 3 stages per
        # step, each with its inverse of all 4N + 1 rows and its Woodbury
        # coefficients on those columns, and each stage makes one product of
        # that inverse with the stage's C-ordered right-hand side on the
        # columns; a real Gamma_bc makes the inverse real, and it multiplies
        # the (rows, 2 columns) float view of the right-hand side
        rows, chunks, products = 4 * 8 + 1, [], []
        width = 2 * columns if gamma_bc == 0 else columns

        class Recorded(solver._LadderStages):
            def __init__(self, *args):
                super().__init__(*args)
                chunks.append((self.inverse.shape, self.ratio.shape, self.scale_plus.shape))

        matmul = np.matmul

        def recorded_matmul(a, b):
            if a.shape[-1] == rows:
                products.append((a.shape, b.shape, b.flags.c_contiguous))
            return matmul(a, b)

        monkeypatch.setattr(solver, "_LadderStages", Recorded)
        monkeypatch.setattr(np, "matmul", recorded_matmul)
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
        med = MediumParams(gamma_ba=100.0, l_a=5e-4, Gamma_bc=gamma_bc)
        zeros = np.zeros(grid.n_z, complex)
        history = evolve_mb_harmonics(ProbeField(zeros, zeros), sched, med, grid, 8, 0.05,
                                      initial_sigma_bc0=-gaussian_profile(grid))
        assert history.columns == columns
        assert sum(inverse[0] for inverse, _, _ in chunks) == 3 * history.steps
        for inverse, ratio, scale in chunks:
            assert inverse[1:] == (rows, rows)
            assert ratio == scale == (inverse[0], columns)
        assert products == [((rows, rows), (rows, width), True)] * (3 * history.steps)

    @pytest.mark.parametrize("gamma_bc, dtype, steps_per_chunk",
                             [(0.0, np.float64, 33), (0.05, np.float64, 33),
                              (0.1 - 0.3j, np.complex128, 16)])
    def test_stages_are_real_when_gamma_bc_is(self, monkeypatch, gamma_bc, dtype,
                                              steps_per_chunk):
        # in the gauge with a factor i on the sigma_ba rows every coupling of
        # a stage matrix is real, so a real Gamma_bc factors real inverses,
        # at half the bytes: C08's 100 steps (N 8, t 4) go in chunks of 33
        # on 39 columns, and of 16 on 77 with a complex Gamma_bc
        chunks = []

        class Recorded(solver._LadderStages):
            def __init__(self, *args):
                super().__init__(*args)
                chunks.append((self.inverse.dtype, self.inverse.shape[0]))

        monkeypatch.setattr(solver, "_LadderStages", Recorded)
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
        med = MediumParams(gamma_ba=100.0, l_a=5e-4, Gamma_bc=gamma_bc)
        zeros = np.zeros(grid.n_z, complex)
        history = evolve_mb_harmonics(ProbeField(zeros, zeros), sched, med, grid, 8, 4.0,
                                      initial_sigma_bc0=-gaussian_profile(grid))
        assert history.steps == 100
        assert {kind for kind, _ in chunks} == {np.dtype(dtype)}
        full_chunks = [count for _, count in chunks][:-1]
        assert full_chunks == [3 * steps_per_chunk] * (100 // steps_per_chunk)

    def test_refused_run_allocates_no_full_grid_rates(self):
        # 129 rows of 65536 columns would be 135 MB; the work budget refuses
        # these 50,000 steps of 39 columns of 129 rows once the columns are
        # chosen, before any array with a row per coherence is built
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=65536)
        zeros = np.zeros(grid.n_z, complex)
        probe, spin = ProbeField(zeros, zeros), -gaussian_profile(grid)
        tracemalloc.start()
        try:
            with pytest.raises(SolverError, match="50000 steps of 39 columns of 129 rows"):
                evolve_mb_harmonics(probe, sched, MediumParams(l_a=0.002), grid, 32, 1e6,
                                    initial_sigma_bc0=spin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_many_rows_are_refused_before_any_solve(self, monkeypatch):
        # N bounds the ladder's memory: one step's factored stages hold 24 MiB
        # at N 256 with a real Gamma_bc (48 MiB with a complex one), and N 257
        # is refused before any stage is factored
        def no_stages(*args):
            raise AssertionError("a chunk of stages was factored")

        assert 3 * solver._LadderStages.stage_bytes(4 * 256 - 1, 1, 8) < 24.1 * 2 ** 20
        assert 3 * solver._LadderStages.stage_bytes(4 * 256 - 1, 1, 16) < 48.2 * 2 ** 20
        monkeypatch.setattr(solver, "_LadderStages", no_stages)
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        with pytest.raises(ValueError, match="truncation_N must be at most 256, got 257"):
            evolve_mb_harmonics(ProbeField(zeros, zeros), sched, MediumParams(), grid, 257, 4.0,
                                initial_sigma_bc0=-np.ones(grid.n_z))

    def test_many_rows_on_one_column_pass_the_work_rule(self, monkeypatch):
        # N 256 on one column to t 4 counts 100 steps of three factorisations
        # and three products of 1025^2 entries (6.6e9 units), about 5 s of work
        class Admitted(Exception):
            pass

        class Stages(solver._LadderStages):
            def __init__(self, *args):
                raise Admitted

        monkeypatch.setattr(solver, "_LadderStages", Stages)
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        with pytest.raises(Admitted):
            evolve_mb_harmonics(ProbeField(zeros, zeros), sched, MediumParams(), grid, 256, 4.0,
                                initial_sigma_bc0=-np.ones(grid.n_z))

    def test_work_over_budget_fails_before_any_solve(self, monkeypatch):
        # steps times evolved columns times rows, checked before the first
        # chunk of stages is factored
        def no_stages(*args):
            raise AssertionError("a chunk of stages was factored")

        monkeypatch.setattr(solver, "_LadderStages", no_stages)
        monkeypatch.setattr(solver, "_MAX_LADDER_WORK", 1000)
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        with pytest.raises(SolverError, match=r"rows exceed the work budget of 1e\+03"):
            evolve_mb_harmonics(ProbeField(zeros, zeros), sched, MediumParams(), grid, 2, 1.0,
                                initial_sigma_bc0=-gaussian_profile(grid))

    @pytest.mark.parametrize("n_shells", [1, 2, 8, 32])
    @pytest.mark.parametrize("kappa_plus_sq", [0.05, 0.95])
    @pytest.mark.parametrize("gamma_bc, columns", [(0.0, "mirrored"), (0.0, "full"),
                                                   (0.1 - 0.3j, "full")])
    def test_stage_solve_matches_a_dense_solve(self, n_shells, kappa_plus_sq, gamma_bc, columns):
        # one factored chunk, stepped as C08 (N 8 there, t 4) steps its first
        # and its last step, against np.linalg.solve of I - alpha A(q) built
        # per column from the model's rates, with the coupling phases and
        # not through the factored inverse or Woodbury: rows E+, E-, then
        # the coherences m = 1-2N ... 2N-1; E+- advect at -+i c q and couple
        # by i g to m = +-1; exp(ix) raises m, so sigma_ba^(m+1) takes
        # i Omega kappa+ sigma_bc^(m) and sigma_bc^(m+1) takes
        # i Omega conj(kappa-) sigma_ba^(m), each link anti-Hermitian.  The
        # solver works on u / d, d = exp(i(ceil(m/2) arg kappa+ -
        # floor(m/2) arg kappa-)) and exp(i arg kappa+-) on E+-.
        kp = math.sqrt(kappa_plus_sq) * cmath.exp(0.7j)
        km = math.sqrt(1.0 - kappa_plus_sq) * cmath.exp(-2.3j)
        sched = CouplingSchedule(kp, km)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
        medium = MediumParams(gamma_ba=100.0, l_a=5e-4, Gamma_bc=gamma_bc)
        c, g = medium.vacuum_speed(sched), medium.collective_coupling(sched)
        q = grid.wavenumbers[:grid.n_z // 2 + 1] if columns == "mirrored" else grid.wavenumbers
        roots = [(0.0, 0.02), (1.98, 2.0)]  # the first and last step of t = 4 in sqrt(t)
        stages = [(start ** 2, end ** 2 - start ** 2, fraction)
                  for start, end in roots for fraction, _ in solver._SDIRK_STAGES]
        alphas = np.array([solver._SDIRK_GAMMA * h for _, h, _ in stages])
        c2 = cos2_theta(sched, np.array([t + f * h for t, h, f in stages]))
        omegas = g * np.sqrt(c2 / (1.0 - c2))
        assert alphas[-1] * omegas[-1] > 10.0
        m = np.arange(1 - 2 * n_shells, 2 * n_shells)
        factored = solver._LadderStages(alphas, omegas,
                                        np.where(m % 2, medium.gamma_ba, gamma_bc),
                                        np.where(m[:-1] % 2, abs(km), abs(kp)), g, c * q)

        size, plus = m.size + 2, 2 + 2 * n_shells  # the row of m = +1
        phases = np.exp(1j * (np.ceil(m / 2) * cmath.phase(kp) - np.floor(m / 2) * cmath.phase(km)))
        d = np.concatenate(([kp / abs(kp), km / abs(km)], phases))[:, None]
        # the stages solve in the gauge S = diag(1, 1, s_m), s_m = i on odd m
        s = np.concatenate(([1.0, 1.0], np.where(m % 2, 1j, 1.0)))[:, None]
        rng = np.random.default_rng(n_shells)
        for stage, (alpha, omega) in enumerate(zip(alphas, omegas)):
            generator = np.zeros((q.size, size, size), dtype=complex)
            rows = np.arange(2, size)
            generator[:, rows, rows] = -np.where(m % 2, medium.gamma_ba, gamma_bc)
            generator[:, 0, 0], generator[:, 1, 1] = -1j * c * q, 1j * c * q
            for row, coherence in ((0, plus), (1, plus - 2)):
                generator[:, row, coherence] = generator[:, coherence, row] = 1j * g
            for index in range(m.size - 1):
                link = omega * (kp if m[index] % 2 == 0 else np.conj(km))
                generator[:, 3 + index, 2 + index] = 1j * link
                generator[:, 2 + index, 3 + index] = 1j * np.conj(link)
            b = rng.standard_normal((size, q.size)) + 1j * rng.standard_normal((size, q.size))
            dense = np.linalg.solve(np.eye(size) - alpha * generator, b.T[:, :, None])[:, :, 0].T
            got = d / s * factored.solve(stage, s * b / d)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_chunk_edges_do_not_move_the_fields(self, monkeypatch):
        # one step per chunk against the default chunks (33 steps here, at N
        # 8 on 39 columns with a real Gamma_bc) over segments of 1, 16, 16, 1
        # and 68 steps, the last cut into 33 + 33 + 2: any stage taken from
        # the wrong chunk or the wrong place in it moves E+-
        sched = CouplingSchedule.from_intensities(0.7)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
        medium = MediumParams(gamma_ba=30.0, l_a=5e-4, Gamma_bc=0.05)
        zeros = np.zeros(grid.n_z, complex)

        def solve():
            history = evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, medium, grid, 8, 4.0,
                initial_sigma_bc0=-gaussian_profile(grid, center=0.5),
                snapshot_times=[0.0001, 0.1, 0.4, 0.41],
            )
            return np.array([[f.e_plus, f.e_minus] for f in history])

        default = solve()
        monkeypatch.setattr(solver, "_CHUNK_BYTES", 1)
        np.testing.assert_array_equal(solve(), default)
        assert np.max(np.abs(default[-1])) > 0.01

    def test_a_chunk_holds_what_its_budget_counts(self):
        # the chunk rule divides the byte budget by stage_bytes, so it must
        # count every array a chunk keeps a row or a block of per stage, the
        # inverse at its itemsize (real and complex Gamma_bc)
        n, columns, count = 31, 39, 5
        m = np.arange(1 - 16, 16)
        for gamma_bc in (0.0, 0.1 - 0.3j):
            stages = solver._LadderStages(np.full(count, 0.01), np.linspace(1.0, 50.0, count),
                                          np.where(m % 2, 100.0, gamma_bc), np.full(n - 1, 0.7),
                                          600.0, np.linspace(0.0, 30.0, columns))
            held = [value for name, value in vars(stages).items()
                    if isinstance(value, np.ndarray)
                    and name not in ("scaled", "scaled_view")]
            assert all(value.shape[0] == count for value in held)
            owned = sum(value.nbytes for value in held  # less the views into other arrays
                        if not any(other.nbytes > value.nbytes and np.shares_memory(value, other)
                                   for other in held))
            itemsize = stages.inverse.itemsize
            assert owned == count * solver._LadderStages.stage_bytes(n, columns, itemsize)

    def test_decayed_state_keeps_no_subnormal_parts(self, monkeypatch):
        # 10,000 steps of N 1 on 64 columns: a random-phase spin decays below
        # the smallest normal float on some columns, where a step would run
        # 2.6 times slower; the end of each chunk zeroes those parts
        states = []
        step = solver._sdirk3_step
        monkeypatch.setattr(solver, "_sdirk3_step",
                            lambda *args: states.append(step(*args)) or states[-1])
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        phases = np.exp(2j * np.pi * np.random.default_rng(0).random(grid.n_z))
        history = evolve_mb_harmonics(ProbeField(zeros, zeros), sched,
                                      MediumParams(gamma_ba=100.0, l_a=5e-4), grid, 1, 4e4,
                                      initial_sigma_bc0=-phases * gaussian_profile(grid))
        assert (history.steps, history.columns) == (len(states), 64) == (10000, 64)
        parts = states[-1].view(float)
        assert np.count_nonzero(parts) > 0
        assert not np.any((parts != 0.0) & (np.abs(parts) < np.finfo(float).tiny))

    def test_unstable_step_is_refused(self, monkeypatch):
        # a lowered diagonal coefficient makes the step unstable: unchecked,
        # it returns finite garbage, over 100 times the stable solve's peak
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)

        def peak():
            final = evolve_mb_harmonics(ProbeField(zeros, zeros), sched,
                                        MediumParams(gamma_ba=10.0, l_a=5e-4), grid, 2, 1.0,
                                        initial_sigma_bc0=-gaussian_profile(grid))[-1]
            return np.max(np.abs(final.e_plus))

        stable = peak()
        monkeypatch.setattr(solver, "_SDIRK_GAMMA", 0.2)
        with pytest.raises(SolverError, match="unstable step"):
            peak()
        monkeypatch.setattr(solver, "_MAX_NORM_RISE", math.inf)
        assert peak() > 100.0 * stable

    @pytest.mark.parametrize("kappa_plus_sq", [0.3, 0.9])
    @pytest.mark.parametrize("gamma_ba", [10.0, 300.0])
    def test_stable_steps_stay_under_the_rise_bound(self, monkeypatch, kappa_plus_sq, gamma_ba):
        # C08's grid: the default step's largest rise is 2.5e-7, far below
        # the refusal bound, and the solve completes
        norms = []
        norm_sq = solver._norm_sq
        monkeypatch.setattr(solver, "_norm_sq", lambda v, t: norms.append(norm_sq(v, t)) or norms[-1])
        sched = CouplingSchedule.from_intensities(kappa_plus_sq)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
        zeros = np.zeros(grid.n_z, complex)
        history = evolve_mb_harmonics(ProbeField(zeros, zeros), sched,
                                      MediumParams(gamma_ba=gamma_ba, l_a=5e-4), grid, 8, 4.0,
                                      initial_sigma_bc0=-gaussian_profile(grid))
        stepped = np.array(norms[1:])  # the evolved state at t = 0 and after every step
        assert stepped.size == history.steps + 1
        assert np.max(stepped[1:] / stepped[:-1]) - 1.0 < 1e-6

    @pytest.mark.xfail(strict=True, reason="the L-stable step damps the unresolved bright "
                       "switch-on transient (see the docstring of evolve_mb_harmonics)")
    def test_switch_on_snapshots_match_a_finer_mesh(self, monkeypatch):
        # the switch-on configuration where the step misses its own
        # refinement: E+- at every returned time within 1e-3 of that time's
        # peak of a solve with 8x the steps.  The coupling rate here is
        # 1.4e3 / T_s; the default misses by 8.2e-2 at t 0.02
        sched = CouplingSchedule.from_intensities(0.7)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=64)
        medium = MediumParams(gamma_ba=10.0, l_a=5e-4, Gamma_bc=0.1)
        zeros = np.zeros(grid.n_z, complex)

        def solve():
            history = evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, medium, grid, 2, 0.5,
                initial_sigma_bc0=-np.exp(-(grid.z + 1.0) ** 2), snapshot_times=[0.02, 0.2],
            )
            return np.array([[f.e_plus, f.e_minus] for f in history[1:]]), history.steps

        default, steps = solve()
        plan_steps = solver._plan_steps
        monkeypatch.setattr(solver, "_plan_steps", lambda targets, h: plan_steps(targets, h / 8))
        fine, fine_steps = solve()
        assert fine_steps > 7 * steps
        for got, want in zip(default, fine):
            assert np.max(np.abs(got - want)) <= 1e-3 * np.max(np.abs(want))

    def test_zero_state_stays_exactly_zero(self):
        # no column lies above the trimming floor, so nothing is evolved
        sched = CouplingSchedule.from_intensities(0.5)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            history = evolve_mb_harmonics(
                ProbeField(zeros, zeros), sched, MediumParams(), grid, 2, 0.5,
                initial_sigma_bc0=zeros, snapshot_times=[0.0, 0.25],
            )
        assert [state.time_stamp for state in history] == [0.0, 0.25, 0.5]
        assert all(not np.any(s.e_plus) and not np.any(s.e_minus) for s in history)

    def test_overflowing_spectrum_fails_before_stepping(self):
        # finite samples whose spectrum overflows: every column peak is then
        # non-finite, so none passes the trimming floor, and the solve must
        # refuse rather than return zeros
        sched = CouplingSchedule.from_intensities(0.6)
        grid = SimulationGrid(n_z=64)
        zeros = np.zeros(grid.n_z, complex)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SolverError, match="non-finite"):
                evolve_mb_harmonics(
                    ProbeField(zeros, zeros), sched, MediumParams(), grid, 2, 0.5,
                    initial_sigma_bc0=np.full(grid.n_z, 1e308),
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
    # bad input, not a work-budget SolverError or a non-finite field
    sched = CouplingSchedule.from_intensities(0.55)
    grid = SimulationGrid(n_z=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=_HORIZON_MESSAGES[solve]):
            solve(t_end, snapshot_times, grid, sched, gaussian_profile(grid))


@pytest.mark.parametrize("solve, columns", [(_solve_cold, 32), (_solve_ladder, 17)],
                         ids=["cold", "ladder"])
@pytest.mark.parametrize(
    "snapshot_times",
    [None, [0.0, 2.0], [1.5, 0.5, 0.5], [2.0 * (1 + 1e-13), 1.0]],
    ids=["none", "ends", "unsorted_repeat", "past_t_end"],
)
def test_history_contract(monkeypatch, solve, columns, snapshot_times):
    # t = 0, then each distinct requested time and t_end once, in order; the
    # cold state has one column per grid point, the ladder here evolves the
    # 17 columns q >= 0 of a real problem on 32 points
    plans = []
    plan_steps = solver._plan_steps
    monkeypatch.setattr(solver, "_plan_steps", lambda *a: plans.append(plan_steps(*a)) or plans[-1])
    sched = CouplingSchedule.from_intensities(0.55)
    grid = SimulationGrid(n_z=32)
    history = solve(2.0, snapshot_times, grid, sched, gaussian_profile(grid))
    requested = [min(float(t), 2.0) for t in snapshot_times or []]
    assert [f.time_stamp for f in history] == sorted({0.0, 2.0, *requested})
    (plan,) = plans
    assert history.steps == sum(n for _, n, _ in plan) > 0
    # the ladder's mesh is uniform in sqrt(t) and the cold one in r(t); their
    # segments end at the returned times
    ends = [f.time_stamp for f in history[1:]]
    assert [end for end, _, _ in plan] == ([math.sqrt(t) for t in ends] if solve is _solve_ladder
                                           else [float(displacement_r(sched, t)) for t in ends])
    assert history.columns == columns
    arrays = [a for f in history for a in vars(f).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 2 * len(history)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


# v' = rate v + i c cos(t) v, solved by v0 exp(rate t + i c sin(t)), for the
# SDIRK at every rate; the RK4's generator is constant, so it steps
# v' = i c v, solved by v0 exp(i c r)
_COUPLING = np.array([1.0, 2.0, -1.5])
_V0 = np.array([1.0, 0.5 - 0.5j, -0.3j])


def _toy_product(w, out):
    np.multiply(_COUPLING, w, out=out)


def _horner_products(product):
    """``_rk4``'s ``scaled_products`` for the P of `product(w, out)`, which
    writes P w: for steps of h, the four products x/4, x/3, x/2 and x with
    x = ihP, each scaling P w after it is written."""
    def scaled_products(h):
        def scaled(k):
            def apply(w, out):
                product(w, out)
                out *= 1j * h / k
            return apply
        return [scaled(k) for k in (4.0, 3.0, 2.0, 1.0)]
    return scaled_products


def _rk4_solve(r_end, dr_max):
    # recorded at the times 1 and 2, whose r are half r_end and r_end
    plan = _plan_steps([0.5 * r_end, r_end], dr_max)
    history = _rk4(_V0.copy(), [1.0, 2.0], plan, _horner_products(_toy_product),
                   lambda v, t: (t, v.copy()))
    assert [t for t, _ in history] == [0.0, 1.0, 2.0]
    np.testing.assert_array_equal(history[0][1], _V0)
    assert history.steps == sum(n for _, n, _ in plan)
    assert history.columns == _V0.size
    return history[-1][1]


def test_plan_steps_only_plans():
    # any finite step count is planned (the steppers' work rules bound it);
    # one past float range is refused
    assert _plan_steps([1e9], 0.25) == [(1e9, 4_000_000_000, 0.25)]
    with pytest.raises(SolverError, match="span of 1e\\+308 .* has no finite step count"):
        _plan_steps([1.0, 1e308], 1e-10)


def test_rk4_is_fourth_order():
    r_end = 2.0
    exact = _V0 * np.exp(1j * _COUPLING * r_end)
    errors = [np.max(np.abs(_rk4_solve(r_end, dr) - exact)) for dr in (0.2, 0.1, 0.05, 0.025)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_rk4_refuses_work_before_the_norm_check(monkeypatch):
    # a step costs its price at 3 columns; over the budget, even a non-finite
    # state is refused for its work, and at it `_norm_sq` raises
    work = 20 * (solver._transform_units(3) + solver._RK4_STEP_UNITS)
    plan = _plan_steps([2.0], 0.1)  # 20 steps of 3 columns
    monkeypatch.setattr(solver, "_MAX_RK4_WORK", math.nextafter(work, 0.0))
    with pytest.raises(SolverError, match="20 steps of 3 columns exceed the work budget"):
        _rk4(np.full(3, math.inf + 0j), [2.0], plan, None, None)
    monkeypatch.setattr(solver, "_MAX_RK4_WORK", work)
    with pytest.raises(SolverError, match="non-finite field norm at r = 0"):
        _rk4(np.full(3, math.inf + 0j), [2.0], plan, None, None)


@pytest.mark.parametrize("shape", [(33, 128), (5, 7), (1,)])
def test_rk4_writes_every_stage_buffer_before_reading_it(monkeypatch, shape):
    # the scratch buffers come from np.empty_like; filled with NaN instead,
    # any read before a write would reach v and the norm check
    rng = np.random.default_rng(7)
    coupling = rng.standard_normal(shape[-1])
    v0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def product(w, out):
        np.multiply(coupling, w, out=out)

    def run():
        plan = _plan_steps([0.5, 1.0], 0.1)
        return _rk4(v0.copy(), [1.0, 2.0], plan, _horner_products(product),
                    lambda v, t: (t, v.copy()))

    clean = run()
    monkeypatch.setattr(np, "empty_like", lambda a: np.full_like(a, math.nan))
    poisoned = run()
    assert [t for t, _ in poisoned] == [t for t, _ in clean]
    for (_, a), (_, b) in zip(poisoned, clean):
        np.testing.assert_array_equal(a, b)


def test_rk4_step_is_the_fourth_order_taylor_polynomial():
    # one step multiplies by the degree-4 Taylor polynomial of exp(i c h),
    # which pins every Horner factor
    h = 0.3
    history = _rk4(_V0.copy(), [h], _plan_steps([h], h), _horner_products(_toy_product),
                   lambda v, t: v.copy())
    assert history.steps == 1
    x = 1j * _COUPLING * h
    taylor = sum(x**k / math.factorial(k) for k in range(5))
    np.testing.assert_allclose(history[-1], _V0 * taylor, rtol=1e-15, atol=0)


def test_rk4_step_matches_the_classical_stage_form():
    # v' = i P v with a dense, non-normal P: the Horner step against the four
    # stages and weights 1/6, 1/3, 1/3, 1/6 of classical RK4
    rng = np.random.default_rng(3)
    p = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    v0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    h = 0.1

    def product(w, out):
        np.matmul(p, w, out=out)

    def rate(w):
        return 1j * (p @ w)

    k1 = rate(v0)
    k2 = rate(v0 + 0.5 * h * k1)
    k3 = rate(v0 + 0.5 * h * k2)
    k4 = rate(v0 + h * k3)
    stage_form = v0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    history = _rk4(v0.copy(), [h], _plan_steps([h], h), _horner_products(product),
                   lambda v, t: v.copy())
    assert np.max(np.abs(history[-1] - stage_form)) <= 1e-15 * np.max(np.abs(stage_form))


def test_rk4_refuses_a_blow_up_at_the_step_it_happens():
    # v' = g v grows by about (g h)^4 / 24 = 4e26 a step, so |v|^2 first
    # overflows after the sixth step of 0.1, at r = 0.6
    def product(w, out):
        np.multiply(-1e8j, w, out=out)

    with pytest.raises(SolverError, match=r"non-finite field norm at r = 0\.6 "):
        _rk4(_V0.copy(), [2.0], _plan_steps([2.0], 0.1), _horner_products(product),
             lambda v, t: None)


def _sdirk_solve(rate, t_end, n, coupling=_COUPLING):
    # v' = (rate + i c cos(t)) v in n equal SDIRK steps
    v, h = _V0.copy(), t_end / n
    alpha = solver._SDIRK_GAMMA * h

    def solve(cos_t, b):
        return b / (1.0 - alpha * (rate + 1j * coupling * cos_t))

    fractions = [fraction for fraction, _ in solver._SDIRK_STAGES]
    for j in range(n):
        v = _sdirk3_step(v, [math.cos((j + f) * h) for f in fractions], solve)
    return v


@pytest.mark.parametrize("rate", [0.0, np.array([-0.5 + 2.0j, -1.0 - 1.0j, -0.2 + 0.3j])],
                         ids=["zero", "complex"])
def test_sdirk3_is_third_order(rate):
    t_end = 2.0
    exact = _V0 * np.exp(rate * t_end + 1j * _COUPLING * math.sin(t_end))
    errors = [np.max(np.abs(_sdirk_solve(rate, t_end, n) - exact)) for n in (20, 40, 80, 160)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 6.0 <= coarse / fine <= 10.0


@pytest.mark.parametrize("rate", [-1e12, 1e12j, -1e12 + 1e12j], ids=["decay", "phase", "both"])
def test_sdirk3_is_l_stable(rate):
    # the stiffest modes are damped in one step, not merely kept bounded
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = _sdirk_solve(rate, 1.0, 1, coupling=np.zeros(3))
    assert np.max(np.abs(v)) < 1e-11 * np.max(np.abs(_V0))


# The SDIRK driver on a toy generator with an exact solution: the diagonal
# y' = (rate + i _COUPLING cos t) y, as in _sdirk_solve, solved by
# y0 exp(rate t + i _COUPLING sin t)
_DRIVER_RATE = np.array([-0.5 + 2.0j, -1.0 - 1.0j, -0.2 + 0.3j])
_DRIVER_TARGETS = [0.0004, 0.3, 0.5, 2.0]  # segments of 1, 27, 8 and 36 steps
# five steps of stages a chunk
_DRIVER_STAGE_BYTES = solver._CHUNK_BYTES // 15


class _ToyStages:
    """A chunk's stage solves of the toy, at each stage's alpha and time."""

    def __init__(self, rate, alphas, times):
        self.rate, self.alphas, self.times = rate, alphas, times

    def solve(self, stage, b):
        generator = self.rate + 1j * _COUPLING * math.cos(self.times[stage])
        return b / (1.0 - self.alphas[stage] * generator)


def _driver_solve(rate=_DRIVER_RATE, chunks=None):
    # the plan is made here, as the ladder makes it, at the current _ROOT_STEP
    plan = solver._plan_steps([math.sqrt(t) for t in _DRIVER_TARGETS], solver._ROOT_STEP)

    def make_stages(alphas, times):
        if chunks is not None:
            chunks.append((alphas.size, times.size))
        return _ToyStages(rate, alphas, times)

    return _sdirk3_solve(_V0.copy(), _DRIVER_TARGETS, plan, make_stages, _DRIVER_STAGE_BYTES,
                         lambda v, t: (t, v.copy()))


def _driver_exact(t):
    return _V0 * np.exp(_DRIVER_RATE * t + 1j * _COUPLING * math.sin(t))


def test_sdirk3_solve_records_every_target_and_steps_its_plan(monkeypatch):
    # t = 0 and each target once, in order, near the exact solution; steps is
    # the given plan's total, and the driver plans nothing itself.  Each
    # segment is cut into chunks of 3 x 5 stages and a remainder
    plans, chunks = [], []
    plan_steps = solver._plan_steps
    monkeypatch.setattr(solver, "_plan_steps", lambda *a: plans.append(plan_steps(*a)) or plans[-1])
    history = _driver_solve(chunks=chunks)
    (plan,) = plans
    assert [t for t, _ in history] == [0.0, *_DRIVER_TARGETS]
    np.testing.assert_array_equal(history[0][1], _V0)
    assert history.steps == sum(n for _, n, _ in plan) == 72
    assert history.columns == _V0.size
    for t, v in history[1:]:
        assert np.max(np.abs(v - _driver_exact(t))) < 1e-4
    counts = [n for _, n, _ in plan]
    assert [size for size, _ in chunks] == [
        3 * min(5, n - first) for n in counts for first in range(0, n, 5)]
    assert all(alphas == times for alphas, times in chunks)


def test_sdirk3_solve_is_third_order_in_the_root_step(monkeypatch):
    # halving _ROOT_STEP cuts the error at t 2 by 2^3
    errors = []
    for root_step in (0.02, 0.01, 0.005, 0.0025):
        monkeypatch.setattr(solver, "_ROOT_STEP", root_step)
        t, v = _driver_solve()[-1]
        errors.append(np.max(np.abs(v - _driver_exact(t))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 6.0 <= coarse / fine <= 10.0


def test_sdirk3_solve_chunk_edges_do_not_move_the_state(monkeypatch):
    # one step per chunk against five (cut at every segment's end): a stage
    # taken from the wrong chunk, or the wrong place in it, moves the state
    default = _driver_solve()
    monkeypatch.setattr(solver, "_CHUNK_BYTES", 1)
    chunks = []
    single = _driver_solve(chunks=chunks)
    assert {size for size, _ in chunks} == {3}
    assert [t for t, _ in single] == [t for t, _ in default]
    for (_, a), (_, b) in zip(single, default):
        np.testing.assert_array_equal(a, b)


def test_sdirk3_solve_refuses_an_amplifying_stage(monkeypatch):
    # a growth rate of 1 raises the squared norm by about 2 h a step, 8e-4
    # at the first step of 4e-4: refused there, and completed without the rule
    with pytest.raises(SolverError, match=r"step to t = 0\.0004 \(unstable step\)"):
        _driver_solve(rate=1.0)
    monkeypatch.setattr(solver, "_MAX_NORM_RISE", math.inf)
    history = _driver_solve(rate=1.0)
    assert np.max(np.abs(history[-1][1])) > 2.0 * np.max(np.abs(_V0))
