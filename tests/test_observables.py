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
    PulseMetrics,
    SimulationGrid,
    beta,
    cold_adiabatic_evolve,
    compute_metrics,
    displacement_r,
    gaussian_profile,
    variance_growth_rate,
)

GRID = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=1024)


def make_field(psi_plus, psi_minus=None, t=0.0):
    if psi_minus is None:
        psi_minus = np.zeros_like(psi_plus)
    return PolaritonField(psi_plus, psi_minus, time_stamp=t)


class TestComputeMetrics:
    def test_gaussian_moments(self):
        # density exp(-2 z^2): centroid 0, variance 1/4 (Gaussian moment integral)
        field = make_field(gaussian_profile(GRID))
        metrics = compute_metrics(field, GRID)
        assert metrics.centroid == pytest.approx(0.0, abs=1e-12)
        assert metrics.variance == pytest.approx(0.25, rel=1e-10)
        assert metrics.total_norm == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)

    def test_symmetric_density_splits_evenly(self):
        field = make_field(gaussian_profile(GRID))
        metrics = compute_metrics(field, GRID, split_at=0.0)
        assert metrics.forward_fraction == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("split_at", [math.nan, math.inf, -math.inf])
    def test_non_finite_split_rejected(self, split_at):
        # nan once gave a forward fraction of 0.0, and an infinite split 0 or 1
        with pytest.raises(ValueError, match="split_at"):
            compute_metrics(make_field(gaussian_profile(GRID)), GRID, split_at=split_at)

    def test_offset_split(self):
        field = make_field(gaussian_profile(GRID, center=3.0))
        metrics = compute_metrics(field, GRID, split_at=0.0)
        assert metrics.forward_fraction > 0.999

    def test_forward_fraction_of_separated_quasi_standing_pulse(self):
        # closed-form split: forward weight (1 + beta/|k+|^2)/2 of the energy
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        (field,) = cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), [25.0])
        metrics = compute_metrics(field, GRID, split_at=0.0)
        expected = 0.7132007163556104
        assert metrics.forward_fraction == pytest.approx(expected, abs=1e-6)
        weight = beta(sched) / 0.55
        assert expected == pytest.approx((1 + weight) / 2, abs=1e-12)

    def test_zero_field_refused(self):
        # a fully decayed or off-grid pulse has no moments
        field = make_field(np.zeros(GRID.n_z, complex), t=2.5)
        with pytest.raises(ValueError, match="field is zero at t = 2.5"):
            compute_metrics(field, GRID)

    def test_overflowing_density_refused_without_warning(self):
        # finite samples whose density overflows once gave total_norm inf and
        # nan moments, after a RuntimeWarning
        grid = SimulationGrid(n_z=64)
        field = make_field(1e200 * gaussian_profile(grid))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                compute_metrics(field, grid)

    def test_phase_invariance(self):
        psi = gaussian_profile(GRID, center=1.0)
        base = compute_metrics(make_field(psi), GRID)
        rotated = compute_metrics(make_field(psi * np.exp(1.3j)), GRID)
        assert rotated.total_norm == pytest.approx(base.total_norm, rel=1e-14)
        assert rotated.centroid == pytest.approx(base.centroid, rel=1e-14)
        assert rotated.variance == pytest.approx(base.variance, rel=1e-14)

    def test_accepts_probe_field(self):
        probe = ProbeField(gaussian_profile(GRID), np.zeros(GRID.n_z, complex), time_stamp=2.0)
        metrics = compute_metrics(probe, GRID)
        assert metrics.time == 2.0

    def test_rejects_a_field_off_the_grid(self):
        probe = ProbeField(np.zeros(GRID.n_z // 2, complex), np.zeros(GRID.n_z // 2, complex))
        with pytest.raises(ValueError, match="field must be sampled on the grid"):
            compute_metrics(probe, GRID)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="expected PolaritonField or ProbeField, got ndarray"):
            compute_metrics(np.zeros(GRID.n_z), GRID)

    def test_overflowing_probe_density_refused_without_warning(self):
        grid = SimulationGrid(n_z=64)
        probe = ProbeField(1e200 * gaussian_profile(grid), np.zeros(grid.n_z), time_stamp=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="field density overflows at t = 3"):
                compute_metrics(probe, grid)

    def test_moments_are_those_of_the_fields_own_density(self):
        # the one density of each field type, read once
        class Counted(PolaritonField):
            reads = 0

            def density(self):
                type(self).reads += 1
                return super().density()

        psi = gaussian_profile(GRID, center=1.0)
        counted = Counted(psi, 0.5j * psi, time_stamp=1.5)
        assert compute_metrics(counted, GRID) == compute_metrics(
            PolaritonField(psi, 0.5j * psi, time_stamp=1.5), GRID)
        assert Counted.reads == 1

    def test_centroid_of_separated_solution_tracks_weighted_displacement(self):
        # global centroid = (forward - backward weight) * beta * r(t)
        sched = CouplingSchedule.from_intensities(0.55)
        psi0 = gaussian_profile(GRID)
        times = (20.0, 22.0, 25.0)
        for t, field in zip(times, cold_adiabatic_evolve(psi0, GRID, sched, MediumParams(), times)):
            metrics = compute_metrics(field, GRID)
            shift = beta(sched) * displacement_r(sched, t)
            expected = (2.0 * metrics.forward_fraction - 1.0) * shift
            assert metrics.centroid == pytest.approx(expected, rel=1e-6)


class TestVarianceGrowthRate:
    @staticmethod
    def synthetic_history(schedule, times, w2_of_r):
        history = []
        for t in times:
            r = float(displacement_r(schedule, t))
            history.append(
                PulseMetrics(
                    total_norm=1.0, centroid=0.0, variance=w2_of_r(r) / 2.0,
                    forward_fraction=0.5, time=t,
                )
            )
        return history

    def test_recovers_linear_width_growth(self):
        # thermal standing-wave law: W^2 = W0^2 + 2 * l_a * r with l_a = 0.1
        sched = CouplingSchedule.from_intensities(0.5)
        history = self.synthetic_history(sched, np.linspace(0, 8, 9), lambda r: 0.5 + 0.2 * r)
        assert variance_growth_rate(history, sched) == pytest.approx(0.2, rel=1e-10)

    def test_zero_growth(self):
        sched = CouplingSchedule.from_intensities(0.5)
        history = self.synthetic_history(sched, np.linspace(0, 8, 9), lambda r: 0.5)
        assert abs(variance_growth_rate(history, sched)) < 1e-12

    def test_requires_three_samples(self):
        sched = CouplingSchedule.from_intensities(0.5)
        history = self.synthetic_history(sched, [0.0, 1.0], lambda r: 0.5)
        with pytest.raises(ValueError):
            variance_growth_rate(history, sched)

    def test_rejects_constant_displacement(self):
        sched = CouplingSchedule.from_intensities(0.5)
        history = self.synthetic_history(sched, [3.0, 3.0, 3.0], lambda r: 0.5)
        with pytest.raises(ValueError):
            variance_growth_rate(history, sched)

    def test_rejects_an_unresolved_displacement(self):
        # r = log cosh(t) spreads over about t^2 / 2: 4.5e-14 at t 3e-7 is
        # refused, 1.25e-13 at t 5e-7 fitted
        sched = CouplingSchedule.from_intensities(0.5)
        history = self.synthetic_history(sched, [0.0, 1.5e-7, 3e-7], lambda r: 0.5 + 0.2 * r)
        with pytest.raises(ValueError, match="too little to resolve"):
            variance_growth_rate(history, sched)
        history = self.synthetic_history(sched, [0.0, 2.5e-7, 5e-7], lambda r: 0.5 + 0.2 * r)
        assert variance_growth_rate(history, sched) == pytest.approx(0.2, abs=0.01)

    def test_rejects_a_pulse_wrapped_round_the_grid(self):
        # a share of 1e-3 within 1 L_p of the grid's ends is fitted, one above
        # it refused, whichever sample holds it
        sched = CouplingSchedule.from_intensities(0.5)
        history = self.synthetic_history(sched, np.linspace(0, 8, 9), lambda r: 0.5 + 0.2 * r)
        edge = [dataclasses.replace(m, edge_fraction=1e-3) for m in history]
        assert variance_growth_rate(edge, sched) == pytest.approx(0.2, rel=1e-10)
        edge[4] = dataclasses.replace(edge[4], edge_fraction=1.1e-3)
        with pytest.raises(ValueError, match=r"0\.0011 > 0\.001 of its energy within 1 L_p"):
            variance_growth_rate(edge, sched)

    def test_edge_fraction_is_the_energy_within_one_pulse_length_of_the_ends(self):
        # a centred pulse exp(-z^2) leaves erfc(9 sqrt 2) of its energy past
        # |z| 9; the same pulse centred on the seam z = -10 holds half of it
        # within 1 L_p of either end, erf(sqrt 2) of it in all, up to where the
        # grid (dz 0.02) samples the bound
        centred = compute_metrics(make_field(gaussian_profile(GRID)), GRID)
        assert centred.edge_fraction < 1e-30
        seam = compute_metrics(make_field(np.exp(-((np.abs(GRID.z) - 10.0) ** 2))), GRID)
        assert seam.edge_fraction == pytest.approx(math.erf(math.sqrt(2.0)), rel=2e-3)

    def test_rejects_a_displacement_past_the_fit_range(self):
        # r = log cosh(t) is t - log 2 here: the squares of r in the fit
        # overflow past 1.3e154, so r 1e155 is refused and 1e150 fitted
        sched = CouplingSchedule.from_intensities(0.5)
        history = self.synthetic_history(sched, [0.0, 5e154, 1e155], lambda r: 0.5 + 0.2 * r)
        with pytest.raises(ValueError, match=r"reaches 1e\+155 > 1e\+150"):
            variance_growth_rate(history, sched)
        history = self.synthetic_history(sched, [0.0, 5e149, 1e150], lambda r: 0.5 + 0.2 * r)
        assert variance_growth_rate(history, sched) == pytest.approx(0.2, rel=1e-12)
