import cmath
import functools
import math
import warnings

import numpy as np
import pytest

from stationary_light import analytic, cli, core, observables, solver
from stationary_light import (
    CouplingSchedule,
    MediumParams,
    PolaritonField,
    ProbeField,
    SimulationGrid,
    cos2_theta,
    displacement_r,
    gaussian_profile,
    group_velocity,
)


def quad_group_velocity(t1, t2, rtol=1e-13):
    """Independent composite quadrature of v_g over [t1, t2], refined to rtol."""
    previous = None
    n = 64
    while n <= 1 << 22:
        t = np.linspace(t1, t2, n + 1)
        value = np.trapezoid(group_velocity(t), t)
        if previous is not None and abs(value - previous) <= rtol * max(1.0, abs(value)):
            return value
        previous = value
        n *= 2
    raise AssertionError("quadrature did not converge")


class TestCos2Theta:
    def test_zero_at_switch_on(self):
        sched = CouplingSchedule.from_intensities(0.5)
        assert cos2_theta(sched, 0.0) == 0.0

    def test_saturates(self):
        sched = CouplingSchedule.from_intensities(0.5)
        assert cos2_theta(sched, 50.0) == pytest.approx(sched.cos2_theta0, rel=1e-12)

    def test_value_at_one_switching_time(self):
        sched = CouplingSchedule.from_intensities(0.5)
        # 0.01 * tanh(1)
        assert cos2_theta(sched, 1.0) == pytest.approx(0.0076159415595576485, abs=1e-12)

    @pytest.mark.parametrize("t", [-0.1, [0.0, -0.1], np.array([1.0, -5e-324])])
    @pytest.mark.parametrize("function", [
        pytest.param(functools.partial(cos2_theta, CouplingSchedule.from_intensities(0.5)),
                     id="cos2_theta"),
        displacement_r, group_velocity])
    def test_rejects_negative_time(self, function, t):
        with pytest.raises(ValueError, match="t must be finite and non-negative"):
            function(t)

    def test_vectorized(self):
        sched = CouplingSchedule.from_intensities(0.5)
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            cos2_theta(sched, t), sched.cos2_theta0 * np.tanh(t), rtol=1e-15
        )


class TestDisplacement:
    def test_zero_at_zero(self):
        assert displacement_r(0.0) == 0.0

    def test_value_at_one_switching_time(self):
        # log(cosh(1)), v_g0 * T_s = 1
        assert displacement_r(1.0) == pytest.approx(0.4337808304830271, abs=1e-12)

    def test_slope_saturates_at_group_velocity(self):
        slope = (displacement_r(25.0) - displacement_r(20.0)) / 5.0
        assert slope == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t1,t2", [(0.0, 1.0), (0.5, 3.0), (2.0, 9.0)])
    def test_matches_quadrature(self, t1, t2):
        expected = quad_group_velocity(t1, t2)
        got = displacement_r(t2) - displacement_r(t1)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_monotone(self):
        for t in (np.linspace(0.0, 12.0, 200), np.linspace(0.0, 1e-6, 100001)):
            r = displacement_r(t)
            assert np.all(np.diff(r) >= 0)

    @pytest.mark.parametrize("t", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_small_time_matches_taylor_series(self, t):
        # log(cosh(t)) = t^2/2 - t^4/12 + t^6/45 - ...; the next term is below
        # 1e-15 of the sum for t <= 1e-3
        series = t ** 2 / 2 - t ** 4 / 12 + t ** 6 / 45
        assert displacement_r(t) == pytest.approx(series, rel=1e-15, abs=0)

    def test_no_overflow_at_large_time(self):
        assert displacement_r(1e4) == pytest.approx(1e4 - math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("t", [1.7e308, 400.0, 1e300, np.finfo(float).max])
    def test_finite_without_warnings_up_to_the_float_range(self, t):
        # past t of about 9e307 the large-t form's exp(-2t) overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = displacement_r(t)
        assert math.isfinite(r) and r == pytest.approx(t - math.log(2.0), rel=1e-15)


_ONE_PATH_TIMES = np.concatenate([
    [0.0, 5e-324, 1e-300, 1e-8, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
     372.0, 400.0, np.nextafter(400.0, 500.0), 1e300, 1.7e308, np.finfo(float).max],
    np.geomspace(1e-12, 1e3, 1000),
    np.linspace(0.0, 20.0, 1001),
])


#: Ground-state decay rates Gamma_bc = gamma_bc - i Delta: none, a real rate and
#: both signs of the detuning.
DECAY_RATES = (0, 0.05, 0.3 + 0.2j, 0.3 - 0.5j)


_ONE_PATH_SCHEDULE = CouplingSchedule.from_intensities(0.5)


def _decay_at(gamma_bc):
    def decay(t):
        return core._ground_state_decay(_ONE_PATH_SCHEDULE, gamma_bc, t, displacement_r(t))

    return decay


@pytest.mark.parametrize("function", [
    displacement_r,
    pytest.param(functools.partial(cos2_theta, _ONE_PATH_SCHEDULE), id="cos2_theta"),
    *(pytest.param(_decay_at(g), id=f"_ground_state_decay-{g}") for g in DECAY_RATES),
])
def test_array_call_matches_scalar_calls_bit_for_bit(function):
    batched = function(_ONE_PATH_TIMES)
    one_by_one = np.array([function(float(t)) for t in _ONE_PATH_TIMES])
    assert batched.shape == _ONE_PATH_TIMES.shape
    assert batched.tobytes() == one_by_one.tobytes()
    assert np.ndim(function(2.0)) == 0
    assert np.ndim(function(np.float64(2.0))) == 0


@pytest.mark.parametrize("gamma_bc", DECAY_RATES)
def test_decay_is_the_complex_exponential_of_its_law(gamma_bc):
    # exp(-Gamma_bc (t - cos2_theta0 r(t))), one cmath.exp per time
    sched = CouplingSchedule.from_intensities(0.5)
    times = np.concatenate([np.linspace(0.0, 20.0, 201), np.geomspace(1e-12, 1e3, 200)])
    expected = [cmath.exp(-gamma_bc * (t - sched.cos2_theta0 * displacement_r(t)))
                for t in times]
    decays = core._ground_state_decay(sched, gamma_bc, times, displacement_r(times))
    assert decays.dtype == complex
    np.testing.assert_allclose(decays, expected, rtol=1e-15, atol=0.0)


def test_decay_refuses_a_bad_time_and_warns_nothing_past_the_float_range():
    sched = CouplingSchedule.from_intensities(0.5)
    with pytest.raises(ValueError, match="t must be finite and non-negative"):
        core._ground_state_decay(sched, 0.05, [1.0, -1.0], np.zeros(2))
    # past the float range a dephasing gives 0 and a bare detuning a nan
    # phase, which the field it scales refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = displacement_r([0.0, 1e10])
        damped = core._ground_state_decay(sched, 1e300 - 1e300j, [0.0, 1e10], r)
        detuned = core._ground_state_decay(sched, -1e300j, [0.0, 1e10], r)
    assert damped.tolist() == [1.0, 0.0]
    assert detuned[0] == 1.0 and np.isnan(detuned[1])


def test_closed_forms_take_every_decay_from_one_call(monkeypatch):
    calls = []

    def counted(schedule, gamma_bc, t, r):
        calls.append(np.size(t))
        return core._ground_state_decay(schedule, gamma_bc, t, r)

    monkeypatch.setattr(analytic, "_ground_state_decay", counted)
    grid = SimulationGrid(n_z=64)
    sched = CouplingSchedule.from_intensities(0.7)
    times = np.linspace(0.0, 2.0, 100)
    analytic.cold_adiabatic_evolve(gaussian_profile(grid), grid, sched,
                                   MediumParams(Gamma_bc=0.05), times)
    assert calls == [100]


def _counting_displacement(calls, name):
    def counted(t):
        calls[name] = calls.get(name, 0) + 1
        return displacement_r(t)

    return counted


def test_each_caller_gets_r_for_all_its_times_in_one_call(monkeypatch):
    # core counts too: the decay law takes the caller's r and forms none
    calls = {}
    for module in (analytic, cli, core, observables, solver):
        name = module.__name__.rsplit(".", 1)[-1]
        monkeypatch.setattr(module, "displacement_r", _counting_displacement(calls, name))

    def calls_of(run):
        calls.clear()
        run()
        return calls

    grid = SimulationGrid(n_z=64)
    sched = CouplingSchedule.from_intensities(0.7)
    times = np.linspace(0.0, 2.0, 100)
    psi0 = gaussian_profile(grid)
    fields = analytic.cold_adiabatic_evolve(psi0, grid, sched, MediumParams(), times)
    history = [observables.compute_metrics(field, grid) for field in fields]
    config = cli.parse_config(None, {"scenario": "nonadiabatic_traveling", "n_z": 64,
                                     "t_max": 2.0})

    assert calls_of(lambda: analytic.cold_adiabatic_evolve(
        psi0, grid, sched, MediumParams(), times)) == {"analytic": 1}
    assert calls_of(lambda: observables._slope_against_r(
        history, [m.centroid for m in history])) == {"observables": 1}
    assert calls_of(lambda: cli._run_nonadiabatic(
        config, grid, sched, MediumParams(), times, center=0.0)) == {
            "analytic": 1, "cli": 1, "observables": 1}
    assert calls_of(lambda: solver.evolve_cold_numeric(
        analytic.initial_split(psi0, sched), sched, MediumParams(), grid, 2.0,
        snapshot_times=times)) == {"solver": 1}


class TestCouplingSchedule:
    def test_normalization(self):
        sched = CouplingSchedule(0.9 * np.exp(0.3j), 0.5)
        assert abs(sched.kappa_plus) ** 2 + abs(sched.kappa_minus) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_from_intensities_validation(self):
        with pytest.raises(ValueError):
            CouplingSchedule.from_intensities(1.2)
        with pytest.raises(ValueError):
            CouplingSchedule.from_intensities(-0.1)

    @pytest.mark.parametrize("plus, minus", [(1e200, 1e200), (1e-200, 1e-200), (5e-324, 0.0)])
    def test_normalization_at_extreme_magnitudes(self, plus, minus):
        sched = CouplingSchedule(plus, minus)
        assert sched.kappa_plus_sq + sched.kappa_minus_sq == pytest.approx(1.0, abs=1e-15)

    def test_intensities_normalised_as_unscaled(self):
        # the power-of-two rescaling moves no schedule built from intensities by
        # even one ulp (math.hypot would), so no dataset moves with it
        for plus_sq in np.linspace(0.0, 1.0, 1001):
            plus, minus = math.sqrt(plus_sq), math.sqrt(1.0 - plus_sq)
            total = math.sqrt(abs(complex(plus)) ** 2 + abs(complex(minus)) ** 2)
            sched = CouplingSchedule.from_intensities(plus_sq)
            assert (sched.kappa_plus, sched.kappa_minus) == (plus / total, minus / total)

    def test_rejects_zero_amplitudes(self):
        with pytest.raises(ValueError):
            CouplingSchedule(0.0, 0.0)

    def test_exact_default_working_point(self):
        # cos^2(theta0) is stored as given, so the default c is exactly 100
        sched = CouplingSchedule.from_intensities(0.5)
        assert sched.cos2_theta0 == 0.01
        assert sched.vacuum_speed == 100.0
        assert CouplingSchedule(1.0, 0.0, 0.04).cos2_theta0 == 0.04

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan, 5e-324, 1e-320])
    def test_rejects_working_point_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="cos2_theta0"):
            CouplingSchedule.from_intensities(0.5, cos2_theta0=bad)

    def test_group_velocity_saturates_to_unity(self):
        assert group_velocity(40.0) == pytest.approx(1.0, rel=1e-12)


class TestGaussianProfile:
    def test_peak_and_width(self):
        grid = SimulationGrid(z_min=-8.0, z_max=8.0, n_z=256)
        profile = 2.0 * gaussian_profile(grid)
        z = grid.z
        i0 = np.argmin(np.abs(z))
        assert profile[i0] == pytest.approx(2.0)
        i1 = np.argmin(np.abs(z - 1.0))
        assert profile[i1] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_density_integral(self):
        # integral of |profile|^2 = |amp|^2 * L * sqrt(pi/2), checked by quadrature
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=2048)
        profile = 1.5 * gaussian_profile(grid)
        integral = grid.dz * np.sum(np.abs(profile) ** 2)
        assert integral == pytest.approx(1.5 ** 2 * math.sqrt(math.pi / 2), rel=1e-12)

    def test_even_about_center(self):
        grid = SimulationGrid(z_min=-8.0, z_max=8.0, n_z=256)
        profile = gaussian_profile(grid, center=1.0)
        i0 = np.argmin(np.abs(grid.z - 1.0))
        for offset in (1, 5, 20, 60):
            assert profile[i0 + offset] == profile[i0 - offset]

    def test_grid_spanning_the_float_range_warns_nothing(self):
        # (z - center)^2 overflows to inf past |z| of about 1.3e154, where
        # exp(-inf) is exactly the 0 that the profile holds there
        grid = SimulationGrid(z_min=-1e300, z_max=1e300, n_z=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = gaussian_profile(grid)
        assert profile[32] == 1.0 and np.count_nonzero(profile) == 1


class TestValueTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SimulationGrid(n_z=8)
        with pytest.raises(ValueError):
            SimulationGrid(z_min=1.0, z_max=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                SimulationGrid(z_min=-1e308, z_max=1e308)
        grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=2048)
        assert grid.dz == pytest.approx(20.0 / 2048)
        assert grid.z.shape == (2048,)

    @pytest.mark.parametrize("n_z", ["64", 100.5, 64.0, math.nan, True, np.True_, None, 8])
    def test_non_integer_n_z_rejected(self, n_z):
        with pytest.raises(ValueError, match="n_z must be an integer of at least 16"):
            SimulationGrid(n_z=n_z)

    def test_numpy_integer_n_z_accepted(self):
        grid = SimulationGrid(n_z=np.int64(64))
        assert type(grid.n_z) is int and grid.wavenumbers.shape == (64,)

    @pytest.mark.parametrize("n_z", [64, 63])
    def test_wavenumbers_odd_under_the_mirror(self, n_z):
        # z -> -z maps sample j to -j (mod n_z) and wavenumber q to -q; the
        # Nyquist column of an even grid has no sign, so it must be held at 0
        q = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=n_z).wavenumbers
        assert np.array_equal(np.roll(q[::-1], 1), -q)
        assert np.count_nonzero(q) == 62  # only q = 0 and, at n_z 64, Nyquist

    def test_polariton_field_validation(self):
        with pytest.raises(ValueError):
            PolaritonField(np.zeros(4, complex), np.zeros(5, complex))
        bad = np.array([1.0, np.nan], dtype=complex)
        with pytest.raises(ValueError):
            PolaritonField(bad, np.zeros(2, complex))

    def test_samples_must_be_one_equal_length_row_each(self):
        with pytest.raises(ValueError, match="psi_plus must be a 1-D array of samples"):
            PolaritonField(np.zeros((2, 4), complex), np.zeros(8, complex))
        with pytest.raises(ValueError, match="e_plus and e_minus must have equal length"):
            ProbeField(np.zeros(4, complex), np.zeros(5, complex))

    def test_polariton_density(self):
        field = PolaritonField(np.array([1 + 1j, 0]), np.array([0, 2j]))
        np.testing.assert_allclose(field.density(), [2.0, 4.0])

    def test_medium_validation(self):
        with pytest.raises(ValueError):
            MediumParams(gamma_ba=0.0)
        with pytest.raises(ValueError):
            MediumParams(l_a=-0.1)
        with pytest.raises(ValueError):
            MediumParams(Gamma_bc=-0.1 + 0.2j)

    def test_medium_derived_coupling(self):
        sched = CouplingSchedule.from_intensities(0.5)
        med = MediumParams(gamma_ba=100.0, l_a=0.1)
        c = sched.vacuum_speed
        assert c == pytest.approx(100.0, rel=1e-12)
        g = med.collective_coupling(sched)
        assert c * med.gamma_ba / g ** 2 == pytest.approx(med.l_a, rel=1e-12)

    @pytest.mark.parametrize("medium", [MediumParams(l_a=5e-324),
                                        MediumParams(gamma_ba=1e308, l_a=0.1)])
    def test_non_finite_coupling_refused(self, medium):
        # sqrt(c gamma_ba / l_a) is inf: the ladder divided inf by inf
        sched = CouplingSchedule.from_intensities(0.5)
        with pytest.raises(ValueError, match="collective coupling non-finite"):
            medium.collective_coupling(sched)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "build,field",
    [
        pytest.param(lambda v: CouplingSchedule(v, 0.5), "kappa_plus", id="kappa_plus"),
        pytest.param(lambda v: CouplingSchedule(0.5, v), "kappa_minus", id="kappa_minus"),
        pytest.param(
            lambda v: CouplingSchedule(complex(0.5, v), 0.5), "kappa_plus", id="kappa_plus_imag"
        ),
        pytest.param(lambda v: MediumParams(gamma_ba=v), "gamma_ba", id="gamma_ba"),
        pytest.param(lambda v: MediumParams(l_a=v), "l_a", id="l_a"),
        pytest.param(lambda v: MediumParams(Gamma_bc=v), "Gamma_bc", id="Gamma_bc"),
        pytest.param(
            lambda v: MediumParams(Gamma_bc=complex(0.1, v)), "Gamma_bc", id="Gamma_bc_imag"
        ),
        pytest.param(lambda v: SimulationGrid(z_min=v), "z_min", id="z_min"),
        pytest.param(lambda v: SimulationGrid(z_max=v), "z_max", id="z_max"),
    ],
)
def test_parameter_types_reject_non_finite_values(build, field, bad):
    with pytest.raises(ValueError, match=field):
        build(bad)
