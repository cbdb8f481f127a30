"""The library's refusals, one row each, and the values accepted at their bounds.

A row of ``_LIBRARY_REFUSALS`` is a zero-argument call, the exact exception
class it raises (``SolverError`` exits 3 from the CLI, ``ValueError`` 2), a
literal piece of its message, whether the call may transform before it
refuses, and the module attributes patched while it runs.  Each row raises
within 5 s, with no RuntimeWarning, and with ``np.fft``'s fft, ifft, rfft and
irfft never called unless the row allows them.  A new refusal is one more row.
"""

import dataclasses
import functools
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
    PulseMetrics,
    SimulationGrid,
    SolverError,
    coeff_a,
    coeff_d,
    cold_adiabatic_evolve,
    cold_transport_evolve,
    compute_metrics,
    core,
    cos2_theta,
    displacement_r,
    evolve_cold_numeric,
    evolve_mb_harmonics,
    gaussian_profile,
    group_velocity,
    initial_split,
    nonadiabatic_spectral_evolve,
    probe_from_polariton,
    quadrature_oracle,
    raman_harmonics,
    solver,
    thermal_adiabatic_evolve,
    variance_growth_rate,
)
from stationary_light.analytic import _dispersive_modes
from stationary_light.solver import _plan_steps, _rk4

GRID = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=512)
SMALL = SimulationGrid(n_z=64)
PSI0 = gaussian_profile(GRID)
SPIN = -gaussian_profile(SMALL)
ZEROS = np.zeros(SMALL.n_z, complex)
PROBE = ProbeField(ZEROS, ZEROS)
OFF_GRID = ProbeField(np.zeros(12, complex), np.zeros(12, complex))
# schedules by |kappa+|^2
S = {kp2: CouplingSchedule.from_intensities(kp2) for kp2 in (0.45, 0.5, 0.55, 0.6, 0.7)}
NON_FINITE = (math.nan, math.inf, -math.inf)


def _ladder(n=2, t_end=1.0, probe=PROBE, medium=MediumParams(), spin=SPIN, schedule=S[0.5],
            **options):
    return functools.partial(evolve_mb_harmonics, probe, schedule, medium, SMALL, n, t_end,
                             initial_sigma_bc0=spin, **options)


def _split(kp2, psi0=PSI0, time_stamp=0.0):
    return dataclasses.replace(initial_split(psi0, S[kp2]), time_stamp=time_stamp)


def _widths(times, edges=None):
    """PulseMetrics at `times` with W^2 = 0.5 + 0.2 r(t) and the edge shares `edges`."""
    return [PulseMetrics(1.0, 0.0, (0.5 + 0.2 * float(displacement_r(t))) / 2.0, 0.5, t, edge)
            for t, edge in zip(times, edges or [0.0] * len(times))]


def _no_stages(*args):
    raise AssertionError("a chunk of stages was factored")


def _no_transform(*args, **kwargs):
    raise AssertionError("a transform ran")


def _blow_up(h):
    # the Horner factors x/k of x = ihP with P = -1e8 i, so x = 1e8 h: v grows
    # by about (1e8 h)^4 / 24 = 4e26 a step of 0.1, and |v|^2 overflows after six
    return [functools.partial(np.multiply, 1e8 * h / k) for k in (4.0, 3.0, 2.0, 1.0)]


#: callables of one time t, each refused at a non-finite t
TIME_FUNCTIONS = {
    "cos2_theta": lambda t: cos2_theta(S[0.5], t),
    "cos2_theta_array": lambda t: cos2_theta(S[0.5], np.array([1.0, t])),
    "displacement_r": displacement_r,
    "displacement_r_array": lambda t: displacement_r(np.array([1.0, t])),
    "cold_adiabatic_evolve": lambda t: cold_adiabatic_evolve(PSI0, GRID, S[0.5], MediumParams(),
                                                             [1.0, t]),
    "raman_harmonics": lambda t: raman_harmonics(PSI0, GRID, S[0.55], t, 2),
    "probe_from_polariton": lambda t: probe_from_polariton(_split(0.5, time_stamp=t), S[0.5]),
    "spectral_quasi_standing": lambda t: nonadiabatic_spectral_evolve(
        PSI0, GRID, S[0.7], MediumParams(l_a=0.1), [1.0, t]),
    "spectral_standing": lambda t: nonadiabatic_spectral_evolve(
        PSI0, GRID, S[0.5], MediumParams(l_a=0.0), [1.0, t]),
    "thermal_adiabatic_evolve": lambda t: thermal_adiabatic_evolve(
        PSI0, GRID, S[0.55], MediumParams(Gamma_bc=0.2 + 0.3j, l_a=0.1), [1.0, t]),
    "cold_transport_evolve": lambda t: cold_transport_evolve(
        _split(0.45), GRID, S[0.45], MediumParams(Gamma_bc=0.3 + 0.2j), [1.0, t]),
}

#: callables of one stored profile psi0 on GRID
PROFILE_FUNCTIONS = {
    "cold_adiabatic_evolve": lambda psi0: cold_adiabatic_evolve(psi0, GRID, S[0.55],
                                                                MediumParams(), [1.0]),
    "raman_harmonics": lambda psi0: raman_harmonics(psi0, GRID, S[0.45], 1.0, 2),
    "thermal_adiabatic_evolve": lambda psi0: thermal_adiabatic_evolve(
        psi0, GRID, S[0.55], MediumParams(l_a=0.1), [1.0]),
    "nonadiabatic_spectral_evolve": lambda psi0: nonadiabatic_spectral_evolve(
        psi0, GRID, S[0.7], MediumParams(l_a=0.1), [1.0]),
    "cold_transport_evolve": lambda psi0: cold_transport_evolve(
        initial_split(psi0, S[0.45]), GRID, S[0.45], MediumParams(), [1.0]),
}


def _with(values, index, bad):
    values = values.copy()
    values[index] = bad
    return values


def _row(name, call, error, message, transforms=False, patches=()):
    return pytest.param(call, error, message, transforms, patches, id=name)


# a step of 3 columns costs its transforms' price; 20 steps of 0.1 to t 2
_RK4_WORK = 20 * (solver._transform_units(3) + solver._RK4_STEP_UNITS)
_NO_STAGES = ((solver, "_LadderStages", _no_stages),)
_FIT_TIMES = np.linspace(0, 8, 9)

_LIBRARY_REFUSALS = [
    # core: times, schedules, grids, fields and media
    *(_row(f"negative-time-{name}-{kind}", functools.partial(function, t), ValueError,
           "t must be finite and non-negative")
      for name, function in (("cos2_theta", functools.partial(cos2_theta, S[0.5])),
                             ("displacement_r", displacement_r),
                             ("group_velocity", group_velocity))
      for kind, t in (("scalar", -0.1), ("list", [0.0, -0.1]),
                      ("array", np.array([1.0, -5e-324])))),
    _row("decay-law-negative-time",
         functools.partial(core._ground_state_decay, S[0.5], 0.05, [1.0, -1.0], np.zeros(2)),
         ValueError, "t must be finite and non-negative"),
    *(_row(f"kappa_plus_sq-{bad}", functools.partial(CouplingSchedule.from_intensities, bad),
           ValueError, f"kappa_plus_sq must lie in [0, 1], got {bad}") for bad in (1.2, -0.1)),
    _row("zero-amplitudes", functools.partial(CouplingSchedule, 0.0, 0.0), ValueError,
         "at least one coupling amplitude must be non-zero"),
    *(_row(f"cos2_theta0-{bad}",
           functools.partial(CouplingSchedule.from_intensities, 0.5, cos2_theta0=bad),
           ValueError, f"cos2_theta0 must be a normal float in (0, 1), got {bad}")
      for bad in (0.0, 1.0, -0.1, 1.5, math.nan, 5e-324, 1e-320)),
    *(_row(f"n_z-{n_z!r}", functools.partial(SimulationGrid, n_z=n_z), ValueError,
           f"n_z must be an integer of at least 16, got {n_z!r}")
      for n_z in ("64", 100.5, 64.0, math.nan, True, np.True_, None, 8)),
    _row("inverted-grid", functools.partial(SimulationGrid, z_min=1.0, z_max=-1.0), ValueError,
         "z_max must exceed z_min, got [1.0, -1.0]"),
    _row("grid-span-overflows", functools.partial(SimulationGrid, z_min=-1e308, z_max=1e308),
         ValueError, "grid span overflows: dz = inf on [-1e+308, 1e+308]"),
    _row("unequal-polariton-samples",
         functools.partial(PolaritonField, np.zeros(4, complex), np.zeros(5, complex)),
         ValueError, "psi_plus and psi_minus must have equal length"),
    _row("non-finite-polariton-samples",
         functools.partial(PolaritonField, np.array([1.0, np.nan], complex), np.zeros(2, complex)),
         ValueError, "psi_plus contains non-finite entries"),
    _row("polariton-samples-not-one-row",
         functools.partial(PolaritonField, np.zeros((2, 4), complex), np.zeros(8, complex)),
         ValueError, "psi_plus must be a 1-D array of samples"),
    _row("unequal-probe-samples",
         functools.partial(ProbeField, np.zeros(4, complex), np.zeros(5, complex)),
         ValueError, "e_plus and e_minus must have equal length"),
    _row("gamma_ba-zero", functools.partial(MediumParams, gamma_ba=0.0), ValueError,
         "gamma_ba must be positive, got 0.0"),
    _row("l_a-negative", functools.partial(MediumParams, l_a=-0.1), ValueError,
         "l_a must be non-negative, got -0.1"),
    *(_row(f"Gamma_bc-{bad}", functools.partial(MediumParams, Gamma_bc=bad), ValueError, message)
      for bad, message in ((-0.1 + 0.2j, "Re(Gamma_bc) must be non-negative, got (-0.1+0.2j)"),
                           (-1.0, "Re(Gamma_bc) must be non-negative, got -1.0"),
                           (complex(0.0, math.inf), "Gamma_bc must be finite, got infj"))),
    *(_row(f"collective-coupling-{medium.l_a:g}-{medium.gamma_ba:g}",
           functools.partial(medium.collective_coupling, S[0.5]), ValueError,
           f"l_a = {medium.l_a:g} and gamma_ba = {medium.gamma_ba:g} make the collective "
           f"coupling non-finite")
      for medium in (MediumParams(l_a=5e-324), MediumParams(gamma_ba=1e308, l_a=0.1))),
    *(_row(f"non-finite-{name}-{bad}", functools.partial(build, bad), ValueError,
           f"{name.removesuffix('_imag')} must be finite, got ")
      for name, build in (
          ("kappa_plus", lambda v: CouplingSchedule(v, 0.5)),
          ("kappa_minus", lambda v: CouplingSchedule(0.5, v)),
          ("kappa_plus_imag", lambda v: CouplingSchedule(complex(0.5, v), 0.5)),
          ("gamma_ba", lambda v: MediumParams(gamma_ba=v)),
          ("l_a", lambda v: MediumParams(l_a=v)),
          ("Gamma_bc", lambda v: MediumParams(Gamma_bc=v)),
          ("Gamma_bc_imag", lambda v: MediumParams(Gamma_bc=complex(0.1, v))),
          ("z_min", lambda v: SimulationGrid(z_min=v)),
          ("z_max", lambda v: SimulationGrid(z_max=v)))
      for bad in NON_FINITE),
    # analytic: every closed form checks its times, profile and medium first
    *(_row(f"non-finite-time-{name}-{t}", functools.partial(TIME_FUNCTIONS[name], t), ValueError,
           "t must be finite and non-negative") for name in TIME_FUNCTIONS for t in NON_FINITE),
    *(_row(f"non-finite-profile-{name}-{bad}",
           functools.partial(PROFILE_FUNCTIONS[name], _with(PSI0, GRID.n_z // 2, bad)),
           ValueError, "psi0 contains non-finite entries")
      for name in PROFILE_FUNCTIONS for bad in (math.nan, math.inf, complex(1.0, -math.inf))),
    *(_row(f"off-grid-profile-{name}",
           functools.partial(PROFILE_FUNCTIONS[name], np.ones(GRID.n_z - 1, complex)),
           ValueError, "the stored profile or initial pair must be sampled on the grid")
      for name in PROFILE_FUNCTIONS),
    _row("off-grid-profile-longer",
         functools.partial(nonadiabatic_spectral_evolve, np.ones(GRID.n_z + 1), GRID, S[0.7],
                           MediumParams(), [1.0]),
         ValueError, "the stored profile or initial pair must be sampled on the grid"),
    _row("restart-before-the-initial-time",
         functools.partial(cold_transport_evolve, _split(0.7, time_stamp=1.3), GRID, S[0.7],
                           MediumParams(), [4.0, 0.5]),
         ValueError, "time 0.5 precedes the initial field's time_stamp 1.3"),
    *(_row(f"n_max-{n_max!r}", functools.partial(raman_harmonics, PSI0, GRID, S[0.55], 1.0, n_max),
           ValueError, f"n_max must be an integer of at least 0, got {n_max!r}")
      for n_max in (-1, 2.5, math.nan, "3", 3.0, True, np.True_, None)),
    *(_row(f"mirrored-ordering-{l_a}",
           functools.partial(nonadiabatic_spectral_evolve, PSI0, GRID, S[0.45],
                             MediumParams(l_a=l_a), [1.0]),
           ValueError, f"at l_a = {l_a:g} the dispersive propagator requires |kappa+| > "
                       "|kappa-|; mirror the problem for the opposite ordering")
      for l_a in (1e-6, 0.1)),
    *(_row(f"mode-function-ordering-{kp2}",
           functools.partial(_dispersive_modes, S[kp2], 0.1, SMALL.wavenumbers),
           ValueError, "at l_a = 0.1 the dispersive propagator requires |kappa+| > |kappa-|; "
                       "mirror the problem") for kp2 in (0.5, 0.45)),
    *(_row(f"bad-absorption-length-{kp2}-{l_a}",
           lambda kp2=kp2, l_a=l_a: nonadiabatic_spectral_evolve(
               PSI0, GRID, S[kp2], MediumParams(l_a=l_a), [1.0]),
           ValueError, message)
      for l_a, message in ((-1.0, "l_a must be non-negative, got -1.0"),
                           (math.nan, "l_a must be finite, got nan"),
                           (math.inf, "l_a must be finite, got inf"))
      for kp2 in (0.5, 0.7)),
    *(_row(f"huge-absorption-length-{kp2}",
           functools.partial(nonadiabatic_spectral_evolve, PSI0, GRID,
                             CouplingSchedule.from_intensities(kp2), MediumParams(l_a=1e300),
                             [1.0]),
           ValueError, "l_a = 1e+300 makes the dispersion length or the mode rates non-finite on "
                       "this grid") for kp2 in (0.7, 0.5 + 1e-9)),
    *(_row(f"overflowing-thermal-factors-{name}-{kp2}",
           functools.partial(thermal_adiabatic_evolve, gaussian_profile(grid), grid, S[kp2],
                             MediumParams(l_a=l_a), [1.0]),
           ValueError, f"l_a = {l_a:g} makes the thermal mode factors non-finite on the grid "
                       f"[{grid.z_min:g}, {grid.z_max:g}) of {grid.n_z} points")
      for name, grid, l_a in (("huge-l_a", SimulationGrid(n_z=256), 1e308),
                              # the wavenumbers' squares overflow, so every l_a is refused
                              ("tiny-grid", SimulationGrid(z_min=-1e-200, z_max=1e-200, n_z=64),
                               0.1))
      for kp2 in (0.55, 0.45)),
    # solver: the cold stepper, its RK4 and plan, and the ladder
    _row("cold-stepper-overflowing-field",
         functools.partial(evolve_cold_numeric, _split(0.55, -1e160 * SPIN), S[0.55],
                           MediumParams(), SMALL, 1.0),
         SolverError, "non-finite field norm at r = 0 (blow-up)"),
    # the cold stepper's work rule prices a step by its transforms: steps of
    # dz/2 in r on 16384 points to t 20 (r 19.3) take 31,633 steps of 16 FFTs;
    # 2,843 steps on 65536 points to t 1 took about a minute when a step was
    # priced per grid point; a prime size, which numpy transforms by Bluestein's
    # algorithm, costs about 10x the power of two beside it (291 steps to t 0.3
    # took about 80 s)
    *(_row(f"cold-stepper-work-{n_z}",
           lambda n_z=n_z, t_end=t_end: evolve_cold_numeric(
               initial_split(gaussian_profile(SimulationGrid(n_z=n_z)), S[0.55]), S[0.55],
               MediumParams(), SimulationGrid(n_z=n_z), t_end),
           SolverError, f"{steps} steps of {n_z} columns exceed the work budget of 2e+09 units")
      for n_z, t_end, steps in ((16384, 20.0, 31633), (65536, 1.0, 2843), (65521, 0.3, 291))),
    _row("cold-stepper-off-grid-field",
         functools.partial(evolve_cold_numeric, _split(0.5), S[0.5], MediumParams(), SMALL, 1.0),
         ValueError, "initial field must be sampled on the grid"),
    _row("cold-stepper-restart",
         functools.partial(evolve_cold_numeric, _split(0.5, time_stamp=1.3), S[0.5],
                           MediumParams(), GRID, 2.0),
         ValueError, "the stepper starts at the switch-on: the initial field's time_stamp must "
                     "be 0, got 1.3"),
    _row("cold-stepper-negative-horizon",
         functools.partial(evolve_cold_numeric, _split(0.5), S[0.5], MediumParams(), GRID, -1.0),
         ValueError, "t_end must be positive and finite, got -1.0"),
    *(_row(f"horizon-{name}-{label}", call, ValueError, message)
      for label, t_end, snapshots, message in (
          ("t_end_nan", math.nan, None, "t_end must be positive and finite, got nan"),
          ("t_end_inf", math.inf, None, "t_end must be positive and finite, got inf"),
          ("snapshot_nan", 2.0, [0.0, math.nan], "snapshot time nan outside [0, 2.0]"),
          ("snapshot_inf", 2.0, [math.inf], "snapshot time inf outside [0, 2.0]"))
      for name, call in (
          ("cold", functools.partial(evolve_cold_numeric, _split(0.55, SPIN), S[0.55],
                                     MediumParams(), SMALL, t_end, snapshot_times=snapshots)),
          ("ladder", _ladder(1, t_end, schedule=S[0.55], snapshot_times=snapshots)))),
    *(_row(f"horizon-thermal-{label}",
           functools.partial(thermal_adiabatic_evolve, -SPIN, SMALL, S[0.55], MediumParams(),
                             times),
           ValueError, "t must be finite and non-negative")
      for label, times in (("t_end_nan", [math.nan]), ("t_end_inf", [math.inf]),
                           ("snapshot_nan", [0.0, math.nan, 2.0]),
                           ("snapshot_inf", [math.inf, 2.0]))),
    _row("plan-past-the-float-range", functools.partial(_plan_steps, [1.0, 1e308], 1e-10),
         SolverError, "a span of 1e+308 in steps of at most 1e-10 has no finite step count"),
    # over the budget even a non-finite state is refused for its work; at it,
    # `_norm_sq` refuses it
    *(_row(f"rk4-{name}", lambda: _rk4(np.full(3, math.inf + 0j), [2.0], _plan_steps([2.0], 0.1),
                                       None, None),
           SolverError, message, patches=((solver, "_MAX_RK4_WORK", budget),))
      for name, budget, message in (
          ("work-before-the-norm-check", math.nextafter(_RK4_WORK, 0.0),
           "20 steps of 3 columns exceed the work budget of 1e+05 units"),
          ("norm-check-at-the-budget", _RK4_WORK, "non-finite field norm at r = 0 (blow-up)"))),
    _row("rk4-blow-up-at-the-step-it-happens",
         lambda: _rk4(np.array([1.0, 0.5 - 0.5j, -0.3j]), [2.0], _plan_steps([2.0], 0.1),
                      _blow_up, lambda v, t: None),
         SolverError, "non-finite field norm at r = 0.6 (blow-up)"),
    # t 1e9 is 1,581,139 steps in sqrt(t), about two minutes at N 2
    _row("ladder-unbounded-horizon", _ladder(t_end=1e9), SolverError,
         "1581139 steps of 33 columns of 9 rows exceed the work budget of 1e+10 units",
         transforms=True, patches=_NO_STAGES),
    _row("ladder-work-over-budget", _ladder(), SolverError,
         "rows exceed the work budget of 1e+03 units", transforms=True,
         patches=(*_NO_STAGES, (solver, "_MAX_LADDER_WORK", 1000))),
    # the count is checked first: the off-grid probe is never read
    *(_row(f"truncation-{n!r}", _ladder(n, probe=OFF_GRID), ValueError,
           f"truncation_N must be an integer of at least 1, got {n!r}")
      for n in ("3", 2.5, 2.0, math.nan, True, np.True_, None, 0)),
    # N bounds the ladder's memory
    _row("truncation-past-its-bound", _ladder(257, 4.0, spin=-np.ones(SMALL.n_z)), ValueError,
         "truncation_N must be at most 256, got 257", patches=_NO_STAGES),
    _row("ladder-off-grid-spin", _ladder(spin=np.zeros(12, complex)), ValueError,
         "initial_sigma_bc0 must be sampled on the grid"),
    _row("ladder-coupling-without-l_a", _ladder(medium=MediumParams(l_a=0.0)), ValueError,
         "need l_a > 0 to fix the coupling"),
    _row("ladder-off-grid-probe", _ladder(probe=OFF_GRID), ValueError,
         "initial probe field must be sampled on the grid"),
    _row("ladder-restart", _ladder(probe=ProbeField(ZEROS, ZEROS, time_stamp=3.0)), ValueError,
         "the ladder starts at the switch-on: the initial probe's time_stamp must be 0, got 3.0"),
    *(_row(f"ladder-non-finite-spin-{bad}", _ladder(spin=_with(SPIN, 5, bad)), ValueError,
           "initial_sigma_bc0 contains non-finite entries") for bad in (math.nan, math.inf)),
    # finite samples whose spectrum overflows: refused, not evolved as zeros
    _row("ladder-overflowing-spectrum", _ladder(2, 0.5, spin=np.full(SMALL.n_z, 1e308),
                                                schedule=S[0.6]),
         SolverError, "non-finite field norm at t = 0 (blow-up)", transforms=True),
    # a lowered diagonal coefficient makes the step unstable
    _row("ladder-unstable-step", _ladder(medium=MediumParams(gamma_ba=10.0, l_a=5e-4)),
         SolverError, "relative in the step to t = 0.0064 (unstable step)", transforms=True,
         patches=((solver, "_SDIRK_GAMMA", 0.2),)),
    # observables: moments and slope fits
    *(_row(f"split_at-{bad}", functools.partial(compute_metrics, _split(0.5), GRID, split_at=bad),
           ValueError, f"split_at must be finite, got {bad}") for bad in NON_FINITE),
    _row("zero-field", functools.partial(compute_metrics, PolaritonField(ZEROS, ZEROS, 2.5), SMALL),
         ValueError, "field is zero at t = 2.5: the pulse has fully decayed or lies off the grid"),
    *(_row(f"overflowing-density-{name}", functools.partial(compute_metrics, field, SMALL),
           ValueError, f"field density overflows at t = {t}: its moments are not finite")
      for name, field, t in (("polariton", PolaritonField(-1e200 * SPIN, ZEROS), 0),
                             ("probe", ProbeField(-1e200 * SPIN, ZEROS, time_stamp=3.0), 3))),
    _row("metrics-off-grid", functools.partial(compute_metrics, PROBE, GRID), ValueError,
         "field must be sampled on the grid"),
    _row("metrics-other-type", functools.partial(compute_metrics, np.zeros(GRID.n_z), GRID),
         TypeError, "expected PolaritonField or ProbeField, got ndarray"),
    *(_row(f"slope-{name}", functools.partial(variance_growth_rate, history), ValueError, message)
      for name, history, message in (
          ("two-samples", _widths([0.0, 1.0]),
           "need at least 3 metric samples to fit a slope against r(t)"),
          ("constant-displacement", _widths([3.0, 3.0, 3.0]),
           "displacement r(t) is constant over the samples; slope undefined"),
          # r = log cosh(t) spreads over about t^2 / 2
          ("unresolved-displacement", _widths([0.0, 1.5e-7, 3e-7]),
           "displacement r(t) spreads over 4.5e-14 < 1e-13, too little to resolve a slope "
           "above the moments' round-off"),
          # the share within 1 L_p of the grid's ends, whichever sample holds it
          ("pulse-wrapped-round-the-grid", _widths(_FIT_TIMES, [1e-3] * 4 + [1.1e-3] + [1e-3] * 4),
           "the pulse holds 0.0011 > 0.001 of its energy within 1 L_p of the periodic grid's "
           "edge"),
          # the squares of r in the fit overflow past 1.3e154
          ("displacement-past-the-fit-range", _widths([0.0, 5e154, 1e155]),
           "displacement r(t) reaches 1e+155 > 1e+150, where the slope fit's squares of r "
           "overflow"))),
    # fourier: grating coefficients and the quadrature oracle
    *(_row(f"{coeff.__name__}-{y}", functools.partial(coeff, y), ValueError,
           f"modulation depth y must lie in [0, 1), got {y}")
      for coeff in (coeff_a, coeff_d) for y in (1.0, 1.5, -0.1)),
    *(_row(f"harmonic-index-{n!r}", functools.partial(quadrature_oracle, n, 0.5, 1), ValueError,
           f"harmonic index n must be an integer of at least 0, got {n!r}")
      for n in ("1", 1.5, 1.0, math.nan, True, np.True_, None, -1)),
    _row("quadrature-power", functools.partial(quadrature_oracle, 0, 0.5, 3), ValueError,
         "power must be 1 or 2, got 3"),
    _row("quadrature-depth", functools.partial(quadrature_oracle, 0, 1.0 - 1e-7, 1), ValueError,
         "y must lie in [0, 1 - 1e-6], got 0.9999999"),
    # at the domain edge the integrals exceed what the absolute refinement
    # criterion can resolve in double precision
    _row("quadrature-edge-of-domain", functools.partial(quadrature_oracle, 0, 1.0 - 1e-6, 2),
         RuntimeError, "quadrature did not converge to 1e-12 for n=0, y=0.999999, power=2"),
]


@pytest.mark.parametrize("call, error, message, transforms, patches", _LIBRARY_REFUSALS)
def test_library_refusal(monkeypatch, call, error, message, transforms, patches):
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    if not transforms:
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, _no_transform)
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as refused:
            call()
    assert time.perf_counter() - started < 5.0
    assert type(refused.value) is error
    assert message in str(refused.value)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("name", ["cold_adiabatic_evolve", "spectral_quasi_standing",
                                  "spectral_standing", "thermal_adiabatic_evolve",
                                  "cold_transport_evolve"])
def test_horizon_at_the_float_range_warns_nothing(name):
    # a phase or rate times r(1.7e308) overflows; the field it feeds either
    # stays finite or is refused as non-finite, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fields = TIME_FUNCTIONS[name](1.7e308)
        except ValueError as exc:
            assert "non-finite" in str(exc)
        else:
            assert all(np.all(np.isfinite(field.density())) for field in fields)


#: (call, what it returns) at the edge of each bound that a refusal above draws
_ACCEPTED_AT_THE_BOUNDS = [
    pytest.param(lambda: (SimulationGrid(n_z=2048).dz, SimulationGrid(n_z=2048).z.shape),
                 (pytest.approx(20.0 / 2048), (2048,)), id="grid-spacing"),
    pytest.param(lambda: (type(SimulationGrid(n_z=np.int64(64)).n_z),
                          SimulationGrid(n_z=np.int64(64)).wavenumbers.shape),
                 (int, (64,)), id="numpy-integer-n_z"),
    pytest.param(lambda: CouplingSchedule(1.0, 0.0, np.finfo(float).tiny).cos2_theta0,
                 2.2250738585072014e-308, id="smallest-normal-cos2_theta0"),
    # past the float range a dephasing gives 0 and a bare detuning a nan
    # phase, which the field it scales refuses
    pytest.param(lambda: core._ground_state_decay(S[0.5], 1e300 - 1e300j, [0.0, 1e10],
                                                  displacement_r([0.0, 1e10])).tolist(),
                 [1.0, 0.0], id="decay-past-the-float-range"),
    pytest.param(lambda: np.isnan(core._ground_state_decay(S[0.5], -1e300j, [0.0, 1e10],
                                                           displacement_r([0.0, 1e10]))).tolist(),
                 [False, True], id="detuning-past-the-float-range"),
    pytest.param(lambda: sorted(raman_harmonics(PSI0, GRID, S[0.55], 1.0, np.int64(2))),
                 [-4, -2, 0, 2, 4], id="numpy-integer-n_max"),
    pytest.param(lambda: list(raman_harmonics(PSI0, GRID, S[0.55], 1.0, 0)), [0], id="n_max-0"),
    pytest.param(lambda: np.array_equal(_ladder(2, 0.05)()[-1].e_plus,
                                        _ladder(np.int64(2), 0.05)()[-1].e_plus),
                 True, id="numpy-integer-truncation"),
    # one step's factored stages at N 256 hold 24 MiB with a real Gamma_bc,
    # 48 MiB with a complex one
    pytest.param(lambda: [3 * solver._LadderStages.stage_bytes(4 * 256 - 1, 1, itemsize) / 2 ** 20
                          for itemsize in (8, 16)],
                 [pytest.approx(24.0, abs=0.1), pytest.approx(48.0, abs=0.2)],
                 id="stage-memory-at-the-truncation-bound"),
    pytest.param(lambda: quadrature_oracle(np.int64(1), 0.5, 1), quadrature_oracle(1, 0.5, 1),
                 id="numpy-integer-harmonic-index"),
    # any finite step count is planned; the steppers' work rules bound it
    pytest.param(lambda: _plan_steps([1e9], 0.25), [(1e9, 4_000_000_000, 0.25)],
                 id="plan-of-a-finite-step-count"),
    pytest.param(lambda: variance_growth_rate(_widths([0.0, 2.5e-7, 5e-7])),
                 pytest.approx(0.2, abs=0.01), id="resolved-displacement"),
    pytest.param(lambda: variance_growth_rate(_widths(_FIT_TIMES, [1e-3] * 9)),
                 pytest.approx(0.2, rel=1e-10), id="edge-share-at-its-bound"),
    pytest.param(lambda: variance_growth_rate(_widths([0.0, 5e149, 1e150])),
                 pytest.approx(0.2, rel=1e-12), id="displacement-at-the-fit-range"),
]


@pytest.mark.parametrize("call, want", _ACCEPTED_AT_THE_BOUNDS)
def test_accepted_at_the_bounds(call, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call() == want
