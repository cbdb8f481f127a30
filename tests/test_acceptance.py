"""Acceptance suite: one test per release criterion.

Each test exercises its criterion at full scale, asserts the stated
tolerance (and runtime budget where one is stated), and prints a one-line
PASS summary with the measured numbers (visible with `pytest -s`).
"""

import math
import time

import numpy as np
import pytest

from stationary_light import (
    CouplingSchedule,
    MediumParams,
    ProbeField,
    SimulationGrid,
    beta,
    coeff_a,
    coeff_d,
    cold_adiabatic_evolve,
    cold_transport_evolve,
    compute_metrics,
    cos2_theta,
    displacement_r,
    evolve_cold_numeric,
    evolve_mb_harmonics,
    gaussian_profile,
    initial_split,
    nonadiabatic_spectral_evolve,
    probe_from_polariton,
    quadrature_oracle,
    raman_harmonics,
    thermal_adiabatic_evolve,
    variance_growth_rate,
)


def report(criterion, detail):
    print(f"CRITERION {criterion}: PASS - {detail}")


def rel_l2(got_pair, ref_pair):
    got = np.concatenate(got_pair)
    ref = np.concatenate(ref_pair)
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def sum_mode(field, schedule):
    return np.conj(schedule.kappa_plus) * field.psi_plus + np.conj(
        schedule.kappa_minus
    ) * field.psi_minus


def test_c01_fourier_coefficient_suite():
    started = time.perf_counter()
    y_values = [0.05 * i for i in range(20)] + [0.99]
    worst = 0.0
    for y in y_values:
        a0, a1 = coeff_a(y)
        d0, d1 = coeff_d(y)
        worst = max(
            worst,
            abs(a0 - quadrature_oracle(0, y, 1)),
            abs(a1 - quadrature_oracle(1, y, 1)),
            abs(d0 - quadrature_oracle(0, y, 2)),
            abs(d1 - quadrature_oracle(1, y, 2)),
        )
        assert worst < 1e-10
        w = math.sqrt(1.0 - y * y)
        assert abs(a0 * w - 2.0) < 1e-12
        assert abs(d1 + y * d0) < 1e-12 * max(1.0, abs(d0))
        if y > 0:
            assert abs(a1 / a0 - (w - 1.0) / y) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"max closed-form vs oracle delta {worst:.2e}, {elapsed:.2f}s")


def test_c02_standing_wave_retrieval_cold():
    started = time.perf_counter()
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=2048)
    sched = CouplingSchedule.from_intensities(0.5)
    medium = MediumParams(Gamma_bc=0.0)
    psi0 = gaussian_profile(grid)
    t_end = 10.0
    snapshot_times = np.arange(2.0, t_end + 0.5, 1.0)
    fields = cold_transport_evolve(initial_split(psi0, sched), grid, sched, medium, snapshot_times)

    # analytic stationary profile: (cos th(t)/cos th0)^2 e^{-2 z^2} in |E0|^2 units
    probe = probe_from_polariton(fields[-1], sched)
    density = probe.density() / sched.cos2_theta0
    scale = cos2_theta(sched, t_end) / sched.cos2_theta0
    expected = scale * np.exp(-2.0 * grid.z ** 2)
    linf = np.max(np.abs(density - expected)) / np.max(expected)
    assert linf < 0.01

    history = [compute_metrics(snap, grid) for snap in fields]  # t >= 2
    slope = variance_growth_rate(history, sched)
    assert abs(slope) < 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"L_inf dev {linf:.2e}, width-sq slope {slope:.2e} L_p, {elapsed:.1f}s")


def test_c03_standing_wave_retrieval_thermal():
    started = time.perf_counter()
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=1024)
    sched = CouplingSchedule.from_intensities(0.5)
    medium = MediumParams(l_a=0.1, Gamma_bc=0.0)
    psi0 = gaussian_profile(grid)
    times = np.arange(0.0, 10.5, 1.0)
    fields = thermal_adiabatic_evolve(psi0, grid, sched, medium, times)
    history = [
        compute_metrics(
            ProbeField(sum_mode(snap, sched), np.zeros(grid.n_z), time_stamp=snap.time_stamp),
            grid,
        )
        for snap in fields
    ]
    slope = variance_growth_rate(history, sched)
    expected = 2.0 * medium.l_a * 4.0 * sched.kappa_plus_sq * sched.kappa_minus_sq
    assert slope == pytest.approx(expected, rel=0.05)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"|Psi_S|^2 width-sq slope {slope:.4f} vs {expected} L_p, {elapsed:.1f}s")


def test_c04_quasi_standing_split_cold():
    started = time.perf_counter()
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=2048)
    sched = CouplingSchedule.from_intensities(0.55)
    medium = MediumParams(Gamma_bc=0.0)
    psi0 = gaussian_profile(grid)
    t_end = 22.0
    times = [18.0, 20.0, 22.0]  # beta * r >= 4 pulse lengths: fully separated
    fields = evolve_cold_numeric(
        initial_split(psi0, sched), sched, medium, grid, t_end, snapshot_times=times
    )

    z = grid.z
    r_vals, fwd_centroids, bwd_centroids = [], [], []
    for snap in fields[1:]:  # the requested times, after t = 0
        density = snap.density()
        fwd = z > 0
        r_vals.append(float(displacement_r(sched, snap.time_stamp)))
        fwd_centroids.append(np.sum(z[fwd] * density[fwd]) / np.sum(density[fwd]))
        bwd_centroids.append(np.sum(z[~fwd] * density[~fwd]) / np.sum(density[~fwd]))
    beta_expected = beta(sched)
    assert beta_expected == pytest.approx(0.23452078799117149, abs=1e-12)
    fwd_slope = np.polyfit(r_vals, fwd_centroids, 1)[0]
    bwd_slope = np.polyfit(r_vals, bwd_centroids, 1)[0]
    assert fwd_slope == pytest.approx(beta_expected, rel=0.02)
    assert bwd_slope == pytest.approx(-beta_expected, rel=0.02)

    metrics = compute_metrics(fields[-1], grid, split_at=0.0)
    # forward weight of the closed-form split, (1 + beta/|kappa+|^2)/2
    expected_fraction = 0.7132007163556104
    assert metrics.forward_fraction == pytest.approx(expected_fraction, rel=0.02)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        4,
        f"centroid slopes ({fwd_slope:.5f}, {bwd_slope:.5f}) vs +-{beta_expected:.5f}, "
        f"forward fraction {metrics.forward_fraction:.5f} vs {expected_fraction:.5f}, "
        f"{elapsed:.1f}s",
    )


def test_c05_quasi_standing_drift_thermal():
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=1024)
    sched = CouplingSchedule.from_intensities(0.55)
    medium = MediumParams(l_a=0.1, Gamma_bc=0.0)
    psi0 = gaussian_profile(grid)
    times = np.arange(0.0, 20.5, 2.0)
    fields = thermal_adiabatic_evolve(psi0, grid, sched, medium, times)
    r_vals, centroids, backward_max = [], [], 0.0
    for snap in fields:
        metrics = compute_metrics(snap, grid, split_at=-2.0)
        r_vals.append(float(displacement_r(sched, snap.time_stamp)))
        centroids.append(metrics.centroid)
        backward_max = max(backward_max, 1.0 - metrics.forward_fraction)
    slope = np.polyfit(r_vals, centroids, 1)[0]
    expected = sched.kappa_plus_sq - sched.kappa_minus_sq
    assert slope == pytest.approx(expected, rel=0.02)
    # no counter-propagating sub-pulse: energy behind the launch region stays
    # marginal at every recorded time (a split pulse would carry ~29% there)
    assert backward_max < 0.05
    report(
        5,
        f"drift slope {slope:.5f} vs {expected:.2f} v_g, "
        f"max backward fraction {backward_max:.4f}",
    )


@pytest.mark.parametrize("l_a", [0.0, 0.1, 1.0])
def test_c06_nonadiabatic_standing_wave_no_dispersion(l_a):
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=2048)
    sched = CouplingSchedule.from_intensities(0.5)
    psi0 = gaussian_profile(grid)
    (out,) = nonadiabatic_spectral_evolve(psi0, grid, sched, MediumParams(l_a=l_a), [10.0])
    target = psi0 / math.sqrt(2)
    dev = max(
        np.max(np.abs(out.psi_plus - target)), np.max(np.abs(out.psi_minus - target))
    )
    assert dev < 1e-8
    report(6, f"l_a={l_a}: max deviation from frozen profile {dev:.2e}")


def test_c07_nonadiabatic_traveling_wave_dispersion():
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=2048)
    sched = CouplingSchedule.from_intensities(1.0)
    l_a, t_end = 0.1, 8.0
    psi0 = gaussian_profile(grid, center=-4.0)
    start, end = nonadiabatic_spectral_evolve(
        psi0, grid, sched, MediumParams(l_a=l_a), [0.0, t_end]
    )
    m0 = compute_metrics(start, grid)
    m1 = compute_metrics(end, grid)
    growth = 2.0 * (m1.variance - m0.variance)
    expected = 2.0 * l_a * float(displacement_r(sched, t_end))
    assert growth == pytest.approx(expected, rel=0.05)
    report(7, f"width-sq growth {growth:.4f} vs 2*l_a*r = {expected:.4f}")


def test_c08_ladder_oracle_validates_adiabatic_theory():
    started = time.perf_counter()
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
    sched = CouplingSchedule.from_intensities(0.5)
    psi0 = gaussian_profile(grid)
    zeros = np.zeros(grid.n_z, complex)
    t_end = 4.0
    # absorption length small enough that the beyond-first-order grating
    # losses stay inside the 5% validation budget (see the notes ledger)
    l_a = 5e-4

    (field_ref,) = cold_adiabatic_evolve(psi0, grid, sched, MediumParams(), [t_end])
    probe_ref = probe_from_polariton(field_ref, sched)
    errors = []
    for gamma_ba in (10.0, 30.0, 100.0, 300.0):
        medium = MediumParams(gamma_ba=gamma_ba, l_a=l_a, Gamma_bc=0.0)
        history = evolve_mb_harmonics(
            ProbeField(zeros, zeros), sched, medium, grid, 8, t_end,
            initial_sigma_bc0=-psi0,
        )
        final = history[-1]
        errors.append(
            rel_l2((final.e_plus, final.e_minus), (probe_ref.e_plus, probe_ref.e_minus))
        )
    assert errors[2] < 0.05  # gamma_ba * T_s = 100
    for earlier, later in zip(errors, errors[1:]):
        assert later <= earlier + 1e-5  # non-increasing within solver resolution
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    summary = ", ".join(f"{e:.4f}" for e in errors)
    report(8, f"rel L2 across gamma_ba*T_s (10,30,100,300) = [{summary}], {elapsed:.0f}s")


def test_c09_single_shell_matches_thermal_solver():
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
    sched = CouplingSchedule.from_intensities(0.55)
    medium = MediumParams(gamma_ba=100.0, l_a=0.1, Gamma_bc=0.0)
    psi0 = gaussian_profile(grid)
    zeros = np.zeros(grid.n_z, complex)
    t_end = 6.0
    history = evolve_mb_harmonics(
        ProbeField(zeros, zeros), sched, medium, grid, 1, t_end, initial_sigma_bc0=-psi0
    )
    final = history[-1]
    (thermal,) = thermal_adiabatic_evolve(psi0, grid, sched, medium, [t_end])
    probe = probe_from_polariton(thermal, sched)
    err = rel_l2((final.e_plus, final.e_minus), (probe.e_plus, probe.e_minus))
    assert err < 0.10
    report(9, f"dc-only ladder vs thermal solver rel L2 = {err:.4f}")


def test_c10_property_suites():
    started = time.perf_counter()
    grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=512)
    psi0 = gaussian_profile(grid, center=1.0)

    # mirror symmetry
    def mirrored(values):
        return np.roll(values[::-1], 1)

    (direct,) = cold_adiabatic_evolve(
        psi0, grid, CouplingSchedule.from_intensities(0.45), MediumParams(), [5.0]
    )
    (swapped,) = cold_adiabatic_evolve(
        mirrored(psi0), grid, CouplingSchedule.from_intensities(0.55), MediumParams(), [5.0]
    )
    assert np.max(np.abs(direct.psi_plus - mirrored(swapped.psi_minus))) < 1e-12
    assert np.max(np.abs(direct.psi_minus - mirrored(swapped.psi_plus))) < 1e-12

    # decay factorization: only the spin part dephases, by the integral of
    # Gamma_bc sin^2(theta) = Gamma_bc (t - cos^2(theta0) r(t))
    sched = CouplingSchedule.from_intensities(0.55)
    gamma = 0.3 + 0.2j
    (bare,) = cold_adiabatic_evolve(psi0, grid, sched, MediumParams(), [4.0])
    (damped,) = cold_adiabatic_evolve(psi0, grid, sched, MediumParams(Gamma_bc=gamma), [4.0])
    factor = np.exp(-gamma * (4.0 - sched.cos2_theta0 * math.log(math.cosh(4.0))))
    assert np.max(np.abs(damped.psi_plus - factor * bare.psi_plus)) < 1e-12
    assert np.max(np.abs(damped.psi_minus - factor * bare.psi_minus)) < 1e-12

    # norm conservation for the standing wave
    standing = CouplingSchedule.from_intensities(0.5)
    norms = [
        grid.dz * np.sum(field.density())
        for field in cold_adiabatic_evolve(psi0, grid, standing, MediumParams(), [0.0, 3.0, 7.0])
    ]
    assert max(norms) - min(norms) < 1e-12 * norms[0]

    # spin-harmonic ladder ratio and vanishing positive harmonics
    expansion = raman_harmonics(psi0, grid, sched, 4.0, n_max=4)
    ratio = -sched.kappa_minus / sched.kappa_plus
    for n in range(1, 4):
        upper = expansion[-2 * (n + 1)]
        lower = expansion[-2 * n]
        mask = np.abs(lower) > 1e-6
        assert np.max(np.abs(upper[mask] / lower[mask] - ratio)) < 1e-10
        assert np.all(expansion[2 * n] == 0.0)

    # transport-equation residual of the closed-form solution
    dt = 1e-3
    t_mid = 3.0
    now, ahead, behind = cold_adiabatic_evolve(
        psi0, grid, sched, MediumParams(Gamma_bc=gamma), [t_mid, t_mid + dt, t_mid - dt]
    )
    iq = 1j * grid.wavenumbers
    v = cos2_theta(sched, t_mid) / sched.cos2_theta0
    rate = gamma * (1.0 - cos2_theta(sched, t_mid))  # Gamma_bc sin^2(theta(t))
    kp, km = sched.kappa_plus, sched.kappa_minus
    res_p = (
        (ahead.psi_plus - behind.psi_plus) / (2 * dt)
        + rate * now.psi_plus
        + 0.55 * v * np.fft.ifft(iq * np.fft.fft(now.psi_plus))
        - kp * np.conj(km) * v * np.fft.ifft(iq * np.fft.fft(now.psi_minus))
    )
    res_m = (
        (ahead.psi_minus - behind.psi_minus) / (2 * dt)
        + rate * now.psi_minus
        - 0.55 * v * np.fft.ifft(iq * np.fft.fft(now.psi_minus))
        + np.conj(kp) * km * v * np.fft.ifft(iq * np.fft.fft(now.psi_plus))
    )
    scale = np.linalg.norm(np.concatenate([now.psi_plus, now.psi_minus]))
    residual = np.linalg.norm(np.concatenate([res_p, res_m]))
    assert residual < 1e-6 * scale

    # the first-principles ladder decays the spin rows only; the closed form's
    # decay factor D must carry that decay onto its probe (exp(-Gamma_bc t)
    # would leave 0.16 here, where the sin^2 law leaves 0.034)
    ladder_grid = SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
    working = CouplingSchedule.from_intensities(0.6, cos2_theta0=0.1)
    stored = gaussian_profile(ladder_grid)
    zeros = np.zeros(ladder_grid.n_z, complex)

    def ladder(decay):
        medium = MediumParams(gamma_ba=100.0, l_a=0.02, Gamma_bc=decay)
        final = evolve_mb_harmonics(ProbeField(zeros, zeros), working, medium, ladder_grid,
                                    8, 4.0, initial_sigma_bc0=-stored)[-1]
        return np.concatenate([final.e_plus, final.e_minus])

    def closed(decay):
        (final,) = cold_transport_evolve(initial_split(stored, working), ladder_grid, working,
                                         MediumParams(Gamma_bc=decay), [4.0])
        return np.concatenate([final.psi_plus, final.psi_minus])

    undamped = closed(0.0)
    factor = np.vdot(undamped, closed(0.5)) / np.vdot(undamped, undamped)
    damped = ladder(0.5)
    ladder_ratio = np.linalg.norm(damped - factor * ladder(0.0)) / np.linalg.norm(damped)
    assert ladder_ratio < 0.08

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(10, f"mirror/decay/norm/ladder/residual all green, residual {residual/scale:.2e}, "
               f"ladder decay ratio {ladder_ratio:.3f}, {elapsed:.1f}s")
