"""The benchmark's own tests: every check passes on a dataset built from the
closed forms and fails once that dataset is perturbed; failure accounting
and tracing behave as documented.  Run with `python3 -m pytest bench`."""

import math
import signal
import time

import numpy as np
import pytest

import checks
import run
import workloads
from spans import Tracer

Z = -10.0 + (20.0 / 2048) * np.arange(2048)
TIMES = np.linspace(0.0, 20.0, 100)


def gaussian_density(center, width_sq, weight=1.0):
    """Density weight * exp(-(z - c)^2 / W^2) normalised to unit integral * weight."""
    return weight * np.exp(-((Z - center) ** 2) / width_sq) / math.sqrt(math.pi * width_sq)


def split_frames(kappa_plus_sq, speed_scale=1.0, weight_scale=1.0):
    beta = checks.split_beta(kappa_plus_sq) * speed_scale
    share = checks.forward_fraction(kappa_plus_sq) * weight_scale
    r = checks.displacement(TIMES)
    return np.array([
        gaussian_density(beta * ri, 0.5, share) + gaussian_density(-beta * ri, 0.5, 1.0 - share)
        for ri in r
    ])


def width_frames(slope, times=TIMES, center=0.0):
    """Densities whose squared width W^2 = 2 var grows as 0.5 + slope * r(t)."""
    r = checks.displacement(times)
    return np.array([gaussian_density(center, 0.5 + slope * ri) for ri in r])


def test_stationary_profile():
    times = np.linspace(0.0, 10.0, 100)
    exact = checks.cos2_theta(times)[:, None] / checks.COS2_THETA0 * np.exp(-2.0 * Z ** 2)
    assert checks.stationary_profile(Z, times, exact) < 1e-9
    assert checks.stationary_profile(Z, times, 1.02 * exact) > 1.0


def test_width_slope_relative_and_absolute():
    assert checks.width_slope(Z, TIMES, width_frames(0.2), 0.2, rel=0.05) < 0.01
    assert checks.width_slope(Z, TIMES, width_frames(0.22), 0.2, rel=0.05) > 1.0
    assert checks.width_slope(Z, TIMES, width_frames(0.0), 0.0, abs_tol=0.01) < 1e-6
    assert checks.width_slope(Z, TIMES, width_frames(0.02), 0.0, abs_tol=0.01) > 1.0


def test_width_growth():
    times = np.linspace(0.0, 8.0, 100)
    assert checks.width_growth(Z, times, width_frames(0.2, times, -4.0), 0.1) < 0.01
    assert checks.width_growth(Z, times, width_frames(0.23, times, -4.0), 0.1) > 1.0


@pytest.mark.parametrize("kappa_plus_sq", [0.55, 0.45, 0.6])
def test_split_fraction_and_drift(kappa_plus_sq):
    exact = split_frames(kappa_plus_sq)
    assert checks.split_fraction(Z, exact[-1], kappa_plus_sq) < 1e-6
    assert checks.split_drift(Z, TIMES, exact, kappa_plus_sq) < 1e-3
    assert checks.split_fraction(Z, split_frames(kappa_plus_sq, weight_scale=1.05)[-1],
                                 kappa_plus_sq) > 1.0
    assert checks.split_drift(Z, TIMES, split_frames(kappa_plus_sq, speed_scale=1.05),
                              kappa_plus_sq) > 1.0


def test_mirrored_split_is_the_mirror_image():
    assert checks.forward_fraction(0.55) == pytest.approx(0.7132007163556104, abs=1e-12)
    assert checks.forward_fraction(0.45) == pytest.approx(1.0 - 0.7132007163556104, abs=1e-12)
    # a dataset with the 0.55 ordering fails the 0.45 expectation
    assert checks.split_fraction(Z, split_frames(0.55)[-1], 0.45) > 1.0


def test_thermal_drift():
    r = checks.displacement(TIMES)
    drift = 2 * 0.55 - 1.0
    frames = np.array([gaussian_density(drift * ri, 1.0 + 0.2 * ri) for ri in r])
    assert checks.thermal_drift(Z, TIMES, frames, 0.55) < 1e-3
    assert checks.thermal_drift(Z, TIMES, frames, 0.56) > 1.0


def test_frozen_profile():
    exact = np.tile(np.exp(-2.0 * Z ** 2), (5, 1))
    assert checks.frozen_profile(Z, exact) < 1e-6
    assert checks.frozen_profile(Z, exact + 1e-7) > 1.0


def test_coefficient_table():
    header = "y,a0,a1,d0,d1,delta_a0,delta_a1,delta_d0,delta_d1".split(",")
    rows = []
    for y in (0.0, 0.5, 0.99):
        w = math.sqrt(1.0 - y * y)
        d0 = 2.0 / w ** 3
        rows.append([y, 2.0 / w, -2.0 * y / ((1.0 + w) * w), d0, -y * d0, 0, 0, 0, 0])
    rows = np.array(rows)
    assert checks.coefficient_table(header, rows) < 0.1
    perturbed = rows.copy()
    perturbed[1, 2] *= 1.0 + 1e-9
    assert checks.coefficient_table(header, perturbed) > 1.0
    reported = rows.copy()
    reported[2, 8] = 2e-10
    assert checks.coefficient_table(header, reported) > 1.0


def test_ladder_retrieval():
    psi0 = np.exp(-(Z ** 2))
    amplitude = math.sqrt(float(checks.cos2_theta(4.0)) * 0.5)
    e = amplitude * psi0
    assert checks.ladder_retrieval(e, e, psi0, 0.5, 4.0) < 1e-12
    assert checks.ladder_retrieval(1.06 * e, 1.06 * e, psi0, 0.5, 4.0) > 1.0


def test_read_heatmap_round_trip(tmp_path):
    z = Z[::64]
    times = np.array([0.0, 0.5, 1.0])
    frames = np.outer(times + 1.0, np.exp(-(z ** 2)))
    lines = ["z,t,value"] + [
        f"{zi:.12g},{t:.12g},{v:.12g}" for t, row in zip(times, frames) for zi, v in zip(z, row)
    ]
    path = tmp_path / "heat.csv"
    path.write_text("\n".join(lines) + "\n")
    got_z, got_t, got = checks.read_heatmap(path)
    np.testing.assert_allclose(got_z, z, rtol=1e-11)
    np.testing.assert_allclose(got_t, times)
    np.testing.assert_allclose(got, frames, rtol=1e-11)


def test_seed_zero_is_the_paper_defaults_and_bands_separate_the_pulses(tmp_path):
    lib = run.load_library()
    names = {w: [op.name for op in workloads.build(w, 0, tmp_path, lib)] for w in workloads.WORKLOADS}
    assert len(names["figures"]) == 5 and len(names["spectral"]) == 4
    assert names["ladder"] == ["ladder_gamma10", "ladder_gamma100"]
    rng = workloads.random.Random(11)
    for _ in range(50):
        kp = workloads._band_kappa_plus_sq(rng, 20.0)
        separation = checks.split_beta(kp) * float(checks.displacement(20.0))
        assert 3.0 - 1e-4 <= separation <= 7.0 + 1e-4


def _op(name, execute, digest=lambda result: "same", ratio=0.5):
    return workloads.Op(name, execute, lambda result: {"c": ratio}, digest)


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_raise_and_timeout_count_as_failures_without_wrong_output(alarm):
    def boom():
        raise ValueError("bad ordering")

    def hang():
        end = time.perf_counter() + 30.0
        while time.perf_counter() < end:
            time.sleep(0.01)

    runner = run.Runner([_op("boom", boom), _op("ok", lambda: 1)], time.perf_counter() + 60)
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.correct) == (2, 1, True)

    runner = run.Runner([_op("hang", hang)], time.perf_counter() + 0.2)
    started = time.perf_counter()
    runner.run_pass()
    assert time.perf_counter() - started < 5.0
    assert runner.failed == 1 and "timed out" in runner.notes[0]


def test_failed_check_and_changed_bytes_mark_output_wrong(alarm):
    runner = run.Runner([_op("off", lambda: 1, ratio=1.5)], time.perf_counter() + 60)
    runner.run_pass()
    assert runner.failed == 1 and not runner.correct

    counter = iter(range(10))
    runner = run.Runner([_op("drift", lambda: next(counter), digest=str)], time.perf_counter() + 60)
    runner.run_pass()
    assert runner.correct
    runner.recheck_determinism(seed=0)
    assert runner.failed == 1 and not runner.correct


def test_tracer_accounts_for_the_wall_time_and_restores_the_package(tmp_path):
    lib = run.load_library()
    cli = lib.cli
    originals = (cli.run_scenario, cli.cold_adiabatic_evolve, np.fft.fft)
    settings = {"scenario": "fig3_quasi_cold", "out_dir": str(tmp_path), "n_z": 64,
                "t_max": 2.0, "n_snapshots": 5}
    with Tracer(lib) as tracer:
        start = time.perf_counter()
        artifacts = cli.run_scenario(cli.parse_config(None, settings))
        wall = time.perf_counter() - start
    assert (cli.run_scenario, cli.cold_adiabatic_evolve, np.fft.fft) == originals
    layers = tracer.layer_metrics()
    assert layers["solver.calls"] == 1 and layers["solver.steps"] > 0
    assert layers["solver.fft_calls"] == 4 * 4 * layers["solver.steps"]
    assert layers["analytic.calls"] >= 5 and layers["analytic.fft_calls"] > 0
    assert layers["cli.serialize_calls"] == 4
    written = sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
    assert layers["cli.serialize_bytes"] == written
    assert layers["cli.serialize_rows"] >= 2 * 5 * 64
    assert layers["trace.self_sum_s"] == pytest.approx(wall, rel=0.05)
    assert artifacts.metrics_file.is_file()
