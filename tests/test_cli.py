import cmath
import dataclasses
import math
import random
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from stationary_light import (
    cli, cold_adiabatic_evolve, core, gaussian_profile, probe_from_polariton,
)
from stationary_light.cli import (
    SCENARIO_CATALOG,
    ConfigError,
    ScenarioConfig,
    _write_heatmap,
    _write_table,
    main,
    parse_config,
    run_scenario,
)

README = Path(__file__).resolve().parents[1] / "README.md"

#: Every scenario that evolves a stored pulse (all but coeff_table).
FIELD_SCENARIOS = (
    "fig2_cold", "fig2_thermal", "fig3_quasi_cold", "fig4_compare",
    "nonadiabatic_standing", "nonadiabatic_traveling", "mb_convergence",
)


def tiny_overrides(tmp_path, scenario, **extra):
    base = {
        "scenario": scenario,
        "out_dir": str(tmp_path / "out"),
        "n_z": 64,
        "t_max": 2.0,
        "n_snapshots": 5,
    }
    base.update(extra)
    return base


#: Each configuration parse_config refuses, with its ConfigError message: a
#: str row is the text of a config file, a dict row the flag overrides.
_REJECTIONS = [
    pytest.param({"scenario": "fig2_cold", "kappa_plus_sq": 1.2},
                 "kappa_plus_sq must lie in [0, 1], got 1.2", id="kappa-out-of-range"),
    pytest.param("scenario = fig2_cold\nz_min = 5\nz_max = -5\n",
                 "z_max must exceed z_min, got [5.0, -5.0]", id="inverted-grid"),
    pytest.param("scenario = fig2_cold\nz_min = -1e308\nz_max = 1e308\n",
                 "grid span overflows: dz = inf", id="overflowing-grid-span"),
    # the key's line number counts the comment; gamma_ba is a medium
    # parameter, not a config key: no scenario reads it
    *(pytest.param(f"# comment\n{key}=3\nscenario = fig2_cold\n",
                   f"bad.cfg:2: unknown key '{key}'", id=f"unknown-key-{key}")
      for key in ("nosuchkey", "gamma_ba")),
    pytest.param("scenario = fig2_cold\nkappa_plus_sq 0.5\n", "bad.cfg:2: expected key=value",
                 id="malformed-line"),
    pytest.param({"scenario": "fig9_wrong"}, "unknown scenario 'fig9_wrong'", id="unknown-scenario"),
    pytest.param({"scenario": "fig2_cold", "n_x": 64}, "unknown option 'n_x'", id="unknown-option"),
    pytest.param({}, "no scenario given", id="missing-scenario"),
    *(pytest.param({"scenario": "fig2_cold", key: bad}, message, id=f"{key}-{bad}")
      for key, bad, message in (("n_z", 8, "n_z must be an integer of at least 16, got 8"),
                                ("t_max", -1.0, "t_max must be positive, got -1.0"),
                                ("l_a", -0.5, "l_a must be non-negative, got -0.5"))),
    *(pytest.param({"scenario": "fig2_cold", key: bad}, f"{key} must be finite, got {bad}",
                   id=f"non-finite-{key}-{bad}")
      for key in ("t_max", "l_a", "gamma_bc", "delta", "z_max")
      for bad in (float("nan"), float("inf"))),
    pytest.param("scenario = fig2_cold\nt_max=nan\n", "t_max must be finite, got nan",
                 id="non-finite-t_max-in-file"),
    *(pytest.param({"scenario": "fig2_cold", "cos2_theta0": bad},
                   f"cos2_theta0 must be a normal float in (0, 1), got {bad}",
                   id=f"working-point-{bad}")
      for bad in (0.0, 1.0, -0.1, 1.5, 5e-324, 1e-320)),
    pytest.param({"scenario": "fig2_thermal", "n_snapshots": 10 ** 9},
                 "n_z * n_snapshots = 1024000000000 heatmap rows", id="heatmap-rows-1e9"),
    # one frame more than the 2048 x 2048 the bounds test accepts
    pytest.param({"scenario": "fig2_cold", "n_snapshots": 2049},
                 "4196352 heatmap rows exceeds the limit of 4194304", id="heatmap-rows-2049"),
    # the config reads the ladder's own bound on N, which bounds its memory
    *(pytest.param({"scenario": "mb_convergence", "truncation_n": bad},
                   f"truncation_n must lie in [1, 256], got {bad}", id=f"truncation_n-{bad}")
      for bad in (0, 257)),
    *(pytest.param({"scenario": "fig2_cold", key: bad}, f"key '{key}': expected {kind}, got {bad}",
                   id=f"schema-{key}-{bad}")
      for key, bad, kind in (("n_z", 64.5, "int"), ("n_z", True, "int"),
                             ("n_z", float("nan"), "int"), ("t_max", True, "float"),
                             ("l_a", False, "float"), ("scenario", 3, "str"))),
]


class TestParseConfig:
    def test_defaults_from_scenario_flag(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = parse_config(path, {"scenario": "fig2_cold"})
        assert config.scenario == "fig2_cold"
        assert config.kappa_plus_sq == pytest.approx(0.5)
        assert config.schedule().kappa_minus_sq == pytest.approx(0.5)
        assert config.n_z == 2048
        assert config.t_max == 10.0

    def test_kappa_complement_rule(self):
        config = parse_config(None, {"scenario": "fig2_cold", "kappa_plus_sq": 0.55})
        assert config.schedule().kappa_minus_sq == pytest.approx(0.45)

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_CATALOG))
    def test_scenario_defaults_applied(self, scenario):
        config = parse_config(None, {"scenario": scenario})
        defaults = SCENARIO_CATALOG[scenario].defaults
        for key, value in defaults.items():
            assert getattr(config, key) == value, key
        assert config.schedule().kappa_minus_sq == pytest.approx(1.0 - defaults["kappa_plus_sq"])
        base = ScenarioConfig(scenario)
        for f in dataclasses.fields(ScenarioConfig):
            if f.name not in defaults:
                assert getattr(config, f.name) == getattr(base, f.name), f.name

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\n# full line comment\nl_a=0.2  # trailing comment\n\n")
        config = parse_config(path, {"scenario": "fig2_thermal"})
        assert config.l_a == pytest.approx(0.2)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("kappa_plus_sq=0.5\nt_max=4\n")
        config = parse_config(path, {"scenario": "fig2_cold", "kappa_plus_sq": 0.55})
        assert config.kappa_plus_sq == pytest.approx(0.55)
        assert config.t_max == pytest.approx(4.0)

    def test_values_at_the_bounds_are_accepted(self):
        # exactly 2**22 heatmap rows (2048 x 2048), the ladder's own bound on N,
        # and a float n_z of integral value, coerced to int
        assert parse_config(None, {"scenario": "fig2_cold", "n_snapshots": 2048}).n_z == 2048
        config = parse_config(None, {"scenario": "mb_convergence", "truncation_n": 256})
        assert config.truncation_n == 256 == cli._MAX_TRUNCATION_N
        config = parse_config(None, {"scenario": "fig2_cold", "n_z": 64.0, "t_max": 2})
        assert (config.n_z, config.t_max) == (64, 2.0)
        assert type(config.n_z) is int and type(config.t_max) is float

    @pytest.mark.parametrize("source, message", _REJECTIONS)
    def test_rejected_config(self, tmp_path, source, message):
        out = tmp_path / "out"
        if isinstance(source, str):
            path = tmp_path / "bad.cfg"
            path.write_text(source)
            args = (path, {"out_dir": out})
        else:
            args = (None, {"out_dir": out, **source})
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(*args)
        assert not out.exists()


def _reference_line(values) -> str:
    return ",".join(format(float(v), ".12g") for v in values) + "\n"


AWKWARD = [0.0, -0.0, 5e-324, 1e300, -1e-300, 1 / 3, float("nan"), float("inf"), -float("inf"),
           3.0, -2.0, 1e16, 123456789012.0]


def test_writers_match_per_value_format(tmp_path):
    # the row templates write exactly what formatting each value on its own
    # writes, for signed zeros, subnormals, extreme exponents and non-finite values
    z = np.array(AWKWARD[:6])
    times = np.array([0.0, 1 / 3, 1e300, -0.0])
    frames = np.resize(np.array(AWKWARD), (times.size, z.size))
    path = tmp_path / "heatmap.csv"
    _write_heatmap(path, z, times, frames[:, ::-1])
    expected = "z,t,value\n" + "".join(
        _reference_line((zi, t, v)) for t, frame in zip(times, frames[:, ::-1]) for zi, v in zip(z, frame)
    )
    assert path.read_bytes() == expected.encode()

    rows = [tuple(AWKWARD[:5]), tuple(AWKWARD[5:10]), (7, -3, 10**20, True, 0),
            (np.float64(2.5), np.int64(-4), np.float32(0.1), np.float64(-0.0), np.int32(9))]
    path = tmp_path / "table.csv"
    _write_table(path, "a,b,c,d,e", rows)
    assert path.read_bytes() == ("a,b,c,d,e\n" + "".join(map(_reference_line, rows))).encode()


def _reference_heatmap(z, times, frames) -> bytes:
    return ("z,t,value\n" + "".join(
        _reference_line((zi, t, v)) for t, frame in zip(times, frames) for zi, v in zip(z, frame)
    )).encode()


def test_repeated_frames_match_per_value_format(tmp_path):
    # frames equal to the one before reuse its text; a frame that differs only
    # in a zero's sign is not a repeat, and nan and +-inf repeat like any value
    z = np.array([-1.0, 0.0, 2.5])
    times = np.array([0.0, 1 / 3, 1.0, 2.0, 1e300, -0.0])
    frames = np.array([[1.0, 0.0, 2.0], [1.0, -0.0, 2.0], [1.0, -0.0, 2.0],
                       [float("nan"), float("inf"), -float("inf")],
                       [float("nan"), float("inf"), -float("inf")],
                       [float("nan"), float("inf"), -float("inf")]])
    path = tmp_path / "heatmap.csv"
    for case in (frames, frames[:, ::-1]):
        _write_heatmap(path, z, times, case)
        assert path.read_bytes() == _reference_heatmap(z, times, case)
    lines = path.read_text().splitlines()
    assert (lines[2], lines[5]) == ("0,0,0", "0,0.333333333333,-0")


class _CountingFrames(np.ndarray):
    """Frames whose rows count how often the writer turns one into a list."""

    calls = 0

    def tolist(self):
        type(self).calls += 1
        return super().tolist()


@pytest.mark.parametrize("order, formatted", [("a" * 100, 1), ("aba", 3), ("abbbaa", 3)])
def test_each_run_of_equal_frames_is_formatted_once(tmp_path, order, formatted):
    rows = {"a": [0.5, -0.0, 1e-300], "b": [0.5, 0.0, 1e-300]}
    frames = np.array([rows[key] for key in order]).view(_CountingFrames)
    times = np.linspace(0.0, 1.0, len(order))
    z = np.arange(3.0)
    _CountingFrames.calls = 0
    path = tmp_path / "heatmap.csv"
    _write_heatmap(path, z, times, frames)
    assert _CountingFrames.calls == formatted
    assert path.read_bytes() == _reference_heatmap(z, times, np.asarray(frames))


@pytest.mark.parametrize(
    "frames", [np.ones((3, 8)), np.ones((4, 7))], ids=["missing_frame", "short_frame"]
)
def test_heatmap_shape_checked_before_writing(tmp_path, frames):
    path = tmp_path / "heatmap.csv"
    with pytest.raises(ValueError, match="shape"):
        _write_heatmap(path, np.arange(8.0), np.arange(4.0), frames)
    assert not path.exists()


def test_heatmap_writer_holds_one_frame_of_text(tmp_path):
    # a 2048 x 100 heatmap (the scenario default) is written one frame at a
    # time (its text with and without the time put in), so the text held at
    # once is a small fraction of the file; so is a frozen pulse's, one frame
    # repeated and formatted once
    z = np.linspace(-10.0, 10.0, 2048, endpoint=False)
    times = np.linspace(0.0, 10.0, 100)
    distinct = np.random.default_rng(0).random((times.size, z.size))
    frozen = np.repeat(distinct[:1], times.size, axis=0)
    path = tmp_path / "heatmap.csv"
    for frames in (distinct, frozen):
        tracemalloc.start()
        try:
            _write_heatmap(path, z, times, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 10


class TestRunScenario:
    def test_hand_built_config_of_unknown_scenario_is_refused(self, tmp_path):
        config = ScenarioConfig(scenario="nope", out_dir=tmp_path / "out")
        with pytest.raises(ConfigError, match="unknown scenario 'nope'"):
            run_scenario(config)
        assert not (tmp_path / "out").exists()

    def test_fig2_cold_outputs(self, tmp_path):
        config = parse_config(None, tiny_overrides(tmp_path, "fig2_cold"))
        artifacts = run_scenario(config)
        assert set(artifacts.data_files) == {"energy_density_numeric"}
        lines = artifacts.data_files["energy_density_numeric"].read_text().splitlines()
        assert lines[0] == "z,t,value"
        assert len(lines) == 1 + 5 * 64  # header + n_snapshots * n_z
        assert artifacts.metrics_file.exists()
        assert artifacts.provenance_file.exists()
        assert "package_version=" in artifacts.provenance_file.read_text()

    @pytest.mark.parametrize("kappa_plus_sq, gamma_bc", [(0.45, 0.0), (0.5, 0.1), (0.45, 0.1)])
    def test_fig2_cold_numeric_frames_match_analytic(self, tmp_path, monkeypatch,
                                                      kappa_plus_sq, gamma_bc):
        # the exact transport exponential against the characteristic-shift
        # closed form, in the other ordering and with ground-state decay; the
        # frames are compared as handed to the writer, since rounding to 12
        # printed digits alone can move a value by 1e-12 of the peak
        written = {}

        def capture(path, z, times, frames):
            written[path.stem] = (times, frames)

        monkeypatch.setattr(cli, "_write_heatmap", capture)
        config = parse_config(None, tiny_overrides(
            tmp_path, "fig2_cold", n_z=512, t_max=10.0, n_snapshots=11,
            kappa_plus_sq=kappa_plus_sq, gamma_bc=gamma_bc))
        run_scenario(config)
        times, numeric = written["energy_density_numeric"]
        grid, sched = config.grid(), config.schedule()
        psi0 = gaussian_profile(grid)
        analytic = np.array([
            probe_from_polariton(field, sched).density() / sched.cos2_theta0
            for field in cold_adiabatic_evolve(psi0, grid, sched, config.medium(), times)
        ])
        assert np.max(np.abs(numeric - analytic)) <= 1e-12 * np.max(analytic)
        assert "solver.steps" not in (tmp_path / "out" / "fig2_cold" / "provenance.txt").read_text()

    @pytest.mark.parametrize("scenario", list(SCENARIO_CATALOG))
    def test_each_run_builds_its_grid_schedule_and_medium_once(self, tmp_path, monkeypatch,
                                                               scenario):
        # parse_config builds all three to validate; run_scenario builds each
        # once more and hands it to the runner, which builds none itself
        extra = {"n_z": 32, "t_max": 1.0, "truncation_n": 2} if scenario == "mb_convergence" else {}
        config = parse_config(None, tiny_overrides(tmp_path, scenario, **extra))
        calls = []
        for name in ("grid", "schedule", "medium"):
            method = getattr(ScenarioConfig, name)
            monkeypatch.setattr(ScenarioConfig, name,
                                lambda self, name=name, method=method:
                                calls.append(name) or method(self))
        run_scenario(config)
        assert sorted(calls) == ["grid", "medium", "schedule"]

    @pytest.mark.parametrize("scenario, overrides", [
        *(pytest.param(scenario, {}, id=scenario) for scenario in SCENARIO_CATALOG),
        # the rows below run at the default 100 snapshots.  The cold RK4 in the
        # mirrored ordering, with a decay, and at t_max 1e-200, where every r
        # underflows to 0 and each segment is one step of 0
        pytest.param("fig3_quasi_cold", {"kappa_plus_sq": 0.45, "n_snapshots": 100},
                     id="fig3_quasi_cold-mirrored"),
        pytest.param("fig3_quasi_cold", {"gamma_bc": 0.05, "n_snapshots": 100},
                     id="fig3_quasi_cold-decay"),
        pytest.param("fig3_quasi_cold", {"t_max": 1e-200, "n_snapshots": 100},
                     id="fig3_quasi_cold-underflowing-r"),
        # the closed forms: thermal, cold and thermal mirrored, the traveling
        # wave, the standing wave with a decay and frozen at Gamma_bc 0 (one
        # frame repeated, which the writer formats once)
        pytest.param("fig2_thermal", {"n_snapshots": 100}, id="fig2_thermal-100-snapshots"),
        pytest.param("fig4_compare", {"kappa_plus_sq": 0.45, "n_snapshots": 100},
                     id="fig4_compare-mirrored"),
        pytest.param("nonadiabatic_traveling", {"n_snapshots": 100},
                     id="nonadiabatic_traveling-100-snapshots"),
        pytest.param("nonadiabatic_standing", {"gamma_bc": 0.05, "n_snapshots": 100},
                     id="nonadiabatic_standing-decay"),
        pytest.param("nonadiabatic_standing", {"n_snapshots": 100},
                     id="nonadiabatic_standing-frozen"),
        # the smallest normal working point still runs
        pytest.param("fig2_cold", {"cos2_theta0": 2.2250738585072014e-308},
                     id="fig2_cold-smallest-normal-working-point"),
        # the ladder at n_z 64 to t_max 0.5: its default N 8; a real Gamma_bc,
        # which factors real stages; a complex one (a detuning), full columns;
        # N 32 and 64, where the factored chunks are one step
        *(pytest.param("mb_convergence", {"n_z": 64, "t_max": 0.5, "n_snapshots": 100,
                                          "truncation_n": 8, **extra}, id=f"mb_convergence-{name}")
          for name, extra in (("n8", {}), ("decay", {"gamma_bc": 0.05}),
                              ("detuned", {"delta": 0.5}), ("n32", {"truncation_n": 32}),
                              ("n64", {"truncation_n": 64}))),
    ])
    def test_determinism_byte_identical(self, tmp_path, scenario, overrides):
        extra = {"n_z": 32, "t_max": 1.0, "truncation_n": 2} if scenario == "mb_convergence" else {}
        extra.update(overrides)
        art_a = run_scenario(parse_config(None, tiny_overrides(tmp_path / "a", scenario, **extra)))
        art_b = run_scenario(parse_config(None, tiny_overrides(tmp_path / "b", scenario, **extra)))
        assert set(art_a.data_files) == set(art_b.data_files)
        for name in art_a.data_files:
            assert art_a.data_files[name].read_bytes() == art_b.data_files[name].read_bytes()
        assert art_a.metrics_file.read_bytes() == art_b.metrics_file.read_bytes()

    def test_fig3_defaults_step_in_r(self, tmp_path):
        # dr = dz / 2 at n_z 2048 to r(20) = 19.3: 3,955 steps (a step in t
        # of dz / (2 v_g(t_max)) took 4,096)
        config = parse_config(None, {"scenario": "fig3_quasi_cold", "out_dir": str(tmp_path)})
        provenance = run_scenario(config).provenance_file.read_text().splitlines()
        assert "solver.steps=3955" in provenance

    def test_heatmap_round_trip(self, tmp_path):
        config = parse_config(None, tiny_overrides(tmp_path, "fig3_quasi_cold"))
        artifacts = run_scenario(config)
        path = artifacts.data_files["psi_plus_abs"]
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (5 * 64, 3)
        # re-emitting the parsed values at 12 significant digits reproduces
        # the file exactly: the emitted precision round-trips
        body = path.read_text().splitlines()[1:]
        rebuilt = [",".join(f"{v:.12g}" for v in row) for row in data]
        assert rebuilt == body

    def test_coeff_table_values(self, tmp_path):
        config = parse_config(
            None, {"scenario": "coeff_table", "out_dir": str(tmp_path / "out")}
        )
        artifacts = run_scenario(config)
        data = np.loadtxt(artifacts.data_files["coeff_table"], delimiter=",", skiprows=1)
        row = data[np.argmin(np.abs(data[:, 0] - 0.6))]
        np.testing.assert_allclose(row[1:5], [2.5, -5.0 / 6.0, 3.90625, -2.34375], atol=1e-10)
        assert np.max(data[:, 5:]) < 1e-10

    def test_fig4_and_nonadiabatic_smoke(self, tmp_path):
        for scenario in ("fig4_compare", "nonadiabatic_standing", "nonadiabatic_traveling"):
            config = parse_config(None, tiny_overrides(tmp_path / scenario, scenario))
            artifacts = run_scenario(config)
            assert artifacts.data_files
            metrics = artifacts.metrics_file.read_text()
            assert "=" in metrics

    def test_fig4_backward_fraction_is_mirror_symmetric(self, tmp_path):
        # |kappa+|^2 0.45 is the z -> -z image of 0.55: the thermal pulse drifts
        # backward, so the energy left behind it lies above z = +2, not below -2
        # (the seam point z = -10 has no mirror on the grid, hence not bit for bit)
        backward = []
        for kappa_plus_sq in (0.45, 0.55):
            config = parse_config(None, tiny_overrides(
                tmp_path / str(kappa_plus_sq), "fig4_compare", n_z=512, t_max=20.0,
                n_snapshots=11, kappa_plus_sq=kappa_plus_sq))
            text = run_scenario(config).metrics_file.read_text()
            metrics = dict(line.split("=") for line in text.splitlines())
            backward.append(float(metrics["thermal_backward_fraction_max"]))
        assert abs(backward[0] - backward[1]) < 1e-9
        assert max(backward) < 0.01

    def test_nonadiabatic_standing_reports_frozen_pulse(self, tmp_path):
        config = parse_config(None, tiny_overrides(tmp_path, "nonadiabatic_standing", t_max=6.0))
        artifacts = run_scenario(config)
        metrics = dict(
            line.split("=") for line in artifacts.metrics_file.read_text().splitlines()
        )
        assert float(metrics["max_density_change_rel"]) < 1e-10

    def test_mb_convergence_table(self, tmp_path):
        config = parse_config(
            None,
            tiny_overrides(
                tmp_path, "mb_convergence", n_z=32, t_max=1.0, truncation_n=2
            ),
        )
        artifacts = run_scenario(config)
        data = np.loadtxt(artifacts.data_files["mb_convergence"], delimiter=",", skiprows=1)
        assert data.shape == (8, 3)  # 4 gamma values x N in {1, 2}
        assert set(data[:, 1]) == {1.0, 2.0}
        assert np.all(data[:, 2] >= 0.0)
        # the 8 solves' summed steps, 50 each (sqrt(1) / 0.02), and the 17
        # columns q >= 0 of a real stored pulse on 32 points
        provenance = artifacts.provenance_file.read_text().splitlines()
        assert "solver.steps=400" in provenance
        assert "solver.columns=17" in provenance

    def test_dispersive_standing_wave_decays_by_the_one_law(self, tmp_path, monkeypatch):
        # the standing wave's dark split is stationary, so only the decay
        # exp(-gamma_bc (t - cos^2(theta0) r(t))) moves its density; a detuning
        # alone is a phase and leaves the density unchanged
        written = []
        monkeypatch.setattr(cli, "_write_heatmap",
                            lambda path, z, times, frames: written.append((times, frames)))
        argv = ["run", "--scenario", "nonadiabatic_standing", "--out", str(tmp_path / "out"),
                "--nz", "64", "--tmax", "2"]
        assert main(argv + ["--gamma-bc", "0.5"]) == 0
        times, frames = written.pop()
        t = times[-1]
        factor = cmath.exp(-0.5 * (t - ScenarioConfig.cos2_theta0 * math.log(math.cosh(t))))
        peak = np.max(frames[0])
        assert np.max(np.abs(frames[-1] - abs(factor) ** 2 * frames[0])) < 1e-12 * peak

        assert main(argv) == 0
        _, undamped = written.pop()
        path = tmp_path / "delta.cfg"
        path.write_text("delta=-0.2\n")
        assert main(argv + ["--config", str(path)]) == 0
        _, detuned = written.pop()
        assert np.max(np.abs(detuned - undamped)) < 1e-12 * np.max(undamped)
        assert np.max(np.abs(detuned[-1] - detuned[0])) < 1e-12 * np.max(undamped)


# every scenario that fits a slope against r(t)
_SLOPE_SCENARIOS = ["fig2_cold", "fig2_thermal", "fig4_compare", "nonadiabatic_standing",
                    "nonadiabatic_traveling"]


#: Each input main refuses, as (flags, config file text or None, exit code, a
#: piece of its stderr message).  Every row exits with its code inside 5 s,
#: with no RuntimeWarning, no output directory and no 20-digit integer in its
#: message; a new refusal is one more row.
_REFUSALS = [
    # refused by parse_config, before anything runs
    pytest.param("--scenario nope", None, 2, "unknown scenario", id="unknown-scenario"),
    pytest.param("", None, 2, "no scenario given", id="missing-scenario"),
    pytest.param("--scenario fig2_cold --nz 4", None, 2,
                 "n_z must be an integer of at least 16, got 4", id="bad-value"),
    pytest.param("--config missing.cfg", None, 2, "cannot read config file",
                 id="unreadable-config-file"),
    *(pytest.param("", f"scenario = fig2_cold\n{line}", 2, message, id=f"bad-config-line-{key}")
      for key, line, message in (("n_z", "n_z = many\n", "key 'n_z': cannot parse 'many'"),
                                 ("n_snapshots", "n_snapshots = 1\n",
                                  "n_snapshots must be at least 2, got 1"))),
    pytest.param("--scenario fig2_cold --gamma-bc -0.5", None, 2,
                 "gamma_bc must be non-negative, got -0.5", id="negative-dephasing"),
    pytest.param("--scenario fig2_cold --tmax nan", None, 2, "t_max must be finite",
                 id="non-finite-flag"),
    pytest.param("--scenario fig2_cold --nz 64", "z_min=5\nz_max=-5\n", 2,
                 "z_max must exceed z_min", id="inverted-grid"),
    pytest.param("--scenario fig2_cold --nz 64", "z_min=-1e308\nz_max=1e308\n", 2,
                 "grid span overflows", id="overflowing-grid-span"),
    pytest.param("", "scenario=fig2_thermal\nn_snapshots=1000000000\n", 2, "n_snapshots",
                 id="heatmap-row-limit"),
    pytest.param("", "scenario=mb_convergence\ntruncation_n=257\n", 2,
                 "truncation_n must lie in [1, 256], got 257",
                 id="ladder-truncation-past-its-bound-at-defaults"),
    # delta (t - cos2_theta0 r(t)) reaches about 1e301 rad by t_max 10, where
    # floats are spaced by far more than 2 pi: the run exited 0 and wrote
    # rel_l2_error exactly 1 in every row of its table
    pytest.param("", "scenario = mb_convergence\nn_z = 64\nl_a = 1000\ndelta = -1e300\n", 2,
                 "has no significant digit", id="detuning-phase-without-a-significant-digit"),
    # a pulse decayed to zero, or a stored Gaussian that underflows to zero on
    # a grid far from its center
    *(pytest.param(f"--scenario {scenario} --nz 64 --gamma-bc 1e6", None, 2, "fully decayed",
                   id=f"fully-decayed-pulse-{scenario}")
      for scenario in ("fig2_cold", "fig2_thermal", "fig3_quasi_cold", "fig4_compare",
                       "mb_convergence")),
    *(pytest.param(f"--scenario {scenario}",
                   f"z_min=100\nz_max=120\nn_z=64\nt_max={t_max}\nn_snapshots={n_snapshots}\n",
                   2, "fully decayed", id=f"zero-dispersive-field-{scenario}-{t_max}-{n_snapshots}")
      for scenario, t_max, n_snapshots in [
          *((scenario, t_max, 3) for scenario in FIELD_SCENARIOS for t_max in ("1e-170", "2")),
          ("fig2_cold", "3", 5), ("fig2_cold", "4", 9)]),
    # slopes against r(t): r underflows to 0 at every snapshot (fig4's drift
    # slope is then undefined); at t_max 1e-9 r spreads over 5e-19, where the
    # moments' round-off read a width slope of -910 and a drift slope of
    # 4.9e-14 (0.2 and 0.1 expected); at 1e155 np.polyfit's squares of r
    # overflow; by t_max 1e150 the pulses that spread have wrapped round the
    # grid (0.109 of the energy within 1 L_p of its ends), and by t_max 100
    # the thermal one holds 8.6e-3 there and its width slope read 0.2098
    pytest.param("--scenario fig4_compare --nz 64 --tmax 1e-200", None, 2,
                 "displacement r(t) is constant", id="constant-displacement"),
    *(pytest.param(f"--scenario {scenario} --nz 64 --tmax 1e-9", None, 2,
                   "too little to resolve a slope", id=f"unresolved-displacement-{scenario}")
      for scenario in ("fig2_thermal", "fig4_compare")),
    *(pytest.param(f"--scenario {scenario} --nz 64 --tmax 1e155", None, 2,
                   "r(t) reaches 1e+155 > 1e+150", id=f"displacement-past-the-fit-range-{scenario}")
      for scenario in _SLOPE_SCENARIOS),
    *(pytest.param(f"--scenario {scenario} --nz 64 --tmax 1e150", None, 2,
                   "periodic grid's edge", id=f"displacement-at-the-fit-range-{scenario}")
      for scenario in ("fig2_thermal", "fig4_compare", "nonadiabatic_traveling")),
    pytest.param("--scenario fig2_thermal --nz 64 --tmax 100", None, 2,
                 "of its energy within 1 L_p of the periodic grid's edge",
                 id="pulse-wrapped-round-the-grid"),
    # the thermal closed form's per-q rate and slaving overflow: refused before
    # any transform, where it exited 1
    *(pytest.param(f"--scenario {scenario}", f"n_z = 64\nt_max = 2\n{lines}", 2,
                   "thermal mode factors non-finite on the grid",
                   id=f"overflowing-thermal-factors-{name}-{scenario}")
      for name, lines in (("huge-l_a", "l_a = 1e308\n"),
                          ("tiny-grid", "z_min = -1e-200\nz_max = 1e-200\n"))
      for scenario in ("fig2_thermal", "fig4_compare")),
    # r(1.7e308) is finite, but the phases q * beta * r overflow: each scenario
    # refuses a non-finite or zero field, an r past the slope fit's range, or
    # the stepper's step count or work
    *(pytest.param(f"--scenario {scenario} --nz 64 --tmax 1.7e308 --gamma-bc {gamma_bc}", None,
                   code, message, id=f"horizon-at-the-float-range-{scenario}-{gamma_bc}")
      for scenario, gamma_bc, code, message in (
          ("fig2_cold", "0", 2, "psi_plus contains non-finite entries"),
          ("fig2_cold", "0.05", 2, "psi_plus contains non-finite entries"),
          ("fig2_thermal", "0", 2, "displacement r(t) reaches 1.7e+308 > 1e+150"),
          ("fig2_thermal", "0.05", 2, "field is zero at t = 1.71717e+306"),
          ("fig3_quasi_cold", "0", 3, "a span of 1.7e+308 in steps of at most 0.05 has no finite"),
          ("fig3_quasi_cold", "0.05", 3, "a span of 1.7e+308 in steps of at most 0.05 has no finite"),
          ("fig4_compare", "0", 2, "psi_plus contains non-finite entries"),
          ("fig4_compare", "0.05", 2, "psi_plus contains non-finite entries"),
          ("nonadiabatic_standing", "0", 2, "displacement r(t) reaches 1.7e+308 > 1e+150"),
          ("nonadiabatic_standing", "0.05", 2, "field is zero at t = 1.71717e+306"),
          ("nonadiabatic_traveling", "0", 2, "psi_plus contains non-finite entries"),
          ("nonadiabatic_traveling", "0.05", 2, "psi_plus contains non-finite entries"),
          # a 156-digit step count, printed short
          ("mb_convergence", "0", 3, "6.519202e+155 steps of 33 columns of 33 rows exceed"),
          ("mb_convergence", "0.05", 2, "field is zero at t = 1.7e+308"))),
    # the cold stepper's work budget refuses before the first step: it would
    # need about 2e10 steps to t_max 1e9, and 31,633 steps of 16 FFTs of 16384
    # points at n_z 16384, minutes of work
    pytest.param("--scenario fig3_quasi_cold --nz 64 --tmax 1e9", None, 3, "budget",
                 id="unbounded-horizon"),
    pytest.param("--scenario fig3_quasi_cold --nz 16384", None, 3, "budget of 2e+09 units",
                 id="unbounded-work"),
    # each of these but the last three exited 1 on a RuntimeWarning: the stored
    # pulse's square on a grid spanning +-1e300; the probe frames of a thermal
    # density that overflows from t = 0, formed before compute_metrics could
    # refuse it; the ladder's coupling sqrt(c gamma_ba / l_a), inf at l_a
    # 5e-324; and a finite coupling of 3e150 at cos2_theta0 near 1, where
    # Omega is 1e8 times larger still and the stages' (alpha Omega)^2
    # overflowed.  The next is refused before any work: the cold RK4 at n_z
    # 65536 to t_max 1, which a step priced per grid point admitted (about a
    # minute).  The last two exited 0 with wrong frames: a frame divides
    # cos^2(theta(t)) |psi|^2 by a subnormal cos2_theta0, a product that has
    # lost its precision (off by 1.54 of the peak in fig2_cold at 5e-324,
    # 8.2e-4 in fig4_compare at 1e-320)
    *(pytest.param("", f"scenario = {scenario}\nn_z = 64\nt_max = 2\nz_min = -1e300\n"
                   "z_max = 1e300\n", 2, "field density overflows", id=f"wide-grid-{scenario}")
      for scenario in FIELD_SCENARIOS),
    *(pytest.param("", f"scenario = {scenario}\nn_z = 64\nl_a = 2e240\nt_max = 3.5e-171\n", 2,
                   "field density overflows at t = 0", id=f"thermal-density-{scenario}")
      for scenario in ("fig2_thermal", "fig4_compare")),
    pytest.param("", "scenario = mb_convergence\nn_z = 64\nl_a = 5e-324\n", 2,
                 "collective coupling non-finite", id="ladder-coupling-inf"),
    pytest.param("", "scenario = mb_convergence\nn_z = 16\nl_a = 1e-300\n"
                 "cos2_theta0 = 0.9999999999999999\nt_max = 50\n", 3,
                 "overflow when squared", id="ladder-stage-couplings"),
    pytest.param("", "scenario = fig3_quasi_cold\nn_z = 65536\nt_max = 1\nn_snapshots = 2\n", 3,
                 "budget of 2e+09 units", id="rk4-work-by-transform-size"),
    *(pytest.param("", f"scenario = {scenario}\nn_z = 64\nt_max = 2\ncos2_theta0 = {value}\n", 2,
                   "cos2_theta0 must be a normal float", id=f"subnormal-working-point-{scenario}")
      for scenario, value in (("fig2_cold", "5e-324"), ("fig4_compare", "1e-320"))),
]


class TestMainExitCodes:
    def test_list_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIO_CATALOG:
            assert name in out

    @pytest.mark.parametrize("scenario, name, expected",
                             [("fig2_thermal", "width_sq_slope_vs_r", 0.2),
                              ("fig4_compare", "thermal_drift_slope_vs_r", 0.1)])
    def test_short_horizon_still_resolves_its_slope(self, scenario, name, expected, tmp_path):
        # t_max 1e-5 spreads r over 5e-11, and the slope is still within 1e-3
        out = tmp_path / "out"
        argv = ["run", "--scenario", scenario, "--nz", "64", "--tmax", "1e-5", "--out", str(out)]
        assert main(argv) == 0
        metrics = dict(line.split("=") for line in
                       (out / scenario / "metrics.txt").read_text().splitlines())
        assert float(metrics[name]) == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("scenario", ["fig2_cold", "nonadiabatic_standing"])
    def test_displacement_at_the_fit_range_still_runs(self, scenario, tmp_path):
        # r 1e150 is inside the fit's range; the pulses that do not spread keep
        # their slope (those that do are refused: rows of test_refused_input)
        out = tmp_path / "out"
        argv = ["run", "--scenario", scenario, "--nz", "64", "--tmax", "1e150",
                "--out", str(out)]
        assert main(argv) == 0
        assert "_slope_vs_r=" in (out / scenario / "metrics.txt").read_text()

    @pytest.mark.parametrize("flags, text, code, message", _REFUSALS)
    def test_refused_input(self, tmp_path, monkeypatch, capsys, flags, text, code, message):
        # run in tmp_path, where the paths a row names (run.cfg, out) resolve
        monkeypatch.chdir(tmp_path)
        argv = ["run", *flags.split(), "--out", "out"]
        if text is not None:
            Path("run.cfg").write_text(text)
            argv += ["--config", "run.cfg"]
        started = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert message in err
        assert not re.search(r"\d{20}", err)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", ["fig2_cold", "fig2_thermal", "nonadiabatic_standing",
                                          "nonadiabatic_traveling"])
    def test_metrics_refuse_a_field_before_its_density_is_framed(self, scenario, tmp_path,
                                                                 monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("refused by compute_metrics")

        def no_density(self):
            raise AssertionError("a density was framed before compute_metrics ran")

        monkeypatch.setattr(cli, "compute_metrics", refuse)
        monkeypatch.setattr(core.PolaritonField, "density", no_density)
        monkeypatch.setattr(core.ProbeField, "density", no_density)
        out = tmp_path / "out"
        argv = ["run", "--scenario", scenario, "--nz", "64", "--tmax", "2", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_detuning_just_below_the_phase_bound_runs(self, tmp_path):
        # the largest delta whose phase stays below 2**53 rad by t_max runs;
        # the next float up is refused
        schedule = parse_config(None, {"scenario": "fig2_cold"}).schedule()
        spin_time = 2.0 - schedule.cos2_theta0 * float(core.displacement_r(2.0))
        below = 2.0 ** 53 / spin_time
        while below * spin_time >= 2.0 ** 53:
            below = math.nextafter(below, 0.0)
        settings = {"scenario": "fig2_cold", "n_z": 64, "t_max": 2.0}
        with pytest.raises(ConfigError, match="no significant digit"):
            parse_config(None, {**settings, "delta": math.nextafter(below, math.inf)})
        out = tmp_path / "out"
        argv = ["run", "--scenario", "fig2_cold", "--nz", "64", "--tmax", "2", "--out", str(out)]
        path = tmp_path / "run.cfg"
        path.write_text(f"delta = {below!r}\n")
        assert main([*argv, "--config", str(path)]) == 0
        assert (out / "fig2_cold" / "metrics.txt").is_file()

    def test_pulse_short_of_the_grid_edge_keeps_its_slope(self, tmp_path):
        # at t_max 50 the edge share is 1.4e-4, under the 1e-3 bound
        out = tmp_path / "out"
        argv = ["run", "--scenario", "fig2_thermal", "--nz", "64", "--tmax", "50",
                "--out", str(out)]
        assert main(argv) == 0
        metrics = dict(line.split("=") for line in
                       (out / "fig2_thermal" / "metrics.txt").read_text().splitlines())
        assert float(metrics["width_sq_slope_vs_r"]) == pytest.approx(0.2, rel=1e-3)

    def test_unresolved_displacement_omits_the_dispersive_slope(self, tmp_path):
        # the dispersive scenarios report no width slope over an r spread
        # too small to resolve one, as over a constant r
        out = tmp_path / "out"
        argv = ["run", "--scenario", "nonadiabatic_standing", "--nz", "64", "--tmax", "1e-9",
                "--out", str(out)]
        assert main(argv) == 0
        metrics = (out / "nonadiabatic_standing" / "metrics.txt").read_text()
        assert "centroid_shift" in metrics and "width_sq_slope_vs_r" not in metrics

    def test_refused_stepper_skips_the_closed_form_snapshots(self, tmp_path, monkeypatch):
        # fig3 asks its stepper first, so a run over the work budget computes
        # none of its closed-form snapshots
        def no_snapshot(*args, **kwargs):
            raise AssertionError("a closed-form snapshot ran")

        monkeypatch.setattr(cli, "cold_adiabatic_evolve", no_snapshot)
        argv = ["run", "--scenario", "fig3_quasi_cold", "--out", str(tmp_path / "out"),
                "--nz", "16384"]
        assert main(argv) == 3
        assert not (tmp_path / "out").exists()

    def test_mb_convergence_refuses_before_its_cheap_solves(self, tmp_path, monkeypatch):
        # the cap N has the most rows, so it is solved first; at t_max 1e6
        # (50,000 steps of 33 columns of 129 rows) the work budget refuses it
        # before any other solve
        calls = []
        ladder = cli.evolve_mb_harmonics
        monkeypatch.setattr(cli, "evolve_mb_harmonics",
                            lambda *a, **k: calls.append((a[2].gamma_ba, a[4])) or ladder(*a, **k))
        path = tmp_path / "deep.cfg"
        path.write_text("scenario = mb_convergence\nn_z = 64\nt_max = 1e6\ntruncation_n = 32\n")
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        assert calls == [(10.0, 32)]
        assert not (tmp_path / "out").exists()

    def test_dispersionless_mirrored_standing_run(self, tmp_path):
        # at l_a = 0 the dispersive propagator takes |kappa+| < |kappa-|; its
        # frames meet the characteristic shifts of the cold closed form within
        # the CSV's 12 printed digits
        overrides = {"scenario": "nonadiabatic_standing", "out_dir": str(tmp_path / "out"),
                     "n_z": 64, "t_max": 2.0, "kappa_plus_sq": 0.45, "l_a": 0.0}
        argv = ["run", "--scenario", "nonadiabatic_standing", "--out", str(tmp_path / "out"),
                "--nz", "64", "--tmax", "2", "--kappa-plus-sq", "0.45", "--la", "0"]
        assert main(argv) == 0
        config = parse_config(None, overrides)
        grid, sched = config.grid(), config.schedule()
        times = np.linspace(0.0, config.t_max, config.n_snapshots)
        path = tmp_path / "out" / "nonadiabatic_standing" / "polariton_density.csv"
        written = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2].reshape(len(times), grid.n_z)
        expected = np.array([
            field.density() for field in
            cold_adiabatic_evolve(gaussian_profile(grid), grid, sched, config.medium(), times)
        ])
        assert np.max(np.abs(written - expected)) <= 1e-11 * np.max(expected)

    def test_unbounded_horizon_is_exact_without_steps(self, tmp_path):
        # fig2_cold takes its numeric frames from the exact transport
        # exponential, so a horizon no stepper could reach costs no more
        started = time.perf_counter()
        argv = ["run", "--scenario", "fig2_cold", "--out", str(tmp_path / "out"),
                "--nz", "64", "--tmax", "1e9"]
        assert main(argv) == 0
        assert time.perf_counter() - started < 5.0
        out = tmp_path / "out" / "fig2_cold"
        data = np.loadtxt(out / "energy_density_numeric.csv", delimiter=",", skiprows=1)
        assert data.shape == (100 * 64, 3) and np.all(np.isfinite(data))
        metrics = dict(line.split("=") for line in (out / "metrics.txt").read_text().splitlines())
        assert all(np.isfinite(float(value)) for value in metrics.values())

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        code = main(
            [
                "run",
                "--scenario",
                "coeff_table",
                "--out",
                str(blocker / "sub"),
            ]
        )
        assert code == 4
        assert "i/o failure" in capsys.readouterr().err

    def test_successful_tiny_run(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scenario",
                "fig2_cold",
                "--out",
                str(tmp_path / "out"),
                "--nz",
                "64",
                "--tmax",
                "2.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote metrics" in out

    def test_flag_overrides_apply(self, tmp_path):
        code = main(
            [
                "run",
                "--scenario",
                "fig2_thermal",
                "--out",
                str(tmp_path / "out"),
                "--nz",
                "64",
                "--tmax",
                "1.0",
                "--kappa-plus-sq",
                "0.7",
                "--la",
                "0.05",
                "--gamma-bc",
                "0.1",
            ]
        )
        assert code == 0
        provenance = (tmp_path / "out" / "fig2_thermal" / "provenance.txt").read_text()
        assert "config.kappa_plus_sq=0.7" in provenance
        assert "config.l_a=0.05" in provenance
        assert "config.gamma_bc=0.1" in provenance


#: What the seeded fuzz draws each config key from: ordinary values and the
#: extremes at which earlier inputs exited 1 (a grid spanning +-1e300, l_a
#: 5e-324 or 2e240, delta 1e300, t_max 1.7e308).  Every value either runs in
#: milliseconds at these grids or is refused at once: t_max 1e9 exceeds every
#: stepper's budget and truncation_n 257 the ladder's bound, where the ladder's
#: admitted N 256, or N 1 to t_max 1e6, would take seconds.
_FUZZ_VALUES = {
    "scenario": tuple(SCENARIO_CATALOG),
    "kappa_plus_sq": (0.0, 5e-324, 0.3, 0.45, 0.5, 0.55, 0.7, 1.0 - 1e-16, 1.0),
    "l_a": (0.0, 5e-324, 1e-300, 1e-3, 0.1, 0.3, 1e3, 2e240, 1e308),
    "gamma_bc": (0.0, 5e-324, 0.05, 0.3, 10.0, 1e300),
    "delta": (0.0, 0.5, -2.0, 1e-300, 1e300, -1e300),
    "cos2_theta0": (1e-300, 1e-3, 0.01, 0.5, 1.0 - 1e-16),
    "truncation_n": (1, 2, 4, 257),
    "z_min": (-1e300, -1e-200, -10.0, -3.0, 0.0),
    "z_max": (1e-300, 1e-200, 10.0, 17.0, 1e300),
    "n_z": (16, 17, 64, 128),
    "t_max": (5e-324, 1e-171, 1e-9, 0.5, 2.0, 1e9, 1e155, 1.7e308),
    "n_snapshots": (2, 3, 5),
}


def test_seeded_fuzz_of_the_config_space(tmp_path):
    # each draw sets every key; it must exit 0, 2 or 3 with RuntimeWarning as
    # an error, and a refused run must leave no directory
    rng = random.Random(0)
    codes, failures = set(), []
    for draw in range(300):
        config = {key: rng.choice(values) for key, values in _FUZZ_VALUES.items()}
        path = tmp_path / "draw.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        out = tmp_path / f"draw{draw}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(["run", "--config", str(path), "--out", str(out)])
            except Exception as exc:  # what main lets through exits 1
                code = f"1 ({type(exc).__name__}: {exc})"
        codes.add(code)
        if code not in (0, 2, 3) or (code != 0 and out.exists()):
            failures.append(f"exit {code}, directory left: {out.exists()}, config: {config}")
    assert not failures, "\n".join(failures)
    assert codes == {0, 2, 3}


def test_readme_matches_schema_and_catalog():
    text = README.read_text(encoding="utf-8")
    keys = text.split("Recognized keys:", 1)[1].split("Unknown keys are errors.", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == [f.name for f in dataclasses.fields(ScenarioConfig)]

    rows = re.findall(r"^\| `(\w+)` \| ([^|]+)\| ([^|]+)\| ([^|]+)\| ([^|]+)\|", text, re.M)
    assert [row[0] for row in rows] == list(SCENARIO_CATALOG)
    for name, *documented in rows:
        config = parse_config(None, {"scenario": name})
        actual = (config.n_z, config.t_max, config.kappa_plus_sq, config.l_a)
        assert [float(v) for v in documented] == pytest.approx(actual), name
