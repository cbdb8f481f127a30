import dataclasses
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

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


class TestParseConfig:
    def test_defaults_from_scenario_flag(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = parse_config(path, {"scenario": "fig2_cold"})
        assert config.scenario == "fig2_cold"
        assert config.kappa_plus_sq == pytest.approx(0.5)
        assert config.kappa_minus_sq == pytest.approx(0.5)
        assert config.n_z == 2048
        assert config.t_max == 10.0

    def test_kappa_complement_rule(self):
        config = parse_config(None, {"scenario": "fig2_cold", "kappa_plus_sq": 0.55})
        assert config.kappa_minus_sq == pytest.approx(0.45)

    def test_kappa_normalized_when_both_given(self, tmp_path):
        path = tmp_path / "k.cfg"
        path.write_text("kappa_plus_sq=0.6\nkappa_minus_sq=0.6\n")
        config = parse_config(path, {"scenario": "fig2_cold"})
        assert config.kappa_plus_sq == pytest.approx(0.5)
        assert config.kappa_minus_sq == pytest.approx(0.5)

    def test_out_of_range_kappa_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"scenario": "fig2_cold", "kappa_plus_sq": 1.2})
        with pytest.raises(ConfigError, match="kappa_minus_sq"):
            parse_config(None, {"scenario": "fig2_cold", "kappa_minus_sq": 1.5})
        # checked as given, before normalisation would map (1.5, 0.5) to (0.75, 0.25)
        with pytest.raises(ConfigError, match="kappa_plus_sq"):
            parse_config(
                None, {"scenario": "fig2_cold", "kappa_plus_sq": 1.5, "kappa_minus_sq": 0.5}
            )

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_CATALOG))
    def test_scenario_defaults_applied(self, scenario):
        config = parse_config(None, {"scenario": scenario})
        defaults = SCENARIO_CATALOG[scenario].defaults
        for key, value in defaults.items():
            assert getattr(config, key) == value, key
        assert config.kappa_minus_sq == pytest.approx(1.0 - defaults["kappa_plus_sq"])
        base = ScenarioConfig(scenario)
        for f in dataclasses.fields(ScenarioConfig):
            if f.name not in defaults and f.name != "kappa_minus_sq":
                assert getattr(config, f.name) == getattr(base, f.name), f.name

    def test_inverted_grid_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("z_min=5\nz_max=-5\n")
        with pytest.raises(ConfigError, match="z_max must exceed z_min"):
            parse_config(path, {"scenario": "fig2_cold"})
        out = tmp_path / "out"
        assert main(["run", "--scenario", "fig2_cold", "--config", str(path),
                     "--out", str(out), "--nz", "64"]) == 2
        assert not (out / "fig2_cold").exists()

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        # gamma_ba is a medium parameter, not a config key: no scenario reads it
        for key in ("nosuchkey", "gamma_ba"):
            path.write_text(f"# comment\n{key}=3\n")
            with pytest.raises(ConfigError, match="bad.cfg:2"):
                parse_config(path, {"scenario": "fig2_cold"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kappa_plus_sq 0.5\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(path, {"scenario": "fig2_cold"})

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

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config(None, {"scenario": "fig9_wrong"})

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigError, match="no scenario"):
            parse_config(None, {})

    def test_value_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(None, {"scenario": "fig2_cold", "n_z": 8})
        with pytest.raises(ConfigError):
            parse_config(None, {"scenario": "fig2_cold", "t_max": -1.0})
        with pytest.raises(ConfigError):
            parse_config(None, {"scenario": "fig2_cold", "l_a": -0.5})
        for key in ("t_max", "l_a", "gamma_bc", "delta", "z_max"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ConfigError, match="finite"):
                    parse_config(None, {"scenario": "fig2_cold", key: bad})
        path = tmp_path / "nan.cfg"
        path.write_text("t_max=nan\n")
        with pytest.raises(ConfigError, match="finite"):
            parse_config(path, {"scenario": "fig2_cold"})

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_working_point_outside_unit_interval_rejected(self, bad, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="cos2_theta0"):
            parse_config(None, {"scenario": "fig2_cold", "out_dir": out, "cos2_theta0": bad})
        assert not out.exists()

    def test_heatmap_row_limit(self, tmp_path):
        out = tmp_path / "out"
        overrides = {"scenario": "fig2_thermal", "out_dir": out, "n_snapshots": 10 ** 9}
        with pytest.raises(ConfigError, match="n_z \\* n_snapshots"):
            parse_config(None, overrides)
        # exactly 2**22 rows (2048 x 2048) is accepted, one frame more is not
        assert parse_config(None, {"scenario": "fig2_cold", "n_snapshots": 2048}).n_z == 2048
        with pytest.raises(ConfigError, match="limit of 4194304"):
            parse_config(None, {"scenario": "fig2_cold", "n_snapshots": 2049})
        assert not out.exists()

    def test_truncation_cap(self, tmp_path):
        # the cap keeps an mb_convergence run near a minute
        config = parse_config(None, {"scenario": "mb_convergence", "truncation_n": 32})
        assert config.truncation_n == 32
        for bad in (0, 33):
            with pytest.raises(ConfigError, match="truncation_n must lie in \\[1, 32\\]"):
                parse_config(None, {"scenario": "mb_convergence", "truncation_n": bad})
        path = tmp_path / "deep.cfg"
        path.write_text("scenario=mb_convergence\ntruncation_n=256\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_overflowing_grid_span_rejected(self, tmp_path):
        path = tmp_path / "wide.cfg"
        path.write_text("z_min=-1e308\nz_max=1e308\n")
        with pytest.raises(ConfigError, match="overflows"):
            parse_config(path, {"scenario": "fig2_cold"})
        out = tmp_path / "out"
        assert main(["run", "--scenario", "fig2_cold", "--config", str(path),
                     "--out", str(out), "--nz", "64"]) == 2
        assert not out.exists()

    def test_non_string_values_checked_by_schema(self, tmp_path):
        out = tmp_path / "out"
        for key, bad in (("n_z", 64.5), ("n_z", True), ("n_z", float("nan")),
                         ("t_max", True), ("l_a", False), ("scenario", 3)):
            overrides = {"scenario": "fig2_cold", "out_dir": out, key: bad}
            with pytest.raises(ConfigError, match="expected"):
                parse_config(None, overrides)
        assert not out.exists()
        config = parse_config(None, {"scenario": "fig2_cold", "n_z": 64.0, "t_max": 2})
        assert (config.n_z, config.t_max) == (64, 2.0)
        assert type(config.n_z) is int and type(config.t_max) is float

    @pytest.mark.parametrize("scenario", ["nonadiabatic_standing", "nonadiabatic_traveling"])
    def test_ground_state_decay_rejected_without_a_decay_term(self, scenario, tmp_path, capsys):
        # the dispersive propagator has no decay term, so a decay would be
        # dropped without a trace in the data
        out = tmp_path / "out"
        for key in ("gamma_bc", "delta"):
            with pytest.raises(ConfigError, match=key):
                parse_config(None, {"scenario": scenario, "out_dir": out, key: 0.5})
            assert parse_config(None, {"scenario": scenario, key: 0.0}).Gamma_bc == 0
        assert main(["run", "--scenario", scenario, "--out", str(out), "--gamma-bc", "0.5"]) == 2
        assert "gamma_bc" in capsys.readouterr().err
        path = tmp_path / "delta.cfg"
        path.write_text(f"scenario={scenario}\ndelta=-0.2\n")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "delta" in capsys.readouterr().err
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
    # time, so the text held at once is a small fraction of the file
    z = np.linspace(-10.0, 10.0, 2048, endpoint=False)
    times = np.linspace(0.0, 10.0, 100)
    frames = np.random.default_rng(0).random((times.size, z.size))
    path = tmp_path / "heatmap.csv"
    tracemalloc.start()
    try:
        _write_heatmap(path, z, times, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 10


class TestRunScenario:
    def test_fig2_cold_outputs(self, tmp_path):
        config = parse_config(None, tiny_overrides(tmp_path, "fig2_cold"))
        artifacts = run_scenario(config)
        assert set(artifacts.data_files) == {"energy_density_analytic", "energy_density_numeric"}
        for path in artifacts.data_files.values():
            lines = path.read_text().splitlines()
            assert lines[0] == "z,t,value"
            assert len(lines) == 1 + 5 * 64  # header + n_snapshots * n_z
        assert artifacts.metrics_file.exists()
        assert artifacts.provenance_file.exists()
        assert "package_version=" in artifacts.provenance_file.read_text()

    @pytest.mark.parametrize("scenario", list(SCENARIO_CATALOG))
    def test_determinism_byte_identical(self, tmp_path, scenario):
        extra = {"n_z": 32, "t_max": 1.0, "truncation_n": 2} if scenario == "mb_convergence" else {}
        art_a = run_scenario(parse_config(None, tiny_overrides(tmp_path / "a", scenario, **extra)))
        art_b = run_scenario(parse_config(None, tiny_overrides(tmp_path / "b", scenario, **extra)))
        assert set(art_a.data_files) == set(art_b.data_files)
        for name in art_a.data_files:
            assert art_a.data_files[name].read_bytes() == art_b.data_files[name].read_bytes()
        assert art_a.metrics_file.read_bytes() == art_b.metrics_file.read_bytes()

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


class TestMainExitCodes:
    def test_list_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIO_CATALOG:
            assert name in out

    def test_unknown_scenario_is_config_error(self, capsys):
        assert main(["run", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_scenario_is_config_error(self):
        assert main(["run"]) == 2

    def test_bad_value_is_config_error(self):
        assert main(["run", "--scenario", "fig2_cold", "--nz", "4"]) == 2

    def test_non_finite_flag_is_config_error(self, capsys):
        assert main(["run", "--scenario", "fig2_cold", "--tmax", "nan"]) == 2
        assert "t_max must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario",
        ["fig2_cold", "fig2_thermal", "fig3_quasi_cold", "fig4_compare", "mb_convergence"],
    )
    def test_fully_decayed_pulse_is_config_error(self, scenario, tmp_path, capsys):
        argv = ["run", "--scenario", scenario, "--out", str(tmp_path / "out"),
                "--nz", "64", "--gamma-bc", "1e6"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 2
        assert "fully decayed" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()

    def test_heatmap_row_limit_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "huge.cfg"
        path.write_text("scenario=fig2_thermal\nn_snapshots=1000000000\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "n_snapshots" in capsys.readouterr().err
        assert not out.exists()

    def test_unbounded_horizon_is_solver_error(self, tmp_path, capsys):
        # the cold stepper would need ~1e11 steps; it must refuse before the first
        started = time.perf_counter()
        argv = ["run", "--scenario", "fig2_cold", "--out", str(tmp_path / "out"),
                "--nz", "64", "--tmax", "1e9"]
        assert main(argv) == 3
        assert "budget" in capsys.readouterr().err
        assert time.perf_counter() - started < 30.0
        assert not (tmp_path / "out").exists()

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


def test_readme_matches_schema_and_catalog():
    text = README.read_text(encoding="utf-8")
    keys = text.split("Recognized keys:", 1)[1].split("Unknown keys are errors.", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == [f.name for f in dataclasses.fields(ScenarioConfig)]

    rows = re.findall(r"^\| `(\w+)` \| ([^|]+)\| ([^|]+)\| ([^|]+)\| ([^|]+)\|", text, re.M)
    decay_free = re.findall(r"^\| `(\w+)` \|.*no ground-state decay", text, re.M)
    assert decay_free == [name for name, s in SCENARIO_CATALOG.items() if "gamma_bc" in s.unmodelled]
    assert [row[0] for row in rows] == list(SCENARIO_CATALOG)
    for name, *documented in rows:
        config = parse_config(None, {"scenario": name})
        actual = (config.n_z, config.t_max, config.kappa_plus_sq, config.l_a)
        assert [float(v) for v in documented] == pytest.approx(actual), name
