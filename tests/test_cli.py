import time
import warnings

import numpy as np
import pytest

from stationary_light.cli import (
    SCENARIO_CATALOG,
    ConfigError,
    main,
    parse_config,
    run_scenario,
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

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# comment\nnosuchkey=3\n")
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

    def test_determinism_byte_identical(self, tmp_path):
        config_a = parse_config(None, tiny_overrides(tmp_path / "a", "fig2_thermal"))
        config_b = parse_config(None, tiny_overrides(tmp_path / "b", "fig2_thermal"))
        art_a = run_scenario(config_a)
        art_b = run_scenario(config_b)
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
        "scenario", ["fig2_cold", "fig3_quasi_cold", "fig4_compare", "mb_convergence"]
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

    def test_unbounded_horizon_is_solver_error(self, tmp_path, capsys):
        # the cold stepper would need ~1e11 steps; it must refuse before the first
        started = time.perf_counter()
        argv = ["run", "--scenario", "fig2_cold", "--out", str(tmp_path / "out"),
                "--nz", "64", "--tmax", "1e9"]
        assert main(argv) == 3
        assert "budget" in capsys.readouterr().err
        assert time.perf_counter() - started < 30.0

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
