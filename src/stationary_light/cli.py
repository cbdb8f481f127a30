"""Scenario runner: configures named experiments, executes them, and writes
deterministic CSV datasets plus a metrics summary and a provenance block.

Data files carry no run-specific content (fixed 12-significant-digit
formatting, no timestamps), so identical configurations produce byte-identical
outputs; provenance.txt holds the configuration echo and solver settings.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    cold_adiabatic_evolve,
    energy_density,
    initial_split,
    nonadiabatic_spectral_evolve,
    polariton_to_spectrum,
    probe_from_polariton,
    spectrum_to_polariton,
)
from .core import (
    CouplingSchedule,
    MediumParams,
    PolaritonField,
    ProbeField,
    SimulationGrid,
    displacement_r,
    gaussian_profile,
)
from .fourier import beta as beta_factor, coeff_a, coeff_d, quadrature_oracle
from .observables import compute_metrics, variance_growth_rate
from .solver import SolverError, evolve_cold_numeric, evolve_mb_harmonics, evolve_thermal_numeric


class ConfigError(Exception):
    """Invalid configuration file, flag, or value."""


SCENARIO_CATALOG: dict[str, str] = {
    "fig2_cold": "standing-wave retrieval in a non-moving medium: analytic and numeric energy density (z, t)",
    "fig2_thermal": "standing-wave retrieval in a thermal medium: diffusively broadened energy density (z, t)",
    "fig3_quasi_cold": "quasi-standing retrieval, non-moving medium: forward/backward polariton amplitudes (z, t)",
    "fig4_compare": "quasi-standing retrieval, cold vs thermal energy density side by side",
    "nonadiabatic_standing": "dispersive mode propagator at a pure standing wave: no envelope broadening",
    "nonadiabatic_traveling": "dispersive mode propagator at a traveling wave: drift plus diffusive broadening",
    "mb_convergence": "ladder-oracle error vs adiabaticity (gamma_ba*T_s) and harmonic truncation table",
    "coeff_table": "grating Fourier coefficients: closed forms vs quadrature oracle over a y grid",
}

_SCENARIO_DEFAULTS: dict[str, dict] = {
    "fig2_cold": {"kappa_plus_sq": 0.5, "t_max": 10.0},
    "fig2_thermal": {"kappa_plus_sq": 0.5, "t_max": 10.0, "n_z": 1024},
    "fig3_quasi_cold": {"kappa_plus_sq": 0.55, "t_max": 20.0},
    "fig4_compare": {"kappa_plus_sq": 0.55, "t_max": 20.0, "n_z": 1024},
    "nonadiabatic_standing": {"kappa_plus_sq": 0.5, "t_max": 10.0},
    "nonadiabatic_traveling": {"kappa_plus_sq": 1.0, "t_max": 8.0},
    "mb_convergence": {"kappa_plus_sq": 0.5, "t_max": 6.0, "n_z": 128, "l_a": 0.002},
    "coeff_table": {"kappa_plus_sq": 0.5, "t_max": 1.0},
}


@dataclass
class ScenarioConfig:
    """Resolved configuration of one scenario run."""

    scenario: str
    kappa_plus_sq: float = 0.5
    kappa_minus_sq: float = 0.5
    l_a: float = 0.1
    gamma_bc: float = 0.0
    delta: float = 0.0
    cos2_theta0: float = 0.01
    gamma_ba: float = 100.0
    truncation_n: int = 8
    z_min: float = -10.0
    z_max: float = 10.0
    n_z: int = 2048
    t_max: float = 10.0
    n_snapshots: int = 100
    out_dir: Path = Path("runs")

    @property
    def Gamma_bc(self) -> complex:
        return self.gamma_bc - 1j * self.delta

    def grid(self) -> SimulationGrid:
        return SimulationGrid(z_min=self.z_min, z_max=self.z_max, n_z=self.n_z)

    def schedule(self) -> CouplingSchedule:
        return CouplingSchedule.from_intensities(
            self.kappa_plus_sq, self.kappa_minus_sq, theta0=math.acos(math.sqrt(self.cos2_theta0))
        )

    def medium(self) -> MediumParams:
        return MediumParams(gamma_ba=self.gamma_ba, Gamma_bc=self.Gamma_bc, l_a=self.l_a)


@dataclass
class RunArtifacts:
    """Paths of everything a run emitted."""

    data_files: dict[str, Path] = field(default_factory=dict)
    metrics_file: Path | None = None
    provenance_file: Path | None = None


_FLOAT_KEYS = {
    "kappa_plus_sq", "kappa_minus_sq", "l_a", "gamma_bc", "delta", "cos2_theta0",
    "gamma_ba", "z_min", "z_max", "t_max",
}
_INT_KEYS = {"n_z", "n_snapshots", "truncation_n"}
_STR_KEYS = {"scenario", "out_dir"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


def _read_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value: str):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc
    return value


def parse_config(path: Path | str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Merge scenario defaults, a key=value config file, and flag overrides.

    Flags win over the file; unknown keys and out-of-range values are errors.
    The two coupling intensities are normalised to unit total on load, with a
    missing one defaulting to the complement of the other.
    """
    raw: dict[str, object] = {}
    if path is not None:
        raw.update(_read_config_file(Path(path)))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown option {key!r}")
        raw[key] = value

    scenario = str(raw.pop("scenario", "") or "")
    if not scenario:
        raise ConfigError("no scenario given (use --scenario or a 'scenario=' line)")
    if scenario not in SCENARIO_CATALOG:
        known = ", ".join(sorted(SCENARIO_CATALOG))
        raise ConfigError(f"unknown scenario {scenario!r}; known scenarios: {known}")

    merged: dict[str, object] = dict(_SCENARIO_DEFAULTS[scenario])
    kappa_given = {k: raw.pop(k, None) for k in ("kappa_plus_sq", "kappa_minus_sq")}
    for key, value in raw.items():
        merged[key] = _coerce(key, value) if isinstance(value, str) else value

    config = ScenarioConfig(scenario=scenario)
    for key, value in merged.items():
        setattr(config, key, Path(value) if key == "out_dir" else value)

    kp = kappa_given["kappa_plus_sq"]
    km = kappa_given["kappa_minus_sq"]
    kp = _coerce("kappa_plus_sq", kp) if isinstance(kp, str) else kp
    km = _coerce("kappa_minus_sq", km) if isinstance(km, str) else km
    if kp is None and km is None:
        kp = merged.get("kappa_plus_sq", config.kappa_plus_sq)
        km = 1.0 - float(kp)
    elif kp is None:
        if not 0.0 <= float(km) <= 1.0:
            raise ConfigError(f"kappa_minus_sq out of [0, 1]: {km}")
        kp = 1.0 - float(km)
    elif km is None:
        if not 0.0 <= float(kp) <= 1.0:
            raise ConfigError(f"kappa_plus_sq out of [0, 1]: {kp}")
        km = 1.0 - float(kp)
    kp, km = float(kp), float(km)
    if not 0.0 <= kp <= 1.0:
        raise ConfigError(f"kappa_plus_sq out of [0, 1]: {kp}")
    if not 0.0 <= km <= 1.0:
        raise ConfigError(f"kappa_minus_sq out of [0, 1]: {km}")
    total = kp + km
    if total <= 0.0:
        raise ConfigError("coupling intensities must not both vanish")
    config.kappa_plus_sq = kp / total
    config.kappa_minus_sq = km / total

    for key in sorted(_FLOAT_KEYS):
        value = getattr(config, key)
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")

    if config.n_z < 16:
        raise ConfigError(f"n_z must be at least 16, got {config.n_z}")
    if config.t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {config.t_max}")
    if config.n_snapshots < 2:
        raise ConfigError(f"n_snapshots must be at least 2, got {config.n_snapshots}")
    if not 0.0 < config.cos2_theta0 < 1.0:
        raise ConfigError(f"cos2_theta0 must lie in (0, 1), got {config.cos2_theta0}")
    if config.l_a < 0:
        raise ConfigError(f"l_a must be non-negative, got {config.l_a}")
    if config.gamma_bc < 0:
        raise ConfigError(f"gamma_bc must be non-negative, got {config.gamma_bc}")
    if config.gamma_ba <= 0:
        raise ConfigError(f"gamma_ba must be positive, got {config.gamma_ba}")
    if config.truncation_n < 1:
        raise ConfigError(f"truncation_n must be at least 1, got {config.truncation_n}")
    return config


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_heatmap(path: Path, z: np.ndarray, times: np.ndarray, frames: np.ndarray) -> None:
    lines = ["z,t,value"]
    for t, frame in zip(times, frames):
        t_str = _fmt(float(t))
        lines.extend(f"{_fmt(float(zi))},{t_str},{_fmt(float(vi))}" for zi, vi in zip(z, frame))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_table(path: Path, header: str, rows: list[tuple]) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(float(v)) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_metrics(path: Path, metrics: dict[str, float]) -> None:
    lines = [f"{key}={_fmt(float(value))}" for key, value in sorted(metrics.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_provenance(path: Path, config: ScenarioConfig, settings: dict) -> None:
    lines = [f"package_version={__version__}", "units=z:L_p,t:T_s,density:|E0|^2"]
    for f in dataclass_fields(config):
        lines.append(f"config.{f.name}={getattr(config, f.name)}")
    for key, value in sorted(settings.items()):
        lines.append(f"solver.{key}={value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _snapshot_times(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.n_snapshots)


def _probe_density_frame(field: PolaritonField, schedule: CouplingSchedule, t: float) -> np.ndarray:
    # Energy density in units of the pre-storage photon density |E0|^2,
    # with E0 = cos(theta0) * Psi0 and Psi0 = 1.
    probe = probe_from_polariton(field, schedule, t)
    return energy_density(probe) / schedule.cos2_theta0


def _max_rel_dev(frames: np.ndarray, reference: np.ndarray) -> float:
    """max |frames - reference| over the peak of reference, which must be non-zero."""
    peak = np.max(reference)
    if peak == 0.0:
        raise ValueError("energy density is zero at every sample: the pulse has fully decayed")
    return float(np.max(np.abs(frames - reference)) / peak)


def _run_fig2_cold(config: ScenarioConfig):
    grid, schedule = config.grid(), config.schedule()
    times = _snapshot_times(config)
    psi0 = gaussian_profile(grid)

    analytic_frames = np.empty((times.size, grid.n_z))
    for i, t in enumerate(times):
        fld = cold_adiabatic_evolve(psi0, grid, schedule, float(t), config.Gamma_bc)
        analytic_frames[i] = _probe_density_frame(fld, schedule, float(t))

    report = evolve_cold_numeric(
        initial_split(psi0, schedule), schedule, config.medium(), grid,
        config.t_max, snapshot_times=times,
    )
    numeric_frames = np.empty((times.size, grid.n_z))
    metrics_history = []
    for i, snap in enumerate(report.snapshots):
        numeric_frames[i] = _probe_density_frame(snap, schedule, snap.time_stamp)
        if snap.time_stamp >= 2.0:
            metrics_history.append(compute_metrics(snap, grid))

    saturated = times >= 5.0
    metrics = {
        "final_norm_numeric": report.norm_history[-1],
        "norm_drift_rel": abs(report.norm_history[-1] - report.norm_history[0])
        / report.norm_history[0],
        "max_analytic_numeric_dev_rel": _max_rel_dev(numeric_frames, analytic_frames),
    }
    if np.any(saturated):
        reference = numeric_frames[np.argmax(saturated)]
        metrics["stationarity_max_rel_dev"] = _max_rel_dev(numeric_frames[saturated], reference)
    if len(metrics_history) >= 3:
        metrics["width_sq_slope_vs_r"] = variance_growth_rate(metrics_history, schedule)
    frames = {
        "energy_density_analytic": (times, analytic_frames),
        "energy_density_numeric": (times, numeric_frames),
    }
    return frames, {}, metrics, {"steps": report.steps, "max_cfl": f"{report.max_cfl:.6g}"}


def _run_fig2_thermal(config: ScenarioConfig):
    grid, schedule = config.grid(), config.schedule()
    times = _snapshot_times(config)
    psi0 = gaussian_profile(grid)
    report = evolve_thermal_numeric(
        initial_split(psi0, schedule), schedule, config.medium(), grid,
        config.t_max, snapshot_times=times,
    )
    frames_arr = np.empty((times.size, grid.n_z))
    history = []
    for i, snap in enumerate(report.snapshots):
        frames_arr[i] = _probe_density_frame(snap, schedule, snap.time_stamp)
        history.append(compute_metrics(snap, grid))
    slope = variance_growth_rate(history, schedule)
    kp2, km2 = schedule.kappa_plus_sq, schedule.kappa_minus_sq
    metrics = {
        "width_sq_slope_vs_r": slope,
        "width_sq_slope_expected": 2.0 * config.l_a * 4.0 * kp2 * km2,
        "final_norm": report.norm_history[-1],
    }
    frames = {"energy_density_thermal": (times, frames_arr)}
    return frames, {}, metrics, {}


def _run_fig3_quasi_cold(config: ScenarioConfig):
    grid, schedule = config.grid(), config.schedule()
    times = _snapshot_times(config)
    psi0 = gaussian_profile(grid)
    plus_frames = np.empty((times.size, grid.n_z))
    minus_frames = np.empty((times.size, grid.n_z))
    for i, t in enumerate(times):
        fld = cold_adiabatic_evolve(psi0, grid, schedule, float(t), config.Gamma_bc)
        plus_frames[i] = np.abs(fld.psi_plus)
        minus_frames[i] = np.abs(fld.psi_minus)

    report = evolve_cold_numeric(
        initial_split(psi0, schedule), schedule, config.medium(), grid,
        config.t_max, snapshot_times=[config.t_max],
    )
    final_metrics = compute_metrics(report.final_field, grid)
    if final_metrics.forward_fraction is None:
        raise ValueError(
            f"final field is zero at t = {config.t_max:.6g}: the pulse has fully decayed"
        )
    metrics = {
        "beta_closed_form": beta_factor(schedule),
        "forward_fraction_final_numeric": final_metrics.forward_fraction,
        "final_norm_numeric": final_metrics.total_norm,
    }
    frames = {
        "psi_plus_abs": (times, plus_frames),
        "psi_minus_abs": (times, minus_frames),
    }
    return frames, {}, metrics, {"steps": report.steps}


def _run_fig4_compare(config: ScenarioConfig):
    grid, schedule = config.grid(), config.schedule()
    times = _snapshot_times(config)
    psi0 = gaussian_profile(grid)
    cold_frames = np.empty((times.size, grid.n_z))
    for i, t in enumerate(times):
        fld = cold_adiabatic_evolve(psi0, grid, schedule, float(t), config.Gamma_bc)
        cold_frames[i] = _probe_density_frame(fld, schedule, float(t))

    report = evolve_thermal_numeric(
        initial_split(psi0, schedule), schedule, config.medium(), grid,
        config.t_max, snapshot_times=times,
    )
    thermal_frames = np.empty((times.size, grid.n_z))
    centroid_history = []
    backward_max = 0.0
    for i, snap in enumerate(report.snapshots):
        thermal_frames[i] = _probe_density_frame(snap, schedule, snap.time_stamp)
        m = compute_metrics(snap, grid, split_at=-2.0)
        if m.centroid is None:
            raise ValueError(
                f"thermal centroid undefined at t = {snap.time_stamp:.6g}: the pulse has fully decayed"
            )
        centroid_history.append((float(displacement_r(schedule, snap.time_stamp)), m.centroid))
        backward_max = max(backward_max, m.backward_fraction or 0.0)
    r_vals = np.array([rc[0] for rc in centroid_history])
    c_vals = np.array([rc[1] for rc in centroid_history])
    drift_slope, _ = np.polyfit(r_vals, c_vals, 1)
    metrics = {
        "thermal_drift_slope_vs_r": float(drift_slope),
        "thermal_drift_slope_expected": schedule.kappa_plus_sq - schedule.kappa_minus_sq,
        "thermal_backward_fraction_max": backward_max,
    }
    frames = {
        "energy_density_cold": (times, cold_frames),
        "energy_density_thermal": (times, thermal_frames),
    }
    return frames, {}, metrics, {}


def _run_nonadiabatic(config: ScenarioConfig, center: float):
    grid, schedule = config.grid(), config.schedule()
    times = _snapshot_times(config)
    psi0 = gaussian_profile(grid, center=center)
    spectrum0 = polariton_to_spectrum(initial_split(psi0, schedule), grid)
    frames_arr = np.empty((times.size, grid.n_z))
    history = []
    for i, t in enumerate(times):
        evolved = spectrum_to_polariton(
            nonadiabatic_spectral_evolve(spectrum0, schedule, config.l_a, float(t))
        )
        frames_arr[i] = evolved.density()
        history.append(compute_metrics(evolved, grid))
    metrics: dict[str, float] = {}
    if np.ptp([float(displacement_r(schedule, t)) for t in times]) > 0:
        metrics["width_sq_slope_vs_r"] = variance_growth_rate(history, schedule)
    start = history[0]
    end = history[-1]
    metrics["centroid_shift"] = end.centroid - start.centroid
    metrics["max_density_change_rel"] = float(
        np.max(np.abs(frames_arr[-1] - frames_arr[0])) / np.max(frames_arr[0])
    )
    return {"polariton_density": (times, frames_arr)}, {}, metrics, {}


def _run_mb_convergence(config: ScenarioConfig):
    grid, schedule = config.grid(), config.schedule()
    psi0 = gaussian_profile(grid)
    zeros = np.zeros(grid.n_z, dtype=complex)
    gamma_values = (10.0, 30.0, 100.0, 300.0)
    cap = int(config.truncation_n)
    n_values = sorted({n for n in (1, 2, 4, 8) if n <= cap} | {cap})
    t_end = config.t_max

    analytic_field = cold_adiabatic_evolve(psi0, grid, schedule, t_end, config.Gamma_bc)
    probe_ref = probe_from_polariton(analytic_field, schedule, t_end)
    ref = np.concatenate([probe_ref.e_plus, probe_ref.e_minus])
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError(
            f"reference probe field is zero at t = {t_end:.6g}: the pulse has fully decayed"
        )

    rows = []
    for gamma_ba in gamma_values:
        medium = MediumParams(gamma_ba=gamma_ba, Gamma_bc=config.Gamma_bc, l_a=config.l_a)
        for n_shells in n_values:
            history = evolve_mb_harmonics(
                ProbeField(zeros, zeros), schedule, medium, grid, n_shells, t_end,
                initial_sigma_bc0=-psi0,
            )
            final = history[-1]
            got = np.concatenate([final.e_plus, final.e_minus])
            rows.append((gamma_ba, n_shells, float(np.linalg.norm(got - ref)) / ref_norm))
    table = {"mb_convergence": ("gamma_ba_Ts,truncation_N,rel_l2_error", rows)}
    best = min(row[2] for row in rows)
    return {}, table, {"best_rel_l2_error": best}, {"t_end": t_end}


def _run_coeff_table(config: ScenarioConfig):
    y_values = [round(0.05 * i, 2) for i in range(20)] + [0.99]
    rows = []
    max_delta = 0.0
    for y in y_values:
        a0, a1 = coeff_a(y)
        d0, d1 = coeff_d(y)
        deltas = (
            abs(a0 - quadrature_oracle(0, y, 1)),
            abs(a1 - quadrature_oracle(1, y, 1)),
            abs(d0 - quadrature_oracle(0, y, 2)),
            abs(d1 - quadrature_oracle(1, y, 2)),
        )
        max_delta = max(max_delta, *deltas)
        rows.append((y, a0, a1, d0, d1, *deltas))
    table = {
        "coeff_table": ("y,a0,a1,d0,d1,delta_a0,delta_a1,delta_d0,delta_d1", rows)
    }
    return {}, table, {"max_oracle_delta": max_delta}, {}


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    """Execute the configured scenario and write its datasets.

    Outputs land in ``<out_dir>/<scenario>/``: one CSV per emitted quantity,
    ``metrics.txt`` with scalar diagnostics, and ``provenance.txt``.
    """
    runners = {
        "fig2_cold": _run_fig2_cold,
        "fig2_thermal": _run_fig2_thermal,
        "fig3_quasi_cold": _run_fig3_quasi_cold,
        "fig4_compare": _run_fig4_compare,
        "nonadiabatic_standing": lambda cfg: _run_nonadiabatic(cfg, center=0.0),
        "nonadiabatic_traveling": lambda cfg: _run_nonadiabatic(cfg, center=-4.0),
        "mb_convergence": _run_mb_convergence,
        "coeff_table": _run_coeff_table,
    }
    if config.scenario not in runners:
        raise ConfigError(f"unknown scenario {config.scenario!r}")

    out = Path(config.out_dir) / config.scenario
    out.mkdir(parents=True, exist_ok=True)

    frames, tables, metrics, settings = runners[config.scenario](config)

    artifacts = RunArtifacts()
    grid = config.grid()
    for name, (times, data) in frames.items():
        path = out / f"{name}.csv"
        _write_heatmap(path, grid.z, times, data)
        artifacts.data_files[name] = path
    for name, (header, rows) in tables.items():
        path = out / f"{name}.csv"
        _write_table(path, header, rows)
        artifacts.data_files[name] = path

    artifacts.metrics_file = out / "metrics.txt"
    _write_metrics(artifacts.metrics_file, metrics)
    artifacts.provenance_file = out / "provenance.txt"
    _write_provenance(artifacts.provenance_file, config, settings)
    return artifacts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stationary-light",
        description="Stationary light pulse scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario")
    run.add_argument("--scenario", help="scenario name (see 'list')")
    run.add_argument("--config", help="key=value configuration file")
    run.add_argument("--out", help="output directory (default: runs/)")
    run.add_argument("--nz", type=int, help="spatial sample count")
    run.add_argument("--tmax", type=float, help="time horizon in units of T_s")
    run.add_argument("--kappa-plus-sq", type=float, help="forward coupling intensity fraction")
    run.add_argument("--la", type=float, help="resonant absorption length in units of L_p")
    run.add_argument("--gamma-bc", type=float, help="ground-state dephasing rate in 1/T_s")

    sub.add_parser("list", help="print the scenario catalog")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in SCENARIO_CATALOG)
        for name, description in SCENARIO_CATALOG.items():
            print(f"{name:<{width}}  {description}")
        return 0

    overrides = {
        "scenario": args.scenario,
        "out_dir": args.out,
        "n_z": args.nz,
        "t_max": args.tmax,
        "kappa_plus_sq": args.kappa_plus_sq,
        "l_a": args.la,
        "gamma_bc": args.gamma_bc,
    }
    try:
        config = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        artifacts = run_scenario(config)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    for name, path in artifacts.data_files.items():
        print(f"wrote {name}: {path}")
    print(f"wrote metrics: {artifacts.metrics_file}")
    print(f"wrote provenance: {artifacts.provenance_file}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
