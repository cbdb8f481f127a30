"""Scenario runner: configures named experiments, executes them, and writes
deterministic CSV datasets plus a metrics summary and a provenance block.

``SCENARIO_CATALOG`` is the one table of scenarios (description, config
defaults, runner), and the config keys with their types are the fields of
``ScenarioConfig``.  ``parse_config`` also builds a config's grid, schedule
and medium, so a bad value fails before any output is written.
``run_scenario`` builds the run's grid, schedule, medium and snapshot times
once and hands them to the scenario's runner, which returns its frames keyed
by name (each of shape (snapshots, n_z), at those times), its tables, metrics
and solver settings; no runner builds any of the four itself.  Every field
scenario passes the fields it reports through ``compute_metrics`` before it
forms their frames; it refuses a zero field and one whose density overflows,
so a fully decayed, off-grid or overflowing pulse is a configuration error
(exit 2) and leaves no output directory.

Data files carry no run-specific content (fixed 12-significant-digit
formatting, no timestamps), so identical configurations produce byte-identical
outputs; provenance.txt holds the configuration echo and solver settings.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analytic import (
    cold_adiabatic_evolve,
    cold_transport_evolve,
    initial_split,
    nonadiabatic_spectral_evolve,
    probe_from_polariton,
    thermal_adiabatic_evolve,
)
from .core import (
    CouplingSchedule,
    MediumParams,
    ProbeField,
    SimulationGrid,
    displacement_r,
    gaussian_profile,
)
from .fourier import beta as beta_factor, coeff_a, coeff_d, quadrature_oracle
from .observables import (
    _MIN_R_SPREAD,
    _slope_against_r,
    compute_metrics,
    variance_growth_rate,
)
from .solver import _MAX_TRUNCATION_N, SolverError, evolve_cold_numeric, evolve_mb_harmonics


class ConfigError(Exception):
    """Invalid configuration file, flag, or value."""


@dataclass
class ScenarioConfig:
    """Resolved configuration of one scenario run.

    The fields are the config keys, and each key's type is the type of its
    default, so every field but ``scenario`` needs a default of its own type.
    """

    scenario: str
    kappa_plus_sq: float = 0.5
    l_a: float = 0.1
    gamma_bc: float = 0.0
    delta: float = 0.0
    cos2_theta0: float = 0.01
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
        return CouplingSchedule.from_intensities(self.kappa_plus_sq, cos2_theta0=self.cos2_theta0)

    def medium(self) -> MediumParams:
        return MediumParams(Gamma_bc=self.Gamma_bc, l_a=self.l_a)


@dataclass
class RunArtifacts:
    """Paths of everything a run emitted."""

    data_files: dict[str, Path] = field(default_factory=dict)
    metrics_file: Path | None = None
    provenance_file: Path | None = None


#: Most heatmap rows (n_z * n_snapshots) a config may ask for, 20x the largest
#: scenario default (2048 x 100): every frame array (and every field a solver
#: returns for it) is held in memory before writing, though the CSV text is
#: written one frame at a time (a run of equal frames is formatted once).
_MAX_HEATMAP_ROWS = 2 ** 22

#: Largest detuning phase delta * (t - cos2_theta0 r(t)) a config may reach by
#: t_max, in rad: from 2**53 on, the phase's spacing of floats is 2 rad or more,
#: so it has no significant digit and every field it turns is noise.
_MAX_DETUNING_PHASE = 2.0 ** 53

_KEY_TYPES: dict[str, type] = {
    f.name: str if f.default is dataclasses.MISSING else type(f.default)
    for f in dataclasses.fields(ScenarioConfig)
}


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
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value):
    """`value` as the key's type; a string is parsed.

    An int key takes an int or an integral float and a float key an int or a
    float, never a bool; any other key takes only an instance of its type.
    """
    kind = _KEY_TYPES[key]
    if isinstance(value, str):
        try:
            return kind(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind is float and number:
        return float(value)
    if kind is int and number and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    if kind not in (int, float) and isinstance(value, kind):
        return value
    raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {value!r}")


def parse_config(path: Path | str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Merge scenario defaults, a key=value config file, and flag overrides.

    Flags win over the file; unknown keys, values of the wrong type,
    out-of-range values, more than ``_MAX_HEATMAP_ROWS`` heatmap rows
    (n_z * n_snapshots), a truncation_n above the ladder's
    ``solver._MAX_TRUNCATION_N`` and a detuning whose phase reaches
    ``_MAX_DETUNING_PHASE`` by t_max are errors.
    |kappa-|^2 is the complement of ``kappa_plus_sq``.  The config's grid,
    schedule and medium are built here, so their own checks reject a bad
    value (``kappa_plus_sq`` outside [0, 1], say) before anything runs.
    """
    raw: dict[str, object] = {}
    if path is not None:
        raw.update(_read_config_file(Path(path)))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown option {key!r}")
        raw[key] = value
    values = {key: _coerce(key, value) for key, value in raw.items()}

    scenario = values.pop("scenario", "")
    if not scenario:
        raise ConfigError("no scenario given (use --scenario or a 'scenario=' line)")
    if scenario not in SCENARIO_CATALOG:
        known = ", ".join(sorted(SCENARIO_CATALOG))
        raise ConfigError(f"unknown scenario {scenario!r}; known scenarios: {known}")

    merged = {**SCENARIO_CATALOG[scenario].defaults, **values}
    config = ScenarioConfig(scenario=scenario, **merged)

    for key, kind in _KEY_TYPES.items():
        if kind is float and not math.isfinite(getattr(config, key)):
            raise ConfigError(f"{key} must be finite, got {getattr(config, key)}")
    if config.t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {config.t_max}")
    if config.n_snapshots < 2:
        raise ConfigError(f"n_snapshots must be at least 2, got {config.n_snapshots}")
    if config.n_z * config.n_snapshots > _MAX_HEATMAP_ROWS:
        raise ConfigError(
            f"n_z * n_snapshots = {config.n_z * config.n_snapshots} heatmap rows "
            f"exceeds the limit of {_MAX_HEATMAP_ROWS}"
        )
    if not 1 <= config.truncation_n <= _MAX_TRUNCATION_N:
        raise ConfigError(f"truncation_n must lie in [1, {_MAX_TRUNCATION_N}], "
                          f"got {config.truncation_n}")
    if config.gamma_bc < 0:  # MediumParams would name Re(Gamma_bc), not the key
        raise ConfigError(f"gamma_bc must be non-negative, got {config.gamma_bc}")
    try:
        _, schedule, _ = config.grid(), config.schedule(), config.medium()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the phase's time grows with t (its rate is sin^2(theta) >= 0)
    spin_time = config.t_max - schedule.cos2_theta0 * float(displacement_r(schedule, config.t_max))
    if abs(config.delta) * spin_time >= _MAX_DETUNING_PHASE:
        raise ConfigError(f"delta = {config.delta:g} turns the spin phase by "
                          f"{abs(config.delta) * spin_time:.3g} rad by t_max = {config.t_max:g}, "
                          f"past 2**53, where it has no significant digit")
    return config


#: Format of every number a data file or metrics.txt holds.
_NUMBER = "%.12g"


def _write_heatmap(path: Path, z: np.ndarray, times: np.ndarray, frames: np.ndarray) -> None:
    """One ``z,t,value`` row per grid point of each frame.

    ``frames`` must have shape ``(len(times), len(z))``; otherwise this raises
    ``ValueError`` before the file is created.  ``z`` is formatted once into a
    row template with a placeholder for the time; each frame then fills the
    template's values with one ``%``, the placeholder kept, and is written
    with its time put in, so only one frame's text is held at a time.  A run
    of frames that are bitwise equal (so 0.0 and -0.0 differ) is formatted
    once and only the time is put in for each frame of the run: the frozen
    standing-wave pulse repeats one frame at every snapshot.
    """
    if np.shape(frames) != (len(times), len(z)):
        raise ValueError(
            f"heatmap frames have shape {np.shape(frames)}, expected "
            f"(len(times), len(z)) = ({len(times)}, {len(z)})"
        )
    template = "".join(f"{_NUMBER % zi},\0,{_NUMBER}\n"
                       for zi in np.asarray(z, dtype=float).tolist())
    with path.open("w", encoding="utf-8") as handle:
        handle.write("z,t,value\n")
        for _, run in itertools.groupby(zip(times, frames), key=lambda pair: pair[1].tobytes()):
            run = list(run)
            text = template % tuple(run[0][1].tolist())
            for t, _ in run:
                handle.write(text.replace("\0", _NUMBER % float(t)))


def _write_table(path: Path, header: str, rows: list[tuple]) -> None:
    lines = [header]
    lines.extend(",".join([_NUMBER] * len(row)) % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_metrics(path: Path, metrics: dict[str, float]) -> None:
    lines = [f"{key}={_NUMBER % float(value)}" for key, value in sorted(metrics.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_provenance(path: Path, config: ScenarioConfig, settings: dict) -> None:
    lines = [f"package_version={__version__}", "units=z:L_p,t:T_s,density:|E0|^2"]
    for f in dataclasses.fields(config):
        lines.append(f"config.{f.name}={getattr(config, f.name)}")
    for key, value in sorted(settings.items()):
        lines.append(f"solver.{key}={value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _density_frames(fields, schedule: CouplingSchedule, config: ScenarioConfig) -> np.ndarray:
    """Probe energy density of each field at its own time, one row per field, in
    units of the pre-storage photon density |E0|^2 (E0 = cos(theta0) * Psi0, Psi0 = 1).

    ``fields`` holds one field per snapshot time; each row is filled as its
    field arrives.
    """
    frames = np.empty((config.n_snapshots, config.n_z))
    for row, fld in zip(frames, fields, strict=True):
        density = probe_from_polariton(fld, schedule).density()
        np.divide(density, schedule.cos2_theta0, out=row)
    return frames


def _run_fig2_cold(config: ScenarioConfig, grid, schedule, medium, times):
    fields = cold_transport_evolve(initial_split(gaussian_profile(grid), schedule), grid,
                                   schedule, medium, times)
    history = [compute_metrics(fld, grid) for fld in fields]
    numeric_frames = _density_frames(fields, schedule, config)
    late = [m for m in history if m.time >= 2.0]

    saturated = times >= 5.0
    metrics = {"final_norm_numeric": history[-1].total_norm}
    if np.any(saturated):
        reference = numeric_frames[np.argmax(saturated)]
        deviation = np.max(np.abs(numeric_frames[saturated] - reference))
        metrics["stationarity_max_rel_dev"] = float(deviation / np.max(reference))
    if len(late) >= 3:
        metrics["width_sq_slope_vs_r"] = variance_growth_rate(late, schedule)
    return {"energy_density_numeric": numeric_frames}, {}, metrics, {}


def _run_fig2_thermal(config: ScenarioConfig, grid, schedule, medium, times):
    fields = thermal_adiabatic_evolve(gaussian_profile(grid), grid, schedule, medium, times)
    history = [compute_metrics(fld, grid) for fld in fields]
    frames = {"energy_density_thermal": _density_frames(fields, schedule, config)}
    slope = variance_growth_rate(history, schedule)
    kp2, km2 = schedule.kappa_plus_sq, schedule.kappa_minus_sq
    metrics = {
        "width_sq_slope_vs_r": slope,
        "width_sq_slope_expected": 2.0 * medium.l_a * 4.0 * kp2 * km2,
        "final_norm": history[-1].total_norm,
    }
    return frames, {}, metrics, {}


def _run_fig3_quasi_cold(config: ScenarioConfig, grid, schedule, medium, times):
    psi0 = gaussian_profile(grid)
    # the stepper runs first, so a run it refuses skips the snapshots
    fields = evolve_cold_numeric(
        initial_split(psi0, schedule), schedule, medium, grid, config.t_max
    )
    plus_abs = np.empty((config.n_snapshots, config.n_z))
    minus_abs = np.empty_like(plus_abs)
    # one closed-form call per snapshot, so one field is held at a time
    for i, t in enumerate(times):
        (fld,) = cold_adiabatic_evolve(psi0, grid, schedule, medium, [t])
        np.abs(fld.psi_plus, out=plus_abs[i])
        np.abs(fld.psi_minus, out=minus_abs[i])

    final_metrics = compute_metrics(fields[-1], grid)
    metrics = {
        "beta_closed_form": beta_factor(schedule),
        "forward_fraction_final_numeric": final_metrics.forward_fraction,
        "final_norm_numeric": final_metrics.total_norm,
    }
    frames = {"psi_plus_abs": plus_abs, "psi_minus_abs": minus_abs}
    return frames, {}, metrics, {"steps": fields.steps}


def _run_fig4_compare(config: ScenarioConfig, grid, schedule, medium, times):
    psi0 = gaussian_profile(grid)
    cold = cold_adiabatic_evolve(psi0, grid, schedule, medium, times)
    cold_frames = _density_frames(cold, schedule, config)

    fields = thermal_adiabatic_evolve(psi0, grid, schedule, medium, times)
    # the backward share is the energy left behind the drift: below z = -2 when
    # it runs forward (|kappa+| >= |kappa-|), above z = +2 when it runs backward
    drift = schedule.kappa_plus_sq - schedule.kappa_minus_sq
    forward = drift >= 0.0
    history = [compute_metrics(fld, grid, split_at=-2.0 if forward else 2.0) for fld in fields]
    thermal_frames = _density_frames(fields, schedule, config)
    drift_slope = _slope_against_r(history, schedule, [m.centroid for m in history])
    behind = [1.0 - m.forward_fraction if forward else m.forward_fraction for m in history]
    backward_max = max(0.0, *behind)
    metrics = {
        "thermal_drift_slope_vs_r": drift_slope,
        "thermal_drift_slope_expected": drift,
        "thermal_backward_fraction_max": backward_max,
    }
    frames = {"energy_density_cold": cold_frames, "energy_density_thermal": thermal_frames}
    return frames, {}, metrics, {}


def _run_nonadiabatic(config: ScenarioConfig, grid, schedule, medium, times, center: float):
    psi0 = gaussian_profile(grid, center=center)
    fields = nonadiabatic_spectral_evolve(psi0, grid, schedule, medium, times)
    history = [compute_metrics(fld, grid) for fld in fields]
    frames_arr = np.array([evolved.density() for evolved in fields])
    metrics: dict[str, float] = {}
    if np.ptp(displacement_r(schedule, times)) >= _MIN_R_SPREAD:
        metrics["width_sq_slope_vs_r"] = variance_growth_rate(history, schedule)
    start = history[0]
    end = history[-1]
    metrics["centroid_shift"] = end.centroid - start.centroid
    metrics["max_density_change_rel"] = float(
        np.max(np.abs(frames_arr[-1] - frames_arr[0])) / np.max(frames_arr[0])
    )
    return {"polariton_density": frames_arr}, {}, metrics, {}


def _run_mb_convergence(config: ScenarioConfig, grid, schedule, medium, times):
    psi0 = gaussian_profile(grid)
    zeros = np.zeros(grid.n_z, dtype=complex)
    gamma_values = (10.0, 30.0, 100.0, 300.0)
    cap = int(config.truncation_n)
    n_values = sorted({n for n in (1, 2, 4, 8) if n <= cap} | {cap})

    (analytic_field,) = cold_adiabatic_evolve(psi0, grid, schedule, medium, [config.t_max])
    probe_ref = probe_from_polariton(analytic_field, schedule)
    compute_metrics(probe_ref, grid)
    ref = np.concatenate([probe_ref.e_plus, probe_ref.e_minus])
    ref_norm = float(np.linalg.norm(ref))

    rows = []
    steps = 0
    # costliest first (the steps do not depend on gamma_ba, the work grows
    # with the ladder's 4N + 1 rows), so a refusal comes at once
    for n_shells in reversed(n_values):
        for gamma_ba in gamma_values:
            history = evolve_mb_harmonics(
                ProbeField(zeros, zeros), schedule, dataclasses.replace(medium, gamma_ba=gamma_ba),
                grid, n_shells, config.t_max, initial_sigma_bc0=-psi0,
            )
            steps += history.steps
            final = history[-1]
            got = np.concatenate([final.e_plus, final.e_minus])
            rows.append((gamma_ba, n_shells, float(np.linalg.norm(got - ref)) / ref_norm))
    table = {"mb_convergence": ("gamma_ba_Ts,truncation_N,rel_l2_error", sorted(rows))}
    best = min(row[2] for row in rows)
    # every solve starts from the same stored pulse, so evolves the same columns
    return {}, table, {"best_rel_l2_error": best}, {"steps": steps, "columns": history.columns}


def _run_coeff_table(config: ScenarioConfig, grid, schedule, medium, times):
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


@dataclass(frozen=True)
class Scenario:
    """One named experiment: its description, config defaults and runner.

    ``run(config, grid, schedule, medium, times)`` takes the run's config, the
    grid, schedule and medium built from it, and the snapshot times
    ``linspace(0, t_max, n_snapshots)``.  It returns the (frames, tables,
    metrics, settings) that ``run_scenario`` writes: frames map a name to an
    array of one row per snapshot time and one column per grid point, tables
    a name to its (header, rows).
    """

    description: str
    defaults: dict[str, object]
    run: Callable[[ScenarioConfig, SimulationGrid, CouplingSchedule, MediumParams, np.ndarray],
                  tuple]

SCENARIO_CATALOG: dict[str, Scenario] = {
    "fig2_cold": Scenario(
        "standing-wave retrieval, non-moving medium: exact cold transport energy density (z, t)",
        {"kappa_plus_sq": 0.5, "t_max": 10.0}, _run_fig2_cold,
    ),
    "fig2_thermal": Scenario(
        "standing-wave retrieval in a thermal medium: diffusively broadened energy density (z, t)",
        {"kappa_plus_sq": 0.5, "t_max": 10.0, "n_z": 1024}, _run_fig2_thermal,
    ),
    "fig3_quasi_cold": Scenario(
        "quasi-standing retrieval, non-moving medium: forward/backward polariton amplitudes (z, t)",
        {"kappa_plus_sq": 0.55, "t_max": 20.0}, _run_fig3_quasi_cold,
    ),
    "fig4_compare": Scenario(
        "quasi-standing retrieval, cold vs thermal energy density side by side",
        {"kappa_plus_sq": 0.55, "t_max": 20.0, "n_z": 1024}, _run_fig4_compare,
    ),
    "nonadiabatic_standing": Scenario(
        "dispersive mode propagator at a pure standing wave: no envelope broadening",
        {"kappa_plus_sq": 0.5, "t_max": 10.0}, functools.partial(_run_nonadiabatic, center=0.0),
    ),
    "nonadiabatic_traveling": Scenario(
        "dispersive mode propagator at a traveling wave: drift plus diffusive broadening",
        {"kappa_plus_sq": 1.0, "t_max": 8.0}, functools.partial(_run_nonadiabatic, center=-4.0),
    ),
    "mb_convergence": Scenario(
        "ladder-oracle error vs adiabaticity (gamma_ba*T_s) and harmonic truncation table",
        {"kappa_plus_sq": 0.5, "t_max": 6.0, "n_z": 128, "l_a": 0.002}, _run_mb_convergence,
    ),
    "coeff_table": Scenario(
        "grating Fourier coefficients: closed forms vs quadrature oracle over a y grid",
        {"kappa_plus_sq": 0.5, "t_max": 1.0}, _run_coeff_table,
    ),
}


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    """Execute the configured scenario and write its datasets.

    The grid, schedule, medium and snapshot times are built here, once, and
    every heatmap is written on that grid at those times.  Outputs land in
    ``<out_dir>/<scenario>/``: one CSV per emitted quantity, ``metrics.txt``
    with scalar diagnostics, and ``provenance.txt``.
    """
    if config.scenario not in SCENARIO_CATALOG:
        raise ConfigError(f"unknown scenario {config.scenario!r}")

    grid, schedule, medium = config.grid(), config.schedule(), config.medium()
    times = np.linspace(0.0, config.t_max, config.n_snapshots)
    run = SCENARIO_CATALOG[config.scenario].run
    frames, tables, metrics, settings = run(config, grid, schedule, medium, times)

    # only after the runner returns, so a refused run leaves no directory behind
    out = Path(config.out_dir) / config.scenario
    out.mkdir(parents=True, exist_ok=True)

    artifacts = RunArtifacts()
    for name, data in frames.items():
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
    run.add_argument("--out", dest="out_dir", help="output directory (default: runs/)")
    run.add_argument("--nz", dest="n_z", type=int, help="spatial sample count")
    run.add_argument("--tmax", dest="t_max", type=float, help="time horizon in units of T_s")
    run.add_argument("--kappa-plus-sq", type=float, help="forward coupling intensity fraction")
    run.add_argument("--la", dest="l_a", type=float,
                     help="resonant absorption length in units of L_p")
    run.add_argument("--gamma-bc", type=float, help="ground-state dephasing rate in 1/T_s")

    sub.add_parser("list", help="print the scenario catalog")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in SCENARIO_CATALOG)
        for name, scenario in SCENARIO_CATALOG.items():
            print(f"{name:<{width}}  {scenario.description}")
        return 0

    overrides = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    try:
        artifacts = run_scenario(parse_config(args.config, overrides))
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
