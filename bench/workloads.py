"""The benchmark's workloads: which operations a pass runs and how each is checked.

An operation is one call a user of the package would make: a CLI scenario
(`cli.parse_config` + `cli.run_scenario`) or one ladder-oracle solve
(`solver.evolve_mb_harmonics`).  Module attributes are looked up at call
time, so the wrappers the traced run installs are the ones called.

Seed 0 gives the paper's defaults.  Other seeds draw the quasi-standing
coupling so that the sub-pulses end 3 to 7 pulse lengths apart (separated,
not wrapped on the 20 L_p grid), and shift the ladder's stored pulse.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("figures", "spectral", "ladder")


@dataclass
class Op:
    """One timed operation, its checks (name -> error/tolerance) and its output digest."""

    name: str
    execute: Callable[[], object]
    check: Callable[[object], dict[str, float]]
    digest: Callable[[object], str]


def _band_kappa_plus_sq(rng: random.Random, t_max: float) -> float:
    """|k+|^2 >= 1/2 with beta * r(t_max) drawn uniformly from [3, 7] L_p."""
    beta = rng.uniform(3.0, 7.0) / float(checks.displacement(t_max))
    return round(0.25 * (1.0 + math.sqrt(1.0 + 8.0 * beta * beta)), 6)


def _file_digest(artifacts) -> str:
    sha = hashlib.sha256()
    for path in [*sorted(artifacts.data_files.values()), artifacts.metrics_file]:
        sha.update(Path(path).read_bytes())
    return sha.hexdigest()


def _scenario_op(cli, out_root: Path, name: str, scenario: str, check, **overrides) -> Op:
    settings = {"scenario": scenario, "out_dir": str(out_root / name), **overrides}

    def execute():
        return cli.run_scenario(cli.parse_config(None, settings))

    def run_checks(artifacts):
        return check({k: Path(p) for k, p in artifacts.data_files.items()},
                     checks.read_metrics(artifacts.metrics_file))

    return Op(name, execute, run_checks, _file_digest)


def _fig2_cold(files, metrics):
    z, t, frames = checks.read_heatmap(files["energy_density_numeric"])
    return {
        "C02_stationary_profile": checks.stationary_profile(z, t, frames),
        "C02_width_slope": checks.width_slope(z, t, frames, 0.0, abs_tol=0.01, t_min=2.0),
    }


def _fig2_thermal(files, metrics):
    z, t, frames = checks.read_heatmap(files["energy_density_thermal"])
    return {"C03_width_slope": checks.width_slope(z, t, frames, 0.2, rel=0.05, t_min=1.0)}


def _fig3(kappa_plus_sq):
    def check(files, metrics):
        z, t, plus = checks.read_heatmap(files["psi_plus_abs"])
        _, _, minus = checks.read_heatmap(files["psi_minus_abs"])
        density = plus ** 2 + minus ** 2
        expected = checks.forward_fraction(kappa_plus_sq)
        return {
            "C04_split_fraction": checks.split_fraction(z, density[-1], kappa_plus_sq),
            "C04_split_drift": checks.split_drift(z, t, density, kappa_plus_sq),
            "C04_numeric_split_fraction": abs(
                metrics["forward_fraction_final_numeric"] - expected) / (0.02 * expected),
        }
    return check


def _fig4(kappa_plus_sq):
    def check(files, metrics):
        z, t, cold = checks.read_heatmap(files["energy_density_cold"])
        _, _, thermal = checks.read_heatmap(files["energy_density_thermal"])
        return {
            "C04_split_fraction": checks.split_fraction(z, cold[-1], kappa_plus_sq),
            "C05_drift_slope": checks.thermal_drift(z, t, thermal, kappa_plus_sq),
        }
    return check


def _nonadiabatic_standing(files, metrics):
    z, _, frames = checks.read_heatmap(files["polariton_density"])
    return {"C06_frozen_profile": checks.frozen_profile(z, frames)}


def _nonadiabatic_mirrored(kappa_plus_sq):
    def check(files, metrics):
        z, t, frames = checks.read_heatmap(files["polariton_density"])
        return {"C04_split_fraction": checks.split_fraction(z, frames[-1], kappa_plus_sq)}
    return check


def _nonadiabatic_traveling(files, metrics):
    z, t, frames = checks.read_heatmap(files["polariton_density"])
    return {"C07_width_growth": checks.width_growth(z, t, frames, 0.1)}


def _coeff_table(files, metrics):
    header, rows = checks.read_table(files["coeff_table"])
    return {"C01_oracle_delta": checks.coefficient_table(header, rows)}


def _ladder_op(lib, gamma_ba: float, center: float) -> Op:
    """C08's configuration: N=8 shells, n_z=128, l_a=5e-4, standing wave, t_end=4."""
    core, solver = lib.core, lib.solver
    grid = core.SimulationGrid(z_min=-10.0, z_max=10.0, n_z=128)
    schedule = core.CouplingSchedule.from_intensities(0.5)
    medium = core.MediumParams(gamma_ba=gamma_ba, l_a=5e-4, Gamma_bc=0.0)
    z = -10.0 + (20.0 / 128) * np.arange(128)
    psi0 = np.exp(-((z - center) ** 2)).astype(complex)
    zeros = np.zeros(128, dtype=complex)
    t_end = 4.0

    def execute():
        return solver.evolve_mb_harmonics(
            core.ProbeField(zeros, zeros), schedule, medium, grid, 8, t_end,
            initial_sigma_bc0=-psi0,
        )

    def run_checks(history):
        final = history[-1]
        return {"C08_ladder_rel_l2": checks.ladder_retrieval(
            final.e_plus, final.e_minus, psi0, 0.5, t_end)}

    def digest(history):
        final = history[-1]
        return hashlib.sha256(final.e_plus.tobytes() + final.e_minus.tobytes()).hexdigest()

    return Op(f"ladder_gamma{gamma_ba:g}", execute, run_checks, digest)


def build(workload: str, seed: int, out_root: Path, lib) -> list[Op]:
    """The operations of one pass of `workload`, with inputs drawn from `seed`."""
    rng = random.Random(seed)
    cli = lib.cli
    if workload == "figures":
        kp = 0.55 if seed == 0 else _band_kappa_plus_sq(rng, 20.0)
        mirrored = round(1.0 - kp, 6)
        return [
            _scenario_op(cli, out_root, "fig2_cold", "fig2_cold", _fig2_cold),
            _scenario_op(cli, out_root, "fig2_thermal", "fig2_thermal", _fig2_thermal),
            _scenario_op(cli, out_root, "fig3_quasi_cold", "fig3_quasi_cold", _fig3(kp),
                         kappa_plus_sq=kp),
            _scenario_op(cli, out_root, "fig3_quasi_cold_mirrored", "fig3_quasi_cold",
                         _fig3(mirrored), kappa_plus_sq=mirrored),
            _scenario_op(cli, out_root, "fig4_compare", "fig4_compare", _fig4(kp),
                         kappa_plus_sq=kp),
        ]
    if workload == "spectral":
        kp = 0.7 if seed == 0 else _band_kappa_plus_sq(rng, 10.0)
        mirrored = round(1.0 - kp, 6)
        return [
            _scenario_op(cli, out_root, "nonadiabatic_standing", "nonadiabatic_standing",
                         _nonadiabatic_standing),
            _scenario_op(cli, out_root, "nonadiabatic_traveling", "nonadiabatic_traveling",
                         _nonadiabatic_traveling),
            _scenario_op(cli, out_root, "coeff_table", "coeff_table", _coeff_table),
            _scenario_op(cli, out_root, "nonadiabatic_standing_mirrored",
                         "nonadiabatic_standing", _nonadiabatic_mirrored(mirrored),
                         kappa_plus_sq=mirrored),
        ]
    if workload == "ladder":
        center = 0.0 if seed == 0 else round(rng.uniform(-1.0, 1.0), 6)
        return [_ladder_op(lib, 10.0, center), _ladder_op(lib, 100.0, center)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
