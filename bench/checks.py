"""Outside-in correctness checks for the benchmark.

Every check compares a dataset the program wrote (or returned) with an
expectation computed here from the paper's closed forms, never with the
program's own formulas, and returns the ratio measured error / tolerance.
A ratio above 1 fails the check.  Each tolerance is the one of the
acceptance criterion (C01..C08) the check mirrors.

Units follow the package: z in L_p, t in T_s, the stored profile is
exp(-z^2), and cos^2(theta(t)) = cos^2(theta0) * tanh(t).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

COS2_THETA0 = 0.01


def cos2_theta(t):
    return COS2_THETA0 * np.tanh(t)


def displacement(t):
    """r(t) = integral of v_g = log(cosh(t)), evaluated without overflow."""
    t = np.asarray(t, dtype=float)
    return np.logaddexp(t, -t) - math.log(2.0)


def split_beta(kappa_plus_sq: float) -> float:
    """Sub-pulse speed factor: sqrt(k_s^2 (k_s^2 - k_w^2)) for the stronger k_s."""
    strong = max(kappa_plus_sq, 1.0 - kappa_plus_sq)
    return math.sqrt(strong * (2.0 * strong - 1.0))


def forward_fraction(kappa_plus_sq: float) -> float:
    """Energy share of the +z sub-pulse once the split has separated.

    (1 + beta/|k+|^2)/2 when |k+| >= |k-|; the mirror image otherwise.
    """
    strong = max(kappa_plus_sq, 1.0 - kappa_plus_sq)
    heavy = 0.5 * (1.0 + split_beta(kappa_plus_sq) / strong)
    return heavy if kappa_plus_sq >= 0.5 else 1.0 - heavy


def read_heatmap(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a `z,t,value` heatmap CSV into (z, times, frames[t, z])."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t_col = data[:, 1]
    changes = np.flatnonzero(t_col != t_col[0])
    n_z = int(changes[0]) if changes.size else t_col.size
    frames = data[:, 2].reshape(-1, n_z)
    return data[:n_z, 0], t_col[::n_z], frames


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_metrics(path: Path) -> dict[str, float]:
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        values[key] = float(value)
    return values


def _moments(z: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    weight = frames.sum(axis=-1)
    centroid = (frames * z).sum(axis=-1) / weight
    variance = (frames * (z - centroid[..., None]) ** 2).sum(axis=-1) / weight
    return centroid, variance


def _fraction_above(z: np.ndarray, density: np.ndarray, split_at: float) -> float:
    above = np.where(z > split_at, 1.0, 0.0) + 0.5 * (z == split_at)
    return float(np.sum(above * density) / np.sum(density))


def _rel_ratio(measured: float, expected: float, rel: float) -> float:
    return abs(measured - expected) / (rel * abs(expected))


def stationary_profile(z, times, frames) -> float:
    """C02: the last frame is (cos^2 th(t)/cos^2 th0) exp(-2 z^2) to 1% of its peak."""
    expected = cos2_theta(times[-1]) / COS2_THETA0 * np.exp(-2.0 * z ** 2)
    dev = np.max(np.abs(frames[-1] - expected)) / np.max(expected)
    return float(dev / 0.01)


def width_slope(z, times, frames, expected: float, *, rel=None, abs_tol=None, t_min=0.0) -> float:
    """C02/C03: slope of W^2 = 2 var against r(t); relative or absolute tolerance."""
    keep = times >= t_min
    _, variance = _moments(z, frames[keep])
    slope = np.polyfit(displacement(times[keep]), 2.0 * variance, 1)[0]
    if rel is not None:
        return _rel_ratio(slope, expected, rel)
    return float(abs(slope - expected) / abs_tol)


def width_growth(z, times, frames, l_a: float) -> float:
    """C07: W^2 grows by 2 l_a r(t) between the first and last frame, to 5%."""
    _, variance = _moments(z, frames[[0, -1]])
    growth = 2.0 * (variance[1] - variance[0])
    return _rel_ratio(growth, 2.0 * l_a * float(displacement(times[-1])), 0.05)


def split_fraction(z, density, kappa_plus_sq: float) -> float:
    """C04: share of the energy in z > 0 equals the closed-form split, to 2%."""
    return _rel_ratio(_fraction_above(z, density, 0.0), forward_fraction(kappa_plus_sq), 0.02)


def split_drift(z, times, frames, kappa_plus_sq: float) -> float:
    """C04: the sub-pulse centroids move at +-beta against r(t), to 2%.

    Uses the frames of the second half of the run in which the sub-pulses
    are at least two pulse lengths from z = 0, so they do not overlap.
    """
    beta = split_beta(kappa_plus_sq)
    r = displacement(times)
    keep = (times >= 0.5 * times[-1]) & (beta * r >= 2.0)
    if np.count_nonzero(keep) < 3:
        raise ValueError("fewer than 3 frames with separated sub-pulses")
    fwd = z > 0
    c_fwd, _ = _moments(z[fwd], frames[keep][:, fwd])
    c_bwd, _ = _moments(z[~fwd], frames[keep][:, ~fwd])
    slope_fwd = np.polyfit(r[keep], c_fwd, 1)[0]
    slope_bwd = np.polyfit(r[keep], c_bwd, 1)[0]
    return max(_rel_ratio(slope_fwd, beta, 0.02), _rel_ratio(slope_bwd, -beta, 0.02))


def thermal_drift(z, times, frames, kappa_plus_sq: float) -> float:
    """C05: the thermal centroid drifts at (|k+|^2 - |k-|^2) against r(t), to 2%."""
    keep = times > 0
    centroid, _ = _moments(z, frames[keep])
    slope = np.polyfit(displacement(times[keep]), centroid, 1)[0]
    return _rel_ratio(slope, 2.0 * kappa_plus_sq - 1.0, 0.02)


def frozen_profile(z, frames) -> float:
    """C06: at a pure standing wave every frame is exp(-2 z^2) to 1e-8."""
    return float(np.max(np.abs(frames - np.exp(-2.0 * z ** 2))) / 1e-8)


def fourier_integral(n: int, y: float, power: int, samples: int = 4096) -> float:
    """(1/pi) * integral over one period of cos(n x) / (1 + y cos x)^power.

    The trapezoidal rule is spectrally accurate for this periodic integrand;
    4096 samples resolve it to roundoff for y <= 0.99.
    """
    x = 2.0 * np.pi * np.arange(samples) / samples
    return float(2.0 * np.mean(np.cos(n * x) / (1.0 + y * np.cos(x)) ** power))


def coefficient_table(header: list[str], rows: np.ndarray) -> float:
    """C01: a0, a1, d0, d1 agree with quadrature to 1e-10 (relative, since the
    CSV keeps 12 significant digits) and the reported oracle deltas are below 1e-10."""
    col = {name: i for i, name in enumerate(header)}
    worst = 0.0
    for row in rows:
        y = row[col["y"]]
        for name, n, power in (("a0", 0, 1), ("a1", 1, 1), ("d0", 0, 2), ("d1", 1, 2)):
            reference = fourier_integral(n, y, power)
            err = abs(row[col[name]] - reference) / max(1.0, abs(reference))
            worst = max(worst, err, abs(row[col["delta_" + name]]))
    return worst / 1e-10


def ladder_retrieval(e_plus, e_minus, psi0, kappa_plus_sq: float, t: float) -> float:
    """C08: probe envelopes match cos(theta(t)) * kappa+- * psi0 to 5% rel L2."""
    cos_theta = math.sqrt(float(cos2_theta(t)))
    ref = np.concatenate([
        cos_theta * math.sqrt(kappa_plus_sq) * psi0,
        cos_theta * math.sqrt(1.0 - kappa_plus_sq) * psi0,
    ])
    got = np.concatenate([e_plus, e_minus])
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref) / 0.05)
