"""Scalar diagnostics of simulated fields: moments, norms, the forward split
fraction (the backward one is its complement), the share of energy at the
periodic grid's edge, and the width-growth regression used by the diffusion
checks, which refuses a pulse that has wrapped round the grid.  The slope
fits read only the metric history: each sample's time gives its
displacement r(t) = log(cosh(t)), the same for every schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PolaritonField, ProbeField, SimulationGrid, displacement_r


@dataclass(frozen=True)
class PulseMetrics:
    """Moments of the two-component energy density over the grid.

    ``variance`` is the statistical variance of the density; for a Gaussian
    density exp(-z^2/W^2) it equals W^2/2.  The backward share is
    1 - ``forward_fraction``; ``time`` is the field's ``time_stamp``.
    ``edge_fraction`` is the share of the energy within one L_p of either
    end of the periodic grid, where a spreading pulse starts to wrap round.
    """

    total_norm: float
    centroid: float
    variance: float
    forward_fraction: float
    time: float
    edge_fraction: float = 0.0


def compute_metrics(field, grid: SimulationGrid, split_at: float = 0.0) -> PulseMetrics:
    """Trapezoidal moments of the field's own ``density()``, |f+|^2 + |f-|^2,
    plus the energy split about a finite split_at and the share within one
    L_p of the grid's ends.

    TypeError unless the field is a ``PolaritonField`` or a ``ProbeField``,
    and ValueError unless its density is sampled on the grid.  A field whose
    total is zero (a fully decayed or off-grid pulse) has no moments, and one
    whose density overflows has no finite ones: both raise ValueError, the
    second with no overflow warning.
    """
    if not isinstance(field, (PolaritonField, ProbeField)):
        raise TypeError(f"expected PolaritonField or ProbeField, got {type(field).__name__}")
    if not math.isfinite(split_at):
        raise ValueError(f"split_at must be finite, got {split_at}")
    z = grid.z
    with np.errstate(over="ignore", invalid="ignore"):
        density = field.density()
        if density.shape != (grid.n_z,):
            raise ValueError("field must be sampled on the grid")
        # On a uniform periodic grid the trapezoidal rule is dz * sum(samples).
        total = grid.dz * float(np.sum(density))
        if total == 0.0:
            raise ValueError(f"field is zero at t = {field.time_stamp:.6g}: the pulse has fully "
                             f"decayed or lies off the grid")
        centroid = grid.dz * float(np.sum(z * density)) / total
        variance = grid.dz * float(np.sum((z - centroid) ** 2 * density)) / total
    if not (math.isfinite(total) and math.isfinite(variance)):
        raise ValueError(f"field density overflows at t = {field.time_stamp:.6g}: its moments "
                         f"are not finite")
    forward_weight = np.where(z > split_at, 1.0, 0.0) + 0.5 * (z == split_at)
    forward = grid.dz * float(np.sum(forward_weight * density)) / total
    at_edge = np.minimum(z - grid.z_min, grid.z_max - z) <= 1.0
    edge = grid.dz * float(np.sum(density[at_edge])) / total
    return PulseMetrics(
        total_norm=total,
        centroid=centroid,
        variance=variance,
        forward_fraction=forward,
        time=field.time_stamp,
        edge_fraction=edge,
    )


# Smallest spread of r(t) over which a slope is fitted, in L_p.  The moments
# of a pulse of unit length are rounded at about 2e-16, so a slope fitted over
# a spread dr moves by about 2e-16 / dr: below 1e-13 by over 2e-3, 1-2 % of
# the 0.1-0.2 the thermal scenarios expect.  At t_max 1e-9 (dr 5e-19) it read
# -910 where 0.2 was expected; at t_max 1e-6 (dr 5e-13) it is within 0.2 %.
_MIN_R_SPREAD = 1e-13

# Largest share of a sample's energy within one L_p of the periodic grid's
# ends over which a slope is fitted.  Past it the pulse wraps round the grid
# and its moments stop following r(t): at n_z 64 on the 20 L_p grid,
# fig2_thermal's width slope (0.2 expected) read 0.2018 at a share of
# 1.4e-3, 0.2098 at 8.6e-3 and 3.9e-150 at 0.109.
_MAX_EDGE_FRACTION = 1e-3


def _slope_against_r(history: Sequence[PulseMetrics], values: Sequence[float]) -> float:
    """Least-squares slope of `values`, one per sample of `history`, against the
    displacement r(t) at the samples' times; ValueError for fewer than 3
    samples, a constant r, whose slope is undefined, an r spread below
    ``_MIN_R_SPREAD`` (1e-13), over which the moments' round-off (about 2e-16)
    moves the slope by more than 2e-3, or an r above 1e150: np.polyfit sums
    the squares of r, which overflow past r of about 1.3e154, and at 1e150
    that sum stays finite for up to 1e8 samples, more than a config may ask
    for.  Past those checks it also refuses a sample whose ``edge_fraction``
    exceeds ``_MAX_EDGE_FRACTION`` (1e-3): that pulse has wrapped round the
    periodic grid, and its moments no longer follow r(t)."""
    if len(history) < 3:
        raise ValueError("need at least 3 metric samples to fit a slope against r(t)")
    r = displacement_r([m.time for m in history])
    spread = np.ptp(r)
    if spread <= 0.0:
        raise ValueError("displacement r(t) is constant over the samples; slope undefined")
    if spread < _MIN_R_SPREAD:
        raise ValueError(f"displacement r(t) spreads over {spread:.3g} < {_MIN_R_SPREAD:g}, "
                         f"too little to resolve a slope above the moments' round-off")
    if np.max(r) > 1e150:
        raise ValueError(f"displacement r(t) reaches {np.max(r):.3g} > 1e+150, where the "
                         f"slope fit's squares of r overflow")
    edge = max(m.edge_fraction for m in history)
    if edge > _MAX_EDGE_FRACTION:
        raise ValueError(f"the pulse holds {edge:.3g} > {_MAX_EDGE_FRACTION:g} of its energy "
                         f"within 1 L_p of the periodic grid's edge: it has wrapped round "
                         f"the grid, so its moments no longer follow r(t)")
    slope, _ = np.polyfit(r, np.asarray(values), 1)
    return float(slope)


def variance_growth_rate(history: Sequence[PulseMetrics]) -> float:
    """Least-squares slope of the squared pulse width against displacement r(t)
    at the samples' times.

    The squared width is W^2 = 2 * variance of the density, i.e. the shape
    parameter of a Gaussian density exp(-z^2/W^2); under drift-diffusion with
    coefficient D = D0 * v_g it grows as dW^2/dr = 2 * D0, so a thermally
    broadened standing-wave pulse gives slope 2 * l_a * 4|k+|^2|k-|^2 and a
    dispersionless one gives zero.
    """
    return _slope_against_r(history, [2.0 * m.variance for m in history])
