"""Closed-form Fourier coefficients of the standing-wave denominators, and
the splitting speed of the cold solution.

The intensity grating 1 + y*cos(x) (and its square) appears as a denominator
in the coupled-mode reduction; the first two cosine-series coefficients of its
reciprocal powers, a0/a1 and d0/d1, carry the whole effect.  A brute-force
quadrature oracle is provided as an independent check of the closed forms.
``beta`` is the speed factor of the cold sub-pulses; the closed forms that
build on it, the dispersive mode propagator included, live in ``analytic``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CouplingSchedule, _as_count


def _check_y(y: float) -> float:
    y = float(y)
    if not 0.0 <= y < 1.0:
        raise ValueError(f"modulation depth y must lie in [0, 1), got {y}")
    return y


def coeff_a(y: float) -> tuple[float, float]:
    """First two cosine coefficients (a0, a1) of 1/(1 + y*cos x).

    a1 is evaluated in the cancellation-free form -2y/((1+w)w), w=sqrt(1-y^2),
    which equals 2(w-1)/(yw) and extends continuously to a1(0) = 0.
    """
    y = _check_y(y)
    w = math.sqrt(1.0 - y * y)
    a0 = 2.0 / w
    a1 = -2.0 * y / ((1.0 + w) * w)
    return a0, a1


def coeff_d(y: float) -> tuple[float, float]:
    """First two cosine coefficients (d0, d1) of 1/(1 + y*cos x)^2."""
    y = _check_y(y)
    w2 = 1.0 - y * y
    d0 = 2.0 / w2 ** 1.5
    return d0, -y * d0


def quadrature_oracle(n: int, y: float, power: int = 1) -> float:
    """(1/pi) * integral of cos(n x)/(1 + y cos x)^power over [-pi, pi].

    Composite (trapezoidal, hence spectrally convergent on the periodic
    integrand) quadrature, refined by doubling until two successive
    refinements agree to 1e-12.  Deliberately independent of the closed
    forms so it can serve as their oracle.
    """
    n = _as_count(n, "harmonic index n", 0)
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    y = float(y)
    if not 0.0 <= y <= 1.0 - 1e-6:
        raise ValueError(f"y must lie in [0, 1 - 1e-6], got {y}")

    previous = None
    samples = 64
    while samples <= 1 << 22:
        x = -math.pi + 2.0 * math.pi * np.arange(samples) / samples
        integrand = np.cos(n * x) / (1.0 + y * np.cos(x)) ** power
        value = 2.0 * float(integrand.mean())
        if previous is not None and abs(value - previous) < 1e-12:
            return value
        previous = value
        samples *= 2
    raise RuntimeError(
        f"quadrature did not converge to 1e-12 for n={n}, y={y}, power={power}; "
        "y is too close to the standing-wave limit"
    )


def beta(schedule: CouplingSchedule) -> float:
    """Splitting speed factor sqrt(s (s - w)) of the cold solution.

    s and w are the stronger and weaker of |kappa+|^2, |kappa-|^2, so either
    ordering gives the same speed: the sub-pulses move at +-beta*v_g, the
    larger one along the stronger coupling.
    """
    strong = max(schedule.kappa_plus_sq, schedule.kappa_minus_sq)
    weak = min(schedule.kappa_plus_sq, schedule.kappa_minus_sq)
    return math.sqrt(strong * (strong - weak))

