"""Grids, coupling-field schedules, initial profiles, and shared value types.

Natural units used throughout the package: lengths are measured in the
stored-pulse length L_p, times in the coupling-field switching time T_s,
and the saturated group velocity v_g0 = L_p/T_s is exactly 1.  The coupling
field is switched on as cos^2(theta(t)) = cos^2(theta0) tanh(t), and the vacuum
speed of light in these units is 1/cos^2(theta0), exactly 100 at the default
working point cos^2(theta0) = 0.01.  So the group velocity v_g(t) = tanh(t)
and the displacement r(t) = log(cosh(t)) are functions of time alone: one
clock shared by every transport, whatever the couplings.

Each value has one source: the units fix the stored pulse exp(-(z - c)^2),
the normalised schedule fixes |kappa-|^2 = 1 - |kappa+|^2, every transport
reads the grid's ``wavenumbers``, a field carries its own ``time_stamp``, every
closed form and the cold stepper decay by one law, ``_ground_state_decay``,
every count passes one rule, ``_as_count``, and every time one check,
``_as_time``.  The displacement r(t) has one path, ``displacement_r(t)``,
which takes all of a caller's times in one call; the decay law takes those
times with the r the caller already has, so no caller forms r twice.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np


def _require_finite(owner, names: tuple[str, ...]) -> None:
    for name in names:
        if not cmath.isfinite(getattr(owner, name)):
            raise ValueError(f"{name} must be finite, got {getattr(owner, name)}")


def _as_count(value, name: str, minimum: int) -> int:
    """``value`` as an int; ValueError unless it is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform periodic spatial grid.

    ``z_min``/``z_max`` are in units of L_p; the grid excludes ``z_max``
    (periodic convention), so ``dz = (z_max - z_min)/n_z``.  ``n_z`` is an
    integer of at least 16, checked first.
    """

    z_min: float = -10.0
    z_max: float = 10.0
    n_z: int = 2048

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_z", _as_count(self.n_z, "n_z", 16))
        _require_finite(self, ("z_min", "z_max"))
        if not self.z_max > self.z_min:
            raise ValueError(f"z_max must exceed z_min, got [{self.z_min}, {self.z_max}]")
        if not math.isfinite(self.dz):
            raise ValueError(f"grid span overflows: dz = {self.dz} on [{self.z_min}, {self.z_max}]")

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.n_z

    @property
    def z(self) -> np.ndarray:
        return self.z_min + self.dz * np.arange(self.n_z)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Spatial angular frequencies in FFT ordering, the one wavenumber array
        of every transport.  The Nyquist column of an even grid has no sign, so
        it is 0 (Trefethen, Spectral Methods in MATLAB, ch. 3) and the mirror
        z -> -z stays a symmetry; even-order terms (thermal diffusion,
        dispersive damping) then skip that one aliased column too."""
        q = 2.0 * np.pi * np.fft.fftfreq(self.n_z, d=self.dz)
        if self.n_z % 2 == 0:
            q[self.n_z // 2] = 0.0
        return q


@dataclass(frozen=True)
class CouplingSchedule:
    """Forward/backward coupling amplitudes and the working point of the switch-on.

    The complex amplitudes are finite and are normalised at construction so
    that ``|kappa_plus|^2 + |kappa_minus|^2 = 1``.  ``cos2_theta0`` is cos^2
    of the mixing angle at saturation, which the tanh switch-on
    cos^2(theta(t)) = cos2_theta0 * tanh(t) approaches from zero coupling at
    t = 0.  It lies in [tiny, 1), where tiny = ``np.finfo(float).tiny`` is the
    smallest normal float: a subnormal one has lost precision, and so would
    every density divided by it (ValueError).
    """

    kappa_plus: complex
    kappa_minus: complex
    cos2_theta0: float = 0.01

    def __post_init__(self) -> None:
        _require_finite(self, ("kappa_plus", "kappa_minus"))
        # Scaling by the exact power of two that brings the largest component
        # into [0.5, 1) keeps the squares below from overflowing or underflowing.
        # Amplitudes from intensities lie in [0, 1], so they are scaled by 1 or
        # (at exactly 1.0) by 1/2, and their quotients stay bit-identical.
        kp = complex(self.kappa_plus)
        km = complex(self.kappa_minus)
        exponent = math.frexp(max(abs(kp.real), abs(kp.imag), abs(km.real), abs(km.imag)))[1]
        kp = complex(math.ldexp(kp.real, -exponent), math.ldexp(kp.imag, -exponent))
        km = complex(math.ldexp(km.real, -exponent), math.ldexp(km.imag, -exponent))
        total = math.sqrt(abs(kp) ** 2 + abs(km) ** 2)
        if total == 0.0:
            raise ValueError("at least one coupling amplitude must be non-zero")
        object.__setattr__(self, "kappa_plus", kp / total)
        object.__setattr__(self, "kappa_minus", km / total)
        if not np.finfo(float).tiny <= self.cos2_theta0 < 1.0:
            raise ValueError(f"cos2_theta0 must be a normal float in (0, 1), got {self.cos2_theta0}")

    @classmethod
    def from_intensities(
        cls, kappa_plus_sq: float, *, cos2_theta0: float = cos2_theta0
    ) -> "CouplingSchedule":
        """Build a schedule from |kappa+|^2 in [0, 1]; |kappa-|^2 is its complement
        and ``cos2_theta0`` defaults to the field's default."""
        if not 0.0 <= kappa_plus_sq <= 1.0:
            raise ValueError(f"kappa_plus_sq must lie in [0, 1], got {kappa_plus_sq}")
        return cls(math.sqrt(kappa_plus_sq), math.sqrt(1.0 - kappa_plus_sq), cos2_theta0)

    @property
    def kappa_plus_sq(self) -> float:
        return abs(self.kappa_plus) ** 2

    @property
    def kappa_minus_sq(self) -> float:
        return abs(self.kappa_minus) ** 2

    @property
    def vacuum_speed(self) -> float:
        """Vacuum light speed c = 1/cos2_theta0 in L_p/T_s units (v_g0 = 1)."""
        return 1.0 / self.cos2_theta0


def _as_time(t: np.ndarray | float) -> np.ndarray:
    """t as a float array, 0-d for a scalar; ValueError unless every value is in [0, inf)."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < math.inf)):  # nan fails both
        raise ValueError("t must be finite and non-negative")
    return t


def cos2_theta(schedule: CouplingSchedule, t: np.ndarray | float) -> np.ndarray | float:
    """cos^2 of the mixing angle, cos2_theta0 * tanh(t), at finite t >= 0."""
    return schedule.cos2_theta0 * np.tanh(_as_time(t))


def group_velocity(t: np.ndarray | float) -> np.ndarray | float:
    """Group velocity v_g(t) = tanh(t) in units of L_p/T_s at finite t >= 0, the same
    for every schedule; it saturates at 1, and ``displacement_r`` is its integral."""
    return np.tanh(_as_time(t))


def displacement_r(t: np.ndarray | float) -> np.ndarray | float:
    """Accumulated group-velocity displacement: integral of v_g from 0 to finite t >= 0.

    For the tanh switch-on this is log(cosh(t)) whatever the schedule,
    monotone non-decreasing: log1p(2 sinh^2(t/2)) below t = 1, where the form
    for large t, which avoids overflow, cancels.  The clips keep the unused
    branch of np.where from overflowing; exp(-800) is already 0, so the clip
    at 400 moves no r.
    A scalar t gives a 0-d result, an array one r per time, bit for bit the
    same: ``np.square`` squares a scalar in the array loop, where ``** 2``
    would call pow and could round it differently.
    """
    t = _as_time(t)
    small = np.log1p(2.0 * np.square(np.sinh(0.5 * np.minimum(t, 1.0))))
    large = t + np.log1p(np.exp(-2.0 * np.minimum(t, 400.0))) - math.log(2.0)
    return np.where(t < 1.0, small, large)[()]


@np.errstate(over="ignore", invalid="ignore")
def _ground_state_decay(schedule: CouplingSchedule, gamma_bc: complex, t,
                        r) -> np.ndarray | complex:
    """The one ground-state decay law, exp(-gamma_bc (t - cos2_theta0 r(t))) =
    exp(-gamma_bc * integral of sin^2(theta) dt): only the spin part of the
    dark-state polariton dephases (Fleischhauer & Lukin, PRL 84, 5094 (2000)).

    ``r`` is ``displacement_r(t)``, which every caller already
    holds, so the law does not form it again.  Like ``displacement_r`` it
    takes every finite t >= 0 (``_as_time``) in one call: a scalar t gives a
    0-d result, an array one decay per time, bit for bit the same.  The
    exponent is complex even for a real gamma_bc, since np.exp of a float
    may round differently from libm's exp.  An exponent past the float range
    gives 0, or nan for a phase that overflows, without a warning; the field
    it scales refuses the nan (ValueError).
    """
    t = _as_time(t)
    return np.exp(-complex(gamma_bc) * (t - schedule.cos2_theta0 * r))[()]


def gaussian_profile(grid: SimulationGrid, center: float = 0.0) -> np.ndarray:
    """The stored pulse exp(-(z - center)^2) on the grid: unit peak (Psi0 = 1) and
    unit length (L_p = 1), as the units define it.  On a grid spanning past
    about 1e154 the square overflows to inf, and exp(-inf) is exactly 0, so it
    is formed without the overflow warning."""
    with np.errstate(over="ignore"):
        return np.exp(-((grid.z - center) ** 2)).astype(complex)


@dataclass(frozen=True)
class MediumParams:
    """Atomic-medium parameters, all finite.

    Rates are in units of 1/T_s, lengths in L_p.  ``gamma_ba`` is the optical
    coherence decay (the probe is on one-photon resonance) and ``Gamma_bc`` the
    complex ground-state coherence decay gamma_bc - i*Delta (two-photon
    detuning enters as a phase rotation); it dephases the spin coherence only
    (``_ground_state_decay``).  The vacuum speed c is the schedule's
    ``vacuum_speed``, 1/cos2_theta0, and the collective coupling gp*sqrt(N)
    follows from the resonant absorption length l_a = c*gamma_ba/(gp*sqrt(N))^2.
    """

    gamma_ba: float = 100.0
    Gamma_bc: complex = 0.0
    l_a: float = 0.1

    def __post_init__(self) -> None:
        _require_finite(self, ("gamma_ba", "Gamma_bc", "l_a"))
        if complex(self.Gamma_bc).real < 0:
            raise ValueError(f"Re(Gamma_bc) must be non-negative, got {self.Gamma_bc}")
        if self.gamma_ba <= 0:
            raise ValueError(f"gamma_ba must be positive, got {self.gamma_ba}")
        if self.l_a < 0:
            raise ValueError(f"l_a must be non-negative, got {self.l_a}")

    def collective_coupling(self, schedule: CouplingSchedule) -> float:
        """gp*sqrt(N) in 1/T_s units, derived from l_a; ValueError unless l_a > 0
        and the coupling is finite (an l_a of 5e-324 makes it inf)."""
        if self.l_a <= 0:
            raise ValueError("need l_a > 0 to fix the coupling")
        coupling = math.sqrt(schedule.vacuum_speed * self.gamma_ba / self.l_a)
        if not math.isfinite(coupling):
            raise ValueError(f"l_a = {self.l_a:g} and gamma_ba = {self.gamma_ba:g} make the "
                             f"collective coupling non-finite")
        return coupling


def _as_complex_samples(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of samples")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PolaritonField:
    """Complex forward/backward polariton envelopes sampled at one time."""

    psi_plus: np.ndarray
    psi_minus: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self) -> None:
        plus = _as_complex_samples(self.psi_plus, "psi_plus")
        minus = _as_complex_samples(self.psi_minus, "psi_minus")
        if plus.shape != minus.shape:
            raise ValueError("psi_plus and psi_minus must have equal length")
        object.__setattr__(self, "psi_plus", plus)
        object.__setattr__(self, "psi_minus", minus)

    def density(self) -> np.ndarray:
        """Pointwise |psi+|^2 + |psi-|^2."""
        return np.abs(self.psi_plus) ** 2 + np.abs(self.psi_minus) ** 2


@dataclass(frozen=True)
class ProbeField:
    """Complex forward/backward probe envelopes sampled at one time."""

    e_plus: np.ndarray
    e_minus: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self) -> None:
        plus = _as_complex_samples(self.e_plus, "e_plus")
        minus = _as_complex_samples(self.e_minus, "e_minus")
        if plus.shape != minus.shape:
            raise ValueError("e_plus and e_minus must have equal length")
        object.__setattr__(self, "e_plus", plus)
        object.__setattr__(self, "e_minus", minus)

    def density(self) -> np.ndarray:
        """Pointwise |E+|^2 + |E-|^2."""
        return np.abs(self.e_plus) ** 2 + np.abs(self.e_minus) ** 2
