"""Closed-form field evolution: adiabatic transport in non-moving and thermal
media, spin-coherence harmonics, probe recovery, and the dispersive
Fourier-space mode propagator.

All off-grid evaluations of the initial profile use band-limited (discrete
Fourier) interpolation, consistent with the periodic grids used everywhere,
so shifted copies of a smooth profile are exact to machine precision.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CouplingSchedule,
    MediumParams,
    PolaritonField,
    ProbeField,
    SimulationGrid,
    cos2_theta,
    displacement_r,
)
from .fourier import DispersionParams, _check_l_a, beta, dispersion_params


def initial_split(psi0: np.ndarray, schedule: CouplingSchedule) -> PolaritonField:
    """Split a stored profile into forward/backward components kappa+- * psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    return PolaritonField(
        psi_plus=schedule.kappa_plus * psi0,
        psi_minus=schedule.kappa_minus * psi0,
        time_stamp=0.0,
    )


def _shift_periodic(values: np.ndarray, q: np.ndarray, shift: float) -> np.ndarray:
    """values(z - shift) via an FFT phase ramp (band-limited interpolation)."""
    if shift == 0.0:
        return np.asarray(values, dtype=complex).copy()
    return np.fft.ifft(np.fft.fft(values) * np.exp(-1j * q * shift))


def _oriented_subpulses(
    psi0: np.ndarray,
    grid: SimulationGrid,
    schedule: CouplingSchedule,
    t: float,
    gamma_bc: complex,
):
    """Sub-pulse pair of the cold closed forms, oriented by the coupling ordering.

    The stronger coupling amplitude kappa_s (kappa+ on a tie) and the weaker
    kappa_w fix the direction sign sigma = +1 if |kappa+| >= |kappa-|, else -1.
    Returns (kappa_s, kappa_w, sigma, ahead, behind, weight, decay) with the
    band-limited shifts ahead = psi0(z - sigma*beta*r) and behind =
    psi0(z + sigma*beta*r), weight = beta/|kappa_s|^2 and decay =
    exp(-gamma_bc * t).  A t that is not finite and non-negative raises
    ValueError in displacement_r, before any shift.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.n_z,):
        raise ValueError("psi0 must be sampled on the grid")

    kp, km = schedule.kappa_plus, schedule.kappa_minus
    if schedule.kappa_plus_sq >= schedule.kappa_minus_sq:
        kappa_s, kappa_w, sigma = kp, km, 1
    else:
        kappa_s, kappa_w, sigma = km, kp, -1
    beta_val = beta(schedule)
    shift = sigma * beta_val * displacement_r(schedule, t)
    q = grid.wavenumbers
    ahead = _shift_periodic(psi0, q, shift)
    behind = _shift_periodic(psi0, q, -shift)
    weight = beta_val / abs(kappa_s) ** 2
    decay = np.exp(-complex(gamma_bc) * t)
    return kappa_s, kappa_w, sigma, ahead, behind, weight, decay


def cold_adiabatic_evolve(
    psi0: np.ndarray,
    grid: SimulationGrid,
    schedule: CouplingSchedule,
    t: float,
    gamma_bc: complex = 0.0,
) -> PolaritonField:
    """Exact adiabatic evolution of a stored profile in a non-moving medium.

    The component along the stronger coupling, psi_s = kappa_s*psi0 at t = 0,
    splits into two parts moving at +-beta*v_g with weights (1 +- w)/2,
    w = beta/|kappa_s|^2, the larger one travelling along the stronger
    coupling; the weaker component carries two equal parts.  Either ordering
    of |kappa+|, |kappa-| is handled on any periodic grid.  The complex
    ground-state decay enters as the global factor exp(-gamma_bc * t).
    """
    kappa_s, kappa_w, sigma, ahead, behind, weight, decay = _oriented_subpulses(
        psi0, grid, schedule, t, gamma_bc
    )
    strong = 0.5 * kappa_s * ((1.0 + weight) * ahead + (1.0 - weight) * behind) * decay
    weak = 0.5 * kappa_w * (ahead + behind) * decay
    psi_plus, psi_minus = (strong, weak) if sigma > 0 else (weak, strong)
    return PolaritonField(psi_plus=psi_plus, psi_minus=psi_minus, time_stamp=t)


def thermal_adiabatic_evolve(
    psi0: np.ndarray,
    grid: SimulationGrid,
    schedule: CouplingSchedule,
    medium: MediumParams,
    times,
) -> list[PolaritonField]:
    """Exact adiabatic evolution of a stored profile in a thermally dephased
    (moving-atom) medium, one field per time.

    The sum mode psi_S = k+* psi+ + k-* psi- of the dark split kappa+- * psi0
    obeys
    d/dt psi_S = v_g(t) (-drift d/dz + D d^2/dz^2) psi_S - Gamma_bc sin^2(theta(t)) psi_S
    with drift |k+|^2-|k-|^2 and D = 4|k+|^2|k-|^2 l_a.  The generator is
    translation-invariant and its time dependence factors through r(t), so
    each wavenumber q evolves exactly as
    psi_S(q, t) = exp[(-i drift q - D q^2) r(t) - Gamma_bc (t - cos^2(theta0) r(t))] psi_S(q, 0).
    The difference mode psi_D = -2 k+ k- l_a d/dz psi_S is slaved to the
    gradient, and both polariton components are reconstructed from the pair.
    The shape of psi0 and every time are checked before any work, and the
    profile is transformed once for all times.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.n_z,):
        raise ValueError("psi0 must be sampled on the grid")
    times = [float(t) for t in times]
    # displacement_r also refuses a t that is not finite and >= 0
    displacements = [float(displacement_r(schedule, t)) for t in times]

    q = grid.wavenumbers
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    kp2, km2 = schedule.kappa_plus_sq, schedule.kappa_minus_sq
    diffusion = 4.0 * kp2 * km2 * medium.l_a
    gamma_bc = complex(medium.Gamma_bc)
    transport = -1j * (kp2 - km2) * q - diffusion * q ** 2
    slaving = -2.0 * kp * km * medium.l_a * 1j * q  # psi_D(q) = slaving * psi_S(q)
    spectrum0 = np.fft.fft(np.conj(kp) * (kp * psi0) + np.conj(km) * (km * psi0))

    fields = []
    for t, r in zip(times, displacements):
        spectrum = np.exp(transport * r - gamma_bc * (t - schedule.cos2_theta0 * r)) * spectrum0
        ps = np.fft.ifft(spectrum)
        pd = np.fft.ifft(slaving * spectrum)
        fields.append(PolaritonField(kp * ps + np.conj(km) * pd, km * ps - np.conj(kp) * pd, t))
    return fields


def probe_from_polariton(
    field: PolaritonField,
    schedule: CouplingSchedule,
    t: float | None = None,
) -> ProbeField:
    """Probe envelopes E+- = cos(theta(t)) * psi+-; zero at switch-on."""
    if t is None:
        t = field.time_stamp
    cos_theta = math.sqrt(cos2_theta(schedule, t))
    return ProbeField(
        e_plus=cos_theta * field.psi_plus,
        e_minus=cos_theta * field.psi_minus,
        time_stamp=t,
    )


def raman_harmonics(
    psi0: np.ndarray,
    grid: SimulationGrid,
    schedule: CouplingSchedule,
    t: float,
    n_max: int,
    gamma_bc: complex = 0.0,
) -> dict[int, np.ndarray]:
    """Spin-coherence harmonics of the adiabatic cold solution.

    Returns a dict from each even harmonic index m = 2n, n in [-n_max, n_max],
    to complex samples over the grid; the coherence at optical wavenumber k is
    the sum of samples * exp(i m k z).  The dc component mirrors the polariton
    sub-pulse structure; the harmonics 2n*sigma (sigma = +1 for |kappa+| >=
    |kappa-|, else -1) vanish and the harmonics -2n*sigma are scaled by
    (-kappa_w/kappa_s)^n, kappa_s and kappa_w being the stronger and weaker
    coupling amplitudes.  So the series sits at negative indices when kappa+
    is stronger and at positive indices when kappa- is.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    kappa_s, kappa_w, sigma, ahead, behind, weight, decay = _oriented_subpulses(
        psi0, grid, schedule, t, gamma_bc
    )
    sin_theta = math.sqrt(1.0 - cos2_theta(schedule, t))

    components: dict[int, np.ndarray] = {}
    components[0] = (
        -0.5 * sin_theta * ((1.0 + weight) * ahead + (1.0 - weight) * behind) * decay
    )
    base = -0.5 * sin_theta * weight * (ahead - behind) * decay
    ratio = -kappa_w / kappa_s
    for n in range(1, n_max + 1):
        components[-2 * n * sigma] = base * ratio ** n
        components[2 * n * sigma] = np.zeros(grid.n_z, dtype=complex)
    return components


def _propagate_modes(params: DispersionParams, kp2: float, q: np.ndarray, r: float,
                     p0: np.ndarray, m0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward/backward spectra at displacement r from (p0, m0): at each q the
    2x2 propagator of two modes with speeds lambda+-(q) and cross-coupling
    b(q), in its confluent limit where the modes cross (d(q) = 0)."""
    exp_plus = np.exp(1j * q * params.lambda_plus * r)
    exp_minus = np.exp(1j * q * params.lambda_minus * r)
    cos_like = 0.5 * (exp_plus + exp_minus)
    # (e+ - e-)/(2d) -> i q r * exp(-kp2 xi q^2 r) as d -> 0, the confluent
    # limit; switch to it where the phase q*d*r is too small for a stable
    # difference (this includes d = 0 at the mode crossing).
    small = np.abs(q * params.d * r) < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_like = np.where(
            small,
            1j * q * r * np.exp(-kp2 * params.xi * q ** 2 * r),
            (exp_plus - exp_minus) / (2.0 * params.d),
        )
    plus = (cos_like - kp2 * sin_like) * p0 + params.b * sin_like * m0
    minus = (cos_like + kp2 * sin_like) * m0 - np.conj(params.b) * sin_like * p0
    return plus, minus


def nonadiabatic_spectral_evolve(
    psi0: np.ndarray,
    grid: SimulationGrid,
    schedule: CouplingSchedule,
    l_a: float,
    times,
) -> list[PolaritonField]:
    """Dispersive mode propagator applied to a stored profile, one field per time.

    The dark split kappa+- * psi0 evolves, wavenumber by wavenumber, under the
    first-order-corrected coupled-mode equations over the displacement r(t).
    For a pure standing wave (beta = 0) the dark split is stationary, so it
    is returned unchanged; the traveling-wave limit reduces to drift plus
    diffusion with coefficient l_a * v_g.  The ordering, l_a, the shape of
    psi0 and every time are checked before any work.
    """
    kp2 = schedule.kappa_plus_sq
    if kp2 < schedule.kappa_minus_sq:
        raise ValueError(
            "nonadiabatic_spectral_evolve requires |kappa+| >= |kappa-|; "
            "mirror the problem for the opposite ordering"
        )
    _check_l_a(l_a)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.n_z,):
        raise ValueError("psi0 must be sampled on the grid")
    times = [float(t) for t in times]
    # displacement_r also refuses a t that is not finite and >= 0
    displacements = [displacement_r(schedule, t) for t in times]
    if beta(schedule) == 0.0:
        return [PolaritonField(schedule.kappa_plus * psi0, schedule.kappa_minus * psi0, t)
                for t in times]

    q = grid.wavenumbers
    params = dispersion_params(schedule, l_a, q)
    p0 = np.fft.fft(schedule.kappa_plus * psi0)
    m0 = np.fft.fft(schedule.kappa_minus * psi0)
    fields = []
    for t, r in zip(times, displacements):
        plus, minus = _propagate_modes(params, kp2, q, r, p0, m0)
        fields.append(PolaritonField(np.fft.ifft(plus), np.fft.ifft(minus), time_stamp=t))
    return fields
