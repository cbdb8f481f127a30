"""Time steppers: the cold-atom coupled transport system and a first-principles
truncated-harmonic ladder solver used as an oracle for the adiabatic theory.

Both use periodic boundaries and treat z spectrally.  The cold solver steps
the transport with explicit fourth-order Runge-Kutta on FFT derivatives and
applies the ground-state decay exp(-Gamma_bc t) exactly, since it multiplies
the identity.  The ladder solver holds its state as wavenumber spectra, on
which its z-independent couplings, made real by a diagonal phase gauge, act
column by column as one real matrix product per stage, so a step calls no
FFT.  It steps with the inverse-free Lawson (integrating-factor) form of RK4,
which integrates relaxation and free advection exactly.  Both steppers
refuse, before the first step, a run that needs more steps than a fixed
budget.  The thermal medium needs no stepper: its closed form is in
``analytic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CouplingSchedule,
    MediumParams,
    PolaritonField,
    ProbeField,
    SimulationGrid,
    _as_complex_samples,
    cos2_theta,
    group_velocity,
)


class SolverError(RuntimeError):
    """Raised when an integration goes non-finite or violates its own limits."""


# Step budget per solve: the largest real use, the ladder oracle of acceptance
# criterion C08 at gamma_ba*T_s = 300, takes about 22k steps (4.5x headroom).
_MAX_STEPS = 100_000


@dataclass
class SolverReport:
    """Outcome of one integration run."""

    final_field: PolaritonField
    steps: int
    norm_history: np.ndarray
    snapshots: list[PolaritonField] = field(default_factory=list)


def _snapshot_targets(t_end: float, snapshot_times) -> tuple[list[float], set[float]]:
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    wanted: set[float] = set()
    if snapshot_times is not None:
        for t in snapshot_times:
            t = float(t)
            if not 0 <= t <= t_end * (1 + 1e-12):
                raise ValueError(f"snapshot time {t} outside [0, {t_end}]")
            wanted.add(min(t, t_end))
    targets = sorted(wanted | {t_end})
    if targets and targets[0] == 0.0:
        targets = targets[1:]
    return targets, wanted


def _plan_steps(targets: list[float], dt_max: float) -> list[tuple[float, int, float]]:
    """(target, n, h) per target, n equal steps h <= dt_max; SolverError over budget."""
    plan = []
    for start, target in zip([0.0, *targets[:-1]], targets):
        span = target - start
        ratio = span / dt_max  # inf for a horizon past float range: refused below
        n = max(1, math.ceil(ratio - 1e-12)) if ratio <= _MAX_STEPS else _MAX_STEPS + 1
        plan.append((target, n, span / n))
    if sum(n for _, n, _ in plan) > _MAX_STEPS:
        raise SolverError(
            f"t = {targets[-1]:.6g} in steps of at most {dt_max:.3g} "
            f"needs more than the budget of {_MAX_STEPS} steps"
        )
    return plan


def _check_finite(arrays, t: float) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr.view(float))):
            raise SolverError(f"non-finite field values at t = {t:.6g} (blow-up)")


def evolve_cold_numeric(
    init: PolaritonField,
    schedule: CouplingSchedule,
    medium: MediumParams,
    grid: SimulationGrid,
    t_end: float,
    *,
    snapshot_times=None,
) -> SolverReport:
    """Method-of-lines integration of the cold-atom coupled transport system.

    The advection coefficient uses the larger of |kappa+|^2, |kappa-|^2 so the
    characteristic speeds +-beta*v_g stay real for either ordering of the
    coupling amplitudes.  dt is chosen so v_g,max*dt/dz <= 1/2, which keeps
    |lambda*dt| <= pi/2 for every resolved wavenumber, inside the RK4
    imaginary-axis stability limit 2*sqrt(2).  Gamma_bc
    multiplies the identity and so commutes with the transport: the stepper
    advances the undamped fields, and the snapshots, the final field and the
    norm history carry the exact factor exp(-Gamma_bc t).
    """
    if init.psi_plus.shape != (grid.n_z,):
        raise ValueError("initial field must be sampled on the grid")
    targets, wanted = _snapshot_targets(t_end, snapshot_times)

    q = grid.wavenumbers
    iq = 1j * q
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    adv = max(schedule.kappa_plus_sq, schedule.kappa_minus_sq)
    cross_p = kp * np.conj(km)
    cross_m = np.conj(kp) * km
    gamma_bc = complex(medium.Gamma_bc)

    def rhs(t: float, up: np.ndarray, um: np.ndarray):
        v = group_velocity(schedule, t)
        dzp = np.fft.ifft(iq * np.fft.fft(up))
        dzm = np.fft.ifft(iq * np.fft.fft(um))
        return -adv * v * dzp + cross_p * v * dzm, adv * v * dzm - cross_m * v * dzp

    def decayed(up: np.ndarray, um: np.ndarray, t: float) -> PolaritonField:
        decay = np.exp(-gamma_bc * t)
        return PolaritonField(decay * up, decay * um, t)

    # v_g never decreases in time, so its largest value on [0, t_end] is at t_end
    v_max = max(float(group_velocity(schedule, t_end)), 1e-12)
    dt_max = min(0.5 * grid.dz / v_max, 0.05)

    up = init.psi_plus.copy()
    um = init.psi_minus.copy()
    t_now = 0.0
    steps = 0
    norms = [grid.dz * float(np.sum(np.abs(up) ** 2 + np.abs(um) ** 2))]
    snapshots: list[PolaritonField] = []
    if 0.0 in wanted:
        snapshots.append(PolaritonField(up, um, 0.0))

    for target, n, h in _plan_steps(targets, dt_max):
        for _ in range(n):
            k1p, k1m = rhs(t_now, up, um)
            k2p, k2m = rhs(t_now + 0.5 * h, up + 0.5 * h * k1p, um + 0.5 * h * k1m)
            k3p, k3m = rhs(t_now + 0.5 * h, up + 0.5 * h * k2p, um + 0.5 * h * k2m)
            k4p, k4m = rhs(t_now + h, up + h * k3p, um + h * k3m)
            up = up + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            um = um + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
            t_now += h
            steps += 1
            _check_finite((up, um), t_now)
            norm = grid.dz * float(np.sum(np.abs(up) ** 2 + np.abs(um) ** 2))
            norms.append(norm * math.exp(-2.0 * gamma_bc.real * t_now))
        t_now = target
        if target in wanted:
            snapshots.append(decayed(up, um, target))

    return SolverReport(
        final_field=decayed(up, um, t_end),
        steps=steps,
        norm_history=np.asarray(norms),
        snapshots=snapshots,
    )


def characteristic_speeds(schedule: CouplingSchedule, t: float) -> tuple[float, float]:
    """Eigen-speeds of the assembled 2x2 advection matrix, (fast, slow).

    Computed from the assembled matrix via its exact 2x2 eigenvalue formula
    (trace and determinant) rather than from the closed-form splitting factor,
    so it can serve as an independent cross-check.  The trace/determinant
    route stays exact at the defective standing-wave point where a general
    eigensolver loses half the working precision.
    """
    v = float(group_velocity(schedule, t))
    adv = max(schedule.kappa_plus_sq, schedule.kappa_minus_sq)
    cross_p = schedule.kappa_plus * np.conj(schedule.kappa_minus)
    cross_m = np.conj(schedule.kappa_plus) * schedule.kappa_minus
    matrix = v * np.array([[adv, -cross_p], [cross_m, -adv]], dtype=complex)
    trace = matrix[0, 0] + matrix[1, 1]
    determinant = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    discriminant = (trace / 2.0) ** 2 - determinant
    if discriminant.real < -1e-15 or abs(discriminant.imag) > 1e-15:
        raise SolverError("advection matrix produced complex characteristic speeds")
    root = math.sqrt(max(discriminant.real, 0.0))
    center = trace.real / 2.0
    return center + root, center - root


def _aligned_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Complex zeros of `shape` whose data starts on a 64-byte boundary.

    OpenBLAS reads a right-hand matrix that is not 64-byte aligned about 25 %
    slower, and numpy places an array at any multiple of 16 bytes, set by
    earlier and unrelated allocations.
    """
    size = math.prod(shape) * 16
    buffer = np.zeros(size + 64, dtype=np.uint8)
    start = -buffer.ctypes.data % 64
    return buffer[start:start + size].view(complex).reshape(shape)


def evolve_mb_harmonics(
    probe_init: ProbeField,
    schedule: CouplingSchedule,
    medium: MediumParams,
    grid: SimulationGrid,
    truncation_N: int,
    t_end: float,
    *,
    initial_sigma_bc0: np.ndarray | None = None,
    snapshot_times=None,
) -> list[ProbeField]:
    """Integrate the weak-probe ladder equations truncated at N harmonic shells.

    Shell j couples the optical harmonics sigma_ba^(+-(2j-1)) to the spin
    harmonics sigma_bc^(+-(2j-2)); harmonics outside the band are held at
    zero.  The coherences are the collectively scaled ones (sqrt(N)*sigma),
    so ``initial_sigma_bc0`` for a retrieval run is minus the stored profile.

    The couplings do not depend on z, so the state is one (4N+1, n_z) array
    of spectra (rows E+, E-, then the sigma_ba and sigma_bc harmonics) and
    each wavenumber column evolves on its own, u' = rate*u + i(G + Omega(t) B) u,
    with no FFT inside a step.  Ordered by m, the couplings form a path from
    sigma_ba^(-(2N-1)) to sigma_ba^(2N-1) with E+- as leaves on sigma_ba^(+-1).
    On this tree the row phases d = exp(i(ceil(m/2) arg kappa+ - floor(m/2)
    arg kappa-)), with m = +-1 for E+- and arg 0 = 0, make G and B real and
    non-negative for v = u/d, so each stage is one real matrix product on the
    float view of v.  The Lawson RK4 step is written without inverse factors
    (E = exp(rate h), E' = exp(rate h/2)): k1 = f(v), k2 = f(E'v + h/2 E'k1),
    k3 = f(E'v + h/2 k2), k4 = f(Ev + h E'k3), v <- Ev + h/6 (E k1 +
    2E'(k2 + k3) + k4), with i and the weights folded into per-segment factors
    and Omega evaluated at all of a segment's stage times at once.
    Relaxation and free advection are thus exact, so the step is set by the
    coupling rate and the phase resolution of the fastest advected mode, not
    by the excited-state decay, and a factor that underflows to 0 stays 0.
    A run needing more steps than the solver's budget raises SolverError.

    N = 1 keeps only the dc spin component and reproduces the rapid-dephasing
    (thermal-gas) reduction.  Returns the probe envelopes E+- at t = 0, each
    requested snapshot time, and t_end; the coherences are not returned.
    """
    if truncation_N < 1 or int(truncation_N) != truncation_N:
        raise ValueError(f"truncation_N must be a positive integer, got {truncation_N}")
    if probe_init.e_plus.shape != (grid.n_z,):
        raise ValueError("initial probe field must be sampled on the grid")
    targets, wanted = _snapshot_targets(t_end, snapshot_times)

    n_shells = int(truncation_N)
    m_ba = 2 * np.arange(2 * n_shells) - (2 * n_shells - 1)
    m_bc = 2 * np.arange(2 * n_shells - 1) - (2 * n_shells - 2)
    ba = 2 + np.arange(m_ba.size)              # state rows of sigma_ba, ascending m
    bc = 2 + m_ba.size + np.arange(m_bc.size)  # state rows of sigma_bc, ascending m
    plus, minus = ba[n_shells], ba[n_shells - 1]  # sigma_ba^(+1), sigma_ba^(-1)

    c = medium.vacuum_speed(schedule)
    g_coll = medium.collective_coupling(schedule)
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    q = grid.wavenumbers
    n_rows = 4 * n_shells + 1

    m_rows = np.concatenate([[1, -1], m_ba, m_bc])  # harmonic index of each state row
    gauge = np.exp(1j * ((m_rows + 1) // 2 * np.angle(kp) - m_rows // 2 * np.angle(km)))[:, None]
    probe = np.zeros((n_rows, n_rows))  # G: collective probe links
    probe[[plus, 0, minus, 1], [0, plus, 1, minus]] = g_coll
    shells = np.zeros((n_rows, n_rows))  # B: shell links per unit Rabi frequency
    shells[ba[1:], bc] = shells[bc, ba[1:]] = abs(kp)
    shells[ba[:-1], bc] = shells[bc, ba[:-1]] = abs(km)

    rate = np.empty((n_rows, grid.n_z), dtype=complex)
    rate[:2] = -1j * c * q, 1j * c * q
    rate[ba], rate[bc] = -medium.gamma_ba, -complex(medium.Gamma_bc)

    # Step size: half the explicit-coupling stability and free-advection
    # phase-resolution bounds; the tanh switch itself needs dt well below T_s.
    cos2_0 = schedule.cos2_theta0
    omega_sat = g_coll * math.sqrt(cos2_0 / (1.0 - cos2_0))
    coupling_rate = math.sqrt(g_coll ** 2 + omega_sat ** 2)
    k_max = float(np.max(np.abs(q)))
    bounds = [2.8 / coupling_rate]
    if k_max > 0:
        bounds.append(2.8 / (c * k_max))
    dt_max = min(0.5 * min(bounds), 0.01)
    plan = _plan_steps(targets, dt_max)

    v = _aligned_zeros((n_rows, grid.n_z))
    arg = _aligned_zeros((n_rows, grid.n_z))  # argument of the stages after the first
    v[:2] = np.fft.fft(probe_init.e_plus), np.fft.fft(probe_init.e_minus)
    if initial_sigma_bc0 is not None:
        spin0 = _as_complex_samples(initial_sigma_bc0, "initial_sigma_bc0")
        if spin0.shape != (grid.n_z,):
            raise ValueError("initial_sigma_bc0 must be sampled on the grid")
        v[bc[n_shells - 1]] = np.fft.fft(spin0)
    v /= gauge

    def envelopes(v: np.ndarray, t: float) -> ProbeField:
        e_plus, e_minus = np.fft.ifft(gauge[:2] * v[:2], axis=1)
        return ProbeField(e_plus, e_minus, time_stamp=t)

    def product(omega: float, v: np.ndarray) -> np.ndarray:  # f(v) / i
        return ((probe + omega * shells) @ v.view(float)).view(complex)

    history = [envelopes(v, 0.0)]
    for start, (target, n, h) in zip([0.0, *targets], plan):
        c2 = cos2_theta(schedule, start + (0.5 * h) * np.arange(2 * n + 1))
        omega = g_coll * np.sqrt(c2 / (1.0 - c2))
        half = np.exp(rate * (0.5 * h))
        full = half * half
        half_k1, full_k3 = (0.5j * h) * half, (1j * h) * half
        sixth_k1, third_k23 = (1j * h / 6.0) * full, (1j * h / 3.0) * half
        for s in range(0, 2 * n, 2):
            half_v = half * v
            k1 = product(omega[s], v)
            np.multiply(half_k1, k1, out=arg)
            arg += half_v
            k2 = product(omega[s + 1], arg)
            np.multiply(0.5j * h, k2, out=arg)
            arg += half_v
            k3 = product(omega[s + 1], arg)
            v *= full
            np.multiply(full_k3, k3, out=arg)
            arg += v
            k4 = product(omega[s + 2], arg)
            v += sixth_k1 * k1 + third_k23 * (k2 + k3) + (1j * h / 6.0) * k4
            _check_finite(v[:2], start + (s + 2) * (0.5 * h))
        if target in wanted or target == targets[-1]:
            history.append(envelopes(v, target))

    return history
