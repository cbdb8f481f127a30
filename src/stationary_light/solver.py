"""Numerical integrators: the cold-atom coupled transport system, the
thermal-gas advection-diffusion normal-mode system, and a first-principles
truncated-harmonic ladder solver used as an oracle for the adiabatic theory.

All solvers use periodic boundaries and spectral (FFT) spatial derivatives.
The cold solver steps the transport with explicit fourth-order Runge-Kutta
and applies the ground-state decay exp(-Gamma_bc t) exactly, since it
multiplies the identity.  The thermal solver takes no time steps: its
generator is translation-invariant and its time dependence factors through
r(t), so each wavenumber is evaluated in closed form at the requested times.
The ladder solver holds its state as wavenumber spectra, on which its
z-independent couplings act column by column, so a step calls no FFT; it
steps with the inverse-free Lawson (integrating-factor) form of RK4, which
integrates relaxation and free advection exactly.  Both steppers refuse,
before the first step, a run that needs more steps than a fixed budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CONSTANT,
    CouplingSchedule,
    MediumParams,
    PolaritonField,
    ProbeField,
    SimulationGrid,
    cos2_theta,
    displacement_r,
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
    max_cfl: float
    norm_history: np.ndarray
    times: np.ndarray
    snapshots: list[PolaritonField] = field(default_factory=list)


def _max_group_velocity(schedule: CouplingSchedule, t_end: float) -> float:
    if schedule.schedule_kind == CONSTANT:
        return 1.0
    return float(group_velocity(schedule, t_end))  # tanh switch is monotone


def _snapshot_targets(t_end: float, snapshot_times) -> tuple[list[float], set[float]]:
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    wanted: set[float] = set()
    if snapshot_times is not None:
        for t in snapshot_times:
            t = float(t)
            if t < 0 or t > t_end * (1 + 1e-12):
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
        ratio = span / dt_max  # inf or nan for an unbounded horizon: refused below
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


def _check_norm_bounded(norm: float, norm0: float, t: float) -> None:
    # transport with Re(Gamma_bc) >= 0 never amplifies; explosive growth means
    # the step size violated the stability limit
    if norm > 1e12 * max(norm0, 1e-300):
        raise SolverError(
            f"norm exploded at t = {t:.6g} (stability limit violated); "
            "reduce the CFL factor or refine the grid"
        )


def evolve_cold_numeric(
    init: PolaritonField,
    schedule: CouplingSchedule,
    medium: MediumParams,
    grid: SimulationGrid,
    t_end: float,
    *,
    cfl: float = 0.5,
    snapshot_times=None,
) -> SolverReport:
    """Method-of-lines integration of the cold-atom coupled transport system.

    The advection coefficient uses the larger of |kappa+|^2, |kappa-|^2 so the
    characteristic speeds +-beta*v_g stay real for either ordering of the
    coupling amplitudes.  dt is chosen so v_g,max*dt/dz <= cfl.  Gamma_bc
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

    v_max = max(_max_group_velocity(schedule, t_end), 1e-12)
    dt_max = min(cfl * grid.dz / v_max, 0.05 * schedule.T_s)

    up = init.psi_plus.copy()
    um = init.psi_minus.copy()
    t_now = 0.0
    steps = 0
    max_cfl = 0.0
    norms = [grid.dz * float(np.sum(np.abs(up) ** 2 + np.abs(um) ** 2))]
    times = [0.0]
    snapshots: list[PolaritonField] = []
    if 0.0 in wanted:
        snapshots.append(PolaritonField(up, um, 0.0))

    for target, n, h in _plan_steps(targets, dt_max):
        max_cfl = max(max_cfl, v_max * h / grid.dz)
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
            _check_norm_bounded(norm, norms[0], t_now)
            norms.append(norm * math.exp(-2.0 * gamma_bc.real * t_now))
            times.append(t_now)
        t_now = target
        if target in wanted:
            snapshots.append(decayed(up, um, target))

    return SolverReport(
        final_field=decayed(up, um, t_end),
        steps=steps,
        max_cfl=max_cfl,
        norm_history=np.asarray(norms),
        times=np.asarray(times),
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


def evolve_thermal_numeric(
    init: PolaritonField,
    schedule: CouplingSchedule,
    medium: MediumParams,
    grid: SimulationGrid,
    t_end: float,
    *,
    snapshot_times=None,
) -> SolverReport:
    """Exact normal-mode solution for a thermally dephased (moving-atom) medium.

    The sum mode psi_S = k+* psi+ + k-* psi- obeys
    d/dt psi_S = v_g(t) (-drift d/dz + D d^2/dz^2) psi_S - Gamma_bc sin^2(theta(t)) psi_S
    with drift |k+|^2-|k-|^2 and D = 4|k+|^2|k-|^2 l_a.  The generator is
    translation-invariant and its time dependence factors through r(t), so
    each wavenumber q evolves exactly as
    psi_S(q, t) = exp[(-i drift q - D q^2) r(t) - Gamma_bc (t - cos^2(theta0) r(t))] psi_S(q, 0),
    which is evaluated directly at t = 0, each snapshot time and t_end.  The
    difference mode psi_D = -2 k+ k- l_a d/dz psi_S is slaved to the gradient,
    and both polariton components are reconstructed from the pair.  No time
    steps are taken: the report carries steps = 0 and max_cfl = 0, and its
    norm history is sampled at the evaluation times.
    """
    if medium.delta_p != 0.0:
        raise ValueError("the thermal normal-mode reduction assumes zero probe detuning")
    if init.psi_plus.shape != (grid.n_z,):
        raise ValueError("initial field must be sampled on the grid")
    targets, wanted = _snapshot_targets(t_end, snapshot_times)

    q = grid.wavenumbers
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    kp2, km2 = schedule.kappa_plus_sq, schedule.kappa_minus_sq
    drift = kp2 - km2
    diffusion = 4.0 * kp2 * km2 * medium.l_a
    gamma_bc = complex(medium.Gamma_bc)
    transport = -1j * drift * q - diffusion * q ** 2
    slaving = -2.0 * kp * km * medium.l_a * 1j * q  # psi_D(q) = slaving * psi_S(q)
    spectrum0 = np.fft.fft(np.conj(kp) * init.psi_plus + np.conj(km) * init.psi_minus)

    times = [0.0, *targets]
    norms: list[float] = []
    fields: list[PolaritonField] = []
    for t in times:
        r = float(displacement_r(schedule, t))
        spectrum = np.exp(transport * r - gamma_bc * (t - schedule.cos2_theta0 * r)) * spectrum0
        ps = np.fft.ifft(spectrum)
        pd = np.fft.ifft(slaving * spectrum)
        norms.append(grid.dz * float(np.sum(np.abs(ps) ** 2 + np.abs(pd) ** 2)))
        fields.append(
            PolaritonField(
                psi_plus=kp * ps + np.conj(km) * pd,
                psi_minus=km * ps - np.conj(kp) * pd,
                time_stamp=t,
            )
        )

    return SolverReport(
        final_field=fields[-1],
        steps=0,
        max_cfl=0.0,
        norm_history=np.asarray(norms),
        times=np.asarray(times),
        snapshots=[fld for fld in fields if fld.time_stamp in wanted],
    )


@dataclass(frozen=True)
class MBState:
    """Probe envelopes plus the truncated harmonic ladder of coherences.

    ``sigma_ba_harmonics`` maps odd harmonic indices m with |m| <= 2N-1 to
    complex samples; ``sigma_bc_harmonics`` maps even m with |m| <= 2N-2,
    where N = ``truncation_N``.  N = 1 keeps only the dc spin component and
    reproduces the rapid-dephasing (thermal-gas) reduction.
    """

    e_plus: np.ndarray
    e_minus: np.ndarray
    sigma_ba_harmonics: dict[int, np.ndarray]
    sigma_bc_harmonics: dict[int, np.ndarray]
    truncation_N: int
    time_stamp: float = 0.0


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
) -> list[MBState]:
    """Integrate the weak-probe ladder equations truncated at N harmonic shells.

    Shell j couples the optical harmonics sigma_ba^(+-(2j-1)) to the spin
    harmonics sigma_bc^(+-(2j-2)); harmonics outside the band are held at
    zero.  The coherences are the collectively scaled ones (sqrt(N)*sigma),
    so ``initial_sigma_bc0`` for a retrieval run is minus the stored profile.

    The couplings do not depend on z, so the state is one (4N+1, n_z) array
    of spectra (rows E+, E-, then the sigma_ba and sigma_bc harmonics) and
    each wavenumber column evolves on its own, u' = rate*u + (G + Omega(t) B) u,
    with no FFT inside a step.  The Lawson RK4 step is written without
    inverse factors (E = exp(rate h), E' = exp(rate h/2)):
    k1 = f(u), k2 = f(E'u + h/2 E'k1), k3 = f(E'u + h/2 k2),
    k4 = f(Eu + h E'k3), u <- Eu + h/6 (E k1 + 2E'(k2 + k3) + k4).
    Relaxation and free advection are thus exact, so the step is set by the
    coupling rate and the phase resolution of the fastest advected mode, not
    by the excited-state decay, and a factor that underflows to 0 stays 0.
    A run needing more steps than the solver's budget raises SolverError.

    Returns the state history: t = 0, each requested snapshot time, and t_end.
    """
    if truncation_N < 1 or int(truncation_N) != truncation_N:
        raise ValueError(f"truncation_N must be a positive integer, got {truncation_N}")
    if probe_init.e_plus.shape != (grid.n_z,):
        raise ValueError("initial probe field must be sampled on the grid")
    targets, wanted = _snapshot_targets(t_end, snapshot_times)

    n_shells = int(truncation_N)
    n_ba = 2 * n_shells
    n_bc = 2 * n_shells - 1
    m_ba = 2 * np.arange(n_ba) - (2 * n_shells - 1)
    m_bc = 2 * np.arange(n_bc) - (2 * n_shells - 2)
    ba = 2 + np.arange(n_ba)          # state rows of sigma_ba, ascending m
    bc = 2 + n_ba + np.arange(n_bc)   # state rows of sigma_bc, ascending m
    row_plus = ba[n_shells]           # sigma_ba^(+1)
    row_minus = ba[n_shells - 1]      # sigma_ba^(-1)

    c = medium.vacuum_speed(schedule)
    g_coll = medium.collective_coupling(schedule)
    gamma_ba = medium.gamma_ba - 1j * medium.delta_p
    gamma_bc = complex(medium.Gamma_bc)
    kp, km = schedule.kappa_plus, schedule.kappa_minus

    q = grid.wavenumbers
    n_z = grid.n_z
    n_rows = 2 + n_ba + n_bc

    coupling = np.zeros((n_rows, n_rows), dtype=complex)  # G
    coupling[row_plus, 0] = coupling[0, row_plus] = 1j * g_coll
    coupling[row_minus, 1] = coupling[1, row_minus] = 1j * g_coll
    shells = np.zeros((n_rows, n_rows), dtype=complex)  # B, per unit Rabi frequency
    shells[ba[1:], bc] = 1j * kp
    shells[ba[:-1], bc] = 1j * km
    shells[bc, ba[1:]] = 1j * np.conj(kp)
    shells[bc, ba[:-1]] = 1j * np.conj(km)

    rate = np.empty((n_rows, n_z), dtype=complex)
    rate[:2] = -1j * c * q, 1j * c * q
    rate[ba], rate[bc] = -gamma_ba, -gamma_bc

    def rhs(u: np.ndarray, t: float) -> np.ndarray:
        c2 = cos2_theta(schedule, t)
        return (coupling + g_coll * math.sqrt(c2 / (1.0 - c2)) * shells) @ u

    # Step size: half the explicit-coupling stability and free-advection
    # phase-resolution bounds; the tanh switch itself needs dt well below T_s.
    cos2_0 = schedule.cos2_theta0
    omega_sat = g_coll * math.sqrt(cos2_0 / (1.0 - cos2_0))
    coupling_rate = math.sqrt(g_coll ** 2 + omega_sat ** 2)
    k_max = float(np.max(np.abs(q)))
    bounds = [2.8 / coupling_rate]
    if k_max > 0:
        bounds.append(2.8 / (c * k_max))
    dt_max = min(0.5 * min(bounds), 0.01 * schedule.T_s)
    plan = _plan_steps(targets, dt_max)

    u = np.zeros((n_rows, n_z), dtype=complex)
    u[0] = np.fft.fft(probe_init.e_plus)
    u[1] = np.fft.fft(probe_init.e_minus)
    if initial_sigma_bc0 is not None:
        spin0 = np.asarray(initial_sigma_bc0, dtype=complex)
        if spin0.shape != (n_z,):
            raise ValueError("initial_sigma_bc0 must be sampled on the grid")
        u[bc[n_shells - 1]] = np.fft.fft(spin0)

    def to_mbstate(u: np.ndarray, t: float) -> MBState:
        rows = np.fft.ifft(u, axis=1)
        return MBState(
            e_plus=rows[0],
            e_minus=rows[1],
            sigma_ba_harmonics={int(m): rows[r] for m, r in zip(m_ba, ba)},
            sigma_bc_harmonics={int(m): rows[r] for m, r in zip(m_bc, bc)},
            truncation_N=n_shells,
            time_stamp=t,
        )

    history = [to_mbstate(u, 0.0)]
    t_now = 0.0

    for target, n, h in plan:
        half = np.exp(rate * (0.5 * h))
        full = half * half
        for _ in range(n):
            half_u = half * u
            k1 = rhs(u, t_now)
            k2 = rhs(half_u + (0.5 * h) * (half * k1), t_now + 0.5 * h)
            k3 = rhs(half_u + (0.5 * h) * k2, t_now + 0.5 * h)
            k4 = rhs(full * u + h * (half * k3), t_now + h)
            u = full * u + (h / 6.0) * (full * k1 + 2.0 * half * (k2 + k3) + k4)
            t_now += h
            _check_finite(u[:2], t_now)
        t_now = target
        if target in wanted or target == targets[-1]:
            history.append(to_mbstate(u, target))

    return history
