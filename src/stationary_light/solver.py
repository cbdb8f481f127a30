"""Time steppers: the cold-atom coupled transport system and a first-principles
truncated-harmonic ladder solver used as an oracle for the adiabatic theory.
The cold transport's exact exponential is ``analytic.cold_transport_evolve``;
the cold stepper here serves ``fig3_quasi_cold``.

Both models are linear with z-independent couplings on a periodic z, and both
step with one loop, ``_lawson_rk4``: the inverse-free Lawson
(integrating-factor) form of RK4 for v' = rate*v + i P(c(t), v), which
integrates the rate part exactly.  The loop owns the stage buffers, the stage
times of each plan segment, the combination of the stages and the books of a
solve: it takes the squared norm of the whole state at t = 0 and after every
step (the one blow-up rule: it must be finite), counts the steps, and returns
one ``History`` of what the stepper's ``record`` makes at t = 0 and every
target time.  Each stepper supplies only its generator (`rate`, the one time
coefficient c(t) and the product P) and that ``record``.  The cold generator
has rate 0 and coefficient v_g(t), and steps the transport on FFT
derivatives; the ground-state decay is a scalar that commutes with it, so its
``record`` multiplies each copied state once by the one decay law
``core._ground_state_decay``, exp(-Gamma_bc (t - cos^2(theta0) r(t))).  The
ladder keeps its first-principles rates, Gamma_bc on the spin rows only, from
which that law follows.  Its coefficient is the Rabi frequency Omega(t) and
its state is wavenumber spectra: its z-independent couplings, made real by a
diagonal phase gauge, act as one real matrix product per stage, so a step
calls no FFT.  Each of its columns' exact flow is a contraction, so it evolves
only the columns whose initial spectrum exceeds 1e-16 of the peak; a column
left out would stay that small.  For real gauged inputs and a real Gamma_bc
the columns q < 0 are conjugate mirrors of the columns q > 0, so it evolves
only q >= 0 of those.
Both generators advect on the grid's wavenumbers, whose Nyquist column of an
even grid is 0, so the mirror z -> -z with kappa+ <-> kappa- stays a symmetry.
Both steppers refuse, before the first step, a run that needs more steps than
a fixed budget, and ``_lawson_rk4`` one whose steps times evolved columns
exceed its work budget.  The thermal medium needs no stepper: its closed form
is in ``analytic``.
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
    _as_complex_samples,
    _as_count,
    _ground_state_decay,
    cos2_theta,
    group_velocity,
)


class SolverError(RuntimeError):
    """Raised when an integration goes non-finite or violates its own limits."""


# Step budget per solve: the largest real use, the ladder oracle of acceptance
# criterion C08 at gamma_ba*T_s = 300, takes about 22k steps (4.5x headroom).
_MAX_STEPS = 100_000

# Work budget of a Lawson solve, in steps times evolved columns: the cold
# stepper's steps shrink with dz and each costs 16 FFTs of n_z points, so n_z
# 8192 at t_max 20 (1.3e8, under a minute on one Xeon core) fits, 16384 does not.
_MAX_GRID_POINT_STEPS = 2e8

# The ladder leaves out a wavenumber column whose initial spectrum stays at or
# below this fraction of the state's peak.
_COLUMN_FLOOR = 1e-16


class History(list):
    """A solve's fields at t = 0, each snapshot time and t_end, with its Lawson
    RK4 ``steps`` and the ``columns`` (last axis) of its evolved state."""

    def __init__(self, fields, steps: int, columns: int) -> None:
        super().__init__(fields)
        self.steps = steps
        self.columns = columns


def _snapshot_targets(t_end: float, snapshot_times) -> list[float]:
    """t_end and the snapshot times after 0, sorted; round-off past t_end is t_end."""
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    targets = {t_end}
    for t in (() if snapshot_times is None else snapshot_times):
        t = float(t)
        if not 0 <= t <= t_end * (1 + 1e-12):
            raise ValueError(f"snapshot time {t} outside [0, {t_end}]")
        targets.add(min(t, t_end))
    targets.discard(0.0)
    return sorted(targets)


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


def _norm_sq(values: np.ndarray, t: float) -> float:
    """Sum of |values|^2; SolverError (blow-up) when it is not finite, which
    includes a sum that overflows."""
    value = np.vdot(values, values).real
    if not math.isfinite(value):
        raise SolverError(f"non-finite field norm at t = {t:.6g} (blow-up)")
    return value


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


def _lawson_rk4(v, rate, plan, coefficient, product, record) -> History:
    """Advance v' = rate*v + i P(c(t), v) in place over a `_plan_steps` plan and
    return the ``History`` of ``record(v, t)`` at t = 0 and every target.

    The Lawson (integrating-factor) RK4 step, written without inverse factors
    (E = exp(rate h), E' = exp(rate h/2)): k1 = P(v), k2 = P(E'v + h/2 E'k1),
    k3 = P(E'v + h/2 k2), k4 = P(Ev + h E'k3), v <- Ev + h/6 (E k1 +
    2E'(k2 + k3) + k4), with i and the weights folded into per-segment
    factors.  The rate part is integrated exactly, and a factor that
    underflows to 0 stays 0; `rate` broadcasts against v, and rate 0 is
    classical RK4.  Per segment, ``coefficient(times)`` gives the array c of
    the generator's one time coefficient at all its stage times
    start + (h/2) * arange(2n + 1), and step j calls ``product(c[s], w, out)``,
    which writes P(c[s], w) into `out`, at s = 2j, 2j + 1 (twice) and 2j + 2.
    Over ``_MAX_GRID_POINT_STEPS`` steps times columns (v's last axis) it
    raises SolverError; then `_norm_sq` checks v at t = 0 and after every
    step.  ``record`` must return fields that own their arrays; the six
    stage buffers are allocated once.
    """
    steps, columns = sum(n for _, n, _ in plan), v.shape[-1]
    if steps * columns > _MAX_GRID_POINT_STEPS:
        raise SolverError(f"{steps} steps of {columns} columns exceed the work budget "
                          f"of {_MAX_GRID_POINT_STEPS:.0e} grid-point steps")
    _norm_sq(v, 0.0)
    history = History([record(v, 0.0)], steps, columns)
    arg, half_v, k1, k2, k3, k4 = (_aligned_zeros(v.shape) for _ in range(6))
    start = 0.0
    for target, n, h in plan:
        # as floats, which index and compare per stage faster than numpy scalars
        c = coefficient(start + (0.5 * h) * np.arange(2 * n + 1)).tolist()
        half = np.exp(rate * (0.5 * h))
        full = half * half
        half_k1, full_k3 = (0.5j * h) * half, (1j * h) * half
        sixth_k1, third_k23 = (1j * h / 6.0) * full, (1j * h / 3.0) * half
        for s in range(0, 2 * n, 2):
            np.multiply(half, v, out=half_v)
            product(c[s], v, k1)
            np.multiply(half_k1, k1, out=arg)
            arg += half_v
            product(c[s + 1], arg, k2)
            np.multiply(0.5j * h, k2, out=arg)
            arg += half_v
            product(c[s + 1], arg, k3)
            v *= full
            np.multiply(full_k3, k3, out=arg)
            arg += v
            product(c[s + 2], arg, k4)
            np.multiply(sixth_k1, k1, out=arg)
            k2 += k3
            k2 *= third_k23
            arg += k2
            k4 *= 1j * h / 6.0
            arg += k4
            v += arg
            _norm_sq(v, start + (s + 2) * (0.5 * h))
        history.append(record(v, target))
        start = target
    return history


def evolve_cold_numeric(
    init: PolaritonField,
    schedule: CouplingSchedule,
    medium: MediumParams,
    grid: SimulationGrid,
    t_end: float,
    *,
    snapshot_times=None,
) -> History:
    """Method-of-lines integration of the cold-atom coupled transport system.

    ``analytic.cold_transport_evolve`` evolves the same generator exactly, with
    no steps; the one CLI caller of this stepper is ``fig3_quasi_cold``.

    The advection coefficient uses the larger of |kappa+|^2, |kappa-|^2 so the
    characteristic speeds +-beta*v_g stay real for either ordering of the
    coupling amplitudes.  dt is chosen so v_g,max*dt/dz <= 1/2, which keeps
    |lambda*dt| <= pi/2 for every resolved wavenumber, inside the RK4
    imaginary-axis stability limit 2*sqrt(2).  The transport steps at Lawson
    rate 0; the ground-state decay, a scalar that commutes with it, multiplies
    each recorded field once as exp(-Gamma_bc (t - cos^2(theta0) r(t))), so it
    neither shrinks the step nor rounds step by step.  The loop's coefficient
    is v_g(t), and each product takes its z-derivatives with two forward and
    two inverse ``np.fft`` calls on the grid's wavenumbers.  Before the
    first step ``_lawson_rk4`` refuses a run whose steps times n_z exceed
    its work budget, and an initial field whose norm overflows.
    Returns the fields at t = 0, each snapshot time and t_end as a ``History``.
    """
    if init.psi_plus.shape != (grid.n_z,):
        raise ValueError("initial field must be sampled on the grid")
    targets = _snapshot_targets(t_end, snapshot_times)

    q = grid.wavenumbers.astype(complex)
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    adv = max(schedule.kappa_plus_sq, schedule.kappa_minus_sq)
    cross_p = kp * np.conj(km)
    cross_m = np.conj(kp) * km

    u = np.array([init.psi_plus, init.psi_minus])  # the state; rows psi+, psi-
    spec = np.empty_like(u)   # spectra, then scratch for the cross terms
    deriv = np.empty_like(u)  # z-derivatives over i

    def transport(v_g: float, w: np.ndarray, out: np.ndarray) -> None:  # of w at v_g, over i
        for row in range(2):
            np.fft.fft(w[row], out=spec[row])
            spec[row] *= q
            np.fft.ifft(spec[row], out=deriv[row])
        np.multiply(-adv * v_g, deriv[0], out=out[0])
        np.multiply(cross_p * v_g, deriv[1], out=spec[0])
        out[0] += spec[0]
        np.multiply(adv * v_g, deriv[1], out=out[1])
        np.multiply(cross_m * v_g, deriv[0], out=spec[1])
        out[1] -= spec[1]

    def record(v: np.ndarray, t: float) -> PolaritonField:
        decay = _ground_state_decay(schedule, medium.Gamma_bc, t)
        return PolaritonField(decay * v[0], decay * v[1], t)

    # v_g never decreases in time, so its largest value on [0, t_end] is at t_end
    v_max = max(float(group_velocity(schedule, t_end)), 1e-12)
    plan = _plan_steps(targets, min(0.5 * grid.dz / v_max, 0.05))
    return _lawson_rk4(u, 0.0, plan, lambda times: group_velocity(schedule, times),
                       transport, record)


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
) -> History:
    """Integrate the weak-probe ladder equations truncated at N harmonic shells.

    Shell j couples the optical harmonics sigma_ba^(+-(2j-1)) to the spin
    harmonics sigma_bc^(+-(2j-2)); harmonics outside the band are held at
    zero.  The coherences are the collectively scaled ones (sqrt(N)*sigma),
    so ``initial_sigma_bc0`` for a retrieval run is minus the stored profile.

    The couplings do not depend on z, so the state is one (4N+1, n_z) array
    of spectra and each wavenumber column evolves on its own,
    u' = rate*u + i(G + Omega(t) B) u, with no FFT inside a step.  Its rows
    are E+, E-, then the coherences in ascending harmonic index
    m = 1-2N ... 2N-1 (odd m sigma_ba, even m sigma_bc): the coupling path in
    order, whose links B are |kappa-| leaving an odd m and |kappa+| leaving
    an even m, with E+- hung on sigma_ba^(+-1) by G.  Re(rate) <= 0 and the
    gauged coupling is anti-Hermitian, so each column's flow is a
    contraction.  Only the columns whose largest initial |entry| exceeds
    eps = 1e-16 of the state's peak are evolved; a column left out starts
    with every entry at most eps of the peak and so keeps a 2-norm of at
    most sqrt(4N+1) eps of it.  Only their rates are built; the step bound
    uses the full grid's largest |q|.  The row phases d = exp(i(ceil(m/2)
    arg kappa+ - floor(m/2) arg kappa-)), with m = +-1 for E+- and
    arg 0 = 0, make G and B real and non-negative for v = u/d, so each stage
    is one real matrix product on the float view of v.  The coherences start
    at zero but for sigma_bc^(0), whose phase is 1, and stay internal, so
    only E+-'s phases exp(i arg kappa+-) are applied.  ``_lawson_rk4``, with
    coefficient Omega(t), integrates relaxation and free advection exactly,
    so the step is set by the coupling rate and the phase resolution of the
    fastest advected mode, not by the excited-state decay.  G + Omega B is
    formed only when Omega changes: the midpoint matrix serves k2 and k3,
    the end one k4 and the next step's k1, and at saturation one matrix
    serves on.  E+- are advected with the grid's wavenumbers, so the mirror
    z -> -z with kappa+ <-> kappa- and E+ <-> E- stays a symmetry.

    G + Omega B also links the sigma_ba rows only to the other rows, and
    rate(-q) = conj(rate(q)) when Gamma_bc is real.  Then v(-q) = J conj(v(q)),
    with J = -1 on the sigma_ba rows and +1 elsewhere, holds at every step
    once it holds at t = 0, which it does when E+- / d and the stored spin
    are real.  An imaginary part of at most eps of their largest |sample|
    (dividing by d leaves one) is dropped; the flow is a contraction, so
    that moves the returned E+- by at most sqrt(3 n_z) eps of that sample in
    2-norm.  Then only the kept columns q >= 0 are evolved (39 of 128 for a
    unit Gaussian on [-10, 10], against 77 of both signs), and the E+-
    spectra at q < 0 are rebuilt as conjugate mirrors before the phases d
    return.  Every other input evolves all kept columns.

    A run over its step or work budget raises SolverError before its first
    step, and so does a non-finite or overflowing squared norm: of the
    initial spectrum before the columns are chosen, and of the evolved state
    at t = 0 and after every step (``_lawson_rk4``).

    N = 1 keeps only the dc spin component and reproduces the rapid-dephasing
    (thermal-gas) reduction.  Returns a ``History`` of the probe envelopes
    E+- whose ``columns`` counts those evolved; the coherences stay internal.
    """
    n_shells = _as_count(truncation_N, "truncation_N", 1)
    if probe_init.e_plus.shape != (grid.n_z,):
        raise ValueError("initial probe field must be sampled on the grid")
    targets = _snapshot_targets(t_end, snapshot_times)

    m = np.arange(1 - 2 * n_shells, 2 * n_shells)  # harmonic index of rows 2, 3, ...
    n_rows = m.size + 2
    spin_row = 2 * n_shells + 1  # m = 0
    plus, minus = spin_row + 1, spin_row - 1  # m = +1, -1

    c = medium.vacuum_speed(schedule)
    g_coll = medium.collective_coupling(schedule)
    kp, km = schedule.kappa_plus, schedule.kappa_minus

    gauge = np.exp(1j * np.angle([kp, km]))[:, None]  # the phases d of E+, E-
    probe = np.zeros((n_rows, n_rows))  # G: collective probe links
    probe[[plus, 0, minus, 1], [0, plus, 1, minus]] = g_coll
    shells = np.zeros((n_rows, n_rows))  # B: shell links per unit Rabi frequency
    links = np.diag(np.where(m[:-1] % 2, abs(km), abs(kp)), 1)  # the link leaving m
    shells[2:, 2:] = links + links.T

    def rabi(c2):  # Omega as a function of cos^2(theta)
        return g_coll * np.sqrt(c2 / (1.0 - c2))

    # Step size: half the explicit-coupling stability and free-advection
    # phase-resolution bounds; the tanh switch itself needs dt well below T_s.
    coupling_rate = math.sqrt(g_coll ** 2 + rabi(schedule.cos2_theta0) ** 2)
    k_max = 2.0 * np.pi * (grid.n_z // 2) / (grid.n_z * grid.dz)  # the grid's largest |q|
    dt_max = min(0.5 * min(2.8 / coupling_rate, 2.8 / (c * k_max)), 0.01)
    plan = _plan_steps(targets, dt_max)

    loaded = np.zeros((3, grid.n_z), dtype=complex)  # E+, E-, stored spin; gauged below
    loaded[:2] = probe_init.e_plus, probe_init.e_minus
    if initial_sigma_bc0 is not None:
        spin0 = _as_complex_samples(initial_sigma_bc0, "initial_sigma_bc0")
        if spin0.shape != (grid.n_z,):
            raise ValueError("initial_sigma_bc0 must be sampled on the grid")
        loaded[2] = spin0
    loaded[:2] /= gauge
    # A real problem (see above) evolves only q >= 0; its sub-floor residue goes.
    mirrored = (complex(medium.Gamma_bc).imag == 0
                and np.max(np.abs(loaded.imag)) <= _COLUMN_FLOOR * np.max(np.abs(loaded)))
    if mirrored:
        loaded.imag = 0.0
    spectra = np.fft.fft(loaded, axis=1)
    _norm_sq(spectra, 0.0)

    # Each column's flow is a contraction, so a column that starts below
    # _COLUMN_FLOOR of the peak stays that small: evolve only the others.
    column_peak = np.max(np.abs(spectra), axis=0)
    kept = np.flatnonzero(column_peak > _COLUMN_FLOOR * np.max(column_peak))
    if mirrored:
        kept = kept[kept <= grid.n_z // 2]
    v = _aligned_zeros((n_rows, kept.size))
    v[[0, 1, spin_row]] = spectra[:, kept]
    q = grid.wavenumbers[kept]
    rate = np.empty(v.shape, dtype=complex)
    rate[:2] = -1j * c * q, 1j * c * q
    rate[2:] = np.where(m % 2, -medium.gamma_ba, -complex(medium.Gamma_bc))[:, None]
    probe_spectra = np.zeros((2, grid.n_z // 2 + 1 if mirrored else grid.n_z), dtype=complex)
    matrix = np.empty((n_rows, n_rows))  # G + Omega B at the Omega last formed
    formed = math.nan

    def envelopes(v: np.ndarray, t: float) -> ProbeField:
        if mirrored:  # E+- / gauge are real: the conjugate mirror rebuilds q < 0
            probe_spectra[:, kept] = v[:2]
            e_plus, e_minus = gauge * np.fft.irfft(probe_spectra, grid.n_z, axis=1)
        else:
            probe_spectra[:, kept] = gauge * v[:2]
            e_plus, e_minus = np.fft.ifft(probe_spectra, axis=1)
        return ProbeField(e_plus, e_minus, time_stamp=t)

    def coupling(omega: float, w: np.ndarray, out: np.ndarray) -> None:  # (G + Omega B) w
        nonlocal formed
        if omega != formed:
            np.multiply(omega, shells, out=matrix)
            np.add(matrix, probe, out=matrix)
            formed = omega
        np.matmul(matrix, w.view(float), out=out.view(float))

    return _lawson_rk4(v, rate, plan,
                       lambda times: rabi(cos2_theta(schedule, times)), coupling, envelopes)
