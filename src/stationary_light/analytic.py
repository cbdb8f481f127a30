"""Closed-form field evolution: adiabatic transport in non-moving and thermal
media, the exact exponential of the cold coupled transport for any polariton
pair, spin-coherence harmonics, probe recovery, and the dispersive
Fourier-space mode propagator.

Each closed form is an exact exponential in the displacement r(t), applied
wavenumber by wavenumber.  Every field closed form has one signature,
``(psi0 or initial pair, grid, schedule, medium, times)``, and returns one
field per time, in the order given; all of them run through one core,
``_evolve``, with those inputs and a mode function built on the grid's
wavenumbers; it checks the stored profile and every time before any work.
The ground-state decay ``core._ground_state_decay`` at the medium's Gamma_bc
is, at each time, a scalar that commutes with every transport, so ``_evolve``
takes every time's decay from one call, applies each once, and no mode
function carries it.  Each cold formula is written once: the 2x2 transport
exponential is the dispersive mode function ``_dispersive_modes`` at
l_a = 0, the characteristic shifts are ``cold_adiabatic_evolve``'s, and the
spin harmonics are read off its field.  Every field carries its time as
``time_stamp``, the one source of the time that ``probe_from_polariton``
reads.  Shifts are phase ramps on the spectrum (band-limited interpolation on
the periodic grid), so shifted copies of a smooth profile are exact to machine
precision.
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
    displacement_r,
)
from .fourier import beta


def initial_split(psi0: np.ndarray, schedule: CouplingSchedule) -> PolaritonField:
    """Split a stored profile into forward/backward components kappa+- * psi0.

    ValueError unless psi0 is 1-D and finite, before the split.
    """
    psi0 = _as_complex_samples(psi0, "psi0")
    return PolaritonField(
        psi_plus=schedule.kappa_plus * psi0,
        psi_minus=schedule.kappa_minus * psi0,
        time_stamp=0.0,
    )


def _evolve(initial: PolaritonField, grid: SimulationGrid, schedule: CouplingSchedule,
            medium: MediumParams, times, modes) -> list[PolaritonField]:
    """``initial`` transported by ``modes`` and decayed to each time, one field per time.

    Its two components are 1-D and finite by construction; that they lie on
    the grid is checked before any work, and so is every time, by the one
    ``displacement_r`` call that gives r(t) for all of them; one
    ``_ground_state_decay`` call at the medium's Gamma_bc gives every time's
    decay.  The components are transformed once into p0 and m0, which
    ``modes(p0, m0)``, built on the grid's wavenumbers, binds once; the
    function of r it returns gives, at each time t with r = r(t), the two
    transported spectra, which are scaled by ``_ground_state_decay`` at t
    and transformed back.  ``modes`` and its function of r run with overflow
    and invalid warnings off: a phase or rate times an r near the float
    range is not finite, and the field it feeds refuses it (ValueError,
    ``PolaritonField``).
    ``modes=None`` marks a stationary transport: the pair is only scaled.
    """
    if initial.psi_plus.shape != (grid.n_z,):
        raise ValueError("the stored profile or initial pair must be sampled on the grid")
    times = [float(t) for t in times]
    displacements = displacement_r(schedule, times)
    decays = _ground_state_decay(schedule, medium.Gamma_bc, times)
    if modes is None:
        return [PolaritonField(decay * initial.psi_plus, decay * initial.psi_minus, t)
                for t, decay in zip(times, decays)]

    with np.errstate(over="ignore", invalid="ignore"):
        transport = modes(np.fft.fft(initial.psi_plus), np.fft.fft(initial.psi_minus))
    fields = []
    for t, r, decay in zip(times, displacements, decays):
        with np.errstate(over="ignore", invalid="ignore"):
            plus, minus = transport(r)
        fields.append(PolaritonField(np.fft.ifft(decay * plus), np.fft.ifft(decay * minus),
                                     time_stamp=t))
    return fields


def _orientation(schedule: CouplingSchedule):
    """(kappa_s, kappa_w, sigma, weight) of the cold closed forms.

    kappa_s and kappa_w are the stronger and weaker coupling amplitudes,
    sigma = +1 if |kappa+| >= |kappa-|, else -1, and weight = beta/|kappa_s|^2.
    """
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    if schedule.kappa_plus_sq >= schedule.kappa_minus_sq:
        return kp, km, 1, beta(schedule) / abs(kp) ** 2
    return km, kp, -1, beta(schedule) / abs(km) ** 2


def cold_adiabatic_evolve(
    psi0: np.ndarray,
    grid: SimulationGrid,
    schedule: CouplingSchedule,
    medium: MediumParams,
    times,
) -> list[PolaritonField]:
    """Exact adiabatic evolution of a stored profile in a non-moving medium,
    one field per time.

    The component along the stronger coupling, psi_s = kappa_s*psi0 at t = 0,
    splits into two parts moving at +-beta*v_g with weights (1 +- w)/2,
    w = beta/|kappa_s|^2, the larger one travelling along the stronger
    coupling; the weaker component carries two equal parts.  Either ordering
    of |kappa+|, |kappa-| is handled on any periodic grid.  The field decays
    by the medium's Gamma_bc (``_evolve``); no other medium parameter enters.
    """
    _, _, sigma, weight = _orientation(schedule)
    iq, speed = 1j * grid.wavenumbers, sigma * beta(schedule)

    def modes(p0, m0):
        def transport(r):
            # exp(-+i q sigma beta r) shift the spectrum's samples by +-sigma*beta*r
            phase = iq * (speed * r)
            ahead, behind = np.exp(-phase), np.exp(phase)
            strong = 0.5 * ((1.0 + weight) * ahead + (1.0 - weight) * behind)
            weak = 0.5 * (ahead + behind)
            return (strong * p0, weak * m0) if sigma > 0 else (weak * p0, strong * m0)
        return transport

    return _evolve(initial_split(psi0, schedule), grid, schedule, medium, times, modes)


def cold_transport_evolve(
    initial: PolaritonField,
    grid: SimulationGrid,
    schedule: CouplingSchedule,
    medium: MediumParams,
    times,
) -> list[PolaritonField]:
    """Exact evolution of any polariton pair under the cold coupled transport,
    one field per time.

    In Fourier space the transport is
    d/dt psi(q) = i v_g(t) q M psi(q) - Gamma_bc sin^2(theta(t)) psi(q), with
    M = [[-a, kappa+ conj(kappa-)], [-conj(kappa+) kappa-, a]] and
    a = max(|kappa+|^2, |kappa-|^2), the generator ``evolve_cold_numeric``
    steps.  M^2 = beta^2 I with beta real for either ordering, and the time
    dependence factors through r(t), so each wavenumber evolves as
    exp(i q r M) = cos(beta q r) I + i (sin(beta q r)/beta) M, the dispersive
    mode function at l_a = 0, which at beta = 0, where M is nilpotent, takes
    the limit i q r M; ``_evolve`` multiplies it by the one decay
    exp(-Gamma_bc (t - cos^2(theta0) r(t))).  The grid's wavenumbers are 0 at
    the Nyquist column of an even grid, so the mirror z -> -z with
    kappa+ <-> kappa- and psi+ <-> psi- stays a symmetry.  Unlike
    ``cold_adiabatic_evolve``, it takes any pair, not only the dark split of a
    stored profile; the pair must lie on the grid and every time be finite and
    non-negative (``_evolve``).
    """
    modes = _dispersive_modes(schedule, 0.0, grid.wavenumbers)
    return _evolve(initial, grid, schedule, medium, times, modes)


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
    psi_S(q, t) = exp[(-i drift q - D q^2) r(t) - Gamma_bc (t - cos^2(theta0) r(t))] psi_S(q, 0),
    the transport here and the one decay law in ``_evolve``.  The difference
    mode psi_D = -2 k+ k- l_a d/dz psi_S is slaved to the gradient, and both
    polariton components are reconstructed from the pair.  An l_a or a grid
    whose wavenumbers make these per-q factors non-finite is refused
    (ValueError) before any transform.
    """
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    drift = schedule.kappa_plus_sq - schedule.kappa_minus_sq
    diffusion = 4.0 * schedule.kappa_plus_sq * schedule.kappa_minus_sq * medium.l_a
    q = grid.wavenumbers
    with np.errstate(over="ignore", invalid="ignore"):
        rate = -1j * drift * q - diffusion * q ** 2
        slaving = -2.0 * kp * km * medium.l_a * 1j * q  # psi_D(q) = slaving * psi_S(q)
        to_plus, to_minus = kp + np.conj(km) * slaving, km - np.conj(kp) * slaving
    if not all(np.all(np.isfinite(factor)) for factor in (rate, to_plus, to_minus)):
        raise ValueError(f"l_a = {medium.l_a:g} makes the thermal mode factors non-finite on "
                         f"the grid [{grid.z_min:g}, {grid.z_max:g}) of {grid.n_z} points")

    def modes(p0, m0):
        sum_mode0 = np.conj(kp) * p0 + np.conj(km) * m0

        def transport(r):
            sum_mode = np.exp(rate * r) * sum_mode0
            return to_plus * sum_mode, to_minus * sum_mode
        return transport

    return _evolve(initial_split(psi0, schedule), grid, schedule, medium, times, modes)


def probe_from_polariton(field: PolaritonField, schedule: CouplingSchedule) -> ProbeField:
    """Probe envelopes E+- = cos(theta(t)) * psi+- at the field's own time
    t = ``field.time_stamp``; zero at switch-on."""
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
) -> dict[int, np.ndarray]:
    """Spin-coherence harmonics of the adiabatic cold solution.

    Returns a dict from each even harmonic index m = 2n, n in [-n_max, n_max],
    to complex samples over the grid; the coherence at optical wavenumber k is
    the sum of samples * exp(i m k z).  They are read off the undecayed
    closed-form field f at t of ``cold_adiabatic_evolve`` (``MediumParams()``,
    times [t]): with f_s, f_w its components along the stronger and weaker
    amplitudes kappa_s, kappa_w and sigma = +1 for |kappa+| >= |kappa-|, else
    -1, the dc component is -sin(theta) f_s/kappa_s, the harmonics 2n*sigma
    vanish, and the harmonic -2n*sigma is
    sin(theta) (kappa_w f_s - kappa_s f_w)/kappa_s^2 (-kappa_w/kappa_s)^(n-1),
    so all vanish beyond dc at a traveling wave.
    ``n_max`` must be a non-negative integer (``core._as_count``).
    """
    n_max = _as_count(n_max, "n_max", 0)
    kappa_s, kappa_w, sigma, _ = _orientation(schedule)
    sin_theta = math.sqrt(1.0 - cos2_theta(schedule, t))
    (field,) = cold_adiabatic_evolve(psi0, grid, schedule, MediumParams(), [t])
    strong, weak = (field.psi_plus, field.psi_minus)[::sigma]
    components = {0: -sin_theta * strong / kappa_s}
    base = sin_theta * (kappa_w * strong - kappa_s * weak) / kappa_s ** 2
    ratio = -kappa_w / kappa_s
    for n in range(1, n_max + 1):
        components[-2 * n * sigma] = base * ratio ** (n - 1)
        components[2 * n * sigma] = np.zeros(grid.n_z, dtype=complex)
    return components


def _dispersive_modes(schedule: CouplingSchedule, l_a: float, q: np.ndarray):
    """Mode function ``modes(p0, m0)`` of the dispersive propagator on the
    wavenumber axis q, for a finite l_a >= 0: either ordering of |kappa+|,
    |kappa-| at l_a = 0 (the cold transport, beta = 0 included); at l_a > 0,
    where xi needs |kappa+| > |kappa-|, the other is refused (ValueError)
    before any array work.  It carries no decay; ``_evolve`` applies it.

    At each q two modes with speeds drift +- d(q), drift = i |kappa+|^2 xi q,
    are cross-coupled by b(q) = kappa+ conj(kappa-) (1 - i q xi), where
    d(q) = sqrt(beta^2 - |kappa+|^2 |kappa-|^2 xi^2 q^2) and xi is the
    dispersion length.  These factors are formed once, on this q; the
    returned ``modes`` forms M v of the initial spectra v = (p0, m0) once, M
    having a = max(|kappa+|^2, |kappa-|^2) on its diagonal, and returns the
    function of r that applies the 2x2 propagator C v + S (M v) at each
    displacement r, with S its confluent limit where the modes cross
    (d(q) = 0).  The propagator is even
    in d, so the branch of the root cannot change a field.  An l_a so large
    that xi or a mode rate is not finite is refused (ValueError) before any
    transform.
    """
    kp2 = schedule.kappa_plus_sq
    km2 = schedule.kappa_minus_sq
    if l_a > 0 and kp2 <= km2:
        raise ValueError(f"at l_a = {l_a:g} the dispersive propagator requires |kappa+| > "
                         "|kappa-|; mirror the problem for the opposite ordering")
    adv = max(kp2, km2)
    # sqrt(1 - y^2) with y = 2|kappa+||kappa-| and unit total intensity,
    # written without the cancellation near y = 1
    xi = kp2 * l_a / (kp2 - km2) if l_a else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        # xi * xi overflows to inf where the float power xi ** 2 would raise
        xi_sq = xi ** 2 if math.isfinite(xi * xi) else math.inf
        b = schedule.kappa_plus * np.conj(schedule.kappa_minus) * (1.0 - 1j * q * xi)
        d = np.sqrt((beta(schedule) ** 2 - kp2 * km2 * xi_sq * q ** 2).astype(complex))
        drift = 1j * kp2 * xi * q
        rate_plus = 1j * q * (drift + d)
        rate_minus = 1j * q * (drift - d)
    if not (np.all(np.isfinite(rate_plus)) and np.all(np.isfinite(rate_minus))):
        raise ValueError(
            f"l_a = {l_a:g} makes the dispersion length or the mode rates non-finite on this grid"
        )
    q_d, two_d, b_conj = q * d, 2.0 * d, np.conj(b)
    iq, confluent_rate = 1j * q, -kp2 * xi * q ** 2

    def modes(p0, m0):
        coupled_plus, coupled_minus = b * m0 - adv * p0, adv * m0 - b_conj * p0  # M (p0, m0)

        def transport(r):
            exp_plus = np.exp(rate_plus * r)
            exp_minus = np.exp(rate_minus * r)
            cos_like = 0.5 * (exp_plus + exp_minus)
            with np.errstate(invalid="ignore", divide="ignore"):
                sin_like = (exp_plus - exp_minus) / two_d
            # (e+ - e-)/(2d) -> i q r * exp(-kp2 xi q^2 r) as d -> 0, the
            # confluent limit; it replaces the difference where the phase
            # q*d*r is too small for a stable one (this includes d = 0 at the
            # mode crossing), and only there is it evaluated
            small = np.flatnonzero(np.abs(q_d * r) < 1e-6)
            sin_like[small] = iq[small] * r * np.exp(confluent_rate[small] * r)
            return cos_like * p0 + sin_like * coupled_plus, cos_like * m0 + sin_like * coupled_minus
        return transport

    return modes


def nonadiabatic_spectral_evolve(
    psi0: np.ndarray,
    grid: SimulationGrid,
    schedule: CouplingSchedule,
    medium: MediumParams,
    times,
) -> list[PolaritonField]:
    """Dispersive mode propagator applied to a stored profile, one field per time.

    The dark split kappa+- * psi0 evolves, wavenumber by wavenumber, under the
    first-order-corrected coupled-mode equations over the displacement r(t),
    with the medium's l_a, and decays by its Gamma_bc (``_evolve``).  For a
    pure standing wave (beta = 0) the dark split is stationary, so it is only
    decayed; the traveling-wave limit reduces to drift plus diffusion with
    coefficient l_a * v_g.  Either ordering of |kappa+|, |kappa-| is taken at
    l_a = 0; at l_a > 0 ``_dispersive_modes`` refuses |kappa+| < |kappa-|.
    """
    initial = initial_split(psi0, schedule)
    modes = (None if beta(schedule) == 0.0
             else _dispersive_modes(schedule, medium.l_a, grid.wavenumbers))
    return _evolve(initial, grid, schedule, medium, times, modes)
