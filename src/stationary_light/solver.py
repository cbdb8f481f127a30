"""Time steppers: the cold-atom coupled transport system and a first-principles
truncated-harmonic ladder solver used as an oracle for the adiabatic theory.
The cold transport's exact exponential is ``analytic.cold_transport_evolve``;
the cold stepper here serves ``fig3_quasi_cold``.

Both models are linear with z-independent couplings on a periodic z, and
each steps its own way.  The cold generator is v_g(t) times a constant
i P, so the cold stepper steps in the displacement r(t), where its generator
is constant: ``_rk4``, classical RK4 for dv/dr = i P v, whose step is then
the degree-4 Taylor polynomial of exp(ihP), one Horner evaluation of four
products on FFT derivatives.  The stepper hands it, per plan segment, the
four products already scaled by their Horner factors, so a step is its 16
transforms, four real 2 x 2 row mixes in the gauge where the cold coupling
is real, and four additions.  The loop owns two scratch buffers and the
books of a solve: it takes the squared norm of the whole state at r = 0 and
after every step (it must be finite), counts the steps, and returns one
``History`` of what ``record`` makes at t = 0 and every target time.  The
ground-state decay is a scalar that commutes with the transport, so
``record`` multiplies each copied state once by its decay, which one call of
the one decay law ``core._ground_state_decay``,
exp(-Gamma_bc (t - cos^2(theta0) r(t))), gives for every target time from
the r(t) that also plans the steps.

The ladder keeps its first-principles rates, Gamma_bc on the spin rows only,
from which that law follows.  Its state is wavenumber spectra, so a step
calls no FFT, and its step is implicit (``_sdirk3_step``), so the coupling's
stiffness does not set it.  ``_sdirk3_solve`` owns its time loop (the sqrt(t)
mesh, the chunks of stages, the norm-rise and subnormal rules, the
``History``); the ladder supplies only its stages and its record.  Its stage
matrices depend on the mesh, not on the state, so ``_LadderStages`` factors
a chunk's stages ahead of its steps into explicit inverses, and a stage is
one matrix product and a 2 x 2 solve per column.  It works in a gauge with
a factor i on the sigma_ba rows, where every coupling of a stage matrix is
real: with a real Gamma_bc the inverses are float64 and the product runs on
the state's interleaved float view.  The gauge leaves the norm, the initial
rows and E+- as they are, so the state is not converted.  Each of its
columns' exact flow is a contraction, which decides the columns it evolves
and the steps the driver refuses.
Both generators advect on the grid's wavenumbers, whose Nyquist column of an
even grid is 0, so the mirror z -> -z with kappa+ <-> kappa- stays a symmetry.
Each stepper refuses, before the first step, a run over its one work rule,
a price per step times the steps: ``_rk4`` prices a step by the cost of its
transforms, the ladder by its stage factorisations and products.  The
ladder's truncation N is bounded too, which bounds its memory.
The thermal medium needs no stepper: its closed form is in ``analytic``.
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


class SolverError(RuntimeError):
    """Raised when an integration goes non-finite or violates its own limits."""


# Work budget of a classical RK4 solve: a step of n_z columns counts
# _transform_units(n_z) + _RK4_STEP_UNITS, its 16 transforms and the passes
# over the state priced together, the second its fixed cost.  On one thread of
# a shared 2-core host a unit took 24-37 ns at n_z 1024-131072 (the dearest
# primes, which numpy transforms by Bluestein's algorithm, 36.6 ns at 65521)
# and a step 80-140 us at n_z 16-64.  So the largest admitted solves take
# 40-75 s: n_z 16 at the budget, or a prime n_z of 65521 in 256 steps.  The
# cold stepper's steps in r shrink with dz: fig3_quasi_cold's t_max 20
# (r 19.3) at n_z 8192, 15,817 steps (1.8e9), fits; 16384 (7.4e9) does not,
# nor does n_z 65536 at t_max 1 (2,843 steps, 3.0e9).
_MAX_RK4_WORK = 2e9
_RK4_STEP_UNITS = 5000


def _transform_units(n: int) -> float:
    """Cost estimate of numpy's complex transform of n points: n times the sum
    of n's prime factors, 1 per factor 2 and 1.1 p for a p over 5 (pocketfft's
    own estimate), or 7 n (log2 n + 1) where that is less, about what its
    Bluestein transform of an n with a large prime factor costs."""
    units, rest, p = 0.0, n, 2
    while p * p <= rest:
        while rest % p == 0:
            units += 1.0 if p == 2 else p if p <= 5 else 1.1 * p
            rest //= p
        p += 1
    if rest > 1:
        units += rest if rest <= 5 else 1.1 * rest
    return n * min(units, 7.0 * (math.log2(n) + 1.0))


# The ladder leaves out a wavenumber column whose initial spectrum stays at or
# below this fraction of the state's peak.
_COLUMN_FLOOR = 1e-16

# The ladder's step: Alexander's L-stable, stiffly accurate 3-stage SDIRK of
# order 3 (R. Alexander, SIAM J. Numer. Anal. 14, 1006 (1977)).  Every stage
# solves with the one diagonal coefficient gamma, the root of
# 6x^3 - 18x^2 + 9x - 1 in (1/6, 1/2); per stage, its time as a fraction of
# the step and its weights a_ij on the earlier stages.
_SDIRK_GAMMA = 0.43586652150845899942
_SDIRK_STAGES = (
    (_SDIRK_GAMMA, ()),
    ((1.0 + _SDIRK_GAMMA) / 2, ((1.0 - _SDIRK_GAMMA) / 2,)),
    (1.0, (-(6 * _SDIRK_GAMMA ** 2 - 16 * _SDIRK_GAMMA + 1) / 4,
           (6 * _SDIRK_GAMMA ** 2 - 20 * _SDIRK_GAMMA + 5) / 4)),
)

# The ladder's mesh is uniform in s = sqrt(t), in steps of at most this (in
# sqrt(T_s)): Omega grows as sqrt(t) while the coupling switches on, so equal
# steps in t are first order there.  C08's t = 4 takes 100 steps.
_ROOT_STEP = 0.02

# Largest truncation N of the ladder, which bounds its memory: one step's
# factored stages hold three (4N + 1)^2 inverses, 24 MiB at N 256 with a real
# Gamma_bc (float64) and 48 MiB with a complex one.
_MAX_TRUNCATION_N = 256

# Work budget of a ladder solve, checked before any array with a row per
# coherence is built.  A step of n = 4N - 1 coherence rows on the evolved
# columns counts 3 (n + 2)^2 (columns + _LADDER_FACTOR_COLUMNS) units, its
# three stage products and its three stage factorisations, each priced as
# that many columns of a product, plus _LADDER_STEP_UNITS for its fixed cost.
# On one thread of a shared 2-core host, with a real Gamma_bc (real stages),
# a unit took 3.4-6.4 ns at N 1, where the passes over the state outweigh
# the products, 0.4-0.6 ns at N 8, 0.2-0.8 ns at N 32 and about 0.5 ns at
# N 256, the more columns the less.  So the largest admitted solves are N 1
# at the budget: 38 s on one column (36 s with complex stages, run alongside;
# the host's speed varied 30-56 s between hours), about 41 s on 1,024 and
# 64 s on 65,536 (extrapolated from 100 and 20 steps).  N 256 on one column
# to t 4 counts 6.6e9, about 3.2 s (10 of its steps timed).
_MAX_LADDER_WORK = 1e10
_LADDER_FACTOR_COLUMNS = 20
_LADDER_STEP_UNITS = 1.2e4

# ``_sdirk3_solve`` has the stages factored ahead of the steps, a chunk of
# steps at a time: as many as fit in this many bytes (the ladder's
# ``_LadderStages.stage_bytes`` a stage: its (4N + 1)^2 inverse at its
# itemsize and three complex coefficients per column), at least one.  With a
# real Gamma_bc, C08 (N 8, 39 columns) factors 33 steps at a time and
# mb_convergence's N 32 two; N 64 and above one.
_CHUNK_BYTES = 2 ** 20

# Largest relative rise of the ladder's squared norm in one step.  Each
# column's exact flow is a contraction, but SDIRK3 is not algebraically
# stable, so a stable step may still raise the norm a little: at most
# 2.5e-7 at C08's grid to t 4 over |kappa+|^2 0.3-0.9, gamma_ba 10, 100 and
# 300, N 1 and 8 (Gamma_bc 0; at Gamma_bc 0.1 - 0.3i every step fell).  A
# step made unstable (a lowered diagonal coefficient, or the RK4 step at 2x)
# raised it by 4e-4 to 7 % in its first bad step.
_MAX_NORM_RISE = 1e-4


class History(list):
    """A solve's fields at t = 0, each snapshot time and t_end, with its
    ``steps`` (classical RK4 in r for the cold stepper, SDIRK for the ladder)
    and the ``columns`` (last axis) of its evolved state."""

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
    """(target, n, h) per target, n equal steps h <= dt_max; SolverError when n
    is past float range."""
    plan = []
    for start, target in zip([0.0, *targets[:-1]], targets):
        span = target - start
        ratio = span / dt_max
        if not math.isfinite(ratio):
            raise SolverError(f"a span of {span:.6g} in steps of at most {dt_max:.3g} "
                              f"has no finite step count")
        n = max(1, math.ceil(ratio - 1e-12))
        plan.append((target, n, span / n))
    return plan


def _norm_sq(values: np.ndarray, t: float, variable: str = "t") -> float:
    """Sum of |values|^2; SolverError (blow-up), naming `variable` = t, when
    it is not finite, which includes a sum that overflows."""
    value = np.vdot(values, values).real
    if not math.isfinite(value):
        raise SolverError(f"non-finite field norm at {variable} = {t:.6g} (blow-up)")
    return value


def _rk4(v, targets, plan, scaled_products, record) -> History:
    """Advance dv/dr = i P v in place by classical RK4 over `plan`, a
    `_plan_steps` plan in r whose segments end at the r of each of the sorted
    `targets`, and return the ``History`` of ``record(v, t)`` at t = 0 and
    each target t, with the plan's ``steps`` and v's last axis as ``columns``.

    P does not depend on r, so a step of h multiplies v by the degree-4
    Taylor polynomial of exp(ihP) (Hairer & Wanner, *Solving ODEs II*,
    IV.2), which is evaluated by Horner's rule,
    v <- v + x(v + x/2(v + x/3(v + x/4 v))) with x = ihP, in four products
    and two scratch buffers allocated once.  ``scaled_products(h)``, called
    once per plan segment, returns the segment's four products, which write
    x/4 w, x/3 w, x/2 w and x w of their first argument into their second,
    so a step scales nothing itself.  Over ``_MAX_RK4_WORK`` steps times
    (``_transform_units`` of v's columns plus ``_RK4_STEP_UNITS``) it raises
    SolverError; then `_norm_sq` checks v at r = 0 and after every step, and
    names the r of a blow-up.
    ``record`` must return fields that own their arrays.
    """
    steps, columns = sum(n for _, n, _ in plan), v.shape[-1]
    work = steps * (_transform_units(columns) + _RK4_STEP_UNITS)
    if work > _MAX_RK4_WORK:
        raise SolverError(f"{steps} steps of {columns} columns exceed the work budget "
                          f"of {_MAX_RK4_WORK:.0e} units ({work:.2g})")
    _norm_sq(v, 0.0, "r")
    history = History([record(v, 0.0)], steps, columns)
    w, y = np.empty_like(v), np.empty_like(v)
    for start, t, (_, n, h) in zip([0.0, *(end for end, _, _ in plan)], targets, plan):
        quarter, third, half, whole = scaled_products(h)
        for j in range(1, n + 1):
            # from the inside out: w = v + x/4 v, y = v + x/3 w, w = v + x/2 y, v += x w
            quarter(v, w)
            w += v
            third(w, y)
            y += v
            half(y, w)
            w += v
            whole(w, y)
            v += y
            _norm_sq(v, start + j * h, "r")
        history.append(record(v, t))
    return history


def _sdirk3_step(v: np.ndarray, stages, solve) -> np.ndarray:
    """One ``_SDIRK_STAGES`` step of v' = A(t) v from t to t + h.

    Stage i forms b_i = v + sum_j (a_ij / gamma) D_j from the increments
    D_j = Y_j - b_j = h gamma A(t + c_j h) Y_j of the earlier stages, so no
    stage applies A, and calls ``solve(stages[i], b_i)``, which returns Y_i
    with (I - h gamma A(t + c_i h)) Y_i = b_i, where stages[i] names the
    stage for `solve`: the generator's time coefficient at t + c_i h, or
    ``_sdirk3_solve``'s index of the stage in its factored chunk.  The method
    is stiffly accurate, so the last stage is the new state.
    """
    increments = []
    for (_, weights), stage in zip(_SDIRK_STAGES, stages):
        b = v
        for weight, increment in zip(weights, increments):
            b = b + (weight / _SDIRK_GAMMA) * increment
        y = solve(stage, b)
        increments.append(y - b)
    return y


def _sdirk3_solve(v, targets, plan, make_stages, stage_bytes: int, record) -> History:
    """Advance v' = A(t) v by ``_sdirk3_step`` over `plan`, the `_plan_steps`
    plan of the square roots of the sorted `targets`, which it does not make
    again, and return the ``History`` of ``record(v, t)`` at t = 0 and each
    target, with the plan's ``steps`` and v's last axis as ``columns``.

    A segment runs from the previous target (0 first) to its own in the
    plan's steps, uniform in sqrt(t), the last ending exactly at the target.
    Its steps are factored in chunks of as many as fit in ``_CHUNK_BYTES`` at
    `stage_bytes` a stage, at least one, the previous chunk freed first:
    ``make_stages(alphas, times)`` gets alpha = h gamma and t + c_i h of each
    stage, three a step, and returns an object whose ``solve(stage, b)``
    solves (I - alpha A(time)) Y = b for the chunk's stage at index `stage`.
    `_norm_sq` checks v at t = 0 and after every step; a step that raises it
    by over ``_MAX_NORM_RISE`` is refused (SolverError).  Each chunk ends by
    zeroing v's parts below the smallest normal float.
    """
    fractions = np.array([fraction for fraction, _ in _SDIRK_STAGES])
    chunk = max(1, _CHUNK_BYTES // (3 * stage_bytes))
    norm = _norm_sq(v, 0.0)
    history = History([record(v, 0.0)], sum(n for _, n, _ in plan), v.shape[-1])
    for start, target, (_, n, h_root) in zip([0.0, *targets], targets, plan):
        ends = (math.sqrt(start) + h_root * np.arange(1, n + 1)) ** 2
        ends[-1] = target
        starts = np.concatenate(([start], ends[:-1]))
        widths = ends - starts
        for first in range(0, n, chunk):
            steps = slice(first, first + chunk)
            stages = None  # the previous chunk goes before the next is factored
            stages = make_stages(np.repeat(_SDIRK_GAMMA * widths[steps], 3),
                                 (starts[steps, None] + widths[steps, None] * fractions).ravel())
            for j, end in enumerate(ends[steps].tolist()):
                v = _sdirk3_step(v, range(3 * j, 3 * j + 3), stages.solve)
                previous, norm = norm, _norm_sq(v, end)
                if norm > previous * (1.0 + _MAX_NORM_RISE):
                    raise SolverError(f"the squared norm rose by {norm / previous - 1.0:.3g} "
                                      f"relative in the step to t = {end:.6g} (unstable step)")
            # a step on decayed parts below the smallest normal float ran 2.6x slower
            for part in (v.real, v.imag):
                part[np.abs(part) < np.finfo(float).tiny] = 0.0
        history.append(record(v, target))
    return history


class _LadderStages:
    """The ladder's stage solves (I - alpha A) Y = b for a chunk of SDIRK
    stages, factored before the steps, in the gauge S = diag(1, 1, s_m) with
    s_m = i on the sigma_ba rows (odd m) and 1 elsewhere: ``solve`` takes
    S b and returns S Y.

    Stage s has its alpha = h gamma and its Omega; the rows are those of
    ``evolve_mb_harmonics`` (E+, E-, then the coherences), `decay` is minus
    the rate of each coherence, `links` holds the weights of B's first
    off-diagonal and `cq` c q on the evolved columns.  Only E+-'s advection
    -+i c q depends on the column, so per column S (I - alpha A) S^-1 is the
    column-independent M0, its value at q = 0, plus diag(i alpha c q,
    -i alpha c q) on E+- (whose s is 1), a rank-2 correction that Woodbury's
    identity takes with one 2 x 2 solve per column.  M0 is the tridiagonal
    coherence path with E+- as leaves on m = +-1, and the path is bipartite
    (each link joins an odd and an even m), so the gauge turns each link
    -i alpha Omega b into +alpha Omega b leaving an odd m and -alpha Omega b
    leaving an even one, and E+-'s links into -alpha g on their rows and
    +alpha g on the rows m = +-1: M0 is real when `decay` is, and so are
    the inverses; a complex `decay` (a detuning) keeps them complex, with
    the same formulas.  M0 = J M0^T J with J = s^2, -1 on the sigma_ba rows.
    Eliminating the leaves adds (alpha g)^2 to the diagonal of the rows
    +-1, and the path's Thomas pivots from either end, d_i + (alpha Omega
    b_i)^2 / (the previous pivot) with Re d_i >= 1, all have real part >= 1.
    So the chunk's stages are factored at once, without pivoting, by numpy
    operations over the stages: the two sweeps, then the symmetric
    Y = J X, X = M0^-1, from its diagonal, J_i / (d_i + what both sweeps
    add), and Y[i, j] = Y[i + 1, j] M0[i, i + 1] / (the top sweep's pivot
    i) for coherences i < j, mirrored, with E+-'s rows -alpha g times those
    of m = +-1; negating Y's sigma_ba rows then gives X, in which
    X[j, i] = (-1)^(j - i) X[i, j] on the path.  A zero link (a one-way
    coupling) leaves exact zeros across it.  A stage is then one product
    X @ b, on b's interleaved float view when X is real, and a few
    operations on the rows E+-.  The correction stays at most alpha c q;
    eliminating E+- per column instead corrects the coherences by up to
    (alpha g)^2 and cancels that much (up to 1.1e-12 of the solution's peak
    on the last step of C08's mesh, against 6e-16 here).  A chunk in which
    (alpha g)^2 or (alpha Omega b)^2 overflows (an l_a of 1e-300 at a
    cos2_theta0 near 1, say) is refused (SolverError) before it is factored.
    """

    @staticmethod
    def stage_bytes(n: int, columns: int, itemsize: int) -> int:
        """Bytes held per stage for n coherence rows, `columns` evolved columns
        and an inverse of `itemsize`-byte entries."""
        return itemsize * (n + 2) ** 2 + 16 * 3 * columns

    def __init__(self, alphas, omegas, decay, links, g_coll, cq) -> None:
        n, count = decay.size, alphas.size
        plus, minus = n // 2 + 1, n // 2 - 1  # the coherence rows m = +1, -1
        diagonal = 1.0 + np.outer(decay, alphas)  # a row per coherence, a column per stage
        # (-1)^i on coherence i, which is -J: the first coherence, m = 1 - 2N, is odd
        alternating = np.where(np.arange(n) % 2, -1.0, 1.0)
        bare = diagonal[[plus, minus]]
        coupling = np.outer(links, alphas * omegas)  # alpha Omega b of each link
        with np.errstate(over="ignore"):
            leaf = (g_coll * alphas) ** 2  # E+- at q = 0, eliminated onto the rows +-1
            square = coupling * coupling
        if not (np.all(np.isfinite(leaf)) and np.all(np.isfinite(square))):
            raise SolverError(f"the stage couplings alpha g and alpha Omega overflow when "
                              f"squared (collective coupling g = {g_coll:.3g})")
        diagonal[[plus, minus]] += leaf
        # both sweeps in one loop: the second half of the columns runs the
        # bottom one upside down
        sweep_diagonal = np.concatenate((diagonal, diagonal[::-1]), axis=1)
        sweep_square = np.concatenate((square, square[::-1]), axis=1)
        sweeps = np.empty((n, 2 * count), dtype=diagonal.dtype)
        sweeps[0] = sweep_diagonal[0]
        for i in range(1, n):
            np.divide(sweep_square[i - 1], sweeps[i - 1], out=sweeps[i])
            sweeps[i] += sweep_diagonal[i]
        down, up = sweeps[:, :count], sweeps[::-1, count:]
        tails = np.zeros_like(diagonal)  # what the rest of the path adds to a row
        tails[1:] += square / down[:-1]
        tails[:-1] += square / up[1:]
        # Y = J X is symmetric, and is filled first: its diagonal is
        # J / (d_i + tails_i), and Y[i, j] = Y[i + 1, j] M0[i, i + 1] / (pivot i)
        # above it, with M0[i, i + 1] = +alpha Omega b leaving an odd m
        ratios = alternating[:-1, None] * coupling / down[:-1]

        inverse = np.empty((count, n + 2, n + 2), dtype=diagonal.dtype)  # rows E+, E-, coherences
        inverse.reshape(count, -1)[:, 2 * (n + 3)::n + 3] = (-alternating[:, None]
                                                             / (diagonal + tails)).T
        path = inverse[:, 2:, 2:]
        for i in range(n - 2, -1, -1):
            np.multiply(ratios[i, :, None], path[:, i + 1, i + 1:], out=path[:, i, i + 1:])
            path[:, i + 1:, i] = path[:, i, i + 1:]
        np.multiply((-g_coll * alphas)[:, None, None], path[:, [plus, minus]],
                    out=inverse[:, :2, 2:])
        inverse[:, 2:, :2] = inverse[:, :2, 2:].transpose(0, 2, 1)
        inverse[:, 0, 0], inverse[:, 1, 1] = 1.0 / (1.0 + leaf / (bare + tails[[plus, minus]]))
        inverse[:, 0, 1] = inverse[:, 1, 0] = leaf * path[:, plus, minus]
        np.negative(inverse[:, 2::2], out=inverse[:, 2::2])  # X = J Y: the sigma_ba rows
        self.inverse = inverse
        self.w = inverse[:, :, :2]  # M0^-1 of the unit vectors of E+-

        # Woodbury per column: (I + S D) z = (x_+, x_-), with S the rows E+-
        # of w and D = diag(i alpha c q, -i alpha c q), solved for D z and
        # eliminated so that a one-way coupling (a zero off-diagonal) leaves
        # the lit row's arithmetic independent of the dark one
        advect = 1j * np.outer(alphas, cq)
        (s_pp, s_pm), (self.s_mp, s_mm) = inverse[:, :2, :2, None].transpose(1, 2, 0, 3)
        a_mm = 1.0 - s_mm * advect
        self.ratio = -s_pm * advect / a_mm
        self.scale_plus = advect / (1.0 + s_pp * advect - self.ratio * self.s_mp * advect)
        self.scale_minus = -advect / a_mm
        self.scaled = np.empty((2, cq.size), dtype=complex)  # D z
        # the products run on the complex arrays viewed in the inverse's
        # dtype: a real inverse multiplies their (rows, 2 columns) float view
        self.scaled_view = self.scaled.view(inverse.dtype)

    def solve(self, stage: int, b: np.ndarray) -> np.ndarray:
        """S Y with S (I - alpha A) S^-1 (S Y) = S b = `b` at the chunk's `stage`."""
        scaled = self.scaled
        product = np.matmul(self.inverse[stage], b.view(self.inverse.dtype))
        x = product.view(complex)
        np.multiply(self.ratio[stage], x[1], out=scaled[0])
        np.subtract(x[0], scaled[0], out=scaled[0])
        scaled[0] *= self.scale_plus[stage]
        np.multiply(self.s_mp[stage], scaled[0], out=scaled[1])
        np.subtract(x[1], scaled[1], out=scaled[1])
        scaled[1] *= self.scale_minus[stage]
        np.subtract(product, np.matmul(self.w[stage], self.scaled_view), out=product)
        return x


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
    coupling amplitudes.  The generator is v_g(t) i P with a constant P, so
    the state is stepped in the displacement r(t), the integral of v_g, where
    the generator is i P: each snapshot time's r ends a segment, and the
    steps are at most min(dz/2, 0.05) in r, which keeps |lambda*dr| <= pi/2
    for every resolved wavenumber, inside classical RK4's imaginary-axis
    stability limit 2*sqrt(2).  A time whose r underflows to that of the
    time before it ends a segment of one step of 0.  The transport alone is
    stepped; the ground-state decay, a scalar that commutes with it,
    multiplies each recorded field once as
    exp(-Gamma_bc (t - cos^2(theta0) r(t))), so it neither shrinks the step
    nor rounds step by step.  It steps u+- = psi+- e^(-i arg kappa+-), in
    which P is the real C (-i d/dz), C = [[-a, |kappa+ kappa-|],
    [-|kappa+ kappa-|, a]], and ``record`` turns the gauge back with the
    decay.  Each product takes its z-derivatives with two forward and two
    inverse ``np.fft`` calls, the wavenumbers times the Horner factor ih/k of
    its segment (and the inverse transform's 1/n_z) as one spectral
    multiplier, and mixes the rows with one float64 ``np.matmul`` on their
    float view.  Before the first step ``_rk4`` refuses a run over its work
    budget (see ``_MAX_RK4_WORK``), and an initial field whose norm
    overflows.
    Returns the fields at t = 0, each snapshot time and t_end as a ``History``.
    """
    if init.psi_plus.shape != (grid.n_z,):
        raise ValueError("initial field must be sampled on the grid")
    targets = _snapshot_targets(t_end, snapshot_times)

    kp, km = schedule.kappa_plus, schedule.kappa_minus
    adv, cross = max(schedule.kappa_plus_sq, schedule.kappa_minus_sq), abs(kp) * abs(km)
    coupling = np.array([[-adv, cross], [-cross, adv]])
    gauge = [kappa / abs(kappa) if kappa else 1.0 for kappa in (kp, km)]  # e^(i arg kappa+-)

    u = np.array([np.conj(gauge[0]) * init.psi_plus, np.conj(gauge[1]) * init.psi_minus])
    spec = np.empty_like(u)   # spectra, times a multiplier
    deriv = np.empty_like(u)  # their inverse transforms
    rows, mixed = tuple(zip(spec, deriv)), deriv.view(float)
    q = grid.wavenumbers

    def product(multiplier: np.ndarray):
        def apply(w: np.ndarray, out: np.ndarray) -> None:
            for row, (s, d) in zip(w, rows):
                np.fft.fft(row, out=s)
                s *= multiplier
                np.fft.ifft(s, out=d, norm="forward")
            np.matmul(coupling, mixed, out=out.view(float))
        return apply

    def scaled_products(h: float) -> list:
        # x/k = (ih/k) P for k = 4, 3, 2, 1; norm="forward" leaves the
        # inverse transform's 1/n_z to the multiplier
        return [product((1j * h / (k * grid.n_z)) * q) for k in (4.0, 3.0, 2.0, 1.0)]

    times = [0.0, *targets]
    r = displacement_r(times)
    decay = dict(zip(times, _ground_state_decay(schedule, medium.Gamma_bc, times, r)))

    def record(v: np.ndarray, t: float) -> PolaritonField:
        return PolaritonField((decay[t] * gauge[0]) * v[0], (decay[t] * gauge[1]) * v[1], t)

    plan = _plan_steps(r[1:].tolist(), min(0.5 * grid.dz, 0.05))
    return _rk4(u, targets, plan, scaled_products, record)


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
    u' = (rate + i(G + Omega(t) B)) u, with no FFT inside a step.  Its rows
    are E+, E-, then the coherences in ascending harmonic index
    m = 1-2N ... 2N-1 (odd m sigma_ba, even m sigma_bc): the coupling path in
    order, whose links B are |kappa-| leaving an odd m and |kappa+| leaving
    an even m, with E+- hung on sigma_ba^(+-1) by G.  The row phases
    d = exp(i(ceil(m/2) arg kappa+ - floor(m/2) arg kappa-)), with m = +-1 for
    E+- and arg 0 = 0, make G and B real and non-negative for v = u/d.  The
    coherences start at zero but for sigma_bc^(0), whose phase is 1, and stay
    internal, so only E+-'s phases exp(i arg kappa+-) are applied.
    Re(rate) <= 0 and the gauged coupling is anti-Hermitian, so each
    column's flow is a contraction.

    The step is ``_sdirk3_step``, Alexander's L-stable 3-stage SDIRK of
    order 3, which takes every rate implicitly (relaxation, Gamma_bc, the
    coupling and the advection -+icq of E+-), so no rate bounds the step.
    The mesh is uniform in s = sqrt(t), in steps of at most ``_ROOT_STEP``,
    because Omega grows as sqrt(t) while the coupling switches on; each
    snapshot time ends a segment.  ``_sdirk3_solve`` runs the time loop
    (chunks of factored stages, the refusal of a step whose squared norm
    rises by over ``_MAX_NORM_RISE``, the subnormal flush); this function
    supplies the stages and the record of E+-.  Each stage solves
    (I - h gamma A(t)) Y = b for every column at once.  Its matrix depends
    on the mesh, not on the state, and on the column only through E+-'s
    advection, so ``_LadderStages`` factors a chunk's stages into explicit
    inverses of the column-independent part, and a stage is one product of
    its inverse with b and a closed-form 2 x 2 solve per column.  The stages
    work in the gauge S = diag(1, 1, s_m), s_m = i on the sigma_ba rows,
    where the matrix is real when Gamma_bc is, so its inverses are float64;
    S is unitary and is 1 on E+- and sigma_bc^(0), so the state is stepped
    as S u from the start and E+- need no conversion.  E+- are advected
    with the grid's wavenumbers, so the mirror z -> -z with
    kappa+ <-> kappa- and E+ <-> E- stays a symmetry.

    Known limitation: the mesh does not resolve the coupling rate
    sqrt(g^2 + Omega^2) (about 1.4e3 / T_s at l_a 5e-4, gamma_ba 10), and
    the L-stable step damps what it does not resolve.  The bright transient
    that the switch-on excites, which physically decays only at about
    gamma_ba / 2, is gone within a few steps, so E+- returned while it lives
    (t below a few 1/gamma_ba) miss it.  With n_z 64 on [-10, 10], N 2,
    |kappa+|^2 0.7, l_a 5e-4, gamma_ba 10, Gamma_bc 0.1 and a stored spin
    -exp(-(z + 1)^2), E+- miss a converged solve by 0.11 of peak at t 0.02,
    1.7e-2 at t 0.2 and 1.5e-3 at t 0.5.  At n_z 32, N 1, |kappa+|^2 0.5,
    l_a 2e-3, gamma_ba 10 and Gamma_bc 1e6 the same damping takes what the
    stored spin feeds the optical coherence before it dephases: E+- come
    back at 8e-24 at t 0.5, where the model gives 1.8e-9.
    Resolving the transient takes steps of about 0.1 / sqrt(g^2 + Omega^2)
    while it lives.

    Only the columns whose largest initial |entry| exceeds eps = 1e-16 of
    the state's peak are evolved; a column left out starts with every entry
    at most eps of the peak and so keeps a 2-norm of at most sqrt(4N+1) eps
    of it.  G + Omega B also links the sigma_ba rows only to the other rows,
    and rate(-q) = conj(rate(q)) when Gamma_bc is real.  Then
    v(-q) = J conj(v(q)), with J = -1 on the sigma_ba rows and +1
    elsewhere, holds for the exact flow and for each step, a rational
    function of the generator with real coefficients, once it holds at
    t = 0, which it does when E+- / d and the stored spin are real.  An
    imaginary part of at most eps of their largest |sample| (dividing by d
    leaves one) is dropped; the flow is a contraction, so that moves the
    returned E+- by at most sqrt(3 n_z) eps of that sample in 2-norm.  Then
    only the kept columns q >= 0 are evolved (39 of 128 for a unit Gaussian
    on [-10, 10], against 77 of both signs), and the E+- spectra at q < 0 are
    rebuilt as conjugate mirrors before the phases d return.  Every other
    input evolves all kept columns.

    A truncation_N above ``_MAX_TRUNCATION_N`` raises ValueError before any
    array is built.  A run over the work budget (see ``_MAX_LADDER_WORK``)
    raises SolverError before any array with a row per coherence is; so does
    a non-finite or overflowing squared norm: of the initial spectrum before
    the columns are chosen, and of the evolved state at t = 0 and after
    every step.

    N = 1 keeps only the dc spin component and reproduces the rapid-dephasing
    (thermal-gas) reduction.  Returns a ``History`` of the probe envelopes
    E+- whose ``steps`` counts the mesh's steps and whose ``columns`` counts
    the columns evolved; the coherences stay internal.
    """
    n_shells = _as_count(truncation_N, "truncation_N", 1)
    if n_shells > _MAX_TRUNCATION_N:
        raise ValueError(f"truncation_N must be at most {_MAX_TRUNCATION_N}, got {n_shells}")
    if probe_init.e_plus.shape != (grid.n_z,):
        raise ValueError("initial probe field must be sampled on the grid")
    targets = _snapshot_targets(t_end, snapshot_times)
    plan = _plan_steps([math.sqrt(t) for t in targets], _ROOT_STEP)
    steps = sum(n for _, n, _ in plan)

    c = schedule.vacuum_speed
    g_coll = medium.collective_coupling(schedule)
    kp, km = schedule.kappa_plus, schedule.kappa_minus
    gauge = np.exp(1j * np.angle([kp, km]))[:, None]  # the phases d of E+, E-

    loaded = np.zeros((3, grid.n_z), dtype=complex)  # E+, E-, stored spin; gauged below
    loaded[:2] = probe_init.e_plus, probe_init.e_minus
    if initial_sigma_bc0 is not None:
        spin0 = _as_complex_samples(initial_sigma_bc0, "initial_sigma_bc0")
        if spin0.shape != (grid.n_z,):
            raise ValueError("initial_sigma_bc0 must be sampled on the grid")
        loaded[2] = spin0
    loaded[:2] /= gauge
    # A real Gamma_bc makes the stages real; a real problem (see above) also
    # evolves only q >= 0, and its sub-floor residue goes.
    gamma_bc = complex(medium.Gamma_bc)
    real_rates = gamma_bc.imag == 0
    mirrored = (real_rates
                and np.max(np.abs(loaded.imag)) <= _COLUMN_FLOOR * np.max(np.abs(loaded)))
    if mirrored:
        loaded.imag = 0.0
    # in place: a run that the work budget refuses holds one (3, n_z) array
    spectra = np.fft.fft(loaded, axis=1, out=loaded)
    _norm_sq(spectra, 0.0)

    # Each column's flow is a contraction, so a column that starts below
    # _COLUMN_FLOOR of the peak stays that small: evolve only the others.
    column_peak = np.max(np.abs(spectra), axis=0)
    kept = np.flatnonzero(column_peak > _COLUMN_FLOOR * np.max(column_peak))
    if mirrored:
        kept = kept[kept <= grid.n_z // 2]
    m = np.arange(1 - 2 * n_shells, 2 * n_shells)  # harmonic index of the coherences
    n_rows = m.size + 2
    work = steps * (3 * n_rows ** 2 * (kept.size + _LADDER_FACTOR_COLUMNS) + _LADDER_STEP_UNITS)
    if work > _MAX_LADDER_WORK:
        # .7g: a count below 1e7 prints exactly, one near the float range short
        raise SolverError(f"{steps:.7g} steps of {kept.size} columns of {n_rows} rows exceed the "
                          f"work budget of {_MAX_LADDER_WORK:.0e} units ({work:.2g})")

    v = np.zeros((n_rows, kept.size), dtype=complex)
    v[[0, 1, 2 + m.size // 2]] = spectra[:, kept]  # E+, E-, sigma_bc^(0)
    cq = c * grid.wavenumbers[kept]
    # -rate of each coherence
    decay = np.where(m % 2, medium.gamma_ba, gamma_bc.real if real_rates else gamma_bc)
    links = np.where(m[:-1] % 2, abs(km), abs(kp))  # B: the link leaving m
    probe_spectra = np.zeros((2, grid.n_z // 2 + 1 if mirrored else grid.n_z), dtype=complex)

    def envelopes(v: np.ndarray, t: float) -> ProbeField:
        if mirrored:  # E+- / gauge are real: the conjugate mirror rebuilds q < 0
            probe_spectra[:, kept] = v[:2]
            e_plus, e_minus = gauge * np.fft.irfft(probe_spectra, grid.n_z, axis=1)
        else:
            probe_spectra[:, kept] = gauge * v[:2]
            e_plus, e_minus = np.fft.ifft(probe_spectra, axis=1)
        return ProbeField(e_plus, e_minus, time_stamp=t)

    def stages(alphas, times):  # Omega = g_coll sqrt(cos^2 / sin^2) of theta at the times
        c2 = cos2_theta(schedule, times)
        return _LadderStages(alphas, g_coll * np.sqrt(c2 / (1.0 - c2)), decay, links, g_coll, cq)

    return _sdirk3_solve(v, targets, plan, stages,
                         _LadderStages.stage_bytes(m.size, kept.size, decay.itemsize), envelopes)
