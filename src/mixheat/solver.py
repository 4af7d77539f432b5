"""Time integration for the absorbed diffusion problem

    du/dt + t^beta (-Lap + (-Lap)^(alpha/2)) u = -h(t) u^p,  u >= 0.

The degenerate time weight is removed by the change of clock
tau = t^(beta+1)/(beta+1), after which the linear flow is the plain
semigroup e^(-dtau (-Lap + (-Lap)^(alpha/2))), applied spectrally and
exact per step. The absorption factor is integrated in the original
clock, where du/dt = -h(t) u^p has the closed-form solution

    u1 = u / (1 + (p-1) H u^(p-1))^(1/(p-1)),   H = int h dt,

a square root at p = 3. Where p == 1 + 1/k in floats for a whole k in
[2, 14] (p = 1.2, 1.25, 1.5, ...), the outer power is taken as w^k, by
squaring and dividing: the float exponent 1/(p-1) is not k
(5.000000000000001 at p = 1.2), and a pow by it costs more and strays
further from the 1 + 1/k flow. A Strang split (half absorption, full
semigroup, half absorption) carries no quadrature error, only the
splitting error.

Mass bookkeeping is by differences across the absorption substeps; the
semigroup leaves the zero mode untouched, so

    mass(t) + absorbed(t) = mass(t0)

holds to FFT roundoff plus the (logged) clipped ripple mass, regardless
of step size.

The semigroup damps every nonzero mode, so a run's upper modes reach
roundoff long before it ends. In the first substep after each knot but
the last, solve tests the spectrum that the step's own transform makes
of the state after its first half absorption, so the test sees the
harmonics that absorption creates. It halves the grid (keeping L, never
below 16 points) as often as every mode with |k| >= n/4 on any axis is
at most grid._CUT_TOL of the spectrum's peak; the absorbed state is then
decimated to its samples at every 2^m-th node, and the step goes on from
one transform on the coarse grid. On the problem's grid the trace's linf
is the samples' maximum; on a coarse grid it is still read on the
problem's grid, as the maximum of the band-limited interpolant at the
fine nodes within a coarse cell of the best coarse sample (_FineMax, whose
rows are the _refine of a coarse unit sample along one axis). On every
grid solve copies each step's state into a trace block and reads linf and
l2 of the block when it fills, at a cut, at a snapshot and before it
returns or raises a result: one state in the step's work buffer on the
problem's grid, _BLOCK_GRIDS (an eighth) problem grids on a cut grid, which
keeps a solve's peak below 4.5 grids. A lone state is the L2 reader's
one-row case, so a block keeps the bits of per-step reading.
Snapshots taken on a coarse grid are zero-padded back to the problem's
grid and their interpolation ripple is clipped (and booked in
clipped_mass), so every snapshot lives on one grid.
"""

import dataclasses
import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailureError, require
from .grid import (_MAX_BYTES, Field, GridSpec, _band_reduce, _band_walk, _check_budget,
                   _float_or_array, _irfft, _lq_norm, _refine, _rfft,
                   apply_symbol, make_symbol)

_log = logging.getLogger(__name__)

_TRACE_ROW_BYTES = 6 * 8  # one trace row: MassTrace's six float64 columns
# Grid-sized arrays solve holds besides its snapshots: state, spectrum (the
# work buffer is a view on it), symbol and multiplier (half lattice each)
# and the FFT's own scratch. The ru_maxrss of a solve over the interpreter's
# just before it, less its one snapshot, measured 3.90 grids in 1D (2^22
# points) and 3.05 in 2D (2048^2); 5 leaves a margin.
# After a cut these buffers live on the coarse grid, 2^-(m dim) of the
# size, beside linf's rows, one fine axis of floats (a grid in 1D) that
# _refine builds once the fine buffers are gone, the trace block below, and
# while the block is read, one grid of fine values: the budget checked at
# the problem's grid still holds.
_WORK_GRIDS = 5
# The trace block: on a cut grid, solve copies each step's state into a
# block of _BLOCK_GRIDS problem grids (never less than one state) and reads
# the linf and l2 of its states together, a call per block instead of two
# per step; on the problem grid the block is the one state in work. A block
# of a whole grid took the 1D solve's traced peak past the 4.5 grids its
# test allows; an eighth keeps it below.
_BLOCK_GRIDS = 0.125
# Most Strang steps one schedule may hold: the trace rows of one more step
# would not fit grid's _MAX_BYTES. A larger count fails before any work.
_MAX_STEPS = _MAX_BYTES // _TRACE_ROW_BYTES - 1


# ---------------------------------------------------------------------------
# Absorption coefficients h(t): the closed-form power law and sampled
# tables. Each has rate(t), integral(a, b) and tail_exponent (the sigma of
# h ~ t^sigma, None for a table); integral must be exact (no quadrature
# inside the stepper) and work elementwise on arrays of a and b, with the
# scalar call's bits at every entry (solve integrates a knot gap at once).

def _window(a, b):
    """a and b as float arrays, refused unless 0 <= a <= b at every entry
    (NaN fails), naming the first pair that fails and, in an array, its index."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ok = (0 <= a) & (a <= b)
    if not np.all(ok):
        i = int(np.argmin(ok))  # the first False
        at = f" at index {i}" if ok.ndim else ""
        a, b = (np.broadcast_to(v, ok.shape).flat[i] for v in (a, b))
        raise ConfigurationError(f"need 0 <= a <= b, got a={a}, b={b}{at}")
    return a, b


class PowerAbsorption:
    """h(t) = c (1 + t)^sigma with c >= 0; c = 0 is plain linear flow (sigma
    reads 0 then, so no power overflows) and sigma = 0 a constant coefficient.

    The shift keeps h bounded near t = 0 for any sigma, so the exact
    integral needs no sign restriction on the exponent. Where (1 + t)^sigma
    or its integral passes the float range, rate and integral read inf,
    quietly.
    """

    def __init__(self, coefficient: float, exponent: float = 0.0):
        require("finite", coefficient=coefficient, exponent=exponent)
        if not coefficient >= 0:
            raise ConfigurationError(f"coefficient must be >= 0, got {coefficient}")
        self.coefficient = float(coefficient)
        self.exponent = float(exponent) if coefficient else 0.0

    @property
    def tail_exponent(self):
        # h = 0 decays faster than any power of t
        return -np.inf if self.coefficient == 0 else self.exponent

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        require(">= 0 and finite", t=t)
        with np.errstate(over="ignore"):
            out = self.coefficient * np.float_power(1.0 + t, self.exponent)
        return _float_or_array(out)

    def integral(self, a, b):
        a, b = _window(a, b)  # numpy floats: past the float range is inf, not a raise
        with np.errstate(over="ignore", divide="ignore"):
            # sigma = 0: b - a is exact where (1+b) - (1+a) rounds
            if self.exponent == 0.0:
                return self.coefficient * (b - a)
            # log((1+b)/(1+a)) without the cancellation of (1+b)^e1 - (1+a)^e1
            # near sigma = -1, whose limit it is
            log_ratio = np.log1p((b - a) / (1.0 + a))
            if self.exponent == -1.0:
                return self.coefficient * log_ratio
            e1 = self.exponent + 1.0
            # float_power: np.power's SIMD loop strays from a scalar pow's last bit
            base, grow = np.float_power(1.0 + a, e1), np.expm1(e1 * log_ratio)
            big = base == np.inf  # (1 + a)^e1 alone overflows (e1 > 0): in logs
            if np.any(big):
                grow = np.where(big, np.exp(e1 * np.log1p(a) + np.log(grow)), grow)
                base = np.where(big, 1.0, base)
            return self.coefficient * (base * grow / e1)


class TableAbsorption:
    """Piecewise-linear h from (time, value) samples.

    Integrals are the exact trapezoid sums of the interpolant, so the
    stepper's closed-form absorption stays quadrature-free. Times outside
    the table are a configuration error rather than an extrapolation.
    """

    tail_exponent = None

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2 or times.shape != values.shape:
            raise ConfigurationError("need matching 1d time/value tables, length >= 2")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ConfigurationError("table times and values must be finite")
        if not np.all(np.diff(times) > 0):
            raise ConfigurationError("table times must be strictly increasing")
        if np.any(values < 0) or times[0] < 0:
            raise ConfigurationError("table times and values must be nonnegative")
        self.times = times
        self.values = values
        seg = np.diff(times) * (values[:-1] + values[1:]) / 2.0
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        require(">= 0 and finite", t=t)
        lo, hi = self.times[0], self.times[-1]
        outside = ~((lo <= t) & (t <= hi))  # NaN too
        if np.any(outside):
            raise ConfigurationError(
                f"time {t[outside].flat[0]:g} outside the absorption "
                f"table range [{lo:g}, {hi:g}]")
        out = np.interp(t, self.times, self.values)
        return _float_or_array(out)

    def _antiderivative(self, t, h_t):
        """Integral of h over [times[0], t], given h_t = h(t), elementwise."""
        i = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 2)
        return self._cum[i] + (t - self.times[i]) * (self.values[i] + h_t) / 2.0

    def integral(self, a, b):
        a, b = _window(a, b)
        # range check, pair by pair: a miss names a time of the first pair out
        h_a, h_b = np.moveaxis(self.rate(np.stack(np.broadcast_arrays(a, b), axis=-1)), -1, 0)
        return self._antiderivative(b, h_b) - self._antiderivative(a, h_a)


# ---------------------------------------------------------------------------
# Problem description and the degenerate-time clock.

@dataclass(frozen=True)
class ProblemSpec:
    """One Cauchy problem: exponents, absorption coefficient, initial data."""

    alpha: float
    beta: float
    p: float
    absorption: object
    initial: Field

    def __post_init__(self):
        require(alpha=self.alpha, beta=self.beta, p=self.p)
        if np.min(self.initial.values) < 0:
            raise ConfigurationError("initial data must be nonnegative")
        # u >= 0 bounds every Fourier mode by sum u, so this keeps the
        # transforms finite too
        with np.errstate(over="ignore"):
            total = float(np.add.reduce(self.initial.values, axis=None))
        if not total * self.grid.cell_volume < np.inf:
            raise ConfigurationError(
                f"initial data must have a finite sum of samples and mass on "
                f"cells of volume {self.grid.cell_volume:g}, got a sum of {total:g}")

    @property
    def grid(self) -> GridSpec:
        return self.initial.grid


def time_to_tau(t, beta: float):
    """tau(t) = t^(beta+1)/(beta+1), the clock in which the flow is autonomous."""
    t = np.asarray(t, dtype=float)
    require(">= 0 and finite", beta=beta, t=t)
    out = t ** (beta + 1.0) / (beta + 1.0)
    return _float_or_array(out)


def tau_to_time(tau, beta: float):
    tau = np.asarray(tau, dtype=float)
    require(">= 0 and finite", beta=beta, tau=tau)
    out = ((beta + 1.0) * tau) ** (1.0 / (beta + 1.0))
    return _float_or_array(out)


def geometric_times(t0: float, t1: float, count: int, name: str = "count") -> np.ndarray:
    """Log-spaced output times, endpoints included. Every gap between two
    of them costs a step, so count is at most _MAX_STEPS + 1; this is
    checked before the ladder is built. name is what the error calls
    count (a config key, say)."""
    require("finite", t0=t0, t1=t1)
    if not 0 < t0 < t1:
        raise ConfigurationError(f"need 0 < t0 < t1, got {t0}, {t1}")
    if not (isinstance(count, numbers.Integral) and 2 <= count <= _MAX_STEPS + 1):
        raise ConfigurationError(
            f"{name} must be an integer in [2, {_MAX_STEPS + 1}], got {count}")
    return np.geomspace(t0, t1, count)


_SNAPSHOT_RATIO = 2.0 ** 0.25  # default density of the geometric output ladder


def default_snapshot_times(t0: float, t1: float) -> np.ndarray:
    """Geometric output times at ratio <= 2^(1/4), endpoints included.

    A start at t0 = 0 cannot anchor a geometric ladder, so the ladder then
    covers the last factor-2^10 of the horizon and t0 is prepended.
    """
    require("finite", t0=t0, t1=t1)
    if not 0 <= t0 < t1:
        raise ConfigurationError(f"need 0 <= t0 < t1, got {t0}, {t1}")
    if t0 > 0:
        span = np.log(t1 / t0)
    else:
        span = 10.0 * np.log(2.0)
    count = max(2, int(np.ceil(span / np.log(_SNAPSHOT_RATIO))) + 1)
    lo = t0 if t0 > 0 else t1 * 2.0 ** -10
    times = np.geomspace(lo, t1, count)
    if t0 == 0:
        times = np.concatenate([[0.0], times])
    return times


@dataclass(frozen=True)
class StepSchedule:
    """Uniform tau-substeps between consecutive knot times, and the knots
    at which solve keeps a copy of the state.

    Each gap [tau_k, tau_{k+1}] between knots is cut into enough equal
    substeps that none exceeds dtau_max, so snapshots are hit exactly
    instead of by interpolation. Every snapshot time must be a knot and
    the last one must be t1, the final knot: a schedule may keep fewer
    snapshots than it has knots (dataclasses.replace with a shorter
    snapshot_times), but SolveResult.final is always the state at t1.
    """

    beta: float
    knot_times: np.ndarray
    knot_taus: np.ndarray
    substeps: np.ndarray
    snapshot_times: np.ndarray

    def __post_init__(self):
        snaps = self.snapshot_times
        t1 = self.knot_times[-1]
        if not (snaps.size and snaps[-1] == t1 and np.all(np.diff(snaps) > 0)
                and np.all(np.isin(snaps, self.knot_times, assume_unique=True))):
            raise ConfigurationError(
                f"snapshot times must be increasing knot times ending at "
                f"t1 = {t1}, got {snaps}")

    @property
    def total_steps(self) -> int:
        return int(self.substeps.sum())


def make_step_schedule(t0: float, t1: float, beta: float, dtau_max: float,
                       snapshot_times=None) -> StepSchedule:
    """Knots at t0, t1 and every snapshot time (default_snapshot_times
    when None); solve keeps the state at each snapshot time and at t1.

    The snapshot times also set the step density: a geometric ladder of
    them (geometric_times, or a [0, t_first] step followed by one from
    t0 = 0) gives steps that grow with t, and dtau_max caps every step in
    tau. A schedule of more than _MAX_STEPS steps is a ConfigurationError.
    """
    require("finite", t0=t0, t1=t1)
    require("finite and > 0", dtau_max=dtau_max)
    if not 0 <= t0 < t1:
        raise ConfigurationError(f"need 0 <= t0 < t1, got {t0}, {t1}")
    if snapshot_times is None:
        snaps = default_snapshot_times(t0, t1)
    else:
        try:
            snaps = np.asarray(snapshot_times, dtype=float)
            flat = snaps.ndim == 1
        except (TypeError, ValueError):  # ragged, or not numbers
            flat = False
        if not flat:
            raise ConfigurationError("snapshot_times must be a flat sequence of numbers")
        # each gap between knots costs a step; checked before any array
        # of their size exists
        if snaps.size > _MAX_STEPS + 1:
            raise ConfigurationError(
                f"{snaps.size} snapshot times need more steps than the budget "
                f"of {_MAX_STEPS}")
        if not np.all((snaps >= t0) & (snaps <= t1)):
            raise ConfigurationError("snapshot times must lie inside [t0, t1]")
    knot_times = _distinct(np.concatenate([[t0, t1], snaps]))
    # Overflow to inf is caught below, before the count is cast to int.
    with np.errstate(over="ignore"):
        knot_taus = time_to_tau(knot_times, beta)
    if not np.isfinite(knot_taus[-1]):
        raise ConfigurationError(
            f"t1 {t1} overflows tau = t^(beta+1)/(beta+1) at beta={beta}")
    gaps = np.diff(knot_taus)
    with np.errstate(over="ignore"):
        counts = np.maximum(1.0, np.ceil(gaps / dtau_max - 1e-12))
        total = float(counts.sum())
    if not total <= _MAX_STEPS:
        raise ConfigurationError(
            f"dtau_max {dtau_max} needs {total:.3g} steps on [t0, t1], more "
            f"than the budget of {_MAX_STEPS}")
    return StepSchedule(beta=beta, knot_times=knot_times, knot_taus=knot_taus,
                        substeps=counts.astype(int),
                        snapshot_times=_distinct(np.append(snaps, t1)))


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1D float array, without its masked-array test, whose
    first call imports numpy.ma: about 20 ms of every solve otherwise. For
    the same reason the np.isin calls on schedules pass assume_unique (the
    knots and snapshot times are distinct)."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


# ---------------------------------------------------------------------------
# Substeps.

def _clip_negative(values: np.ndarray, cell_volume: float) -> float:
    """Zero out negative entries in place; returns the clipped mass.

    Clipped mass is positive: it is the mass the clip ADDS, since the
    removed entries are negative ripple."""
    if not values.min() < 0.0:
        return 0.0
    neg = values < 0.0
    clipped = -float(np.sum(values[neg])) * cell_volume
    values[neg] = 0.0
    return clipped


def _absorb(values: np.ndarray, H: float, p: float, work: np.ndarray) -> None:
    """Exact flow of du/dt = -h u^p, int h dt = H, in place (work: scratch), as
    u / w^(1/(p-1)): a sqrt at p = 3, not a pow; factored, w avoids 0^(1-p).

    At p == 1 + 1/k for a whole k in [2, 14] the outer power is w^k: u is
    divided by w^(2^i) for each set bit i of k, squaring w in place between
    bits. Each divisor is a power of w >= 1, so the result stays monotone in
    H and never exceeds u; k = 2 keeps the bits of `**= 2.0`. The cap is
    where this stops paying: on 8,192 points, up to 3 divides and 3 squares
    (k <= 14) took 0.4-0.9 of the pow and divide they replace, and k = 15's
    4 divides took 1.03-1.08."""
    if H == 0.0:
        return
    q = p - 1.0
    if q == 2.0:  # np.power's bits, faster
        np.square(values, out=work)
    else:
        np.power(values, q, out=work)
    work *= q * H
    work += 1.0
    k = round(1.0 / q)
    if not (2 <= k <= 14 and p == 1.0 + 1.0 / k):
        work **= 1.0 / q
        k = 1
    while k:
        if k & 1:
            values /= work
        k >>= 1
        if k:
            np.square(work, out=work)


# ---------------------------------------------------------------------------
# The grid cut (its test and _refine are grid's).

class _FineMax:
    """The trace's linf on a coarse grid, read on the problem's: the
    maximum of the coarse state's band-limited interpolant at the fine
    nodes in the coarse cells on either side of its best sample, on every
    axis. On each axis the interpolant at fine node i r + o (0 <= o < r)
    is sum_s rows[s, o] u[i - s], r = n / n_c, for rows[s, o] the _refine
    of a coarse unit sample along one axis at fine node s r + o, built
    once per cut.

    It reads a stack of states. In 1D one gather takes every state's two
    cells, and a stacked matmul multiplies them by chunks of n_c / 2 states,
    so that a chunk's fine values fill one problem grid: each state's
    product is the one BLAS call that a lone state makes, and keeps its
    bits. In 2D the states are read one at a time; a gather of the whole
    stack cost more than it saved."""

    def __init__(self, coarse: GridSpec, fine: GridSpec):
        axis, fine_axis = (dataclasses.replace(g, dim=1) for g in (coarse, fine))
        unit = np.zeros(coarse.points)
        unit[0] = 1.0
        self.rows = _refine(unit, axis, fine_axis).reshape(coarse.points, -1)
        # c + s for u[i - c - s], the two cells (c = 0 or 1) beside node i
        self.cells = np.add.outer((0, 1), np.arange(coarse.points)).ravel()
        self.best, self.take = -1, None

    def __call__(self, states: np.ndarray) -> np.ndarray:
        n_c = states.shape[1]
        if states.ndim == 3:
            return np.array([self._plane(u) for u in states])
        best = states.argmax(axis=1)
        near = (best[:, None] - self.cells) % n_c + n_c * np.arange(len(states))[:, None]
        v = states.take(near).reshape(-1, 2, n_c)
        chunks = (v[i:i + n_c // 2] @ self.rows for i in range(0, len(v), n_c // 2))
        return np.concatenate([c.reshape(len(c), -1).max(axis=1) for c in chunks])

    def _plane(self, u: np.ndarray) -> float:
        n_c = u.shape[0]
        best = int(u.argmax())
        if best != self.best:
            near = [(i - self.cells) % n_c for i in np.unravel_index(best, u.shape)]
            self.take = near[0][:, None] * n_c + near[1]
            self.best = best
        v = u.take(self.take).reshape(-1, n_c) @ self.rows
        # the last axis's offsets are in; now the leading one's
        return (self.rows.T @ v.reshape(2, n_c, -1)).max()


def _work_buffers(grid: GridSpec, alpha: float):
    """The symbol values, spectrum, multiplier and work buffers of solve's
    step on grid: fresh ones per step would page-fault. work is scratch on
    the spectrum buffer's first points^dim floats, safe because nothing in
    it outlives the next transform, which rewrites them; on the problem's
    grid it is also the trace block of one state, read as it fills."""
    symbol = make_symbol(grid, alpha).values
    spectrum = np.empty(symbol.shape, dtype=complex)
    work = spectrum.view(float).reshape(-1)[:grid.points ** grid.dim].reshape(grid.shape)
    return symbol, spectrum, np.empty_like(symbol), work


# ---------------------------------------------------------------------------
# Driver.

@dataclass(frozen=True)
class MassTrace:
    """Per-step time series of a run: clock, mass ledger, field norms."""

    times: np.ndarray
    taus: np.ndarray
    mass: np.ndarray
    absorbed: np.ndarray
    linf: np.ndarray
    l2: np.ndarray

    def __post_init__(self):
        n = self.times.size
        for name in ("taus", "mass", "absorbed", "linf", "l2"):
            if getattr(self, name).size != n:
                raise ConfigurationError(f"trace column {name} has mismatched length")
        if not np.all(np.diff(self.times) > 0):
            raise ConfigurationError("trace times must be strictly increasing")

    @property
    def initial_mass(self) -> float:
        return float(self.mass[0] + self.absorbed[0])


@dataclass(frozen=True)
class SolveResult:
    """Final state plus the per-step trace and requested snapshots.

    The trace runs over every substep, starting with the initial row, so
    trace.times[0] = t0 and trace.mass[0] is the initial mass. clipped_mass
    is the total negative-ripple mass removed over the run.
    """

    problem: ProblemSpec
    schedule: StepSchedule
    trace: MassTrace
    snapshot_times: np.ndarray
    snapshots: tuple
    clipped_mass: float

    @property
    def final(self) -> Field:
        return self.snapshots[-1]

    @property
    def total_steps(self) -> int:
        return self.trace.times.size - 1


def solve(problem: ProblemSpec, schedule: StepSchedule) -> SolveResult:
    """March the Strang splitting over the schedule.

    Per substep [tau_a, tau_b] with midpoint tau_m: half absorption over
    the original-clock interval [t(tau_a), t(tau_m)], exact semigroup of
    length tau_b - tau_a, half absorption over [t(tau_m), t(tau_b)].
    Mass, cumulative absorbed mass and field norms are recorded after
    every substep. The state is updated in place; snapshots, copies of it,
    are taken at the schedule's snapshot times only. A run whose snapshots,
    _WORK_GRIDS grids of work space and trace rows would need more than
    _MAX_BYTES, whose absorption table misses t0 or t1, or whose integral
    of h over [t0, t1] overflows, is a ConfigurationError before anything
    is allocated. A non-finite state aborts with the partial result
    attached to the raised error as .partial.
    """
    if schedule.beta != problem.beta:
        raise ConfigurationError(
            f"schedule beta {schedule.beta} does not match problem beta {problem.beta}")
    absorption = problem.absorption
    # any law's integral over [t0, t1]: a table must cover the window, and an
    # overflow would overflow its steps (a NaN is left to the step meeting it)
    t_first, t_last = schedule.knot_times[[0, -1]]
    with np.errstate(over="ignore"):
        h_total = absorption.integral(t_first, t_last)
    if np.isinf(h_total):
        raise ConfigurationError(
            f"the integral of h over [t0, t1] = [{t_first:g}, {t_last:g}] "
            f"overflows the float range (h's tail exponent {absorption.tail_exponent})")
    grid = problem.grid
    n_snaps = schedule.snapshot_times.size
    u0 = problem.initial.values
    _check_budget((n_snaps + _WORK_GRIDS) * u0.nbytes
                  + _TRACE_ROW_BYTES * (schedule.total_steps + 1),
                  f"{n_snaps} snapshots of a {u0.size}-point grid "
                  f"and a trace of {schedule.total_steps} steps need")
    p = problem.p
    beta = problem.beta
    # g is the grid the state lives on now: the problem's, or a cut of it
    g = grid
    symbol, spectrum, multiplier, work = _work_buffers(g, problem.alpha)
    dV = g.cell_volume
    fine_max = None  # the linf reader of a cut grid, set at each cut
    # the states whose linf and l2 wait to be read: one, in work, at first
    block, waiting = work[None], 0

    u = problem.initial.values.copy()
    clipped_total = 0.0
    mass = np.add.reduce(u, axis=None)
    t0 = float(schedule.knot_times[0])
    # one trace row per step, in MassTrace's column order
    rows = np.empty((6, schedule.total_steps + 1))
    rows[:5, 0] = (t0, schedule.knot_taus[0], mass * dV, 0.0, u.max())
    block[0] = u
    filled = waiting = 1
    absorbed = 0.0

    is_snapshot = np.isin(schedule.knot_times, schedule.snapshot_times,
                          assume_unique=True)
    out_times, out_fields = [], []

    def record_snapshot(t_now, values):
        nonlocal clipped_total
        if g is grid:
            values = values.copy()
        else:
            values = _refine(values, g, grid)
            clipped_total += _clip_negative(values, grid.cell_volume)
        out_times.append(t_now)
        out_fields.append(Field(grid, values))

    def read_block():
        """linf and l2 of the states waiting in the block, read together;
        till then (for good on the problem grid) each one's top is linf."""
        nonlocal waiting
        if waiting:
            states, cols = block[:waiting], rows[4:, filled - waiting:filled]
            linf = fine_max(states) if fine_max else cols[0]
            cols[1] = _lq_norm(states, 2.0, dV, cols[0], work=states)
            cols[0] = linf
            waiting = 0

    def partial_result():
        read_block()
        return SolveResult(
            problem=problem, schedule=schedule, trace=MassTrace(*rows[:, :filled]),
            snapshot_times=np.array(out_times), snapshots=tuple(out_fields),
            clipped_mass=clipped_total)

    read_block()
    if is_snapshot[0]:
        record_snapshot(t0, u)

    for k in range(schedule.knot_times.size - 1):
        tau_a = schedule.knot_taus[k]
        tau_b = schedule.knot_taus[k + 1]
        n_sub = int(schedule.substeps[k])
        sub_taus = np.linspace(tau_a, tau_b, n_sub + 1)
        sub_times = tau_to_time(sub_taus, beta)
        # the tau round trip is exact only to rounding; knot times are the
        # caller's numbers, so pin the segment ends to them
        sub_times[0] = schedule.knot_times[k]
        sub_times[-1] = schedule.knot_times[k + 1]
        mid_times = tau_to_time((sub_taus[:-1] + sub_taus[1:]) / 2.0, beta)
        h_first = absorption.integral(sub_times[:-1], mid_times)
        h_second = absorption.integral(mid_times, sub_times[1:])
        dtau = (tau_b - tau_a) / n_sub
        for j in range(n_sub):
            _absorb(u, h_first[j], p, work)
            absorbed += (mass - np.add.reduce(u, axis=None)) * dV

            _rfft(g, u, out=spectrum)
            if j == 0:
                # the cut, on this step's own spectrum of the absorbed state
                np.abs(spectrum, out=multiplier)
                halvings = _band_walk(float(multiplier.flat[0]),
                                      _band_reduce(g, multiplier, np.maximum))
                if halvings:
                    read_block()
                    coarse = dataclasses.replace(g, points=g.points >> halvings)
                    _log.debug("solve cut the grid at t = %g: %d -> %d points per axis",
                               schedule.knot_times[k], g.points, coarse.points)
                    u = u[(slice(None, None, 2 ** halvings),) * g.dim].copy()
                    g = coarse
                    # the fine buffers go before the rows are built
                    symbol = spectrum = multiplier = work = fine_max = block = None
                    fine_max = _FineMax(g, grid)
                    symbol, spectrum, multiplier, work = _work_buffers(g, problem.alpha)
                    block = np.empty((max(1, int(_BLOCK_GRIDS * u0.size) // u.size),)
                                     + g.shape)
                    dV = g.cell_volume
                    _rfft(g, u, out=spectrum)
                np.exp(np.multiply(symbol, -dtau, out=multiplier), out=multiplier)
                multiplier *= 1.0 / u.size  # the inverse transform's 1/N

            # exp(-dtau m) and the ripple clip on u in place: the bits of
            # apply_symbol(mode="semigroup") then _clip_negative
            spectrum *= multiplier
            _irfft(g, spectrum, out=u)
            clipped_total += _clip_negative(u, dV)

            mass_pre = np.add.reduce(u, axis=None)
            _absorb(u, h_second[j], p, work)
            mass = np.add.reduce(u, axis=None)
            absorbed += (mass_pre - mass) * dV

            # u >= 0 here, so max is the sup norm of the samples (and NaN
            # propagates)
            top = float(u.max())
            if not np.isfinite(top):
                err = NumericalFailureError(
                    f"non-finite state at t = {sub_times[j + 1]:g} "
                    f"({filled - 1} steps completed)")
                err.partial = partial_result()
                raise err
            rows[:5, filled] = (sub_times[j + 1], sub_taus[j + 1], mass * dV, absorbed, top)
            block[waiting] = u
            waiting += 1
            filled += 1
            if waiting == len(block):
                read_block()
        if is_snapshot[k + 1]:
            read_block()
            record_snapshot(float(schedule.knot_times[k + 1]), u)

    if clipped_total:
        _log.debug("solve clipped %.3e negative-ripple mass in total", clipped_total)
    return partial_result()


def mass_identity_defect(result: SolveResult) -> float:
    """max_k |mass_k + absorbed_k - mass(t0)| / mass(t0): zero up to FFT
    roundoff and clipped ripple by construction, whatever the step size."""
    trace = result.trace
    m0 = trace.initial_mass
    if m0 == 0:
        raise ConfigurationError("initial mass is zero")
    return float(np.max(np.abs(trace.mass + trace.absorbed - m0)) / abs(m0))


def comparison_check(problem: ProblemSpec, larger_initial: Field,
                     schedule: StepSchedule) -> float:
    """Order preservation: run the problem and a copy started from
    larger_initial >= initial, and return the minimum of (larger - smaller)
    over all snapshots and grid points. Nonnegative up to ripple tolerance
    when the ordering holds.
    """
    if larger_initial.grid != problem.grid:
        raise ConfigurationError("initial data grids do not match")
    if np.min(larger_initial.values - problem.initial.values) < 0:
        raise ConfigurationError("larger_initial must dominate the problem's initial data")
    small = solve(problem, schedule)
    big = solve(dataclasses.replace(problem, initial=larger_initial), schedule)
    gaps = [np.min(b.values - s.values)
            for s, b in zip(small.snapshots, big.snapshots)]
    return float(min(gaps))


def duhamel_residual(result: SolveResult) -> float:
    """Relative L^1 defect of the integral form at the final snapshot:

        u(t1) - e^(-(tau1-tau0) L) u(t0)
              + int_{t0}^{t1} e^(-(tau1-tau(s)) L) h(s) u(s)^p ds

    from the first snapshot t0 to the last t1, with the time integral
    approximated by the trapezoid rule over all stored snapshots, so at
    least 3 are needed. This is an independent route to the same solution:
    it never uses the splitting, only the recorded states.
    """
    problem = result.problem
    times, fields = result.snapshot_times, result.snapshots
    if times.size < 3:
        raise ConfigurationError(
            f"need at least 3 snapshots for the time quadrature, got {times.size}")
    grid = problem.grid
    symbol = make_symbol(grid, problem.alpha)
    taus = time_to_tau(times, problem.beta)
    tau1 = taus[-1]

    rhs = apply_symbol(fields[0], symbol, scale=tau1 - taus[0], mode="semigroup").values
    h_vals = problem.absorption.rate(times)
    props = []
    for f, tau_s, h in zip(fields, taus, h_vals):
        if h == 0.0:
            props.append(np.zeros_like(f.values))
            continue
        g = Field(grid, h * np.maximum(f.values, 0.0) ** problem.p)
        props.append(apply_symbol(g, symbol, scale=tau1 - tau_s, mode="semigroup").values)
    for j in range(times.size - 1):
        rhs = rhs - (times[j + 1] - times[j]) / 2.0 * (props[j] + props[j + 1])

    lhs = fields[-1].values
    denom = _lq_norm(lhs, 1.0, grid.cell_volume)
    if denom == 0:
        raise ConfigurationError("final snapshot has zero mass")
    diff = np.subtract(lhs, rhs, out=rhs)
    return _lq_norm(diff, 1.0, grid.cell_volume, work=diff) / denom
