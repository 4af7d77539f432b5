"""Time integration for the absorbed diffusion problem

    du/dt + t^beta (-Lap + (-Lap)^(alpha/2)) u = -h(t) u^p,  u >= 0.

The degenerate time weight is removed by the change of clock
tau = t^(beta+1)/(beta+1), after which the linear flow is the plain
semigroup e^(-dtau (-Lap + (-Lap)^(alpha/2))), applied spectrally and
exact per step. The absorption factor is integrated in the original
clock, where du/dt = -h(t) u^p has the closed-form solution

    u1 = u (1 + (p-1) H u^(p-1))^(-1/(p-1)),   H = int h dt,

so a Strang split (half absorption, full semigroup, half absorption)
carries no quadrature error in either substep, only the splitting error.

Mass bookkeeping is by differences across the absorption substeps; the
semigroup leaves the zero mode untouched, so

    mass(t) + absorbed(t) = mass(t0)

holds to FFT roundoff plus the (logged) clipped ripple mass, regardless
of step size.
"""

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .grid import (Field, GridSpec, SpectralSymbol, _float_or_array,
                   _spectral_apply, apply_symbol, make_field, make_symbol)

_log = logging.getLogger(__name__)

_RIPPLE_TOL = 1e-10  # negative input below -tol*max is a contract violation
# Most Strang steps one schedule may hold. A larger count is a config error,
# caught before any work: such a run would not end in useful time.
_MAX_STEPS = 10 ** 8


# ---------------------------------------------------------------------------
# Absorption coefficients h(t). Anything with rate(t), integral(a, b) and
# tail_exponent works; integral must be exact for the class (no quadrature
# inside the stepper).

class NoAbsorption:
    """h = 0: plain linear flow."""

    tail_exponent = None

    def rate(self, t):
        out = np.zeros_like(np.asarray(t, dtype=float))
        return _float_or_array(out)

    def integral(self, a: float, b: float) -> float:
        return 0.0


class ConstantAbsorption:
    """h(t) = c with c > 0."""

    def __init__(self, coefficient: float):
        if not coefficient > 0:
            raise ConfigurationError(f"coefficient must be > 0, got {coefficient}")
        self.coefficient = float(coefficient)

    tail_exponent = 0.0

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.coefficient)
        return _float_or_array(out)

    def integral(self, a: float, b: float) -> float:
        if not a <= b:
            raise ConfigurationError(f"need a <= b, got a={a}, b={b}")
        return self.coefficient * (b - a)


class PowerAbsorption:
    """h(t) = c (1 + t)^sigma with c > 0.

    The shift keeps h bounded near t = 0 for any sigma, so the exact
    integral needs no sign restriction on the exponent.
    """

    def __init__(self, coefficient: float, exponent: float = 0.0):
        if not coefficient > 0:
            raise ConfigurationError(f"coefficient must be > 0, got {coefficient}")
        self.coefficient = float(coefficient)
        self.exponent = float(exponent)

    @property
    def tail_exponent(self):
        return self.exponent

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        out = self.coefficient * (1.0 + t) ** self.exponent
        return _float_or_array(out)

    def integral(self, a: float, b: float) -> float:
        if not 0 <= a <= b:
            raise ConfigurationError(f"need 0 <= a <= b, got a={a}, b={b}")
        if self.exponent == -1.0:
            return self.coefficient * np.log1p((b - a) / (1.0 + a))
        e1 = self.exponent + 1.0
        return self.coefficient * ((1.0 + b) ** e1 - (1.0 + a) ** e1) / e1


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
        if np.any(t < self.times[0]) or np.any(t > self.times[-1]):
            raise ConfigurationError("time outside the absorption table range")
        out = np.interp(t, self.times, self.values)
        return _float_or_array(out)

    def _antiderivative(self, t: float) -> float:
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        i = min(max(i, 0), self.times.size - 2)
        return self._cum[i] + (t - self.times[i]) * (self.values[i] + self.rate(t)) / 2.0

    def integral(self, a: float, b: float) -> float:
        if not a <= b:
            raise ConfigurationError(f"need a <= b, got a={a}, b={b}")
        self.rate(np.array([a, b]))  # range check
        return self._antiderivative(b) - self._antiderivative(a)


def make_absorption(kind: str, coefficient: float = 1.0, exponent: float = 0.0,
                    times=None, values=None):
    if kind == "none":
        return NoAbsorption()
    if kind == "constant":
        return ConstantAbsorption(coefficient)
    if kind == "power":
        return PowerAbsorption(coefficient, exponent)
    if kind == "table":
        if times is None or values is None:
            raise ConfigurationError("table absorption needs times and values")
        return TableAbsorption(times, values)
    raise ConfigurationError(f"unknown absorption kind {kind!r}")


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
        if not 0.0 < self.alpha < 2.0:
            raise ConfigurationError(f"alpha must be in (0, 2), got {self.alpha}")
        if not self.beta >= 0:
            raise ConfigurationError(f"beta must be >= 0, got {self.beta}")
        if not (self.p > 1 and np.isfinite(self.p)):
            raise ConfigurationError(f"p must be finite and > 1, got {self.p}")
        if np.min(self.initial.values) < 0:
            raise ConfigurationError("initial data must be nonnegative")

    @property
    def grid(self) -> GridSpec:
        return self.initial.grid


def time_to_tau(t, beta: float):
    """tau(t) = t^(beta+1)/(beta+1), the clock in which the flow is autonomous."""
    if not beta >= 0:
        raise ConfigurationError(f"beta must be >= 0, got {beta}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ConfigurationError("t must be >= 0")
    out = t ** (beta + 1.0) / (beta + 1.0)
    return _float_or_array(out)


def tau_to_time(tau, beta: float):
    if not beta >= 0:
        raise ConfigurationError(f"beta must be >= 0, got {beta}")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ConfigurationError("tau must be >= 0")
    out = ((beta + 1.0) * tau) ** (1.0 / (beta + 1.0))
    return _float_or_array(out)


def _require_finite(**named) -> None:
    for key, value in named.items():
        if not np.isfinite(value):
            raise ConfigurationError(f"{key} must be finite, got {value}")


def geometric_times(t0: float, t1: float, count: int) -> np.ndarray:
    """Log-spaced output times, endpoints included."""
    _require_finite(t0=t0, t1=t1)
    if not 0 < t0 < t1:
        raise ConfigurationError(f"need 0 < t0 < t1, got {t0}, {t1}")
    if count < 2:
        raise ConfigurationError(f"need count >= 2, got {count}")
    return np.geomspace(t0, t1, count)


_SNAPSHOT_RATIO = 2.0 ** 0.25  # default density of the geometric output ladder


def default_snapshot_times(t0: float, t1: float) -> np.ndarray:
    """Geometric output times at ratio <= 2^(1/4), endpoints included.

    A start at t0 = 0 cannot anchor a geometric ladder, so the ladder then
    covers the last factor-2^10 of the horizon and t0 is prepended.
    """
    _require_finite(t0=t0, t1=t1)
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
    """Uniform tau-substeps between consecutive knot times.

    Knots are the union of snapshot times and endpoints; each gap
    [tau_k, tau_{k+1}] is cut into enough equal substeps that none
    exceeds dtau_max, so snapshots are hit exactly instead of by
    interpolation.
    """

    beta: float
    knot_times: np.ndarray
    knot_taus: np.ndarray
    substeps: np.ndarray
    snapshot_times: np.ndarray

    @property
    def total_steps(self) -> int:
        return int(self.substeps.sum())


def make_step_schedule(t0: float, t1: float, beta: float, dtau_max: float,
                       snapshot_times=None) -> StepSchedule:
    _require_finite(t0=t0, t1=t1, dtau_max=dtau_max)
    if not 0 <= t0 < t1:
        raise ConfigurationError(f"need 0 <= t0 < t1, got {t0}, {t1}")
    if not dtau_max > 0:
        raise ConfigurationError(f"dtau_max must be positive, got {dtau_max}")
    if snapshot_times is None:
        snaps = default_snapshot_times(t0, t1)
    else:
        snaps = np.asarray(snapshot_times, dtype=float)
        if np.any(snaps < t0) or np.any(snaps > t1):
            raise ConfigurationError("snapshot times must lie inside [t0, t1]")
    knots = {float(t0), float(t1)}
    knots.update(float(t) for t in snaps)
    knot_times = np.array(sorted(knots))
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
            f"than the budget of {_MAX_STEPS:.0e}")
    substeps = counts.astype(int)
    snapshot_sorted = np.array(sorted({float(t) for t in snaps} | {float(t1)}))
    return StepSchedule(beta=beta, knot_times=knot_times, knot_taus=knot_taus,
                        substeps=substeps, snapshot_times=snapshot_sorted)


# ---------------------------------------------------------------------------
# Substeps.

def _clip_negative(values: np.ndarray, cell_volume: float) -> float:
    """Zero out negative entries in place; returns the clipped mass.

    Clipped mass is positive: it is the mass the clip ADDS, since the
    removed entries are negative ripple."""
    neg = values < 0.0
    if not np.any(neg):
        return 0.0
    clipped = -float(np.sum(values[neg])) * cell_volume
    values[neg] = 0.0
    return clipped


def _absorb(values: np.ndarray, H: float, p: float, work: np.ndarray) -> None:
    """Exact flow of du/dt = -h u^p over an interval with int h dt = H, in
    place (work: scratch). The factored form avoids 0^(1-p) at zeros."""
    if H == 0.0:
        return
    np.power(values, p - 1.0, out=work)
    work *= (p - 1.0) * H
    work += 1.0
    work **= -1.0 / (p - 1.0)
    values *= work


def absorption_step(f: Field, t0: float, t1: float, p: float, schedule) -> Field:
    """Pointwise exact absorption over [t0, t1] with coefficient schedule.

    Input must be nonnegative up to spectral ripple: entries below
    -1e-10 * max|f| are a contract violation, smaller ones are clipped
    to zero before the flow. Output is within [0, input] pointwise.
    """
    if not t1 >= t0:
        raise ConfigurationError(f"need t1 >= t0, got {t0}, {t1}")
    if not (p > 1 and np.isfinite(p)):
        raise ConfigurationError(f"p must be finite and > 1, got {p}")
    values = f.values.copy()
    floor = np.min(values)
    if floor < -_RIPPLE_TOL * np.max(np.abs(values)):
        raise ConfigurationError(
            f"negative input beyond ripple tolerance (min {floor:g})")
    _clip_negative(values, f.grid.cell_volume)
    H = schedule.integral(t0, t1)
    if H < 0:
        raise ConfigurationError(f"absorbed integral must be >= 0, got {H}")
    _absorb(values, H, p, np.empty_like(values))
    return make_field(f.grid, values)


def linear_step(f: Field, dtau: float, operator) -> Field:
    """One exact semigroup step of length dtau in the tau clock.

    operator is either a prebuilt mixed-symbol SpectralSymbol or a bare
    alpha from which one is made. Negative ripple in the output (spectral
    truncation of the heavy tail) is clipped to zero; the clipped mass is
    logged and is bounded by ~1e-10 of the peak per step.
    """
    if isinstance(operator, SpectralSymbol):
        symbol = operator
    else:
        symbol = make_symbol(f.grid, float(operator))
    values = apply_symbol(f, symbol, scale=dtau, mode="semigroup").values
    clipped = _clip_negative(values, f.grid.cell_volume)
    if clipped:
        _log.debug("linear_step clipped %.3e negative-ripple mass", clipped)
    return make_field(f.grid, values)


# ---------------------------------------------------------------------------
# Driver.

@dataclass(frozen=True)
class SolveResult:
    """Final state plus the per-step trace and requested snapshots.

    Trace arrays run over every substep, starting with the initial row,
    so times[0] = t0 and mass[0] is the initial mass. clipped_mass is the
    total negative-ripple mass removed over the run.
    """

    problem: ProblemSpec
    schedule: StepSchedule
    times: np.ndarray
    taus: np.ndarray
    mass: np.ndarray
    absorbed: np.ndarray
    linf: np.ndarray
    l2: np.ndarray
    snapshot_times: np.ndarray
    snapshots: tuple
    clipped_mass: float
    total_steps: int

    @property
    def final(self) -> Field:
        return self.snapshots[-1]

    @property
    def initial_mass(self) -> float:
        return float(self.mass[0])


def solve(problem: ProblemSpec, schedule: StepSchedule) -> SolveResult:
    """March the Strang splitting over the schedule.

    Per substep [tau_a, tau_b] with midpoint tau_m: half absorption over
    the original-clock interval [t(tau_a), t(tau_m)], exact semigroup of
    length tau_b - tau_a, half absorption over [t(tau_m), t(tau_b)].
    Mass, cumulative absorbed mass and field norms are recorded after
    every substep. The state is updated in place; snapshots, copies of it,
    are taken at the schedule's snapshot times. A non-finite state aborts
    with the partial result attached to the raised error as .partial.
    """
    if schedule.beta != problem.beta:
        raise ConfigurationError(
            f"schedule beta {schedule.beta} does not match problem beta {problem.beta}")
    grid = problem.grid
    symbol = make_symbol(grid, problem.alpha)
    absorption = problem.absorption
    p = problem.p
    beta = problem.beta
    dV = grid.cell_volume

    u = problem.initial.values.copy()
    clipped_total = _clip_negative(u, dV)
    # the step's only grid-sized buffers: fresh ones would page-fault
    work = np.empty_like(u)
    spectrum = np.empty(symbol.values.shape, dtype=complex)
    mass = np.sum(u)
    t0 = float(schedule.knot_times[0])
    rows_t = [t0]
    rows_tau = [float(schedule.knot_taus[0])]
    rows_mass = [float(mass) * dV]
    rows_absorbed = [0.0]
    rows_linf = [float(np.max(u))]
    rows_l2 = [float(np.sqrt(np.sum(np.multiply(u, u, out=work)) * dV))]
    absorbed = 0.0

    want = {float(t) for t in schedule.snapshot_times}
    out_times, out_fields = [], []

    def record_snapshot(t_now, values):
        out_times.append(t_now)
        out_fields.append(make_field(grid, values.copy()))

    def partial_result():
        return SolveResult(
            problem=problem, schedule=schedule,
            times=np.array(rows_t), taus=np.array(rows_tau),
            mass=np.array(rows_mass), absorbed=np.array(rows_absorbed),
            linf=np.array(rows_linf), l2=np.array(rows_l2),
            snapshot_times=np.array(out_times), snapshots=tuple(out_fields),
            clipped_mass=clipped_total, total_steps=len(rows_t) - 1)

    if t0 in want:
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
        dtau = (tau_b - tau_a) / n_sub
        multiplier = np.exp(-dtau * symbol.values)
        for j in range(n_sub):
            _absorb(u, absorption.integral(sub_times[j], mid_times[j]), p, work)
            absorbed += (mass - np.sum(u)) * dV

            # the same transform and clip as linear_step, without a Field
            _spectral_apply(grid, u, multiplier, out=u, spectrum=spectrum)
            clipped_total += _clip_negative(u, dV)

            mass_pre = np.sum(u)
            _absorb(u, absorption.integral(mid_times[j], sub_times[j + 1]), p, work)
            mass = np.sum(u)
            absorbed += (mass_pre - mass) * dV

            # u >= 0 here, so max is the sup norm (and NaN propagates)
            linf = float(np.max(u))
            if not np.isfinite(linf):
                err = NumericalFailureError(
                    f"non-finite state at t = {sub_times[j + 1]:g} "
                    f"({len(out_fields)} snapshots completed)")
                err.partial = partial_result()
                raise err
            rows_t.append(float(sub_times[j + 1]))
            rows_tau.append(float(sub_taus[j + 1]))
            rows_mass.append(float(mass) * dV)
            rows_absorbed.append(float(absorbed))
            rows_linf.append(linf)
            rows_l2.append(float(np.sqrt(np.sum(np.multiply(u, u, out=work)) * dV)))
        t_knot = float(schedule.knot_times[k + 1])
        if t_knot in want:
            record_snapshot(t_knot, u)

    if clipped_total:
        _log.debug("solve clipped %.3e negative-ripple mass in total", clipped_total)
    return partial_result()


def mass_identity_defect(result: SolveResult) -> float:
    """max_k |mass_k + absorbed_k - mass(t0)| / mass(t0): zero up to FFT
    roundoff and clipped ripple by construction, whatever the step size."""
    m0 = result.initial_mass
    if m0 == 0:
        raise ConfigurationError("initial mass is zero")
    return float(np.max(np.abs(result.mass + result.absorbed - m0)) / abs(m0))


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


def duhamel_residual(result: SolveResult, t0: float | None = None) -> float:
    """Relative L^1 defect of the integral form at the final snapshot:

        u(t1) - e^(-(tau1-tau0) L) u(t0)
              + int_{t0}^{t1} e^(-(tau1-tau(s)) L) h(s) u(s)^p ds

    with the time integral approximated by the trapezoid rule over the
    stored snapshots. This is an independent route to the same solution:
    it never uses the splitting, only the recorded states.
    """
    problem = result.problem
    times = result.snapshot_times
    if t0 is None:
        t0 = float(times[0])
    sel = (times >= t0 - 1e-15)
    times = times[sel]
    fields = [f for f, keep in zip(result.snapshots, sel) if keep]
    t1 = float(times[-1])
    if t1 == t0:
        return 0.0
    if times.size < 3:
        raise ConfigurationError(
            "need at least 3 snapshots in [t0, t1] for the time quadrature")
    grid = problem.grid
    symbol = make_symbol(grid, problem.alpha)
    taus = time_to_tau(times, problem.beta)
    tau1 = taus[-1]

    rhs = apply_symbol(fields[0], symbol, scale=tau1 - taus[0], mode="semigroup").values
    h_vals = np.array([float(problem.absorption.rate(t)) for t in times])
    props = []
    for f, tau_s, h in zip(fields, taus, h_vals):
        if h == 0.0:
            props.append(np.zeros_like(f.values))
            continue
        g = make_field(grid, h * np.maximum(f.values, 0.0) ** problem.p)
        props.append(apply_symbol(g, symbol, scale=tau1 - tau_s, mode="semigroup").values)
    for j in range(times.size - 1):
        rhs = rhs - (times[j + 1] - times[j]) / 2.0 * (props[j] + props[j + 1])

    lhs = fields[-1].values
    denom = np.sum(np.abs(lhs)) * grid.cell_volume
    if denom == 0:
        raise ConfigurationError("final snapshot has zero mass")
    defect = np.sum(np.abs(lhs - rhs)) * grid.cell_volume
    return float(defect / denom)
