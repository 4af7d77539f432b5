"""Mass-trace analytics and asymptotic checks.

The solver records mass M(t), cumulative absorbed mass A(t) and field
norms along the run; everything here is pure post-processing of that
trace plus closed-form exponent arithmetic:

  * the critical exponent 1 + alpha/(N(beta+1)) separating mass decay
    from a positive mass limit,
  * the integral test on t^(-r) h(t) deciding which side a given
    coefficient h falls on (r the decay-rate exponent below),
  * a trailing-window classifier for the observed mass curve,
  * the weighted profile distance t^((N/alpha)(1-1/q)(beta+1))
    ||u - M kernel||_q that the supercritical theory sends to zero.
"""

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Field, make_field
from .kernels import kernel_lq_norm, mixed_kernel
from .solver import SolveResult, time_to_tau

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Trace container and CSV round trip.

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
        if n < 2:
            raise ConfigurationError("trace needs at least 2 rows")
        if not np.all(np.diff(self.times) > 0):
            raise ConfigurationError("trace times must be strictly increasing")

    @property
    def initial_mass(self) -> float:
        return float(self.mass[0] + self.absorbed[0])


def mass_trace(result: SolveResult) -> MassTrace:
    return MassTrace(times=result.times, taus=result.taus, mass=result.mass,
                     absorbed=result.absorbed, linf=result.linf, l2=result.l2)


_TRACE_COLUMNS = ("t", "tau", "mass", "absorbed", "linf", "l2")


def write_mass_csv(trace: MassTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for row in zip(trace.times, trace.taus, trace.mass, trace.absorbed,
                       trace.linf, trace.l2):
            writer.writerow(["%.17g" % v for v in row])


def read_mass_csv(path) -> MassTrace:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != _TRACE_COLUMNS:
            raise ConfigurationError(f"{path}: expected header {','.join(_TRACE_COLUMNS)}")
        rows = [[float(cell) for cell in row] for row in reader if row]
    if not rows:
        raise ConfigurationError(f"{path}: empty trace")
    cols = np.array(rows).T
    return MassTrace(times=cols[0], taus=cols[1], mass=cols[2],
                     absorbed=cols[3], linf=cols[4], l2=cols[5])


# ---------------------------------------------------------------------------
# Exponent arithmetic and the coefficient integral test.

def _check_beta_dim(beta: float, dim: int) -> None:
    if not beta >= 0:
        raise ConfigurationError(f"beta must be >= 0, got {beta}")
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")


def critical_exponent(alpha: float, beta: float, dim: int) -> float:
    """Exponent separating the mass dichotomy: 1 + alpha/(dim(beta+1))."""
    if not 0 < alpha < 2:
        raise ConfigurationError(f"alpha must be in (0, 2), got {alpha}")
    _check_beta_dim(beta, dim)
    return 1.0 + alpha / (dim * (beta + 1.0))


def decay_rate_exponent(p: float, alpha: float, beta: float, dim: int) -> float:
    """r = dim(p-1)(beta+1)/alpha: the linear flow damps u^p mass like t^-r."""
    if not 0 < alpha < 2:
        raise ConfigurationError(f"alpha must be in (0, 2), got {alpha}")
    _check_beta_dim(beta, dim)
    if not (p > 1 and math.isfinite(p)):
        raise ConfigurationError(f"p must be finite and > 1, got {p}")
    return dim * (p - 1.0) * (beta + 1.0) / alpha


def absorbed_integral_tail_ratio(schedule, p: float, alpha: float, beta: float,
                                 dim: int, t_lo: float = 1.0, t_mid: float = 1e3,
                                 t_hi: float = 1e6) -> float:
    """Numeric surrogate for convergence of int t^(-r) h(t) dt:
    the ratio of its [t_mid, t_hi] piece to its [t_lo, t_mid] piece.
    Well under 1 for convergent integrands, near or above 1 otherwise."""
    r = decay_rate_exponent(p, alpha, beta, dim)

    def integrand(t):
        return float(schedule.rate(t)) * t ** (-r)

    from scipy.integrate import quad
    head, _ = quad(integrand, t_lo, t_mid, limit=200)
    tail, _ = quad(integrand, t_mid, t_hi, limit=200)
    if head <= 0:
        raise ConfigurationError("coefficient integral vanishes on the head interval")
    return tail / head


_TAIL_RATIO_THRESHOLD = 0.5


def condition_h_check(p: float, alpha: float, beta: float, dim: int,
                      schedule) -> str:
    """Decide convergence of int_1^inf t^(-r) h(t) dt for the run's h.

    Closed form for constant and power coefficients: with h ~ (1+t)^sigma
    the integrand is ~ t^(sigma - r), convergent iff sigma - r < -1.
    Table coefficients have no tail law, so the decision falls back to
    the numeric tail-ratio heuristic, restricted to the table's own time
    range, and a warning is logged that the answer is a heuristic.
    """
    r = decay_rate_exponent(p, alpha, beta, dim)
    sigma = getattr(schedule, "tail_exponent", None)
    if sigma is not None:
        return "convergent" if sigma - r < -1.0 else "divergent"
    # h == 0 has a trivially convergent (zero) integral.
    probe = schedule.integral(1.0, 2.0)
    if probe == 0.0:
        return "convergent"
    _log.warning("tabulated coefficient has no closed-form tail; "
                 "using the numeric tail-ratio heuristic")
    t_hi = 1e6
    times = getattr(schedule, "times", None)
    if times is not None:
        t_hi = float(times[-1])
    t_lo = 1.0
    if times is not None:
        t_lo = max(t_lo, float(times[0]))
    t_mid = math.sqrt(t_lo * t_hi)
    ratio = absorbed_integral_tail_ratio(schedule, p, alpha, beta, dim,
                                         t_lo=t_lo, t_mid=t_mid, t_hi=t_hi)
    return "convergent" if ratio < _TAIL_RATIO_THRESHOLD else "divergent"


# ---------------------------------------------------------------------------
# Mass-limit classification.

@dataclass(frozen=True)
class MassClassification:
    """Outcome of the trailing-window fit on log M vs log t.

    kind is one of positive_plateau, decaying_to_zero, inconclusive.
    m_inf_estimate is set only for a plateau: the ledger value
    M(0) - A(end) when the absorbed integral has visibly converged
    (relative tail < 1e-4 over the window), else the last mass sample.
    """

    kind: str
    trailing_slope: float
    relative_drop: float
    m_inf_estimate: float | None


_PLATEAU_SLOPE = 0.01
_DECAY_SLOPE = -0.05
_PLATEAU_DROP = 0.01
_ABSORBED_TAIL_TOL = 1e-4


def classify_mass_limit(trace: MassTrace, window: float | None = None) -> MassClassification:
    """Classify the late-time mass behavior from the trailing window.

    window is the fraction of the trace's log-time span used for the
    fit; None means the last decade. The trace must span at least two
    decades of positive time. Plateau requires |slope| < 0.01 and a
    relative drop < 1% across the window; decay requires slope < -0.05
    with monotone decrease; anything else is inconclusive.
    """
    positive = trace.times > 0
    t = trace.times[positive]
    m = trace.mass[positive]
    a = trace.absorbed[positive]
    if t.size < 8:
        raise ConfigurationError("trace too short to classify")
    span = math.log10(t[-1] / t[0])
    if span < 2.0 - 1e-9:
        raise ConfigurationError(
            f"trace spans {span:.2f} decades, need at least 2")
    if window is None:
        fraction = min(1.0, 1.0 / span)
    else:
        if not 0 < window <= 1:
            raise ConfigurationError(f"window must be in (0, 1], got {window}")
        fraction = window
    t_start = 10.0 ** (math.log10(t[-1]) - fraction * span)
    sel = t >= t_start
    if np.count_nonzero(sel) < 4:
        raise ConfigurationError("trailing window holds fewer than 4 samples")
    tw, mw, aw = t[sel], m[sel], a[sel]
    if np.any(mw <= 0):
        # Mass hit zero to rounding: unambiguous decay.
        return MassClassification(kind="decaying_to_zero",
                                  trailing_slope=-math.inf,
                                  relative_drop=1.0, m_inf_estimate=None)
    slope = float(np.polyfit(np.log(tw), np.log(mw), 1)[0])
    drop = float(1.0 - mw[-1] / mw[0])
    monotone = bool(np.all(np.diff(mw) <= 1e-12 * mw[0]))

    if abs(slope) < _PLATEAU_SLOPE and drop < _PLATEAU_DROP:
        a_end = float(trace.absorbed[-1])
        a_win = float(aw[0])
        if a_end > 0 and (a_end - a_win) <= _ABSORBED_TAIL_TOL * a_end:
            estimate = trace.initial_mass - a_end
        else:
            estimate = float(mw[-1])
        return MassClassification(kind="positive_plateau", trailing_slope=slope,
                                  relative_drop=drop, m_inf_estimate=estimate)
    if slope < _DECAY_SLOPE and monotone:
        return MassClassification(kind="decaying_to_zero", trailing_slope=slope,
                                  relative_drop=drop, m_inf_estimate=None)
    return MassClassification(kind="inconclusive", trailing_slope=slope,
                              relative_drop=drop, m_inf_estimate=None)


# ---------------------------------------------------------------------------
# Profile convergence and the closed-form absorption bound.

def profile_error(u: Field, m_inf: float, t: float, alpha: float, beta: float,
                  q: float) -> float:
    """Weighted L^q distance of u from the mass-m_inf kernel profile:

        t^((dim/alpha)(1-1/q)(beta+1)) * ||u - m_inf E(tau(t))||_q

    which the supercritical theory sends to zero as t grows, for every
    finite q >= 1.
    """
    if not t > 0:
        raise ConfigurationError(f"t must be positive, got {t}")
    if not (q >= 1 and math.isfinite(q)):
        raise ConfigurationError(f"q must be a finite real >= 1, got {q}")
    if m_inf < 0:
        raise ConfigurationError(f"m_inf must be >= 0, got {m_inf}")
    grid = u.grid
    kernel = mixed_kernel(grid, alpha, time_to_tau(t, beta))
    diff = make_field(grid, u.values - m_inf * kernel.values)
    weight = t ** ((grid.dim / alpha) * (1.0 - 1.0 / q) * (beta + 1.0))
    return float(weight * kernel_lq_norm(diff, q))


def h_bound_H(t: float, p: float, alpha: float, beta: float, u0_norms,
              dim: int = 1, constant: float = 1.0) -> float:
    """Closed-form ceiling for ||u(t)||_p^p along the linear flow:

        min( C t^(-dim(beta+1)(p-1)/2) ||u0||_1^p,
             C t^(-dim(beta+1)(p-1)/alpha) ||u0||_1^p,
             ||u0||_p^p )

    with C = constant (1 by default; the sharp value is not pinned down,
    only the rates). u0_norms is the pair (||u0||_1, ||u0||_p).
    """
    if not t > 0:
        raise ConfigurationError(f"t must be positive, got {t}")
    norm1, normp = (float(v) for v in u0_norms)
    rate = dim * (beta + 1.0) * (p - 1.0)
    local = constant * t ** (-rate / 2.0) * norm1 ** p
    nonlocal_branch = constant * t ** (-rate / alpha) * norm1 ** p
    return min(local, nonlocal_branch, normp ** p)
