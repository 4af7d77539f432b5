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
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require
from .grid import Field
from .kernels import kernel_lq_norm, mixed_kernel
from .solver import MassTrace, time_to_tau


# ---------------------------------------------------------------------------
# CSV tables, written and read here alone. Every float the CLI writes is
# %.17g, which round-trips it, so reruns diff byte for byte; a table of
# floats takes one % per chunk of _CHUNK_ROWS rows, framed as csv.writer
# frames a row (no float cell needs quoting).

_FLOAT = "%.17g"
_TRACE_COLUMNS = ("t", "tau", "mass", "absorbed", "linf", "l2")
_CHUNK_ROWS = 256


def _fmt(x) -> str:
    return _FLOAT % float(x)


def _write_table(path, header, rows) -> None:
    """Write the header, then rows, as one CSV table: a 2D float array in
    %.17g, or rows of strings, which csv.writer quotes where a cell needs
    it (an error message with a comma, say)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if not isinstance(rows, np.ndarray):
            writer.writerows(rows)
            return
        dialect = writer.dialect
        line = dialect.delimiter.join([_FLOAT] * rows.shape[1]) + dialect.lineterminator
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def write_mass_csv(trace: MassTrace, path) -> None:
    _write_table(path, _TRACE_COLUMNS, np.column_stack((
        trace.times, trace.taus, trace.mass, trace.absorbed, trace.linf, trace.l2)))


def _read_table(path, header) -> np.ndarray:
    """The columns of a UTF-8 CSV table, one per entry of `header`, which
    must be its first row exactly. Blank rows are skipped; every other row
    holds one finite number per column."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != header:
                raise ConfigurationError(f"{path}: expected header {','.join(header)}")
            rows = []
            for row in reader:
                if not row:
                    continue
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    values = []
                if len(values) != len(header) or not all(map(math.isfinite, values)):
                    raise ConfigurationError(
                        f"{path}: line {reader.line_num}: expected "
                        f"{len(header)} numbers, all finite, got {row!r}")
                rows.append(values)
    except UnicodeDecodeError:
        raise ConfigurationError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # a cell past csv's field size limit, say
        raise ConfigurationError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.array(rows).reshape(-1, len(header)).T


def read_mass_csv(path) -> MassTrace:
    columns = _read_table(path, _TRACE_COLUMNS)
    if columns.shape[1] < 2:
        raise ConfigurationError(f"{path}: trace needs at least 2 rows")
    return MassTrace(*columns)


# ---------------------------------------------------------------------------
# Exponent arithmetic and the coefficient integral test.

def critical_exponent(alpha: float, beta: float, dim: int) -> float:
    """Exponent separating the mass dichotomy: 1 + alpha/(dim(beta+1))."""
    require(alpha=alpha, beta=beta, dim=dim)
    return 1.0 + alpha / (dim * (beta + 1.0))


def decay_rate_exponent(p: float, alpha: float, beta: float, dim: int) -> float:
    """r = dim(p-1)(beta+1)/alpha: the linear flow damps u^p mass like t^-r."""
    require(alpha=alpha, beta=beta, dim=dim, p=p)
    return dim * (p - 1.0) * (beta + 1.0) / alpha


def condition_h_check(p: float, alpha: float, beta: float, dim: int,
                      absorption) -> str:
    """Decide convergence of int_1^inf t^(-r) h(t) dt, h the rate of `absorption`.

    With h ~ t^sigma (sigma = absorption.tail_exponent) the integrand is
    ~ t^(sigma - r): "convergent" iff sigma - r < -1, else "divergent".
    A sampled table (tail_exponent None) does not define h past its last
    time, so its verdict is "undetermined".
    """
    r = decay_rate_exponent(p, alpha, beta, dim)
    sigma = absorption.tail_exponent
    if sigma is None:
        return "undetermined"
    return "convergent" if sigma - r < -1.0 else "divergent"


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


def _loglog_slope(x, y, last_decade: bool = False) -> float:
    """Least-squares slope of log y against log x, the one power-law fit
    behind the classifier and the CLI's trace and capacity slopes.

    last_decade=True fits only the positive samples with x in the last
    decade, and gives nan when fewer than 4 of them are left."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if last_decade:
        keep = (x > 0) & (y > 0)
        x, y = x[keep], y[keep]
        if x.size:
            keep = x >= x[-1] / 10.0
            x, y = x[keep], y[keep]
        if x.size < 4:
            return math.nan
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


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
    slope = _loglog_slope(tw, mw)
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
# Profile convergence.

def profile_error(u: Field, m_inf: float, t: float, alpha: float, beta: float,
                  q: float) -> float:
    """Weighted L^q distance of u from the mass-m_inf kernel profile:

        t^((dim/alpha)(1-1/q)(beta+1)) * ||u - m_inf E(tau(t))||_q

    which the supercritical theory sends to zero as t grows, for every
    finite q >= 1. Where the weight alone leaves the float range the
    product is taken in log space; a product outside it is a
    ConfigurationError.
    """
    require("finite and > 0", t=t)
    if not (q >= 1 and math.isfinite(q)):
        raise ConfigurationError(f"q must be a finite real >= 1, got {q}")
    require(">= 0 and finite", m_inf=m_inf)
    grid = u.grid
    kernel = mixed_kernel(grid, alpha, time_to_tau(t, beta))
    diff = Field(grid, u.values - m_inf * kernel.values)
    norm = kernel_lq_norm(diff, q)
    if norm == 0.0:
        return 0.0
    exponent = (grid.dim / alpha) * (1.0 - 1.0 / q) * (beta + 1.0)
    with np.errstate(over="ignore"):
        weight = np.float64(t) ** exponent
        product = float(weight * norm if 0.0 < weight < np.inf
                        else np.exp(exponent * np.log(t) + np.log(norm)))
    if not 0.0 < product < math.inf:
        raise ConfigurationError(
            f"profile_error(m_inf={m_inf}, t={t}, alpha={alpha}, beta={beta}, q={q}): "
            f"t^{exponent:g} times the L^{q:g} distance {norm:g} leaves the float range")
    return product
