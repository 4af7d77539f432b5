"""Bracket test functions, their closed-form fractional Laplacian, and
the nonlinear-capacity integral.

The bracket family used by the capacity integral has a closed form for
(-Lap)^s in terms of the Gauss hypergeometric function,
`bracket_frac_laplacian`, vectorized over radii. The adaptive-quadrature
reference for any profile, `frac_laplacian_pointwise`, lives in
`mixheat.oracles`; the test suite checks the closed form against it.
"""

import math

import numpy as np
from scipy.special import gammaln, hyp2f1

from .errors import ConfigurationError, NumericalFailureError, require
from .grid import GridSpec, _float_or_array
from .solver import _check_grid_budget


def frac_constant(dim: int, s: float) -> float:
    """Normalization C(N, s) = s 4^s Gamma(N/2 + s) / (pi^(N/2) Gamma(1 - s)),
    the constant that makes the singular integral match the |xi|^(2s) symbol."""
    require(s=s, dim=dim)
    return (s * 4.0 ** s * math.gamma(dim / 2.0 + s)
            / (math.pi ** (dim / 2.0) * math.gamma(1.0 - s)))


def bracket_profile(x, q0: float):
    """Japanese-bracket power <x>^(-q0) = (1 + |x|^2)^(-q0/2), elementwise in x."""
    require("finite and > 0", q0=q0)
    x = np.asarray(x, dtype=float)
    out = (1.0 + x * x) ** (-q0 / 2.0)
    return _float_or_array(out)


def bracket_laplacian(r, q0: float, dim: int):
    """Exact Laplacian of the radial profile <x>^(-q0) in R^dim at radius r."""
    require("finite and > 0", dim=dim, q0=q0)
    r = np.asarray(r, dtype=float)
    u = 1.0 + r * r
    out = q0 * u ** (-q0 / 2.0 - 2.0) * ((q0 + 2.0 - dim) * r * r - dim)
    return _float_or_array(out)


def bracket_frac_laplacian(r, q0: float, s: float, dim: int):
    """Exact (-Lap)^s of the radial profile <x>^(-q0) in R^dim at radius r,

        4^s Gamma(q0/2 + s) Gamma(N/2 + s) / (Gamma(q0/2) Gamma(N/2))
            * 2F1(q0/2 + s, N/2 + s; N/2; -r^2),

    elementwise in r (the form given by Dyda, FCAA 15, 2012). The
    prefactor is built from log-gamma so large q0 cannot overflow.
    Against 30-digit arithmetic it is good to ~1e-14 relative for r up to
    3e4; where q0 - N is an even integer (the logarithmic case of the
    large-r connection formula) to ~3e-8.
    """
    require("finite and > 0", s=s, dim=dim, q0=q0)
    r = np.asarray(r, dtype=float)
    a = q0 / 2.0 + s
    # b = N/2 + s, written so that a - b is exactly (q0 - N)/2: when that is
    # an integer, hyp2f1 must see it as one or its connection formula
    # divides by a near-zero gamma reciprocal.
    b = a - (q0 - dim) / 2.0
    log_pre = (s * math.log(4.0) + gammaln(a) + gammaln(dim / 2.0 + s)
               - gammaln(q0 / 2.0) - gammaln(dim / 2.0))
    out = math.exp(log_pre) * hyp2f1(a, b, dim / 2.0, -r * r)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError(
            f"closed-form fractional Laplacian is not finite for q0={q0}, "
            f"s={s}, dim={dim}")
    return _float_or_array(out)


# ---------------------------------------------------------------------------
# Capacity integral.

# Lattice-sized float64 arrays a capacity run holds at its peak: its ru_maxrss,
# less the interpreter's, read 5.7-5.9 in 1D (2^17-2^21 points), 2.5-2.8 in 2D.
_CAPACITY_GRIDS = 7
_LOG_MAX = math.log(np.finfo(float).max)
_TINY = np.finfo(float).tiny
# log 2^-1075: the most a power that rounds below _TINY is off by
_LOG_HALF_SUBNORMAL = -1075 * math.log(2.0)


def capacity_integral(q0: float, p: float, alpha: float, grid: GridSpec,
                      scales) -> list:
    """int Phi^(-1/(p-1)) |(-Lap + (-Lap)^(alpha/2)) Phi|^(p/(p-1)) dx with
    Phi = <x/(B R)>^(-q0), for each product B R in scales, as a list.

    `grid` is the scaled grid, y = x/(B R) on [-L, L)^N, where the closed
    forms (`bracket_laplacian`, `bracket_frac_laplacian`) and the weight
    Phi^(-1/(p-1)) do not depend on B R: they are evaluated once, on the
    orthant k * spacing, k = 0..n/2 per axis. Per B R the operator parts are
    weighed by (B R)^-2 and (B R)^-alpha, reflected onto the lattice by
    |-n/2..n/2-1|, summed in lattice order and scaled by the cell volume of
    the physical grid, (2 B R L / n)^N: for B R a power of two, the
    full-lattice sum in x to the bit. Each tail extrapolated past the box
    edge must be below 1e-6 of its total; the tail is integrated in y and
    the total in x, so this bounds the physical tail share by 1e-6 (B R)^N.
    Where |operator part|^(p/(p-1)) falls below the smallest normal float it
    is off by up to its own size or 2^-1075, whichever is less; weighed and
    counted up to 2^N times on the lattice, that loss must stay below 1e-6
    of the total as well.
    """
    dim, half = grid.dim, grid.points // 2
    _check_capacity_box(q0, p, alpha, dim, grid.half_width)
    scales = np.array(scales, dtype=float)
    require("finite and >= 1", scales=scales)
    _check_grid_budget(_CAPACITY_GRIDS, grid, "capacity_points", "capacity")
    radius = np.sqrt(sum(c ** 2 for c in np.meshgrid(
        *(np.arange(half + 1, dtype=float) * grid.spacing,) * dim, indexing="ij")))
    frac_part = bracket_frac_laplacian(radius, q0, alpha / 2.0, dim)
    neg_lap_part = -bracket_laplacian(radius, q0, dim)
    weight = bracket_profile(radius, q0) ** (-1.0 / (p - 1.0))
    fold = np.ix_(*(np.abs(np.arange(-half, half)),) * dim)
    # the tail guard's window r > r_edge / 10 on the positive half axis
    axis = (slice(0, half),) + (0,) * (dim - 1)
    r_edge = float(radius[axis][-1])
    window = radius[axis] > r_edge / 10.0
    log_r = np.log(radius[axis][window])
    del radius

    totals = []
    for scale in scales.tolist():
        integrand = np.abs(scale ** (-2.0) * neg_lap_part + scale ** (-alpha) * frac_part)
        log_lost = _log_underflow_loss(weight, integrand, p / (p - 1.0))
        integrand **= p / (p - 1.0)
        integrand *= weight
        try:  # GridSpec's cell volume for the physical box B R L
            cell_volume = (2.0 * (scale * grid.half_width) / grid.points) ** dim
        except OverflowError:
            cell_volume = math.inf
        lattice_sum = float(np.sum(integrand[fold]))
        totals.append(lattice_sum * cell_volume)
        f_window = integrand[axis][window]
        # the tail fit needs 4 points of the window that did not underflow to 0
        underflows = (np.count_nonzero(f_window) < min(4, f_window.size)
                      or cell_volume == math.inf)
        if not underflows:
            try:
                _check_capacity_tail(log_r, f_window, r_edge, dim, totals[-1])
            except ConfigurationError:
                # a fit rejected over subnormal values is bent by the underflow
                if not np.any((f_window > 0) & (f_window < _TINY)):
                    raise
                underflows = True
        if underflows:
            raise ConfigurationError(
                f"capacity_radii gives B*R = {scale:g}, so large that the capacity "
                "integrand underflows to 0 in its tail or its cell volume overflows")
        # each orthant point is met up to 2^N times on the lattice
        if dim * math.log(2.0) + log_lost - math.log(lattice_sum) > math.log(1e-6):
            raise ConfigurationError(
                f"capacity_radii gives B*R = {scale:g}, so large that the capacity "
                "integrand may lose more than 1e-6 of its sum to underflow")
        del integrand, f_window  # before the next B R builds its own
    return totals


def _check_capacity_box(q0, p, alpha, dim, half_width) -> None:
    """Check p, alpha, dim, q0 in (dim, dim + alpha p), and a box whose corner
    keeps every factor of the integrand in the float range (below 1e154)."""
    require(p=p, alpha=alpha, dim=dim)
    if not dim < q0 < dim + alpha * p:
        raise ConfigurationError(
            f"q0={q0} outside the admissible window ({dim}, {dim + alpha * p}) "
            f"for dim={dim}, alpha={alpha}, p={p}")
    reach = min(_LOG_MAX / (q0 / 2.0 * max(1.0, 1.0 / (p - 1.0))),
                _LOG_MAX - math.log(q0 + 2.0)) - 1.0  # largest safe log(1 + r^2), less 1
    widest = math.sqrt(math.expm1(reach) / dim)
    if not half_width <= widest:
        raise ConfigurationError(
            f"capacity_half_width must be at most {widest:.6g} for q0={q0}, p={p}, "
            f"dim={dim}, beyond which a factor of the integrand leaves the float "
            f"range at the box corner, got {half_width}")


def _log_underflow_loss(weight, part, e):
    """log of a bound on what sum(weight * part**e) loses where part**e falls
    below the smallest normal float: min(part**e, 2^-1075) per point, taken
    in log space since it underflows too; -inf where nothing is lost."""
    floor = (2.0 * _TINY) ** (1.0 / e)  # each power below _TINY, and a margin
    if not part.min() < floor:  # one pass and no array where nothing is lost
        return -math.inf
    low = part < floor
    with np.errstate(divide="ignore"):  # a zero part loses nothing: log 0 = -inf
        loss = np.log(weight[low]) + np.minimum(e * np.log(part[low]), _LOG_HALF_SUBNORMAL)
    top = float(loss.max(initial=-math.inf))
    if top == -math.inf:
        return top
    return top + math.log(float(np.sum(np.exp(loss - top))))


def _check_capacity_tail(log_r, f_window, r_edge, dim, total):
    """Extrapolate the integrand `f_window`, sampled where `log_r` holds log r,
    past the box edge r_edge; its tail (in y) must stay below 1e-6 of `total`."""
    slope = _tail_slope(log_r, f_window)
    if slope + dim >= -0.1:
        raise ConfigurationError(
            f"capacity integrand decays too slowly (slope {slope:.2f}) "
            "for a convergent tail; widen the box")
    surface = 2.0 if dim == 1 else 2.0 * np.pi * r_edge
    tail = surface * float(f_window[-1]) * r_edge / (-(slope + dim))
    if tail > 1e-6 * total:
        raise ConfigurationError(
            f"capacity tail estimate {tail:.3e} exceeds 1e-6 of the integral "
            f"{total:.3e}; widen the box relative to B*R")


def _tail_slope(log_r, f):
    """Least-squares slope of log f on log r where f > 0, by centred sums."""
    x, y = log_r[f > 0], np.log(f[f > 0])
    if x.size < 4:
        raise ConfigurationError("capacity grid too coarse for a tail estimate")
    x -= np.add.reduce(x) / x.size
    y -= np.add.reduce(y) / y.size
    return float(np.add.reduce(x * y) / np.add.reduce(x * x))
