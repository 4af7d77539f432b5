"""Bracket test functions, their closed-form fractional Laplacian, and
the nonlinear-capacity integral.

The bracket family used by the capacity integral has a closed form for
(-Lap)^s in terms of the Gauss hypergeometric function 2F1(a, b; c; -r^2),
`bracket_frac_laplacian`, vectorized over radii. The module sums that 2F1
itself, `_hyp2f1_neg`, so the CLI loads no SciPy: a Pfaff series for
r <= 1; beyond it the connection formula in 1/(1 + r^2), in its
logarithmic form where q0 - N is an even integer. The adaptive-quadrature
reference for any profile, `frac_laplacian_pointwise`, lives in
`mixheat.oracles`; the test suite checks the closed form against it and
against 40-digit values.
"""

import math

import numpy as np

from .errors import ConfigurationError, NumericalFailureError, require
from .grid import _TINY, GridSpec, _check_grid_budget, _float_or_array


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

    elementwise in r (the form given by Dyda, FCAA 15, 2012), with the
    2F1 from `_hyp2f1_neg` and the prefactor from `_gamma_ratio`, which
    cannot overflow for large q0. Measured against 40-digit mpmath at 19
    (q0, s, N), r from 0 to 4e5, the 2F1 is good to a few 1e-16 relative
    (median) in each branch: the Pfaff series for r <= 1, the connection
    formula for r > 1, and its logarithmic form where q0 - N is an even
    integer, which holds 4e-15 at q0 = 15 and 40 out to r = 4e5. More than
    10 % in r from a zero of the value the worst error was 2e-14 (7e-14 in
    the logarithmic form at s = 0.05, whose zero lies at r = 2.2e4); nearer
    one, where the value is small against the terms that cancel into it, it
    reached 1.7e-13 (r <= 1) and 2.5e-13 (r > 1).
    """
    require("finite and > 0", s=s, dim=dim, q0=q0)
    r = np.asarray(r, dtype=float)
    a, b = q0 / 2.0 + s, dim / 2.0 + s
    prefactor = 4.0 ** s * _gamma_ratio((a, b), (q0 / 2.0, dim / 2.0))
    out = prefactor * _hyp2f1_neg(a, b, dim / 2.0, -s, r * r)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError(
            f"closed-form fractional Laplacian is not finite for q0={q0}, "
            f"s={s}, dim={dim}")
    return _float_or_array(out)


# A series ends at a term below this share of its first term; the terms
# after it shrink by a quarter or more each, so its tail is below 3 times it.
_SERIES_TOL = 2.0 ** -55
_LOG_SERIES_TOL = math.log(_SERIES_TOL)
# a - b this close to an integer is summed in the logarithmic form, which
# moves the value by about the gap relative; further out, the two connection
# series cancel to about 1e-16 / gap of their size.
_INTEGER_GAP = 1e-9


def _hyp2f1_neg(a, b, c, c_b, x):
    """2F1(a, b; c; -x) elementwise in an array x >= 0, for scalars a, b,
    c > 0 and c_b = c - b, given apart: at b = c + s the float c - b holds
    s only to ulp(c), and c - a is taken as c_b - (a - b). NaN where x is
    not finite. With a >= b (2F1 is symmetric in a and b):

    - x <= 1: (1 + x)^-a 2F1(a, c - b; c; w), w = x / (1 + x) <= 1/2, the
      Pfaff transform (Abramowitz & Stegun 15.3.4). Where c - a or c - b
      is 0, -1, -2, ..., the series with it ends: that polynomial in w
      then serves every x.
    - x > 1: `_connection`, in v = 1 / (1 + x) < 1/2.

    Each series runs over its variable in ascending order (`_series`), x
    sorted and put back; every output depends only on its own x.
    """
    c_a = c_b - (a - b)
    if a < b:
        a, b, c_a, c_b = b, a, c_b, c_a
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, axis=None)
    xs = x.ravel()[order]
    end = int(np.searchsorted(xs, np.inf))  # inf and NaN sort last
    p, c_q = (b, c_a) if _is_pole(c_a) else (a, c_b)
    near = end if _is_pole(c_q) else int(np.searchsorted(xs, 1.0, side="right"))
    out = np.full(xs.size, np.nan)

    u = 1.0 + xs[:near]
    out[:near] = _series(xs[:near] / u, lambda n: (p + n) * (c_q + n)
                         / ((c + n) * (n + 1)))
    out[:near] *= u ** -p
    if near < end:
        out[near:end] = _connection(a, b, c, c_a, c_b, 1.0 + xs[near:end][::-1])[::-1]
    xs[order] = out  # back in the order of x, in a buffer no longer needed
    return xs.reshape(x.shape)


def _connection(a, b, c, c_a, c_b, u):
    """2F1(a, b; c; 1 - u) for a >= b, neither c_a = c - a nor c_b = c - b
    in 0, -1, -2, ..., and u = 1 + x > 2 descending, so v = 1/u ascends:
    the connection formula (DLMF 15.8.2 written in 1/(1 - z); A&S 15.3.8),

        G(c, b - a; b, c - a) v^a 2F1(a, c - b; a - b + 1; v)
        + G(c, a - b; a, c - b) v^b 2F1(b, c - a; b - a + 1; v),

    with G(p, q; r, t) = Gamma(p) Gamma(q) / (Gamma(r) Gamma(t)). Where
    a - b = m is an integer, the Pfaff transform, then the logarithmic form
    of its 1 - w connection (A&S 15.3.10, 15.3.12):

        G(m, c; a, c - b) v^b sum_(n<m) (b)_n (c - a)_n / (n! (1 - m)_n) v^n
        - (-1)^m Gamma(c) / (Gamma(b) Gamma(c - a)) v^a
          sum_n (a)_n (c - b)_n / (n! (n + m)!) v^n
            (ln v + psi(a + n) + psi(c - b + n) - psi(n + 1) - psi(n + m + 1)).
    """
    v = 1.0 / u
    m = round(a - b)
    if abs(a - b - m) > _INTEGER_GAP:
        value = _series(v, lambda n: (a + n) * (c_b + n) / ((a - b + 1 + n) * (n + 1)))
        value *= u ** -a
        value *= _gamma_ratio((c, b - a), (b, c_a))
        head = _series(v, lambda n: (b + n) * (c_a + n) / ((b - a + 1 + n) * (n + 1)))
        head *= _gamma_ratio((c, a - b), (a, c_b))
    else:
        plain, value = _series(
            v, lambda n: (a + n) * (c_b + n) / ((n + 1) * (n + m + 1)),
            shift=lambda n: (_digamma(a + n) + _digamma(c_b + n)
                             - _digamma(n + 1.0) - _digamma(n + m + 1.0)))
        plain *= np.log(u)
        value -= plain
        del plain
        value *= u ** -a
        # 1/Gamma(c - a) as (c_b - 1) ... (c_b - m) / Gamma(c_b): no float
        # holds c - a as near a pole as c_b stands, for small s
        value *= (-(-1) ** m * math.prod(c_b - k for k in range(1, m + 1))
                  * _gamma_ratio((c,), (b, c_b, m + 1.0)))
        if not m:
            return value
        head = _series(v, lambda n: ((b + n) * (c_a + n) / ((1 - m + n) * (n + 1))
                                     if n < m - 1 else 0.0))
        head *= _gamma_ratio((m, c), (a, c_b))
    head *= u ** -b
    value += head
    return value


def _series(z, ratio, shift=None):
    """sum_n c_n z^n elementwise in z, sorted in ascending order in [0, 1/2]
    (or in [0, 1) where ratio reaches 0 and the series ends), with c_0 = 1
    and c_(n+1) = c_n ratio(n); with shift, the pair of sums of c_n z^n and
    of c_n shift(n) z^n.

    An element takes terms up to the first n >= 1 at which both
    |c_n| (1 + |shift(n)|) z^n <= _SERIES_TOL and |ratio(n)| z <= 3/4,
    a test on its own z alone: so each output depends on nothing else, and
    the elements still summing are a suffix of z, the only part touched.
    """
    total = np.ones_like(z)
    t = np.ones_like(z)
    weighted = np.full_like(z, shift(0)) if shift else None
    j, n, log_c, rho = 0, 0, 0.0, ratio(0)
    while j < z.size and rho:
        t[j:] *= z[j:]
        t[j:] *= rho
        total[j:] += t[j:]
        n += 1
        log_c += math.log(abs(rho))
        d = 0.0
        if shift:
            d = shift(n)
            weighted[j:] += d * t[j:]
        rho = ratio(n)
        ends = math.exp(min(0.0, (_LOG_SERIES_TOL - log_c - math.log1p(abs(d))) / n))
        if rho:
            ends = min(ends, 0.75 / abs(rho))
        j = max(j, int(np.searchsorted(z, ends, side="right")))
    return (total, weighted) if shift else total


def _gamma_ratio(top, bottom):
    """prod Gamma(top) / prod Gamma(bottom) at scalar arguments, 0 where a
    bottom argument is a pole. Where every argument is below 40 in size it
    is a product of math.gamma values, each good to a few ulps; beyond, it
    comes from math.lgamma with the sign kept, so no factor can overflow."""
    if any(_is_pole(y) for y in bottom):
        return 0.0
    if all(abs(y) < 40.0 for y in top + bottom):
        return math.prod(map(math.gamma, top)) / math.prod(map(math.gamma, bottom))
    sign, log = 1.0, 0.0
    for y, power in [(y, 1) for y in top] + [(y, -1) for y in bottom]:
        log += power * math.lgamma(y)
        if y < 0 and math.floor(y) % 2:
            sign = -sign
    return sign * math.exp(log)


def _is_pole(y):
    """Whether Gamma has a pole at y: 0, -1, -2, ..."""
    return y <= 0 and y == math.floor(y)


def _digamma(x):
    """psi(x) at a scalar x that is not a pole: psi(x) = psi(x + 1) - 1/x up
    to x >= 10, then the asymptotic series through x^-14, whose next term
    is below 5e-17 there."""
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    return (shift + math.log(x) - 0.5 / x
            - y * (1 / 12 - y * (1 / 120 - y * (1 / 252 - y * (1 / 240 - y * (
                1 / 132 - y * (691 / 32760 - y / 12)))))))


# ---------------------------------------------------------------------------
# Capacity integral.

# Lattice-sized float64 arrays a capacity run holds at its peak: its ru_maxrss,
# less the interpreter's, read 5.7-5.9 in 1D (2^17-2^21 points), 2.5-2.8 in 2D.
_CAPACITY_GRIDS = 7
_LOG_MAX = math.log(np.finfo(float).max)
# The least capacity box: the tail window's radii sqrt(sum (k dy)^2) exceed
# r_edge / 10 >= L / 12 (on 16 points or more), so their squares stay normal.
_NARROWEST = 12.0 * math.sqrt(_TINY)
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
        # the tail fit needs 4 points of the window (7 or more) that did not underflow to 0
        underflows = np.count_nonzero(f_window) < 4 or cell_volume == math.inf
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
    keeps every factor of the integrand in the float range (below 1e154) and
    whose tail window's radii keep normal squares (from 1.79e-153 up)."""
    require(p=p, alpha=alpha, dim=dim)
    if not dim < q0 < dim + alpha * p:
        raise ConfigurationError(
            f"q0={q0} outside the admissible window ({dim}, {dim + alpha * p}) "
            f"for dim={dim}, alpha={alpha}, p={p}")
    weight_power = 1.0 / (p - 1.0)  # Phi^(-1/(p-1)) = <y>^(q0 weight_power)
    reach = min(_LOG_MAX / (q0 / 2.0 * max(1.0, weight_power)),
                _LOG_MAX - math.log(q0 + 2.0)) - 1.0  # largest safe log(1 + r^2), less 1
    if not reach > 0 and weight_power > 1.0:  # within |y| = sqrt(e - 1)
        raise ConfigurationError(
            f"p must be above {1.0 + q0 / (2.0 * _LOG_MAX):.6g} for q0={q0}: nearer 1 the "
            f"weight Phi^(-1/(p-1)) leaves the float range on any box, got {p}")
    if not reach > 0:
        raise ConfigurationError(
            f"q0 must be below {2.0 * _LOG_MAX:.6g}, beyond which Phi underflows on any "
            f"box, got {q0}")
    widest = math.sqrt(math.expm1(reach) / dim)
    if not _NARROWEST <= half_width:
        raise ConfigurationError(
            f"capacity_half_width must be at least {_NARROWEST:.6g}, below which the squares "
            f"of the tail window's radii leave the normal float range, got {half_width}")
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
    x -= np.add.reduce(x) / x.size
    y -= np.add.reduce(y) / y.size
    return float(np.add.reduce(x * y) / np.add.reduce(x * x))
