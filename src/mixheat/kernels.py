"""Heat-type kernels for the mixed local/nonlocal generator.

The three families are the Gaussian kernel of exp(t Lap), the isotropic
stable kernel of exp(-t (-Lap)^(alpha/2)), and their convolution, the
kernel of the full mixed flow. All grid kernels are built in frequency
space by applying the matching semigroup multiplier to the spectrum of a
discrete delta. That spectrum is known in closed form, +-1/dV, and the
product is formed in place bit for bit as the delta's forward transform
times the multiplier would give it, so a kernel costs one inverse
transform (grid._irfft, with no forward one); the product's factor
(1/dV)/N also carries the unnormalised inverse's exact 1/N (N the point
count). The multiplier is exactly 1 at the zero mode, which pins the
discrete mass to one, and by Poisson summation the grid kernel is the
periodization of the exact one.

A run of kernels on one grid (mixed_kernel_norms) builds one symbol and
one complex half-spectrum buffer. The kernel of every time but the last
is taken on the coarsest grid that grid's cut test allows under its
multiplier exp(-t m), as that grid's mixed_kernel, from a sub-block of the
one symbol. The multiplier falls as m rises, so it peaks on each band a
halving drops where m is least: the run reads those log2(n) - 4 minima
once, with nothing grid-sized allocated, and decides each time from their
exps, never forming a whole multiplier. At C04's nine times in [1e2, 1e3]
for alpha = 0.5 on 2^21 points the eight earlier times halve the grid 1,
1, 2, 3, 4, 5, 5 and 6 times, and L^1, L^2 and L^inf move by at most
2.2e-16, 2.2e-16 and 2.7e-13 relative from their full-grid values.
The last kernel, which the run returns, and any time that does not cut
stay on the full grid, and they come before any coarse one: numpy caches
a plan per transform length, and coarse plans made first sit under the
full transform's scratch, which lifted that run's ru_maxrss from 102.8 to
114.9 MiB. At its peak, during a full transform, the run holds the
symbol, the spectrum buffer, one kernel and numpy's transform scratch,
about five grids of float64 (_KERNEL_GRIDS); every kernel builder checks
that against grid's memory budget before it allocates anything grid-sized.

Quadrature inversions of the Fourier formulas, the cross-check oracles
for these kernels, live in `mixheat.oracles`, which no simulation module
imports.
"""

import logging
import math

import numpy as np

from .errors import ConfigurationError, NumericalFailureError, require
from .grid import (Field, GridSpec, SpectralSymbol, _band_reduce, _band_walk,
                   _check_grid_budget, _irfft, _lq_norm, apply_symbol, integral, make_symbol)

log = logging.getLogger(__name__)

# Kernels are exact-mass by construction; a deviation this large means
# the transform itself broke.
_MASS_FAILURE = 1e-4
_RIPPLE_REPORT = 1e-10

# Grid-sized float64 arrays a kernel run holds at its peak, during a
# full-grid transform (the first; a coarse one holds less): the symbol
# (half a grid), the complex spectrum buffer, the kernel and numpy's irfft
# scratch (about 2.5 grids in 1D). The ru_maxrss of mixed_kernel_norms
# over nine times, less the interpreter's, measured 5.07, 5.04 and 4.64
# grids on 2^21, 2^22 and 2^23 points in 1D and 4.17 and 4.04 on 1024^2
# and 2048^2 in 2D before the coarse kernels, which left the peak as it
# was on 2^21 points and 1024^2; 6 leaves a margin.
_KERNEL_GRIDS = 6


def _check_kernel(k: Field, label: str) -> float:
    """Raise if the kernel's mass is off, log its negative ripple, and
    return its sup norm max |k|."""
    mass = integral(k)
    if abs(mass - 1.0) > _MASS_FAILURE:
        raise NumericalFailureError(f"{label}: kernel mass {mass} deviates from 1")
    vmax = float(k.values.max())
    vmin = float(k.values.min())
    if vmin < -_RIPPLE_REPORT * vmax:
        log.warning("%s: negative ripple %.3e relative to peak %.3e", label, vmin, vmax)
    return max(vmax, -vmin)


def _kernel_run(grid: GridSpec, alpha: float, kind: str):
    """The symbol and a zeroed complex half-spectrum buffer for kernels on
    one grid, once the run is known to fit grid's memory budget."""
    _check_grid_budget(_KERNEL_GRIDS, grid, "points", "kernel")
    sym = make_symbol(grid, alpha, kind)
    return sym, np.zeros(sym.values.shape, dtype=complex)


def _delta_response(sym: SpectralSymbol, spectrum: np.ndarray, t: float,
                    out: np.ndarray = None, halvings: int = 0) -> Field:
    """exp(-t m(xi)) applied to the delta of sym's grid cut `halvings`
    times, bit for bit as apply_symbol would return it on that grid, into
    out (a fresh array if None).

    The cut grid keeps L, so its frequencies xi = pi k / L are the full
    grid's at the same k, and its symbol is a sub-block of sym's, bit for
    bit: a prefix in 1D, and in 2D the rows [0, n/2) and [N - n/2, N) of
    the first n/2 + 1 columns (n points on the cut grid, N on sym's). That
    block is gathered into the head of spectrum, where the transform runs.
    The delta sits at index n//2 on every axis, so its half spectrum is
    (1/dV) exp(-i pi sum k) = (-1)^(sum k) / dV, with k the FFT index on
    each axis, and a zero imaginary part. The block's real part is the
    multiplier times (1/dV)/n^dim, negated where sum k is odd (1/n^dim is
    the inverse's). Sign flips and powers of two are exact and
    multiplication commutes, so the product is the delta's forward
    transform times apply_symbol's multiplier, bit for bit. In 1D the
    transform leaves spectrum as it was, so its imaginary part must be
    zero on entry; in 2D the transform runs in spectrum, so the imaginary
    part is zeroed here.
    """
    grid = sym.grid
    if halvings:
        grid = GridSpec(grid.dim, grid.half_width, grid.points >> halvings)
    h = grid.points // 2
    block = spectrum[(slice(2 * h),) * (grid.dim - 1) + (slice(h + 1),)]
    product = block.real
    if grid.dim == 1:
        np.multiply(sym.values[:h + 1], -t, out=product)
    else:  # the leading axis's negative frequencies follow its positive ones
        np.multiply(sym.values[:h, :h + 1], -t, out=product[:h])
        np.multiply(sym.values[sym.grid.points - h:, :h + 1], -t, out=product[h:])
    np.exp(product, out=product)
    if out is None:
        out = np.empty(grid.shape)
    product *= 1.0 / grid.cell_volume / out.size
    product[..., 1::2] *= -1.0
    if grid.dim == 2:
        product[1::2] *= -1.0
        block.imag[...] = 0.0
    return Field(grid=grid, values=_irfft(grid, block, out=out))


def gaussian_kernel(grid: GridSpec, t: float) -> Field:
    """Pointwise Gaussian kernel (4 pi t)^(-N/2) exp(-|x|^2 / 4t)."""
    require("finite and > 0", t=t)
    coords = grid.coords()
    r2 = sum(c ** 2 for c in coords)
    v = (4.0 * np.pi * t) ** (-grid.dim / 2.0) * np.exp(-r2 / (4.0 * t))
    return Field(grid=grid, values=v)


def stable_kernel(grid: GridSpec, alpha: float, t: float) -> Field:
    """Stable kernel: semigroup multiplier exp(-t |xi|^alpha) on a delta."""
    require("finite and > 0", t=t)
    k = _delta_response(*_kernel_run(grid, alpha, "fractional"), t)
    _check_kernel(k, f"stable_kernel(alpha={alpha}, t={t})")
    return k


def mixed_kernel(grid: GridSpec, alpha: float, t: float) -> Field:
    """Kernel of the mixed flow: exp(-t (|xi|^2 + |xi|^alpha)) on a delta."""
    require("finite and > 0", t=t)
    k = _delta_response(*_kernel_run(grid, alpha, "mixed"), t)
    _check_kernel(k, f"mixed_kernel(alpha={alpha}, t={t})")
    return k


def mixed_kernel_norms(grid: GridSpec, alpha: float, times):
    """L^1, L^2 and L^inf norms of the mixed kernel at each time, and the
    kernel at the last time.

    Returns (norms, kernel): norms has shape (len(times), 3), its columns
    q = 1, 2, inf. The last time's kernel is mixed_kernel(grid, alpha, t)
    and its row is its kernel_lq_norm, bit for bit. Every other time's
    kernel is taken on the coarsest grid that the cut test allows under
    its multiplier exp(-t m), where it is the coarse grid's mixed_kernel;
    a time that does not cut keeps grid's bits, and each cut is decided from
    the symbol's band minima, read once. The run builds one symbol and one
    spectrum buffer; one scratch array serves each kernel's L^1 and L^2
    norms (grid._lq_norm's).
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ConfigurationError("times must hold at least one time")
    require("finite and > 0", times=times)
    sym, spectrum = _kernel_run(grid, alpha, "mixed")
    norms = np.empty((times.size, 3))

    def take_norms(row, k, t):
        top = row[2] = _check_kernel(k, f"mixed_kernel(alpha={alpha}, t={t})")
        work = np.empty_like(k.values)
        row[:2] = [_lq_norm(k.values, q, k.grid.cell_volume, top, work)
                   for q in (1.0, 2.0)]

    times = times.tolist()
    # each earlier time's cut; the multiplier is 1 at the zero mode
    minima = _band_reduce(grid, sym.values, np.minimum)
    cuts = [_band_walk(1.0, np.exp(np.multiply(minima, -t))) for t in times[:-1]] + [0]
    out = np.empty(grid.shape)
    # every full-grid kernel before any coarse one, the last time's last so
    # that it stays in out (see the module docstring)
    for row, t, halvings in zip(norms, times, cuts):
        if not halvings:
            last = _delta_response(sym, spectrum, t, out)
            take_norms(row, last, t)
    for row, t, halvings in zip(norms, times, cuts):
        if halvings:
            take_norms(row, _delta_response(sym, spectrum, t, halvings=halvings), t)
    return norms, last


def kernel_lq_norm(f: Field, q: float) -> float:
    """Discrete L^q norm with cell-volume weighting; q = inf gives max |f|.
    It is grid._lq_norm's, with one grid-sized temporary at most."""
    if not q >= 1:
        raise ConfigurationError(f"q must be >= 1 or inf, got {q}")
    return _lq_norm(f.values, q, f.grid.cell_volume)


def taylor_contraction_error(g: Field, t_list, alpha: float):
    """L^1 distance between E(t) * g and (mass of g) E(t) for each t.

    Returns (errors, x_moment) where x_moment = || |x| g ||_L1 is the
    first-moment factor appearing in the contraction bound
    C min(t^(-1/2), t^(-1/alpha)) * x_moment.
    """
    times = np.atleast_1d(np.asarray(t_list, dtype=float))
    require(">= 0 and finite", t_list=times)
    grid = g.grid
    sym, spectrum = _kernel_run(grid, alpha, "mixed")
    mass = integral(g)
    coords = grid.coords()
    radius = np.sqrt(sum(c ** 2 for c in coords))
    # |x| |g| = | |x| g |, bit for bit: a product's rounding keeps its sign
    x_moment = _lq_norm(np.multiply(radius, g.values, out=radius), 1.0,
                        grid.cell_volume, work=radius)
    del coords, radius

    def error(t):
        # |E(t) g - mass kernel| in the kernel's array; both arrays are
        # freed on return, before the next time's transforms need scratch
        smoothed = apply_symbol(g, sym, scale=t, mode="semigroup").values
        diff = _delta_response(sym, spectrum, t).values
        np.multiply(mass, diff, out=diff)
        np.subtract(smoothed, diff, out=diff)
        return _lq_norm(diff, 1.0, grid.cell_volume, work=diff)

    return np.array([error(t) for t in times]), x_moment


def stable_tail_constant(alpha: float, dim: int) -> float:
    """Far-field constant A in P_alpha(x, t) ~ A t |x|^(-N-alpha)."""
    require(alpha=alpha, dim=dim)
    return (alpha * 2.0 ** (alpha - 1.0) * np.pi ** (-(dim / 2.0 + 1.0))
            * math.sin(math.pi * alpha / 2.0)
            * math.gamma((dim + alpha) / 2.0) * math.gamma(alpha / 2.0))


def half_width_for_tail(alpha: float, t: float, dim: int,
                        tail_mass: float = 1e-8) -> float:
    """Box half-width so the exact stable tail mass stays below target.

    It grows like (t / tail_mass)^(1/alpha), a ConfigurationError past the
    float range. Size sup-norm runs by the wrapped peak contamination instead."""
    require("finite and > 0", t=t, tail_mass=tail_mass)
    alpha, t, tail_mass = float(alpha), float(t), float(tail_mass)  # raise on overflow
    a = stable_tail_constant(alpha, dim)
    if dim not in (1, 2):  # the surfaces below are the 1D and 2D ones
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}")
    surface = 2.0 if dim == 1 else 2.0 * np.pi
    ratio = surface * a * t / (alpha * tail_mass)
    try:  # where the ratio alone overflows (alpha > 1), its power in log space
        return ratio ** (1.0 / alpha) if ratio < math.inf else math.exp(
            (math.log(surface * a / alpha) + math.log(t) - math.log(tail_mass)) / alpha)
    except OverflowError:
        raise ConfigurationError(f"half_width_for_tail(alpha={alpha}, t={t}, dim={dim}, "
                                 f"tail_mass={tail_mass}) overflows the float range") from None
