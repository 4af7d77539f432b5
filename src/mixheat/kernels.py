"""Heat-type kernels for the mixed local/nonlocal generator.

The three families are the Gaussian kernel of exp(t Lap), the isotropic
stable kernel of exp(-t (-Lap)^(alpha/2)), and their convolution, the
kernel of the full mixed flow. All grid kernels are built in frequency
space by applying the matching semigroup multiplier to the spectrum of a
discrete delta. That spectrum is known in closed form (grid's
_delta_spectrum equals the delta's forward transform bit for bit), so a
kernel costs one inverse transform. The multiplier is exactly 1 at the zero mode,
which pins the discrete mass to one, and by Poisson summation the grid
kernel is the periodization of the exact one.

Quadrature inversions of the Fourier formulas, the cross-check oracles
for these kernels, live in `mixheat.oracles`, which no simulation module
imports.
"""

import logging
import math

import numpy as np

from .errors import ConfigurationError, NumericalFailureError, require
from .grid import (Field, GridSpec, SpectralSymbol, _delta_spectrum,
                   _spectral_apply, apply_symbol, integral, make_symbol)

log = logging.getLogger(__name__)

# Kernels are exact-mass by construction; a deviation this large means
# the transform itself broke.
_MASS_FAILURE = 1e-4
_RIPPLE_REPORT = 1e-10


def _check_kernel(k: Field, label: str) -> Field:
    mass = integral(k)
    if abs(mass - 1.0) > _MASS_FAILURE:
        raise NumericalFailureError(f"{label}: kernel mass {mass} deviates from 1")
    vmax = float(k.values.max())
    vmin = float(k.values.min())
    if vmin < -_RIPPLE_REPORT * vmax:
        log.warning("%s: negative ripple %.3e relative to peak %.3e", label, vmin, vmax)
    return k


def _delta_response(sym: SpectralSymbol, t: float) -> Field:
    """exp(-t m(xi)) applied to the grid delta, bit for bit as apply_symbol
    would return it, from the delta's closed-form half spectrum."""
    grid = sym.grid
    values = _spectral_apply(grid, None, np.exp(-t * sym.values),
                             spectrum=_delta_spectrum(grid))
    return Field(grid=grid, values=values)


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
    k = _delta_response(make_symbol(grid, alpha, kind="fractional"), t)
    return _check_kernel(k, f"stable_kernel(alpha={alpha}, t={t})")


def mixed_kernel(grid: GridSpec, alpha: float, t: float) -> Field:
    """Kernel of the mixed flow: exp(-t (|xi|^2 + |xi|^alpha)) on a delta."""
    require("finite and > 0", t=t)
    k = _delta_response(make_symbol(grid, alpha, kind="mixed"), t)
    return _check_kernel(k, f"mixed_kernel(alpha={alpha}, t={t})")


def kernel_lq_norm(f: Field, q: float) -> float:
    """Discrete L^q norm with cell-volume weighting; q = inf gives max |f|.

    One grid-sized temporary at most: |f|^q is formed in place.
    """
    v = f.values
    if q == np.inf:
        return float(max(v.max(), -v.min()))
    if not q >= 1:
        raise ConfigurationError(f"q must be >= 1 or inf, got {q}")
    w = np.abs(v)
    np.power(w, q, out=w)
    return float((np.sum(w) * f.grid.cell_volume) ** (1.0 / q))


def taylor_contraction_error(g: Field, t_list, alpha: float):
    """L^1 distance between E(t) * g and (mass of g) E(t) for each t.

    Returns (errors, x_moment) where x_moment = || |x| g ||_L1 is the
    first-moment factor appearing in the contraction bound
    C min(t^(-1/2), t^(-1/alpha)) * x_moment.
    """
    times = np.atleast_1d(np.asarray(t_list, dtype=float))
    require(">= 0 and finite", t_list=times)
    grid = g.grid
    sym = make_symbol(grid, alpha, kind="mixed")
    mass = integral(g)
    coords = grid.coords()
    radius = np.sqrt(sum(c ** 2 for c in coords))
    x_moment = float(np.sum(radius * np.abs(g.values)) * grid.cell_volume)
    errors = []
    for t in times:
        smoothed = apply_symbol(g, sym, scale=t, mode="semigroup")
        kern = _delta_response(sym, t)
        diff = smoothed.values - mass * kern.values
        errors.append(float(np.sum(np.abs(diff)) * grid.cell_volume))
    return np.array(errors), x_moment


def stable_tail_constant(alpha: float, dim: int) -> float:
    """Far-field constant A in P_alpha(x, t) ~ A t |x|^(-N-alpha)."""
    require(alpha=alpha, dim=dim)
    return (alpha * 2.0 ** (alpha - 1.0) * np.pi ** (-(dim / 2.0 + 1.0))
            * math.sin(math.pi * alpha / 2.0)
            * math.gamma((dim + alpha) / 2.0) * math.gamma(alpha / 2.0))


def stable_tail_mass(alpha: float, t: float, half_width: float, dim: int) -> float:
    """Asymptotic stable-kernel mass outside the box [-L, L)^N."""
    require("finite and > 0", t=t, half_width=half_width)
    a = stable_tail_constant(alpha, dim)
    surface = 2.0 if dim == 1 else 2.0 * np.pi
    return surface * a * t * half_width ** (-alpha) / alpha


def half_width_for_tail(alpha: float, t: float, dim: int,
                        tail_mass: float = 1e-8) -> float:
    """Box half-width so the exact stable tail mass stays below target.

    For small alpha and large t this grows like (t / tail_mass)^(1/alpha)
    and can be impractically large; callers sizing sup-norm experiments
    should bound the wrapped peak contamination instead.
    """
    require("finite and > 0", t=t, tail_mass=tail_mass)
    a = stable_tail_constant(alpha, dim)
    surface = 2.0 if dim == 1 else 2.0 * np.pi
    return (surface * a * t / (alpha * tail_mass)) ** (1.0 / alpha)
