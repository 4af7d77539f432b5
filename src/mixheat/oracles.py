"""Adaptive-quadrature oracles that cross-check the fast paths.

Two references live here:

  * the pointwise fractional Laplacian, evaluated from the symmetric
    second-difference form of the singular integral,

        (-Lap)^s v(x) = C(N, s) * (1/2) int (2 v(x) - v(x+y) - v(x-y)) / |y|^(N+2s) dy,

    with the piece below an inner cutoff replaced by its Taylor value so the
    second difference never hits float cancellation, and far tails handled
    by inversion. Its QUADPACK error budget makes it the reference for any
    profile, and the test suite checks the closed form
    `fractional.bracket_frac_laplacian` against it;
  * 1D heat kernels by direct Fourier-cosine quadrature, against which the
    lattice kernels of `kernels` are checked.

Import rule: this module may import the simulation modules, and no
simulation module imports it. The oracles therefore never feed the
simulation path, and `import mixheat.cli` loads neither `scipy.integrate`
nor `scipy.optimize`. The package exposes the public names here lazily.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ConfigurationError, NumericalFailureError, require
from .fractional import frac_constant

# Inner cutoff for the second-difference form. Below it the integrand is
# replaced by -phi''(x) y^(1-2s); the quartic Taylor remainder is then
# O(yc^(4-2s)) and the float cancellation in the second difference is
# avoided entirely.
_INNER_CUTOFF = 1e-3
# Absolute error budget of one pointwise evaluation: the QUADPACK estimates
# of its radial pieces must sum below it. The 2D angular mean over
# _ANGULAR_NODES midpoints is outside the budget; keep |x| moderate there.
_ABS_TOL = 1e-8
_ANGULAR_NODES = 64


# ---------------------------------------------------------------------------
# Pointwise fractional Laplacian.

def _fd_second_derivative(profile, x: float) -> float:
    h = 1e-4 * (1.0 + abs(x))
    return (profile(x + h) - 2.0 * profile(x) + profile(x - h)) / (h * h)


def _fd_laplacian_2d(profile, x: np.ndarray) -> float:
    h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    acc = -4.0 * profile(x)
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        acc += profile(x + e) + profile(x - e)
    return acc / (h * h)


def _pieces_1d(r: float, inner: float):
    """Breakpoints for the radial integration beyond the inner cutoff.

    The second difference has a localized feature at y = r (where x - y
    crosses the origin) whose width does not grow with r; geometric
    collars r +- 10^k keep it resolvable by adaptive quadrature on every
    subinterval, however large r is.
    """
    pts = {1.0, 10.0}
    if r > 1.0 + inner:
        pts.add(2.0 * r)
        collar = 1.0
        while collar <= r:
            if r - collar > inner:
                pts.add(r - collar)
            pts.add(r + collar)
            collar *= 10.0
    pts = sorted(p for p in pts if p > inner)
    far = max(pts)
    return pts, far


def frac_laplacian_pointwise(profile, s: float, x, dim: int = 1,
                             second_derivative=None,
                             laplacian=None) -> float:
    """Evaluate (-Lap)^s profile at a single point by adaptive quadrature;
    an error estimate above _ABS_TOL raises NumericalFailureError.

    Parameters
    ----------
    profile : callable
        For dim=1 a scalar function of a float (vector evaluation not
        required); for dim=2 a function of points shaped (..., 2).
    s : float
        Order in (0, 1).
    x : float or length-2 array
        Evaluation point.
    second_derivative, laplacian : callable, optional
        Analytic profile''(x) (dim=1) or Lap profile (dim=2) for the inner
        Taylor piece; finite differences are used when absent.
    """
    if dim == 1:
        x = float(x)
        r = abs(x)
        d2 = second_derivative(x) if second_derivative else _fd_second_derivative(profile, x)
        vx = profile(x)

        def g(y):
            return (2.0 * vx - profile(x + y) - profile(x - y)) / y ** (1.0 + 2.0 * s)

        curvature = -d2
        prefactor = frac_constant(1, s)
    elif dim == 2:
        x = np.asarray(x, dtype=float).reshape(2)
        r = float(np.linalg.norm(x))
        lap = laplacian(x) if laplacian else _fd_laplacian_2d(profile, x)
        vx = float(profile(x))
        theta = np.pi * (np.arange(_ANGULAR_NODES) + 0.5) / _ANGULAR_NODES
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)

        def g(y):
            pts_p = x + y * dirs
            pts_m = x - y * dirs
            mean = np.mean(profile(pts_p) + profile(pts_m))
            return (2.0 * vx - mean) / y ** (1.0 + 2.0 * s)

        curvature = -lap / 2.0
        # (1/2) int_{R^2} = pi int_0^inf y^(-1-2s) (angular mean) y... dy
        prefactor = frac_constant(2, s) * np.pi
    else:
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}")

    yc = _INNER_CUTOFF
    total = curvature * yc ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    err_budget = 0.0
    pts, far = _pieces_1d(r, yc)
    eps_piece = _ABS_TOL / (len(pts) + 2)
    lo = yc
    for b in pts:
        val, err = quad(g, lo, b, epsabs=eps_piece, epsrel=1e-10, limit=300)
        total += val
        err_budget += err
        lo = b
    # Tail via y -> 1/v; the endpoint power v^(2s-1) is integrable for s in (0,1).
    val, err = quad(lambda v: g(1.0 / v) / (v * v), 0.0, 1.0 / far,
                    epsabs=eps_piece, epsrel=1e-10, limit=300)
    total += val
    err_budget += err
    if err_budget > _ABS_TOL:
        raise NumericalFailureError(
            f"pointwise fractional Laplacian error estimate {err_budget:.2e} "
            f"exceeds budget {_ABS_TOL:.2e}")
    return prefactor * total


def scaling_check(profile, s: float, R: float, x, dim: int = 1,
                  second_derivative=None):
    """Both sides of the rescaling identity
    (-Lap)^s [profile(./R)](x) = R^(-2s) [(-Lap)^s profile](x/R),
    each evaluated independently by quadrature. Returns (lhs, rhs)."""
    require("finite and > 0", R=R)
    if dim == 1:
        scaled = lambda y: profile(y / R)
        scaled_d2 = (lambda y: second_derivative(y / R) / (R * R)) if second_derivative else None
        lhs = frac_laplacian_pointwise(scaled, s, x, dim=1,
                                       second_derivative=scaled_d2)
        rhs = R ** (-2.0 * s) * frac_laplacian_pointwise(
            profile, s, x / R, dim=1, second_derivative=second_derivative)
    else:
        scaled = lambda pts: profile(np.asarray(pts) / R)
        lhs = frac_laplacian_pointwise(scaled, s, x, dim=2)
        rhs = R ** (-2.0 * s) * frac_laplacian_pointwise(
            profile, s, np.asarray(x, dtype=float) / R, dim=2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Kernels by Fourier-cosine quadrature.

def _cosine_transform(symbol_exponent, x: float, t: float) -> float:
    """(1/pi) int_0^inf exp(-t * symbol(xi)) cos(x xi) dxi for 1D oracles."""
    require("finite and > 0", t=t)
    f = lambda xi: np.exp(-t * symbol_exponent(xi))
    # where t * symbol(xi) = level, found on log xi
    level_at = lambda level: math.exp(brentq(
        lambda u: t * symbol_exponent(math.exp(u)) - level, -200.0, 200.0))
    # The integrand is a peak of width xi*, where t * symbol(xi*) = 1, and
    # xi* moves over decades with t; in eta = xi / xi* the peak has unit
    # width, and a rule that samples [0, b] sees it.
    xi_star = level_at(1.0)
    w = abs(x)
    if w < 1e-12:
        val, err = quad(lambda eta: f(xi_star * eta), 0.0, np.inf, limit=400)
        val *= xi_star
    else:
        # QAWF Fourier integration; absolute accuracy only. Its first cycle,
        # [0, (2 floor(w) + 1) pi / w], would miss a narrower peak, which is
        # taken in eta with the finite-range cosine weight up to where the
        # integrand is e^-40 of its peak, or to that cycle's end.
        cycle = (2 * math.floor(w) + 1) * math.pi / w
        cut = min(level_at(40.0), cycle) if xi_star < cycle else 0.0
        val = xi_star * quad(lambda eta: f(xi_star * eta), 0.0, cut / xi_star,
                             weight="cos", wvar=w * xi_star, limit=400)[0]
        val += quad(f, cut, np.inf, weight="cos", wvar=w, limit=400)[0]
    if not np.isfinite(val):
        raise NumericalFailureError("kernel quadrature oracle diverged")
    return val / np.pi


def stable_kernel_quadrature(x: float, alpha: float, t: float) -> float:
    """1D stable kernel by direct Fourier-cosine quadrature (oracle)."""
    return _cosine_transform(lambda xi: xi ** alpha, x, t)


def mixed_kernel_quadrature(x: float, alpha: float, t: float) -> float:
    """1D mixed kernel by direct Fourier-cosine quadrature (oracle)."""
    return _cosine_transform(lambda xi: xi ** 2 + xi ** alpha, x, t)
