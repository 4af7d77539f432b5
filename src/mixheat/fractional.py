"""Bracket test functions, their closed-form fractional Laplacian, and
the nonlinear-capacity integral.

The bracket family used by the capacity integral has a closed form for
(-Lap)^s in terms of the Gauss hypergeometric function,
`bracket_frac_laplacian`, vectorized over radii. The adaptive-quadrature
reference for any profile, `frac_laplacian_pointwise`, lives in
`mixheat.oracles`; the test suite checks the closed form against it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, hyp2f1

from .errors import ConfigurationError, NumericalFailureError
from .grid import GridSpec, _float_or_array


def frac_constant(dim: int, s: float) -> float:
    """Normalization C(N, s) = s 4^s Gamma(N/2 + s) / (pi^(N/2) Gamma(1 - s)),
    the constant that makes the singular integral match the |xi|^(2s) symbol."""
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"s must be in (0, 1), got {s}")
    return (s * 4.0 ** s * math.gamma(dim / 2.0 + s)
            / (math.pi ** (dim / 2.0) * math.gamma(1.0 - s)))


def bracket_profile(x, scale: float, q0: float):
    """Japanese-bracket power (1 + |x/scale|^2)^(-q0/2), elementwise in x."""
    if not scale > 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    x = np.asarray(x, dtype=float) / scale
    out = (1.0 + x * x) ** (-q0 / 2.0)
    return _float_or_array(out)


def bracket_second_derivative(x, q0: float):
    """Exact d^2/dx^2 of <x>^(-q0) in one dimension."""
    x = np.asarray(x, dtype=float)
    u = 1.0 + x * x
    out = q0 * u ** (-q0 / 2.0 - 2.0) * ((q0 + 1.0) * x * x - 1.0)
    return _float_or_array(out)


def bracket_laplacian(r, q0: float, dim: int):
    """Exact Laplacian of the radial profile <x>^(-q0) in R^dim at radius r."""
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
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"s must be in (0, 1), got {s}")
    if not q0 > 0:
        raise ConfigurationError(f"q0 must be positive, got {q0}")
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


def psi_ramp(r, kind: str = "cos2"):
    """Time cutoff: 1 on [0, 1], ramps C^1-smoothly to 0 on [1, 2]."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    if kind == "cos2":
        out = np.cos(np.pi * u / 2.0) ** 2
    elif kind == "cubic":
        out = 1.0 - u * u * (3.0 - 2.0 * u)
    else:
        raise ConfigurationError(f"unknown ramp kind {kind!r}")
    out = np.where(r <= 1.0, 1.0, np.where(r >= 2.0, 0.0, out))
    return _float_or_array(out)


def psi_ramp_derivative(r, kind: str = "cos2"):
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    if kind == "cos2":
        out = -(np.pi / 2.0) * np.sin(np.pi * u)
    elif kind == "cubic":
        out = -6.0 * u * (1.0 - u)
    else:
        raise ConfigurationError(f"unknown ramp kind {kind!r}")
    out = np.where((r <= 1.0) | (r >= 2.0), 0.0, out)
    return _float_or_array(out)


# ---------------------------------------------------------------------------
# Capacity integral.

@dataclass(frozen=True)
class TestFunctionSpec:
    """Rescaled bracket test function <x/(B R)>^(-q0) with its ramp data.

    ell = (2p - 1)/(p - 1) is the ramp power that keeps the time cutoff
    compatible with the Hoelder split in the capacity estimate.
    """

    q0: float
    B: float
    R: float
    ell: float
    ramp: str


def make_test_function_spec(q0: float, B: float, R: float, p: float,
                            alpha: float, dim: int,
                            ramp: str = "cos2") -> TestFunctionSpec:
    _validate_capacity_window(q0, p, alpha, dim)
    if not (B >= 1 and R >= 1):
        raise ConfigurationError(f"B and R must be >= 1, got B={B}, R={R}")
    psi_ramp(0.0, kind=ramp)  # validates the ramp name
    return TestFunctionSpec(q0=float(q0), B=float(B), R=float(R),
                            ell=(2.0 * p - 1.0) / (p - 1.0), ramp=ramp)


def _validate_capacity_window(q0, p, alpha, dim):
    if not (p > 1 and math.isfinite(p)):
        raise ConfigurationError(f"p must be finite and > 1, got {p}")
    if not 0 < alpha < 2:
        raise ConfigurationError(f"alpha must be in (0, 2), got {alpha}")
    if not dim < q0 < dim + alpha * p:
        raise ConfigurationError(
            f"q0={q0} outside the admissible window ({dim}, {dim + alpha * p}) "
            f"for dim={dim}, alpha={alpha}, p={p}")


def capacity_integral(spec: TestFunctionSpec, p: float, alpha: float,
                      grid: GridSpec) -> float:
    """int Phi_R^(-1/(p-1)) |(-Lap + (-Lap)^(alpha/2)) Phi_R|^(p/(p-1)) dx
    on the grid, with Phi_R = <x/(B R)>^(-q0).

    Both operator parts are closed forms at the scaled radii
    (`bracket_laplacian`, `bracket_frac_laplacian`), in one and two
    dimensions alike. The grid must be wide enough that the extrapolated
    integrand tail is below 1e-6 of the total.
    """
    dim = grid.dim
    _validate_capacity_window(spec.q0, p, alpha, dim)
    scale = spec.B * spec.R
    q0 = spec.q0
    coords = grid.coords()
    radius = np.sqrt(sum(c ** 2 for c in coords)) / scale

    frac_part = bracket_frac_laplacian(radius, q0, alpha / 2.0, dim)
    neg_lap_part = -bracket_laplacian(radius, q0, dim)
    phi = bracket_profile(radius, 1.0, q0)
    symbol_term = scale ** (-2.0) * neg_lap_part + scale ** (-alpha) * frac_part
    integrand = phi ** (-1.0 / (p - 1.0)) * np.abs(symbol_term) ** (p / (p - 1.0))
    total = float(np.sum(integrand) * grid.cell_volume)

    _check_capacity_tail(radius, integrand, dim, total)
    return total


def _check_capacity_tail(radius, integrand, dim, total):
    """Extrapolate the radial integrand decay past the box edge and demand
    the tail stay below 1e-6 of the computed integral."""
    if dim == 1:
        half = radius.size // 2
        r_axis = radius[half:]
        f_axis = integrand[half:]
    else:
        half = radius.shape[0] // 2
        r_axis = radius[half:, half]
        f_axis = integrand[half:, half]
    r_edge = float(r_axis[-1])
    window = (r_axis > r_edge / 10.0) & (f_axis > 0)
    if window.sum() < 4:
        raise ConfigurationError("capacity grid too coarse for a tail estimate")
    slope = np.polyfit(np.log(r_axis[window]), np.log(f_axis[window]), 1)[0]
    if slope + dim >= -0.1:
        raise ConfigurationError(
            f"capacity integrand decays too slowly (slope {slope:.2f}) "
            "for a convergent tail; widen the box")
    f_edge = float(f_axis[-1])
    surface = 2.0 if dim == 1 else 2.0 * np.pi * r_edge
    tail = surface * f_edge * r_edge / (-(slope + dim))
    if tail > 1e-6 * total:
        raise ConfigurationError(
            f"capacity tail estimate {tail:.3e} exceeds 1e-6 of the integral "
            f"{total:.3e}; widen the box relative to B*R")


def time_factor_integral(p: float, beta: float, kind: str = "cos2") -> float:
    """int_0^2 eta^(beta/((beta+1)(p-1))) psi(eta) |psi'(eta)|^(p/(p-1)) d eta.

    Finite for every p > 1, beta >= 0: the integrand vanishes off [1, 2]
    and the ramp is C^1 there.
    """
    if not (p > 1 and math.isfinite(p)):
        raise ConfigurationError(f"p must be finite and > 1, got {p}")
    if not beta >= 0:
        raise ConfigurationError(f"beta must be >= 0, got {beta}")
    expo = beta / ((beta + 1.0) * (p - 1.0))
    power = p / (p - 1.0)

    def f(eta):
        return (eta ** expo * psi_ramp(eta, kind=kind)
                * np.abs(psi_ramp_derivative(eta, kind=kind)) ** power)

    from scipy.integrate import quad
    val, err = quad(f, 1.0, 2.0, epsabs=1e-12, limit=200)
    if err > 1e-8:
        raise NumericalFailureError(f"time factor quadrature error {err:.2e}")
    return val
