"""The 1D kernel quadrature oracles away from x = 0, against closed forms
and 40-digit values: a spectral peak narrower than QAWF's first cycle,
and the far field of a wide one."""

import math

import pytest

from mixheat import mixed_kernel_quadrature, stable_kernel_quadrature


@pytest.mark.parametrize("x", [1e-9, 1e-6, 1e-3, 0.3, 1.0, 10.0])
def test_stable_quadrature_is_the_cauchy_kernel_off_the_origin(x):
    """At alpha = 1 the kernel is t / (pi (t^2 + x^2)). The peak's width
    1/t runs from 1e3 down to 1e-5 across these times, so for most x it is
    far narrower than QAWF's first cycle, where the oracle read 1.4e-21 at
    (x, t) = (0.3, 1e3) against 3.18e-4 until the peak was taken apart."""
    for t in (1e-3, 1.0, 1e3, 1e5):
        exact = t / (math.pi * (t * t + x * x))
        assert stable_kernel_quadrature(x, 1.0, t) == pytest.approx(exact, rel=1e-9)


def test_stable_quadrature_keeps_the_far_field_of_a_wide_peak():
    """At alpha = 0.5, t = 1e-3 the peak spans many cycles of cos(0.3 xi),
    and the value is the far field's; mpmath's quadosc at 30 digits."""
    assert stable_kernel_quadrature(0.3, 0.5, 1e-3) == pytest.approx(
        1.21217516833102157288929966434e-3, rel=1e-6)


@pytest.mark.parametrize("kernel,alpha,x,t,value", [
    # mpmath's quad at 40 digits, split at each decade of xi
    ("mixed", 0.5, 0.3, 1e3, 6.3661969596988643022e-7),
    ("mixed", 0.5, 30.0, 1e3, 6.3661966159596821199e-7),
    ("stable", 0.5, 0.3, 1e3, 6.366197723641435963e-7),
    ("mixed", 1.5, 2.0, 1e3, 2.6861318685288641979e-3),
    ("stable", 1.5, 2.0, 1e3, 2.873103140640193894e-3),
])
def test_kernel_quadrature_off_the_origin_matches_40_digit_values(kernel, alpha, x, t, value):
    quadrature = mixed_kernel_quadrature if kernel == "mixed" else stable_kernel_quadrature
    assert quadrature(x, alpha, t) == pytest.approx(value, rel=1e-12)
