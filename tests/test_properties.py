"""Properties of the absorption law and its exact flow over random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mixheat import PowerAbsorption
from mixheat.solver import _absorb

few = settings(max_examples=60, deadline=None)

coefficients = st.floats(0.0, 1e3)
times = st.floats(0.0, 1e3)
# near sigma = -1 the general closed form cancels (see the exact branch)
exponents = st.one_of(st.sampled_from([0.0, -1.0]),
                      st.floats(-3.0, 3.0).filter(lambda s: abs(s + 1.0) > 0.1))
states = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=16).map(np.array)
p_values = st.floats(1.01, 6.0)


@few
@given(coefficients, times, times)
def test_constant_law_integrates_to_c_times_length(c, a, b):
    a, b = sorted((a, b))
    assert PowerAbsorption(c, 0.0).integral(a, b) == c * (b - a)


@few
@given(coefficients, exponents, times, times, times)
def test_integral_is_additive_and_nonnegative(c, sigma, a, m, b):
    a, m, b = sorted((a, m, b))
    h = PowerAbsorption(c, sigma)
    whole = h.integral(a, b)
    assert whole >= 0
    # each closed form rounds at the scale of int_0^b h, not of the piece;
    # a subnormal c rounds at the spacing of subnormals
    scale = (1.0 + b) * max(h.rate(a), h.rate(b))
    tol = 1e-12 * scale + 4 * np.finfo(float).smallest_subnormal
    assert abs(h.integral(a, m) + h.integral(m, b) - whole) <= tol


@few
@given(exponents, times, times)
def test_zero_coefficient_integrates_to_exactly_zero(sigma, a, b):
    a, b = sorted((a, b))
    assert PowerAbsorption(0.0, sigma).integral(a, b) == 0.0


@few
@given(states, p_values, st.floats(0.0, 1e3), st.floats(0.0, 1e3))
def test_absorb_is_monotone_in_H_and_bounded_by_its_input(u, p, H1, H2):
    lo, hi = sorted((H1, H2))
    less, more = u.copy(), u.copy()
    _absorb(less, lo, p, np.empty_like(u))
    _absorb(more, hi, p, np.empty_like(u))
    assert np.all(more <= less)
    assert np.all(less <= u)
    assert np.all(more >= 0)
