"""Properties over random inputs: the absorption law and its exact flow,
the one L^q norm reader, the grid cut decided from a symbol's band minima,
the config text round trip, the field reader on damaged files, and the
mass ledger, sign, order preservation and grid cut of whole solves."""

import math
import os
import string
import tempfile
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_cut_agrees, logged_cuts, sliced_halvings, solve_cut_and_fixed
from mixheat import (ConfigurationError, ExperimentConfig, Field, GridSpec,
                     PowerAbsorption, ProblemSpec, comparison_check,
                     config_from_mapping, make_step_schedule, make_symbol,
                     mass_identity_defect, parse_config_text, read_field, solve,
                     time_to_tau, write_field)
from mixheat.config import _CHOICES
from mixheat.grid import _band_reduce, _band_walk, _lq_norm
from mixheat.solver import _absorb

few = settings(max_examples=60, deadline=None)

coefficients = st.floats(0.0, 1e3)
times = st.floats(0.0, 1e3)
# sigma = 0 and -1 take their own branches; the general one runs up to -1
exponents = st.one_of(st.sampled_from([0.0, -1.0]), st.floats(-3.0, 3.0),
                      st.floats(-1e-6, 1e-6).map(lambda d: d - 1.0))
states = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=16).map(np.array)
# p = 1 + 1/k (k = 2..5) and p = 3 take their own absorption branches
p_values = st.one_of(st.sampled_from([1.2, 1.25, 1 + 1 / 3, 1.5, 2.0, 3.0]),
                     st.floats(1.01, 6.0))


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
@example(400.0, 1.0, 100.0)  # (1 + t)^400 overflows: h = 0 must not read 0 * inf
def test_zero_coefficient_integrates_to_exactly_zero(sigma, a, b):
    a, b = sorted((a, b))
    h = PowerAbsorption(0.0, sigma)
    assert h.integral(a, b) == 0.0
    assert h.rate(b) == 0.0


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


# -- the L^q norm reader ------------------------------------------------------

# up to 64 samples whose largest |v| lies in [0.5, 1), so that the plain sum
# stays in range
unit_arrays = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                       min_size=1, max_size=64).map(np.array).filter(
    lambda v: v.any()).map(lambda v: np.ldexp(v, -np.frexp(np.abs(v).max())[1]))


def _plain_lq_norm(v, q, dV):
    top = np.abs(v).max()
    if q == np.inf:
        return float(top)
    if q == 2.0:
        return float(np.sqrt(np.add.reduce(np.square(v)) * dV))
    if q == 3.5:  # the root of the sum normalised by the top
        return float(top * (np.add.reduce((np.abs(v) / top) ** q) * dV) ** (1.0 / q))
    return float((np.add.reduce(np.abs(v) ** q) * dV) ** (1.0 / q))


@pytest.mark.parametrize("q", [1.0, 2.0, 3.5, np.inf])
@few
@given(unit_arrays, st.floats(1e-3, 1e3), st.integers(-1000, 1000))
def test_lq_norm_is_the_plain_sum_in_range_and_scales_past_it(q, v, dV, e):
    norm = _lq_norm(v, q, dV)
    assert norm == _plain_lq_norm(v, q, dV)
    # 2^e v: e = +-1000 overflows or underflows every power. At q = 3.5 the
    # sum is normalised, so its root by the rounded 1/q no longer errs by
    # the log of the plain sum (1.1e-14 at e = 288 when it did)
    scaled = _lq_norm(np.ldexp(v, e), q, dV)
    assert scaled == pytest.approx(math.ldexp(norm, e), rel=1e-15)
    assert _lq_norm(np.zeros_like(v), q, dV) == 0.0


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([1, 2]), log2_points=st.integers(4, 14),
       half_width=st.floats(-1.0, 6.0).map(lambda e: 10.0 ** e),
       alpha=st.floats(0.01, 1.99), kind=st.sampled_from(["mixed", "fractional"]),
       t=st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e))
@example(dim=1, log2_points=6, half_width=1e-160, alpha=1.0, kind="mixed", t=1.0)  # |xi|^2 = inf
@example(dim=2, log2_points=5, half_width=2.5e-153, alpha=1.5, kind="mixed", t=1e-6)
@example(dim=1, log2_points=4, half_width=1.0, alpha=1.0, kind="mixed", t=1e12)  # never cuts
@example(dim=2, log2_points=4, half_width=1.0, alpha=0.5, kind="fractional", t=1e12)
def test_band_minima_decide_the_halvings_of_the_whole_multiplier(dim, log2_points,
                                                                 half_width, alpha, kind, t):
    """The semigroup multiplier exp(-t m) falls as the symbol m rises, so
    its band maxima are its values at the symbol's band minima: the walk
    over those few numbers halves the grid as often as the walk over the
    whole multiplier's band maxima, sliced band by band, does."""
    g = GridSpec(dim, half_width, 2 ** min(log2_points, 14 if dim == 1 else 8))
    symbol = make_symbol(g, alpha, kind).values
    minima = _band_reduce(g, symbol, np.minimum)
    assert minima.shape == (max(0, g.points.bit_length() - 5),)
    assert _band_walk(1.0, np.exp(np.multiply(minima, -t))) == sliced_halvings(
        g, np.exp(-t * symbol))


# -- config text --------------------------------------------------------------

_WORDS = st.text(string.ascii_letters + string.digits + "/._-,", max_size=12)
_BY_TYPE = {int: st.integers(-10 ** 6, 10 ** 6), str: _WORDS,
            float: st.floats(allow_nan=False, allow_infinity=False)}


def _values_of(f):
    return st.sampled_from(_CHOICES[f.name]) if f.name in _CHOICES else _BY_TYPE[f.type]


_REQUIRED = ("alpha", "half_width", "points")
config_values = st.fixed_dictionaries(
    {f.name: _values_of(f) for f in fields(ExperimentConfig) if f.name in _REQUIRED},
    optional={f.name: _values_of(f) for f in fields(ExperimentConfig)
              if f.name not in _REQUIRED})


def _config_text(values):
    # repr is the shortest text that reads back as the same float
    return "# generated\n" + "".join(
        f"  {key} =  {value!r}  # note\n" if isinstance(value, float)
        else f"{key}={value}\n" for key, value in values.items())


@few
@given(config_values)
def test_config_text_round_trips(values):
    cfg = config_from_mapping(parse_config_text(_config_text(values)))
    assert cfg == ExperimentConfig(**values)
    assert config_from_mapping(parse_config_text(_config_text(asdict(cfg)))) == cfg


# -- field files --------------------------------------------------------------

def _field_file_bytes():
    """The bytes of a valid 16-point field file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.fhk")
        write_field(Field(GridSpec(1, 4.0, 16), np.linspace(0.0, 1.0, 16)), path)
        with open(path, "rb") as fh:
            return fh.read()


def _read_field_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.fhk")
        with open(path, "wb") as fh:
            fh.write(blob)
        return read_field(path)


@few
@given(st.data())
def test_read_field_rejects_every_truncation(data):
    blob = _field_file_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(ConfigurationError):
        _read_field_bytes(blob[:cut])


@few
@given(st.binary(min_size=4, max_size=4).filter(lambda magic: magic != b"FHK1"))
def test_read_field_rejects_an_altered_magic(magic):
    blob = _field_file_bytes()
    assert _read_field_bytes(blob).grid.points == 16
    with pytest.raises(ConfigurationError, match="bad magic"):
        _read_field_bytes(magic + blob[4:])


# -- solve --------------------------------------------------------------------

# The datum decays below roundoff at the box edge (8 widths or more away),
# so it is smooth on the torus: a datum the box cuts off has a jump there,
# whose spectral ripple the solver clips at a logged cost to the ledger.
_SOLVE_GRID = GridSpec(1, 20.0, 256)


def _gaussian(width, mass, center):
    x = _SOLVE_GRID.axis_coords()
    bump = np.exp(-(x - center) ** 2 / (2.0 * width ** 2))
    return bump * (mass / (np.sum(bump) * _SOLVE_GRID.cell_volume))


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.1, 1.9), beta=st.floats(0.0, 2.0), p=st.floats(1.05, 5.0),
       c=st.floats(0.0, 10.0), sigma=st.floats(-2.0, 2.0),
       width=st.floats(0.75, 1.5), mass=st.floats(1e-3, 1e3), center=st.floats(-3.0, 3.0),
       t0=st.sampled_from([0.0, 0.5]), t1=st.floats(1.0, 4.0),
       dtau_max=st.floats(0.05, 1.0), ladder=st.booleans())
def test_solve_keeps_its_ledger_and_sign(alpha, beta, p, c, sigma, width, mass, center,
                                         t0, t1, dtau_max, ladder):
    u0 = Field(_SOLVE_GRID, _gaussian(width, mass, center))
    problem = ProblemSpec(alpha=alpha, beta=beta, p=p,
                          absorption=PowerAbsorption(c, sigma), initial=u0)
    # the default snapshot ladder, or 10 knots per decade from t0 (from
    # t1 * 1e-6 after a first step when t0 = 0)
    lo = t0 or t1 * 1e-6
    knots = np.geomspace(lo, t1, int(np.ceil(10 * np.log10(t1 / lo))) + 1) if ladder else None
    schedule = make_step_schedule(t0, t1, beta, dtau_max, snapshot_times=knots)
    result = solve(problem, schedule)
    assert mass_identity_defect(result) <= 1e-12
    assert all(np.min(f.values) >= 0 for f in result.snapshots)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), half_width=st.floats(4.0, 8.0),
       alpha=st.floats(0.1, 1.9), beta=st.floats(0.0, 2.0), p=p_values,
       c=st.floats(0.0, 10.0), sigma=st.floats(-2.0, 2.0), width=st.floats(0.3, 0.5),
       mass=st.floats(1e-3, 1e3), center=st.floats(-0.5, 0.5), t1=st.floats(10.0, 100.0))
def test_solve_cut_agrees_with_the_fixed_grid(dim, half_width, alpha, beta, p, c, sigma,
                                              width, mass, center, t1):
    """On a small box the datum fills it by t1, so the grid cuts; the run
    agrees with the one that keeps the grid (see assert_cut_agrees). Steps
    at knots only: a first step [0, t1 * 1e-3], then 10 a decade."""
    grid = GridSpec(dim, half_width, 64)
    bump = np.exp(-sum((x - center) ** 2 for x in grid.coords()) / (2.0 * width ** 2))
    u0 = Field(grid, bump * (mass / (np.sum(bump) * grid.cell_volume)))
    problem = ProblemSpec(alpha=alpha, beta=beta, p=p,
                          absorption=PowerAbsorption(c, sigma), initial=u0)
    schedule = make_step_schedule(0.0, t1, beta, 1e9,
                                  snapshot_times=np.geomspace(t1 * 1e-3, t1, 31))
    assert_cut_agrees(*solve_cut_and_fixed(problem, schedule))


@few
@given(alpha=st.floats(0.1, 1.9), beta=st.floats(0.0, 2.0), p=st.floats(1.05, 5.0),
       c=st.floats(0.0, 10.0), sigma=st.floats(-2.0, 2.0),
       width=st.floats(0.75, 1.5), mass=st.floats(1e-3, 1e3), center=st.floats(-3.0, 3.0),
       extra_width=st.floats(0.75, 1.5), extra_mass=st.floats(0.0, 1e3),
       extra_center=st.floats(-3.0, 3.0),
       t0=st.sampled_from([0.0, 0.5]), t1=st.floats(1.0, 3.0), dtau_max=st.floats(0.1, 1.0))
def test_solve_preserves_the_order_of_its_data(alpha, beta, p, c, sigma, width, mass,
                                               center, extra_width, extra_mass,
                                               extra_center, t0, t1, dtau_max):
    smaller = _gaussian(width, mass, center)
    larger = Field(_SOLVE_GRID, smaller + _gaussian(extra_width, extra_mass,
                                                    extra_center))
    problem = ProblemSpec(alpha=alpha, beta=beta, p=p, absorption=PowerAbsorption(c, sigma),
                          initial=Field(_SOLVE_GRID, smaller))
    schedule = make_step_schedule(t0, t1, beta, dtau_max)
    gap = comparison_check(problem, larger, schedule)
    assert gap >= -1e-10 * float(np.max(larger.values))


@few
@given(alpha=st.floats(0.1, 1.9), beta=st.floats(0.0, 2.0), p=st.floats(1.05, 5.0),
       c=st.floats(0.0, 10.0), sigma=st.floats(-2.0, 2.0),
       width=st.floats(2.25, 4.5), mass=st.floats(1e-3, 1e3), center=st.floats(-3.0, 3.0),
       extra_width=st.floats(2.25, 4.5), extra_mass=st.floats(0.0, 1e3),
       extra_center=st.floats(-3.0, 3.0),
       t0=st.sampled_from([0.0, 0.5]), t1=st.floats(1.0, 90.0), steps=st.integers(10, 1000))
def test_solve_preserves_order_where_the_grid_cuts(alpha, beta, p, c, sigma, width, mass,
                                                   center, extra_width, extra_mass,
                                                   extra_center, t0, t1, steps):
    """test_solve_preserves_the_order_of_its_data with data three times as
    wide and horizons up to 90, so that the grid cuts while the steps may
    still be small; only the draws that cut count. dtau_max is the tau span
    over a drawn step count, which bounds the run's cost at any beta."""
    smaller = _gaussian(width, mass, center)
    larger = Field(_SOLVE_GRID, smaller + _gaussian(extra_width, extra_mass,
                                                    extra_center))
    problem = ProblemSpec(alpha=alpha, beta=beta, p=p, absorption=PowerAbsorption(c, sigma),
                          initial=Field(_SOLVE_GRID, smaller))
    with logged_cuts() as cuts:
        dtau_max = (time_to_tau(t1, beta) - time_to_tau(t0, beta)) / steps
        gap = comparison_check(problem, larger, make_step_schedule(t0, t1, beta, dtau_max))
    assume(cuts)
    assert gap >= -1e-10 * float(np.max(larger.values))
