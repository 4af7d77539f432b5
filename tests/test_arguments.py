"""The argument contract: a NaN, infinite or out-of-range scalar argument
of a public function raises ConfigurationError whose message starts with
"<argument> must"."""

import math

import numpy as np
import pytest

from mixheat import (
    ConfigurationError,
    Field,
    GridSpec,
    MassTrace,
    PowerAbsorption,
    ProblemSpec,
    TableAbsorption,
    apply_symbol,
    bracket_frac_laplacian,
    bracket_laplacian,
    bracket_profile,
    capacity_integral,
    classify_mass_limit,
    critical_exponent,
    decay_rate_exponent,
    default_snapshot_times,
    frac_constant,
    frac_laplacian_pointwise,
    gaussian_kernel,
    geometric_times,
    half_width_for_tail,
    make_step_schedule,
    make_symbol,
    mixed_kernel,
    mixed_kernel_norms,
    mixed_kernel_quadrature,
    profile_error,
    scaling_check,
    stable_kernel,
    stable_kernel_quadrature,
    stable_tail_constant,
    tau_to_time,
    taylor_contraction_error,
    time_to_tau,
)

GRID = GridSpec(1, 20.0, 64)
FIELD = Field(GRID, np.exp(-GRID.axis_coords() ** 2))
SYMBOL = make_symbol(GRID, 1.0)
H0 = PowerAbsorption(0.0)
# a flat trace over two decades, so only the window can be out of range
_T = np.geomspace(1.0, 100.0, 9)
TRACE = MassTrace(times=_T, taus=_T, mass=np.ones(9), absorbed=np.zeros(9),
                  linf=np.ones(9), l2=np.ones(9))


def problem(alpha=1.0, beta=0.0, p=2.0):
    return ProblemSpec(alpha=alpha, beta=beta, p=p, absorption=H0, initial=FIELD)


def profile(y):
    return bracket_profile(y, 2.0)


# (function, argument, a finite value out of its range or None when every
# finite value is allowed, the call with that argument set)
CASES = [
    ("ProblemSpec", "alpha", 2.0, lambda v: problem(alpha=v)),
    ("ProblemSpec", "beta", -0.5, lambda v: problem(beta=v)),
    ("ProblemSpec", "p", 1.0, lambda v: problem(p=v)),
    ("time_to_tau", "t", -1.0, lambda v: time_to_tau(v, 0.0)),
    ("time_to_tau", "beta", -1.0, lambda v: time_to_tau(1.0, v)),
    ("tau_to_time", "tau", -1.0, lambda v: tau_to_time(v, 0.0)),
    ("tau_to_time", "beta", -1.0, lambda v: tau_to_time(1.0, v)),
    ("geometric_times", "t0", None, lambda v: geometric_times(v, 10.0, 3)),
    ("geometric_times", "t1", None, lambda v: geometric_times(1.0, v, 3)),
    ("geometric_times", "count", 2.5, lambda v: geometric_times(1.0, 10.0, v)),
    ("default_snapshot_times", "t0", None, lambda v: default_snapshot_times(v, 10.0)),
    ("default_snapshot_times", "t1", None, lambda v: default_snapshot_times(1.0, v)),
    ("make_step_schedule", "t0", None, lambda v: make_step_schedule(v, 10.0, 0.0, 0.1)),
    ("make_step_schedule", "t1", None, lambda v: make_step_schedule(1.0, v, 0.0, 0.1)),
    ("make_step_schedule", "beta", -1.0, lambda v: make_step_schedule(1.0, 10.0, v, 0.1)),
    ("make_step_schedule", "dtau_max", 0.0,
     lambda v: make_step_schedule(1.0, 10.0, 0.0, v)),
    ("PowerAbsorption", "coefficient", -1.0, lambda v: PowerAbsorption(v, 0.5)),
    ("PowerAbsorption", "exponent", None, lambda v: PowerAbsorption(1.0, v)),
    # a negative 1 + t to a fractional power: inf at sigma = -2.5, NaN at 0.5
    ("PowerAbsorption.rate", "t", -1.0, lambda v: PowerAbsorption(1.0, -2.5).rate(v)),
    ("PowerAbsorption.rate/sqrt", "t", -2.0, lambda v: PowerAbsorption(1.0, 0.5).rate(v)),
    ("TableAbsorption.rate", "t", -1.0,
     lambda v: TableAbsorption([0.0, 10.0], [1.0, 2.0]).rate(v)),
    ("GridSpec", "dim", 1.5, lambda v: GridSpec(v, 20.0, 64)),
    ("GridSpec", "half_width", 0.0, lambda v: GridSpec(1, v, 64)),
    ("GridSpec", "points", 256.5, lambda v: GridSpec(1, 20.0, v)),
    ("make_symbol", "alpha", 2.0, lambda v: make_symbol(GRID, v)),
    ("apply_symbol/semigroup", "scale", -1.0,
     lambda v: apply_symbol(FIELD, SYMBOL, scale=v, mode="semigroup")),
    ("apply_symbol/multiplier", "scale", None,
     lambda v: apply_symbol(FIELD, SYMBOL, scale=v, mode="multiplier")),
    ("gaussian_kernel", "t", 0.0, lambda v: gaussian_kernel(GRID, v)),
    ("stable_kernel", "t", 0.0, lambda v: stable_kernel(GRID, 1.0, v)),
    ("stable_kernel", "alpha", 0.0, lambda v: stable_kernel(GRID, v, 1.0)),
    ("mixed_kernel", "t", 0.0, lambda v: mixed_kernel(GRID, 1.0, v)),
    ("mixed_kernel", "alpha", 2.0, lambda v: mixed_kernel(GRID, v, 1.0)),
    ("mixed_kernel_norms", "times", 0.0, lambda v: mixed_kernel_norms(GRID, 1.0, [1.0, v])),
    ("mixed_kernel_norms", "alpha", 2.0, lambda v: mixed_kernel_norms(GRID, v, [1.0])),
    ("taylor_contraction_error", "t_list", -1.0,
     lambda v: taylor_contraction_error(FIELD, [1.0, v], 1.0)),
    ("stable_tail_constant", "alpha", 2.0, lambda v: stable_tail_constant(v, 1)),
    ("stable_tail_constant", "dim", 0, lambda v: stable_tail_constant(1.0, v)),
    ("stable_tail_constant/whole", "dim", 1.5, lambda v: stable_tail_constant(1.0, v)),
    ("half_width_for_tail", "t", 0.0, lambda v: half_width_for_tail(1.0, v, 1)),
    ("half_width_for_tail", "tail_mass", 0.0,
     lambda v: half_width_for_tail(1.0, 1.0, 1, tail_mass=v)),
    ("half_width_for_tail", "dim", 3, lambda v: half_width_for_tail(1.0, 1.0, v)),
    ("frac_constant", "s", 1.0, lambda v: frac_constant(1, v)),
    ("frac_constant", "dim", 0, lambda v: frac_constant(v, 0.5)),
    ("bracket_profile", "q0", 0.0, lambda v: bracket_profile(1.0, v)),
    ("bracket_laplacian", "q0", 0.0, lambda v: bracket_laplacian(1.0, v, 1)),
    ("bracket_laplacian", "dim", 0.5, lambda v: bracket_laplacian(1.0, 2.0, v)),
    ("bracket_frac_laplacian", "q0", 0.0,
     lambda v: bracket_frac_laplacian(1.0, v, 0.5, 1)),
    ("bracket_frac_laplacian", "s", 0.0, lambda v: bracket_frac_laplacian(1.0, 2.0, v, 1)),
    ("bracket_frac_laplacian", "dim", 0.5,
     lambda v: bracket_frac_laplacian(1.0, 2.0, 0.5, v)),
    ("capacity_integral", "scales", 0.5,
     lambda v: capacity_integral(1.5, 2.0, 1.0, GRID, [16.0, v])),
    ("capacity_integral", "p", 1.0, lambda v: capacity_integral(1.5, v, 1.0, GRID, [16.0])),
    ("capacity_integral", "alpha", 2.0,
     lambda v: capacity_integral(1.5, 2.0, v, GRID, [16.0])),
    # nearer 1 the weight Phi^(-1/(p-1)) leaves the float range on any box
    ("capacity_integral/near 1", "p", 1.001,
     lambda v: capacity_integral(1.5, v, 1.0, GridSpec(1, 1e3, 1024), [8.0])),
    ("critical_exponent", "alpha", 2.0, lambda v: critical_exponent(v, 0.0, 1)),
    ("critical_exponent", "beta", -1.0, lambda v: critical_exponent(1.0, v, 1)),
    ("critical_exponent", "dim", 0, lambda v: critical_exponent(1.0, 0.0, v)),
    ("critical_exponent/whole", "dim", 1.5, lambda v: critical_exponent(1.0, 0.0, v)),
    ("decay_rate_exponent", "p", 1.0, lambda v: decay_rate_exponent(v, 1.0, 0.0, 1)),
    ("decay_rate_exponent", "alpha", 0.0, lambda v: decay_rate_exponent(2.0, v, 0.0, 1)),
    ("decay_rate_exponent", "beta", -1.0, lambda v: decay_rate_exponent(2.0, 1.0, v, 1)),
    ("decay_rate_exponent", "dim", 0, lambda v: decay_rate_exponent(2.0, 1.0, 0.0, v)),
    ("profile_error", "t", 0.0, lambda v: profile_error(FIELD, 1.0, v, 1.0, 0.0, 2.0)),
    ("profile_error", "m_inf", -1.0, lambda v: profile_error(FIELD, v, 1.0, 1.0, 0.0, 2.0)),
    ("profile_error", "q", 0.5, lambda v: profile_error(FIELD, 1.0, 1.0, 1.0, 0.0, v)),
    ("classify_mass_limit", "window", 0.0, lambda v: classify_mass_limit(TRACE, window=v)),
    ("frac_laplacian_pointwise", "s", 1.0,
     lambda v: frac_laplacian_pointwise(profile, v, 0.5)),
    ("scaling_check", "R", 0.0, lambda v: scaling_check(profile, 0.5, v, 0.5)),
    ("stable_kernel_quadrature", "t", 0.0, lambda v: stable_kernel_quadrature(0.0, 1.0, v)),
    ("mixed_kernel_quadrature", "t", 0.0, lambda v: mixed_kernel_quadrature(0.0, 1.0, v)),
]


@pytest.mark.parametrize("function,argument,out_of_range,call", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_bad_scalar_argument_is_named(function, argument, out_of_range, call):
    bad = [math.nan, math.inf, -math.inf]
    if out_of_range is not None:
        bad.append(out_of_range)
    for value in bad:
        with pytest.raises(ConfigurationError, match=f"^{argument} must"):
            call(value)


# a time window that is out of order or starts below 0 names both ends
WINDOWS = [
    ("default_snapshot_times", lambda t0, t1: default_snapshot_times(t0, t1)),
    ("make_step_schedule", lambda t0, t1: make_step_schedule(t0, t1, 0.0, 0.1)),
]


@pytest.mark.parametrize("t0,t1", [(5.0, 1.0), (-1.0, 10.0), (0.0, -1.0), (2.0, 2.0)])
@pytest.mark.parametrize("function,call", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_bad_time_window_names_both_ends(function, call, t0, t1):
    with pytest.raises(ConfigurationError,
                       match=rf"^need 0 <= t0 < t1, got {t0}, {t1}$"):
        call(t0, t1)


# an array window names the first pair out of 0 <= a <= b, and its index
@pytest.mark.parametrize("a,b,pair", [
    ([0.0, -1.0, -2.0], [1.0, 2.0, 3.0], r"a=-1\.0, b=2\.0 at index 1"),
    ([0.0, 1.0, 3.0], [1.0, 2.0, 2.5], r"a=3\.0, b=2\.5 at index 2"),
    ([0.0, 1.0], [math.nan, 2.0], r"a=0\.0, b=nan at index 0"),
    ([0.0, 1.0, 5.0], 4.0, r"a=5\.0, b=4\.0 at index 2"),
], ids=["negative a", "a > b", "nan", "scalar b"])
@pytest.mark.parametrize("law", [PowerAbsorption(1.0, 1.5),
                                 TableAbsorption([0.0, 10.0], [1.0, 2.0])],
                         ids=["PowerAbsorption", "TableAbsorption"])
def test_bad_array_window_names_its_first_pair(law, a, b, pair):
    with pytest.raises(ConfigurationError, match=rf"^need 0 <= a <= b, got {pair}$"):
        law.integral(np.array(a), np.array(b))


def test_array_argument_reports_its_first_bad_entry():
    with pytest.raises(ConfigurationError, match=r"^t must be >= 0 and finite, got nan$"):
        time_to_tau(np.array([0.0, 1.0, math.nan, -1.0]), 0.0)


@pytest.mark.parametrize("snapshot_times", [[[0.5, 1.0]], ["a"]], ids=["nested", "text"])
def test_snapshot_times_must_be_a_flat_sequence_of_numbers(snapshot_times):
    with pytest.raises(ConfigurationError,
                       match=r"^snapshot_times must be a flat sequence of numbers$"):
        make_step_schedule(0.0, 1.0, 0.0, 0.1, snapshot_times=snapshot_times)
