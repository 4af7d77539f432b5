"""Time stepping: absorption laws, split steps, full solves, diagnostics."""

import dataclasses
import decimal
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from mixheat import (
    ConfigurationError,
    ExperimentConfig,
    Field,
    GridSpec,
    NumericalFailureError,
    PowerAbsorption,
    ProblemSpec,
    SolveResult,
    TableAbsorption,
    apply_symbol,
    build_absorption,
    classify_mass_limit,
    comparison_check,
    config_from_mapping,
    convolve,
    default_snapshot_times,
    delta_field,
    duhamel_residual,
    integral,
    make_step_schedule,
    make_symbol,
    mass_identity_defect,
    mixed_kernel,
    solve,
    tau_to_time,
    time_to_tau,
)
from conftest import assert_cut_agrees, logged_cuts, sliced_halvings, solve_cut_and_fixed
import mixheat.grid
from mixheat import solver
from mixheat.solver import _MAX_STEPS, geometric_times


def unit_gaussian(grid, width=1.5):
    r2 = sum(c ** 2 for c in grid.coords())
    f = Field(grid, np.exp(-r2 / (2.0 * width ** 2)))
    return Field(grid, f.values / integral(f))


@pytest.fixture(scope="module")
def small_grid():
    return GridSpec(1, 40.0, 512)


# -- time change ------------------------------------------------------------

@pytest.mark.parametrize("t,beta,tau", [
    (1.0, 0.0, 1.0),
    (2.0, 1.0, 2.0),
    (3.0, 2.0, 9.0),
    (0.0, 0.7, 0.0),
])
def test_time_to_tau_values(t, beta, tau):
    assert time_to_tau(t, beta) == pytest.approx(tau, rel=1e-15)


def test_tau_round_trip():
    ts = np.geomspace(1e-3, 1e3, 13)
    for beta in (0.0, 0.5, 2.0):
        back = tau_to_time(time_to_tau(ts, beta), beta)
        np.testing.assert_allclose(back, ts, rtol=1e-12)


def test_geometric_times():
    ts = geometric_times(0.5, 8.0, 9)
    assert ts[0] == 0.5 and ts[-1] == 8.0 and ts.size == 9
    ratios = ts[1:] / ts[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_default_snapshot_times():
    snaps = default_snapshot_times(1.0, 100.0)
    assert snaps[0] == 1.0 and snaps[-1] == 100.0
    assert np.all(np.diff(snaps) > 0)
    # uniform log spacing, never coarser than a quarter octave
    ratios = snaps[1:] / snaps[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    assert ratios[0] <= 2.0 ** 0.25 + 1e-12

    from_zero = default_snapshot_times(0.0, 64.0)
    assert from_zero[0] == 0.0
    assert from_zero[1] == pytest.approx(64.0 / 2 ** 10)
    assert from_zero[-1] == 64.0


# -- absorption laws ---------------------------------------------------------

def absorption_law(kind, **keys):
    """build_absorption's law for absorption = kind and the given keys."""
    return build_absorption(config_from_mapping(
        {"alpha": 1.0, "half_width": 20.0, "points": 64, "absorption": kind, **keys}))


def test_no_absorption_is_zero():
    h = absorption_law("none")
    assert h.rate(3.0) == 0.0
    assert h.integral(0.0, 10.0) == 0.0
    assert h.tail_exponent == -np.inf
    # the coefficient of kind "none" is not read
    assert absorption_law("none", absorption_coefficient=5.0).coefficient == 0.0


def test_constant_absorption():
    h = absorption_law("constant", absorption_coefficient=2.5, absorption_exponent=0.7)
    assert h.exponent == 0.0
    assert h.rate(0.3) == 2.5
    assert h.integral(1.0, 4.0) == 7.5
    assert h.tail_exponent == 0.0
    for kind in ("constant", "power"):
        with pytest.raises(ConfigurationError,
                           match="^absorption_coefficient must be finite and > 0"):
            absorption_law(kind, absorption_coefficient=0.0)


@pytest.mark.parametrize("coeff,sigma", [(2.0, 0.7), (1.5, -1.0), (1.0, -2.3)])
def test_power_absorption_integral_matches_quadrature(coeff, sigma):
    h = PowerAbsorption(coeff, sigma)
    for a, b in ((0.0, 1.0), (0.5, 7.0), (3.0, 3.0)):
        oracle = quad(lambda t: coeff * (1.0 + t) ** sigma, a, b, epsabs=1e-13)[0]
        assert h.integral(a, b) == pytest.approx(oracle, rel=1e-10, abs=1e-13)


# a power law past the float range reads inf with no RuntimeWarning (an error
# in tier-1), as solve's numpy times do at a huge coefficient; where (1 + a)^3
# alone overflows, the integral is taken in logs, so a finite one stays
# finite: ((1 + b)^3 - (1 + a)^3) / 3 to 40 digits
@pytest.mark.parametrize("law,call,expected", [
    ((1.0, 2.0), lambda h: h.rate(1e200), np.inf),
    ((1.0, 2.0), lambda h: h.rate([1.0, 1e200]).tolist(), [4.0, np.inf]),
    ((1.0, 2.0), lambda h: h.integral(0.0, 1e200), np.inf),
    ((1.0, 2.0), lambda h: h.integral(1e100, 1e103), np.inf),
    ((1.0, 2.0), lambda h: h.integral(1e200, 1e200), 0.0),
    ((1.0, 2.0), lambda h: h.integral(1e103, 1e103 * (1 + 2 ** -50)),
     pytest.approx(7.957171782556592636631105155336047e+293, rel=1e-13)),
    ((1e307, 0.0), lambda h: h.integral(0.0, 1e300), np.inf),
    ((1e307, -1.0), lambda h: h.integral(0.0, 1e300), np.inf),
], ids=["rate", "rate-array", "integral", "integral-product", "integral-empty",
        "integral-finite", "constant", "log"])
def test_power_absorption_past_the_float_range(law, call, expected):
    assert call(PowerAbsorption(*law)) == expected


def test_power_absorption_log_case_closed_form():
    h = PowerAbsorption(1.5, -1.0)
    assert h.integral(0.0, np.e - 1.0) == pytest.approx(1.5, rel=1e-12)


# int_a^b c (1+t)^sigma dt at the binary values of the arguments, to 30
# digits (mpmath, 50-digit arithmetic). ((1+b)^e1 - (1+a)^e1)/e1 with
# e1 = sigma + 1 cancels near sigma = -1: it is off by 1.1e-1 on the first
# case and by 2.4e-13 on the second.
@pytest.mark.parametrize("c,sigma,a,b,exact", [
    (1.0, -1.0 + 1e-12, 1e-3, 2e-3, "0.000998502329589524368672506024908"),
    (1.0, -0.3, 1e-3, 2e-3, "0.000999550454440138601274201221336"),
    (2.0, -1.0 + 1e-6, 0.0, 1.0, "1.38629484157301555908820688233"),
    (0.5, -1.0 + 1e-9, 0.0, 1.0, "0.346573590400085904818883666906"),
    (3.0, -1.0 - 1e-7, 10.0, 1e3, "13.5325722224034971030306481832"),
    (1.5, 2.5, 0.5, 7.0, "618.866217398186878685237715735"),
    (1.0, -2.3, 0.0, 1e3, "0.769134054562401316839152856204"),
])
def test_power_absorption_integral_near_the_log_case(c, sigma, a, b, exact):
    got = PowerAbsorption(c, sigma).integral(a, b)
    assert got == pytest.approx(float(exact), rel=2e-15, abs=0)


def test_power_absorption_metadata():
    h = PowerAbsorption(1.0, 0.8)
    assert h.tail_exponent == 0.8
    assert h.rate(1.0) == pytest.approx(2.0 ** 0.8)
    with pytest.raises(ConfigurationError, match="^coefficient must be >= 0"):
        PowerAbsorption(-1.0, 0.5)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="^coefficient must be finite"):
            PowerAbsorption(bad, 0.5)
        with pytest.raises(ConfigurationError, match="^exponent must be finite"):
            PowerAbsorption(1.0, bad)


def test_table_absorption_trapezoid_exact():
    h = TableAbsorption(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 0.0]))
    assert h.integral(0.0, 3.0) == pytest.approx(3.5, rel=1e-14)
    # crossing a knot: integrate 1+t on [0.5, 1], then 3-t on [1, 2]
    assert h.integral(0.5, 2.0) == pytest.approx(0.875 + 1.5, rel=1e-13)
    assert h.rate(0.5) == pytest.approx(1.5)
    assert h.tail_exponent is None
    with pytest.raises(ConfigurationError):
        h.integral(-0.1, 1.0)
    with pytest.raises(ConfigurationError):
        h.integral(1.0, 3.5)
    with pytest.raises(ConfigurationError):
        h.rate(5.0)


def test_table_absorption_validation():
    with pytest.raises(ConfigurationError):
        TableAbsorption(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        TableAbsorption(np.array([0.0, 1.0]), np.array([1.0, -2.0]))
    # non-finite samples would turn every integral into nan
    for times, values in (([0, 1, 2], [1, np.nan, 1]), ([0, 1, 2], [1, np.inf, 1]),
                          ([0, 1, np.inf], [1, 1, 1]), ([0, np.nan, 2], [1, 1, 1])):
        with pytest.raises(ConfigurationError):
            TableAbsorption(times, values)


def half_step_columns(beta, tau_b=300.0, n_sub=1000):
    """The (a, b) columns solve passes for a knot gap's first and second
    half steps, here one gap [0, tau_b] of n_sub steps, end to end."""
    sub_taus = np.linspace(0.0, tau_b, n_sub + 1)
    sub, mid = (tau_to_time(taus, beta)
                for taus in (sub_taus, (sub_taus[:-1] + sub_taus[1:]) / 2.0))
    return np.concatenate([sub[:-1], mid]), np.concatenate([mid, sub[1:]])


def assert_elementwise(call, *columns):
    """call on arrays gives, bit for bit, its calls on each entry's scalars."""
    got = np.asarray(call(*columns))
    want = np.array([call(*row) for row in zip(*columns)])
    assert got.shape == columns[0].shape and got.tobytes() == want.tobytes()


# every branch of the power law: sigma = 0, sigma = -1, the closed-form
# power, and at sigma = 2 the pairs of test_power_absorption_past_the_float_range
# (with inf, 0 and the integral in logs among finite closed forms)
PAST_THE_RANGE = ((0.0, 1e200), (1e100, 1e103), (1e200, 1e200),
                  (1e103, 1e103 * (1 + 2 ** -50)), (1e104, 1e104 * (1 + 2 ** -40)))


@pytest.mark.parametrize("law", [(1.0, 0.0), (1e307, 0.0), (2.0, -1.0), (1e307, -1.0),
                                 (1.5, 0.5), (1.5, 1.5), (0.7, -0.5), (3.0, -2.0),
                                 (0.2, 2.5), (1.0, 2.0)],
                         ids=lambda law: f"c={law[0]:g},sigma={law[1]:g}")
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_power_integral_on_arrays_keeps_the_scalar_bits(law, beta):
    """np.power's SIMD loop on an array strays from a scalar pow in the
    last bit on a few percent of these pairs; float_power does not."""
    a, b = half_step_columns(beta)
    past_a, past_b = np.array(PAST_THE_RANGE).T
    assert_elementwise(PowerAbsorption(*law).integral,
                       np.concatenate([a, past_a]), np.concatenate([b, past_b]))


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_table_integral_on_arrays_keeps_the_scalar_bits(beta):
    h = TableAbsorption([0.0, 0.7, 2.0, 3.1, 10.0, 40.0, 400.0],
                        [1.0, 0.2, 2.5, 2.5, 0.0, 0.7, 1.1])
    a, b = half_step_columns(beta)
    # and pairs that cross one knot or several
    assert_elementwise(h.integral, np.concatenate([a, [0.0, 0.5, 0.69, 1.0]]),
                       np.concatenate([b, [400.0, 35.0, 0.71, 3.1]]))


def test_table_integral_names_a_time_of_the_first_pair_it_misses():
    # pair 0's b and pair 1's a and b lie past the table
    h = TableAbsorption([0.0, 50.0], [1.0, 1.0])
    with pytest.raises(ConfigurationError,
                       match=r"^time 60 outside the absorption table range \[0, 50\]$"):
        h.integral(np.array([0.0, 55.0]), np.array([60.0, 70.0]))


@pytest.mark.parametrize("sigma", [1.5, -0.5, 2.5])
def test_power_rate_on_arrays_keeps_the_scalar_bits(sigma):
    # at sigma = 1.5, np.power's loop read another last bit at 1,092 of these;
    # a scalar keeps the bits of Python's float pow
    t = np.linspace(0.0, 1000.0, 20001)
    h = PowerAbsorption(1.3, sigma)
    assert_elementwise(h.rate, t)
    assert h.rate(t).tolist() == [1.3 * (1.0 + x) ** sigma for x in t.tolist()]


def test_solve_checks_the_table_range_before_any_step(small_grid, monkeypatch):
    # a table on [0, 50] cannot carry a run to t1 = 100: the 10,018-step
    # schedule fails before its symbol is built, naming the time it misses
    def no_symbol(*args, **kwargs):
        raise AssertionError("built the symbol before checking the table")

    monkeypatch.setattr(solver, "make_symbol", no_symbol)
    table = TableAbsorption(np.array([0.0, 50.0]), np.array([1.0, 1.0]))
    problem = ProblemSpec(alpha=1.0, beta=0.0, p=2.0, absorption=table,
                          initial=unit_gaussian(small_grid))
    schedule = make_step_schedule(0.0, 100.0, 0.0, 0.01)
    with pytest.raises(ConfigurationError,
                       match=r"^time 100 outside the absorption table range \[0, 50\]$"):
        solve(problem, schedule)


def test_solve_refuses_an_overflowing_integral_before_any_step(small_grid, monkeypatch):
    # the integral of (1 + t)^400 over [1, 100] is about 1e801: its steps
    # would overflow from t = 4.9 on, so the run is refused before the symbol
    def no_symbol(*args, **kwargs):
        raise AssertionError("built the symbol before checking the integral")

    monkeypatch.setattr(solver, "make_symbol", no_symbol)
    problem = ProblemSpec(alpha=1.0, beta=0.0, p=2.0, absorption=PowerAbsorption(1.0, 400.0),
                          initial=unit_gaussian(small_grid))
    with pytest.raises(ConfigurationError,
                       match=r"^the integral of h over \[t0, t1\] = \[1, 100\] overflows "
                             r"the float range \(h's tail exponent 400\.0\)$"):
        solve(problem, make_step_schedule(1.0, 100.0, 0.0, 0.1))


def test_build_absorption_dispatch(tmp_path):
    for kind, coefficient, exponent in (("none", 0.0, 0.0), ("constant", 1.0, 0.0),
                                        ("power", 1.0, -1.0)):
        h = absorption_law(kind, absorption_coefficient=1.0, absorption_exponent=-1.0)
        assert isinstance(h, PowerAbsorption)
        assert (h.coefficient, h.exponent) == (coefficient, exponent)
    path = tmp_path / "h.csv"
    path.write_text("time,value\n0,1\n1,1\n")
    table = absorption_law("table", absorption_table=str(path))
    assert isinstance(table, TableAbsorption)
    assert table.times.tolist() == [0.0, 1.0] and table.values.tolist() == [1.0, 1.0]
    # an unknown kind never reaches build_absorption: the config refuses it
    with pytest.raises(ConfigurationError, match=r"^config key 'absorption' must be one "
                                                 r"of \(.*\), got 'exponential'$"):
        build_absorption(ExperimentConfig(alpha=1.0, half_width=20.0, points=64,
                                          absorption="exponential"))


# -- problem validation -------------------------------------------------------

def test_problem_spec_validation(small_grid):
    u0 = unit_gaussian(small_grid)
    good = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=PowerAbsorption(0.0), initial=u0)
    assert good.grid == small_grid
    for alpha in (0.0, 2.0, 2.5):
        with pytest.raises(ConfigurationError):
            ProblemSpec(alpha=alpha, beta=0.0, p=2.0,
                        absorption=PowerAbsorption(0.0), initial=u0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(alpha=1.0, beta=-0.1, p=2.0,
                    absorption=PowerAbsorption(0.0), initial=u0)
    for p in (1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="^p must"):
            ProblemSpec(alpha=1.0, beta=0.0, p=p,
                        absorption=PowerAbsorption(0.0), initial=u0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(alpha=1.0, beta=0.0, p=2.0, absorption=PowerAbsorption(0.0),
                    initial=Field(small_grid, u0.values - 0.1))


@pytest.mark.parametrize("half_width,value", [(8.0, 1e308), (1e300, 1e300)])
def test_problem_spec_refuses_data_past_the_float_range(half_width, value):
    """u >= 0 bounds every Fourier mode by sum u: a datum whose samples sum
    to inf (1e308 on 16 points), or whose mass does (1e300 on cells of
    1.25e299), is refused before solve transforms it, with no warning."""
    g = GridSpec(1, half_width, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError,
                           match=r"^initial data must have a finite sum of samples "
                                 r"and mass on cells of volume "):
            ProblemSpec(alpha=1.0, beta=0.0, p=2.0, absorption=PowerAbsorption(0.0),
                        initial=Field(g, np.full(16, value)))


# -- schedule construction ----------------------------------------------------

def test_make_step_schedule_structure():
    sched = make_step_schedule(0.5, 8.0, 0.0, 0.25, snapshot_times=[1.0, 8.0])
    assert sched.beta == 0.0
    assert sched.knot_times[0] == 0.5 and sched.knot_times[-1] == 8.0
    assert 1.0 in sched.knot_times
    # tau gaps divided finely enough
    gaps = np.diff(sched.knot_taus) / sched.substeps
    assert gaps.max() <= 0.25 + 1e-12
    assert sched.total_steps == int(np.sum(sched.substeps))
    # the horizon is always recorded even if not requested
    sched2 = make_step_schedule(0.5, 8.0, 0.0, 0.25, snapshot_times=[1.0])
    assert sched2.snapshot_times[-1] == 8.0


def test_make_step_schedule_validation():
    with pytest.raises(ConfigurationError):
        make_step_schedule(5.0, 1.0, 0.0, 0.1)
    with pytest.raises(ConfigurationError):
        make_step_schedule(-1.0, 1.0, 0.0, 0.1)
    with pytest.raises(ConfigurationError):
        make_step_schedule(1.0, 2.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        make_step_schedule(1.0, 2.0, 0.0, 0.1, snapshot_times=[0.5])


@pytest.mark.parametrize("t1,beta,dtau_max,key", [
    (1e12, 0.0, 1e-6, "dtau_max"),    # 1e18 steps: would run without end
    (60.0, 0.0, 1e-25, "dtau_max"),   # overflowed the int64 cast
    (1e300, 0.0, 1e-25, "dtau_max"),  # gaps / dtau_max is inf
    (1e300, 1.0, 0.2, "t1"),          # tau(t1) is inf
])
def test_make_step_schedule_budget(t1, beta, dtau_max, key):
    with pytest.raises(ConfigurationError, match=f"^{key} "):
        make_step_schedule(1.0, t1, beta, dtau_max)


def test_make_step_schedule_budget_edge():
    at = make_step_schedule(0.0, 1.0, 0.0, 1.0 / _MAX_STEPS,
                            snapshot_times=[1.0])
    assert at.total_steps == _MAX_STEPS
    with pytest.raises(ConfigurationError, match="^dtau_max "):
        make_step_schedule(0.0, 1.0, 0.0, 1.0 / (_MAX_STEPS + 1),
                           snapshot_times=[1.0])


def test_knot_counts_past_the_step_budget_fail_before_any_ladder(monkeypatch):
    """Each gap between knots costs a step, so a ladder or a set of
    snapshot times longer than _MAX_STEPS + 1 is rejected before it is
    built; the trace of _MAX_STEPS steps is the most _MAX_BYTES holds."""
    assert (solver._TRACE_ROW_BYTES * (_MAX_STEPS + 1) <= mixheat.grid._MAX_BYTES
            < solver._TRACE_ROW_BYTES * (_MAX_STEPS + 2))

    def built(*args, **kwargs):
        raise AssertionError("ladder built")

    monkeypatch.setattr(np, "geomspace", built)
    with pytest.raises(AssertionError, match="ladder built"):
        geometric_times(1.0, 10.0, _MAX_STEPS + 1)
    with pytest.raises(ConfigurationError,
                       match=rf"^count must be an integer in \[2, {_MAX_STEPS + 1}\], "
                             rf"got {_MAX_STEPS + 2}$"):
        geometric_times(1.0, 10.0, _MAX_STEPS + 2)
    # a read-only view: the snapshot times themselves take no memory
    too_many = np.broadcast_to(2.0, (_MAX_STEPS + 2,))
    with pytest.raises(ConfigurationError,
                       match=rf"^{_MAX_STEPS + 2} snapshot times need more steps"):
        make_step_schedule(1.0, 10.0, 0.0, 1e9, snapshot_times=too_many)


def test_schedule_snapshots_are_knots_ending_at_t1():
    sched = make_step_schedule(0.5, 8.0, 0.0, 0.25, snapshot_times=[1.0, 2.0])
    assert sched.snapshot_times.tolist() == [1.0, 2.0, 8.0]
    final_only = dataclasses.replace(sched, snapshot_times=sched.snapshot_times[-1:])
    assert final_only.snapshot_times.tolist() == [8.0]
    for bad in ([1.0, 2.0], [1.5, 8.0], [2.0, 1.0, 8.0], []):
        with pytest.raises(ConfigurationError, match="^snapshot times must be"):
            dataclasses.replace(sched, snapshot_times=np.array(bad))
    with pytest.raises(ConfigurationError, match="inside"):
        make_step_schedule(0.5, 8.0, 0.0, 0.25, snapshot_times=[1.0, np.nan])


# -- absorption substep -------------------------------------------------------

def absorbed(values, h, t0, t1, p):
    """A copy of values after the exact absorption flow over [t0, t1]."""
    out = values.copy()
    solver._absorb(out, h.integral(t0, t1), p, np.empty_like(out))
    return out


def test_absorb_closed_form(small_grid):
    ones = np.ones(small_grid.shape)
    # p = 2, H = 1: u -> u / (1 + H u) = 1/2
    out = absorbed(ones, PowerAbsorption(1.0), 0.0, 1.0, 2.0)
    np.testing.assert_allclose(out, 0.5, rtol=1e-14)
    # p = 3, H = 2: u -> u (1 + 2 H u^2)^(-1/2) = 5^(-1/2)
    out = absorbed(ones, PowerAbsorption(1.0), 0.0, 2.0, 3.0)
    np.testing.assert_allclose(out, 5.0 ** -0.5, rtol=1e-14)


def test_absorb_matches_ode_solver(small_grid):
    u0 = unit_gaussian(small_grid, width=2.0)
    h = PowerAbsorption(1.0, 0.8)
    p = 2.5
    stepped = absorbed(u0.values, h, 1.0, 2.0, p)

    probe = u0.values[::64].copy()
    sol = solve_ivp(lambda t, u: -h.rate(t) * u ** p, (1.0, 2.0), probe,
                    rtol=1e-11, atol=1e-14)
    np.testing.assert_allclose(stepped[::64], sol.y[:, -1], rtol=1e-8)


def test_absorb_edge_cases(small_grid):
    u0 = unit_gaussian(small_grid)
    same = absorbed(u0.values, PowerAbsorption(0.0), 1.0, 5.0, 2.0)
    np.testing.assert_array_equal(same, u0.values)
    out = absorbed(np.zeros(small_grid.shape), PowerAbsorption(1.0), 0.0, 1.0, 2.0)
    np.testing.assert_array_equal(out, 0.0)
    # mass cannot grow
    stepped = absorbed(u0.values, PowerAbsorption(1.0), 0.0, 1.0, 2.0)
    assert integral(Field(small_grid, stepped)) < integral(u0)


def test_absorb_at_p_3_is_the_power_form_bitwise():
    """At p = 3 the absorption squares with np.square and divides by the
    in-place root `**= 0.5`; it gives the bits of u / np.sqrt(1 + 2 H
    np.power(u, 2.0)), signed zeros, subnormals and squares near the largest
    float included."""
    rng = np.random.default_rng(16)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e154, -1e154,
               1.3e154]
    values = np.concatenate([special, 10.0 ** rng.uniform(-300, 150, 4096),
                             rng.random(4096)])
    for H in (1e-12, 0.1, 0.37):
        work = np.power(values, 2.0)
        work *= 2.0 * H
        work += 1.0
        expected = values / np.sqrt(work)
        out = values.copy()
        solver._absorb(out, H, 3.0, np.empty_like(out))
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("p", [1.5, 2.0, 1.0 + 1.0 / 15])
def test_absorb_at_p_1_5_and_2_and_past_the_whole_k_cap_is_the_power_form_bitwise(p):
    """At p = 1.5 (1 + 1/2, squared in place), p = 2 and p = 1 + 1/15 (past
    the cap k <= 14 of the whole-power path) the absorption gives the bits of
    np.power, `*= (p-1) H`, `+= 1`, `**= 1/(p-1)` and a divide, special
    values included (NaN where u < 0 has no real power)."""
    rng = np.random.default_rng(21)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e154, -1e154,
               1.3e154]
    values = np.concatenate([special, 10.0 ** rng.uniform(-300, 150, 4096),
                             rng.random(4096)])
    q = p - 1.0
    with np.errstate(invalid="ignore"):
        for H in (1e-12, 0.1, 0.37):
            work = np.power(values, q)
            work *= q * H
            work += 1.0
            work **= 1.0 / q
            expected = values / work
            out = values.copy()
            solver._absorb(out, H, p, np.empty_like(out))
            assert out.tobytes() == expected.tobytes()


def worst_ulp_of_absorb(p, outer):
    """Largest distance, in ulp, of the float absorption from the flow
    u / outer(1 + (p-1) H u^(p-1)), evaluated in 40-digit decimal arithmetic
    from the same float u, p - 1 and H, over u from 1e-300 to 1e150 and in
    [0, 1) and H = 1e-12, 0.1, 0.37."""
    rng = np.random.default_rng(19)
    values = np.concatenate([10.0 ** rng.uniform(-300, 150, 1000),
                             rng.random(1000)])
    absorbed_at = {}
    for H in (1e-12, 0.1, 0.37):
        out = values.copy()
        solver._absorb(out, H, p, np.empty_like(out))
        absorbed_at[H] = out.tolist()
    worst = 0.0
    with decimal.localcontext(decimal.Context(prec=40)) as ctx:
        q = ctx.create_decimal(p - 1.0)
        for i, u in enumerate(values.tolist()):
            u = ctx.create_decimal(u)
            power = u ** q  # once per u: the slow step of a non-integer q
            for H, out in absorbed_at.items():
                exact = u / outer(1 + q * ctx.create_decimal(H) * power)
                ulp = decimal.Decimal(float(np.spacing(float(exact))))
                worst = max(worst, float(abs(decimal.Decimal(out[i]) - exact) / ulp))
    return worst


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_absorb_is_within_2_5_ulp_of_the_exact_flow(p):
    """The float absorption lies within 2.5 ulp of the exact flow
    u / (1 + (p-1) H u^(p-1))^(1/(p-1))."""
    worst = worst_ulp_of_absorb(p, lambda w: w.sqrt() if p == 3.0 else w)
    assert worst <= 2.5, worst


@pytest.mark.parametrize("k", [3, 4, 5, 10])
def test_absorb_is_within_2k_plus_1_ulp_of_the_exact_flow_at_p_1_plus_1_over_k(k):
    """At p = 1 + 1/k the float absorption lies within 2k + 1 ulp of the flow
    with the whole outer power, u / (1 + (p-1) H u^(p-1))^k. The float
    exponent 1/(p-1) is not k (5.000000000000001 at k = 5), and a pow by it
    strays hundreds of ulp from this flow where u is large."""
    worst = worst_ulp_of_absorb(1.0 + 1.0 / k, lambda w: w ** k)
    assert worst <= 2 * k + 1, worst


def test_solve_leaves_its_input_unchanged(small_grid):
    """solve works in place on its own copy: the initial field stays as it
    was, and every snapshot is a copy of the state, not a view."""
    u0 = unit_gaussian(small_grid)
    keep = u0.values.copy()
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                       initial=u0)
    res = solve(prob, make_step_schedule(1.0, 4.0, 0.0, 0.5))
    np.testing.assert_array_equal(u0.values, keep)
    np.testing.assert_array_equal(res.snapshots[0].values, keep)
    assert not np.array_equal(res.snapshots[1].values, res.final.values)


@pytest.mark.parametrize("dim,points", [(1, 256), (2, 64)])
@pytest.mark.parametrize("p", [1.2, 3.0])
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_solve_step_is_absorb_linear_absorb_bitwise(dim, points, p, beta):
    """One solve substep is exactly the Strang composition of half
    absorption, apply_symbol's semigroup plus the ripple clip, and half
    absorption: the in-place loop and the Field-returning transform agree
    bit for bit. A delta on a coarse grid makes the semigroup ripple, so
    the clip runs too."""
    grid = GridSpec(dim, 160.0, points)
    u0 = delta_field(grid)
    h = PowerAbsorption(1.0, -0.3)
    prob = ProblemSpec(alpha=1.3, beta=beta, p=p, absorption=h, initial=u0)
    sched = make_step_schedule(0.5, 0.8, beta, 1.0, snapshot_times=[0.8])
    res = solve(prob, sched)
    assert res.total_steps == 1
    t_a, t_b = sched.knot_times
    taus = sched.knot_taus
    t_m = tau_to_time((taus[:-1] + taus[1:]) / 2.0, beta)[0]
    half = Field(grid, absorbed(u0.values, h, t_a, t_m, p))
    full = apply_symbol(half, make_symbol(grid, 1.3), scale=taus[1] - taus[0],
                        mode="semigroup").values
    solver._clip_negative(full, grid.cell_volume)
    step = absorbed(full, h, t_m, t_b, p)
    assert res.trace.absorbed[-1] > 0 and res.clipped_mass > 0
    np.testing.assert_array_equal(res.final.values, step)


# -- full solve ---------------------------------------------------------------

@pytest.mark.parametrize("dim,points", [(1, 8192), (2, 256)])
def test_solve_peaks_below_four_and_a_half_grids(dim, points):
    """The absorption and norm scratch is a view on the spectrum buffer, so
    a run holds the state, the spectrum, the symbol, the multiplier and
    its one snapshot: its traced peak, symbol build included, stays below
    4.5 grids (about 4.2; a separate work array made it about 5.2)."""
    grid = GridSpec(dim, 64.0, points)
    u0 = unit_gaussian(grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                       initial=u0)
    sched = make_step_schedule(1.0, 2.0, 0.0, 0.25, snapshot_times=[2.0])
    tracemalloc.start()
    try:
        solve(prob, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * u0.values.nbytes

def test_solve_linear_limit_matches_kernel(small_grid):
    """With vanishing absorption the split scheme must reproduce the exact
    semigroup: compare against direct kernel convolution."""
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.2, beta=0.3, p=2.0,
                       absorption=PowerAbsorption(1e-12), initial=u0)
    sched = make_step_schedule(0.5, 5.0, 0.3, 0.05)
    res = solve(prob, sched)
    dtau = time_to_tau(5.0, 0.3) - time_to_tau(0.5, 0.3)
    exact = convolve(mixed_kernel(small_grid, 1.2, dtau), u0)
    assert np.abs(res.final.values - exact.values).max() < 1e-8


def test_solve_trace_structure(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.5, p=2.0,
                       absorption=PowerAbsorption(1.0), initial=u0)
    sched = make_step_schedule(1.0, 20.0, 0.5, 0.1, snapshot_times=[2.0, 20.0])
    res = solve(prob, sched)
    assert res.trace.times[0] == 1.0 and res.trace.times[-1] == 20.0
    assert res.trace.mass[0] == pytest.approx(integral(u0), rel=1e-14)
    np.testing.assert_allclose(res.trace.taus, time_to_tau(res.trace.times, 0.5), rtol=1e-13)
    assert list(res.snapshot_times) == [2.0, 20.0]
    np.testing.assert_array_equal(res.final.values, res.snapshots[-1].values)
    assert res.total_steps == sched.total_steps
    assert res.clipped_mass <= 1e-15


def test_solve_mass_ledger_and_monotonicity(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=PowerAbsorption(1.0), initial=u0)
    res = solve(prob, make_step_schedule(0.0, 10.0, 0.0, 0.1))
    m0 = res.trace.mass[0]
    assert mass_identity_defect(res) <= 1e-12 * m0
    assert np.all(np.diff(res.trace.mass) <= 1e-12 * m0)
    assert np.all(np.diff(res.trace.absorbed) >= -1e-15)
    # absorption really happened
    assert res.trace.mass[-1] < 0.9 * m0


def test_solve_rejects_mismatched_beta(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.5, p=2.0,
                       absorption=PowerAbsorption(0.0), initial=u0)
    sched = make_step_schedule(1.0, 2.0, 0.0, 0.1)
    with pytest.raises(ConfigurationError):
        solve(prob, sched)


def test_solve_checks_its_memory_budget_before_allocating(monkeypatch):
    """2^22 points with 241 snapshot knots hold about 7.5 GiB of
    snapshots: rejected before the symbol or any work array exists."""
    grid = GridSpec(1, 400.0, 2 ** 22)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                       initial=Field(grid, np.zeros(grid.shape)))
    sched = make_step_schedule(1.0, 100.0, 0.0, 1e9,
                               snapshot_times=geometric_times(1.0, 100.0, 241))

    def no_allocation(*args, **kwargs):
        raise AssertionError("solve allocated before its memory check")

    monkeypatch.setattr(solver, "make_symbol", no_allocation)
    with pytest.raises(ConfigurationError,
                       match=r"^241 snapshots of a 4194304-point grid and a trace of 240 "
                             r"steps need about 7\.69 GiB, more than the memory "
                             r"budget of 4 GiB$"):
        solve(prob, sched)
    # the trace rows count too: 48 B per row, two rows for one step
    small = make_step_schedule(1.0, 100.0, 0.0, 1e9, snapshot_times=[100.0])
    monkeypatch.setattr(mixheat.grid, "_MAX_BYTES",
                        (1 + solver._WORK_GRIDS) * grid.points * 8 + 48)
    with pytest.raises(ConfigurationError, match="memory budget"):
        solve(prob, small)


def test_geometric_knots_converge_at_order_two_in_the_c11_setting():
    """The C11 setting (alpha = 1, beta = 0, p = 3, h = 1, L = 400,
    n = 8192, t in [0, 1e3]) with dtau_max lifted, stepping from knot to
    knot: a first step [0, 1e-3], then K knots per decade up to 1e3.
    K = 40 reaches the Richardson limit of the uniform runs, 0.09996078,
    to 1e-6 in at most 250 steps, and doubling K cuts the error four
    times (C08's rule)."""
    u0 = unit_gaussian(GridSpec(1, 400.0, 8192))
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                       initial=Field(u0.grid, 0.1 * u0.values))
    m_inf, steps = {}, {}
    for K in (20, 40, 80):
        knots = np.geomspace(1e-3, 1e3, 6 * K + 1)
        schedule = make_step_schedule(0.0, 1e3, 0.0, 1e9, snapshot_times=knots)
        res = solve(prob, dataclasses.replace(schedule, snapshot_times=knots[-1:]))
        c = classify_mass_limit(res.trace)
        assert c.kind == "positive_plateau"
        m_inf[K], steps[K] = c.m_inf_estimate, res.total_steps
    assert steps[40] <= 250
    assert abs(m_inf[40] / 0.09996078 - 1.0) <= 1e-6
    ratio = (m_inf[20] - m_inf[40]) / (m_inf[40] - m_inf[80])
    assert 3.5 <= ratio <= 4.5


# -- the grid cut -------------------------------------------------------------

def geometric_steps(t1=1e3, per_decade=40):
    """A first step [0, 1e-3], then per_decade knots a decade up to t1."""
    knots = np.geomspace(1e-3, t1, int(round(per_decade * np.log10(t1 / 1e-3))) + 1)
    return make_step_schedule(0.0, t1, 0.0, 1e9, snapshot_times=knots)


@pytest.mark.parametrize("p", [1.2, 3.0])
def test_cut_agrees_with_the_fixed_grid_in_the_c11_setting(p):
    u0 = unit_gaussian(GridSpec(1, 400.0, 8192))
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=p, absorption=PowerAbsorption(1.0),
                       initial=Field(u0.grid, 0.1 * u0.values))
    with logged_cuts() as cuts:
        cut, fixed = solve_cut_and_fixed(prob, geometric_steps())
    assert cuts
    assert_cut_agrees(cut, fixed)


@pytest.fixture(scope="module")
def solve_2d_runs():
    """The benchmark's solve-2d run (alpha = 1, p = 3, h = 1, 256^2 on
    [-64, 64)^2, t in [0, 1e3], dtau_max = 0.5), every knot kept, with
    and without the cut, and the cut's (points, coarse points)."""
    grid = GridSpec(2, 64.0, 256)
    u0 = unit_gaussian(grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                       initial=Field(grid, 0.1 * u0.values))
    with logged_cuts() as cuts:
        cut, fixed = solve_cut_and_fixed(prob, make_step_schedule(0.0, 1e3, 0.0, 0.5))
    return cut, fixed, cuts


def test_cut_agrees_with_the_fixed_grid_on_solve_2d(solve_2d_runs):
    cut, fixed, _ = solve_2d_runs
    assert_cut_agrees(cut, fixed)


def test_solve_2d_ends_on_a_grid_of_at_most_32_points(solve_2d_runs):
    sizes = solve_2d_runs[2]
    assert sizes[0][0] == 256 and sizes[-1][1] <= 32
    assert all(new == old for (_, new), (old, _) in zip(sizes, sizes[1:]))


def test_cut_agrees_with_the_fixed_grid_for_an_off_node_2d_datum():
    """A datum centred between nodes: its peak is no sample, so a coarse
    grid's sample maximum falls short of the fixed grid's (by 5e-3 here);
    linf read from the interpolant on the problem's grid does not."""
    grid = GridSpec(2, 64.0, 256)
    x, y = grid.coords()
    bump = np.exp(-((x - 0.3183) ** 2 + (y - 0.3183) ** 2) / (2.0 * 1.53 ** 2))
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                       initial=Field(grid, 0.1033 * bump / (bump.sum() * grid.cell_volume)))
    with logged_cuts() as cuts:
        cut, fixed = solve_cut_and_fixed(prob, geometric_steps(per_decade=20))
    assert cuts
    assert_cut_agrees(cut, fixed)


def test_cut_bound_is_free_of_the_box_width():
    """The cut test reads the spectrum by index k, never xi = pi k / L: the
    same samples on boxes where L^2 or (pi / L)^2 overflows cut alike, to
    16 points, by solve's band maxima and by slicing each band."""
    grid = GridSpec(1, 20.0, 256)
    u = 1.0 + 1e-9 * np.cos(np.pi * grid.axis_coords() / 20.0)
    cuts = []
    for L in (20.0, 1e300, 1e-300):
        g = GridSpec(1, L, 256)
        mag = np.abs(mixheat.grid._rfft(g, u))
        maxima = mixheat.grid._band_reduce(g, mag, np.maximum)
        cuts.append((mixheat.grid._band_walk(float(mag[0]), maxima), sliced_halvings(g, mag)))
    assert cuts == [(4, 4)] * 3


def test_cut_keeps_the_order_of_a_sharp_datum():
    """The cut tests the spectrum after the step's first half absorption,
    whose harmonics keep this datum (alpha = 1, p = 3, h = 2, 256 points on
    L = 20, t in [0, 1], dtau_max = 1) on its grid while it takes small
    steps. A test of the state before absorption cuts 256 -> 128 at t = 0;
    the steps dtau ~ 1e-3 then lie far below the coarse grid's positivity
    threshold of about 0.35 dx_c^2, and the gap reads -1.08e-8, past the
    floor of test_solve_preserves_the_order_of_its_data."""
    grid = GridSpec(1, 20.0, 256)
    x = grid.axis_coords()

    def gaussian(width, mass):
        bump = np.exp(-x ** 2 / (2.0 * width ** 2))
        return bump * (mass / (np.sum(bump) * grid.cell_volume))

    smaller = gaussian(0.875, 28.0)
    larger = Field(grid, smaller + gaussian(1.0, 1.0))
    problem = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(2.0),
                          initial=Field(grid, smaller))
    gap = comparison_check(problem, larger, make_step_schedule(0.0, 1.0, 0.0, 1.0))
    assert gap >= -1e-10 * float(np.max(larger.values))


def test_solve_logs_each_cut_at_debug(caplog):
    """One DEBUG line per cut: the knot time and n -> n'."""
    u0 = unit_gaussian(GridSpec(1, 8.0, 256))
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                       initial=u0)
    with caplog.at_level("DEBUG", logger="mixheat.solver"):
        res = solve(prob, geometric_steps(t1=100.0, per_decade=10))
    cuts = [r for r in caplog.records if r.getMessage().startswith("solve cut")]
    assert cuts and all(r.levelno == logging.DEBUG for r in cuts)
    assert re.fullmatch(r"solve cut the grid at t = \S+: 256 -> \d+ points per axis",
                        cuts[0].getMessage())
    for r in cuts:
        assert r.args[0] in res.schedule.knot_times[:-1]


def test_solve_transforms_once_each_way_per_step(monkeypatch):
    """The cut tests the spectrum its step's transform already made: a
    solve that keeps one snapshot makes one forward and one inverse
    transform per step, one more forward per cut (on the coarse grid) and
    the pair that refines a unit sample into the cut's linf rows, and the
    pair that refines its final state to the problem's grid."""
    counts = {"forward": 0, "inverse": 0}

    def counted(name, transform):
        def spy(*args, **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)
        return spy

    # solve's own calls and those of grid's _refine
    for module in (solver, mixheat.grid):
        monkeypatch.setattr(module, "_rfft", counted("forward", mixheat.grid._rfft))
        monkeypatch.setattr(module, "_irfft", counted("inverse", mixheat.grid._irfft))
    u0 = unit_gaussian(GridSpec(1, 400.0, 8192))
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                       initial=Field(u0.grid, 0.1 * u0.values))
    schedule = geometric_steps()
    with logged_cuts() as cuts:
        res = solve(prob, dataclasses.replace(schedule,
                                              snapshot_times=schedule.knot_times[-1:]))
    assert cuts[-1][1] < 8192
    assert counts == {"forward": res.total_steps + 2 * len(cuts) + 1,
                      "inverse": res.total_steps + len(cuts) + 1}


class _CountingAbsorption:
    """A law that counts the calls of its integral."""

    def __init__(self, law):
        self.law, self.calls = law, 0
        self.tail_exponent = law.tail_exponent

    def rate(self, t):
        return self.law.rate(t)

    def integral(self, a, b):
        self.calls += 1
        return self.law.integral(a, b)


def test_solve_integrates_h_once_per_knot_gap(small_grid):
    """solve asks the law for the integrals of a knot gap's half steps in
    two array calls, after one call over the whole window [t0, t1]; not
    in two calls a step."""
    law = _CountingAbsorption(PowerAbsorption(1.0, 1.5))
    prob = ProblemSpec(alpha=1.0, beta=0.5, p=2.0, absorption=law,
                       initial=unit_gaussian(small_grid))
    sched = make_step_schedule(0.0, 20.0, 0.5, 0.1, snapshot_times=[1.0, 5.0, 20.0])
    res = solve(prob, sched)
    gaps = sched.knot_times.size - 1
    assert gaps == 3 and res.total_steps > 100 * gaps
    assert law.calls == 2 * gaps + 1


@pytest.mark.parametrize("dim", [1, 2])
def test_fine_max_is_the_refined_maximum(dim):
    """_FineMax reads the maximum of the refined state, whose peak lies
    between coarse nodes, wherever the best sample sits on the torus."""
    fine, coarse = GridSpec(dim, 4.0, 128), GridSpec(dim, 4.0, 16)
    x = coarse.coords()
    fine_max = solver._FineMax(coarse, fine)
    for centre in (0.23, -3.6, 3.7):
        u = np.exp(-sum((2.0 * np.sin(np.pi * (c - centre) / 8.0)) ** 2 for c in x))
        refined = mixheat.grid._refine(u, coarse, fine)
        assert refined.max() > 1.001 * u.max()
        assert fine_max(u[None])[0] == pytest.approx(refined.max(), rel=1e-14)


# -- the trace block ------------------------------------------------------------

TRACE_COLUMNS = ("times", "taus", "mass", "absorbed", "linf", "l2")


def _bumps(grid, *bumps):
    """Gaussians (centre on every axis, width, mass) summed on grid."""
    r2 = [sum((c - centre) ** 2 for c in grid.coords()) for centre, _, _ in bumps]
    return sum(mass * np.exp(-d / (2.0 * width ** 2)) / (
        np.exp(-d / (2.0 * width ** 2)).sum() * grid.cell_volume)
        for d, (_, width, mass) in zip(r2, bumps))


def _block_run(name):
    """The problem and schedule of a run whose trace block is read on cut
    grids."""
    if name == "1d-8192":  # the sweep-1d setting at p = 3: 8192 -> 16 points
        grid = GridSpec(1, 400.0, 8192)
        return (ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                            initial=Field(grid, 0.1 * unit_gaussian(grid).values)),
                geometric_steps())
    if name == "2d-256":  # the solve-2d run: 256^2 -> 32^2 points
        grid = GridSpec(2, 64.0, 256)
        return (ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=PowerAbsorption(1.0),
                            initial=Field(grid, 0.1 * unit_gaussian(grid).values)),
                make_step_schedule(0.0, 1e3, 0.0, 0.5))
    if name == "initial_mass=1e-300":  # every square underflows: l2 is scaled
        grid = GridSpec(1, 40.0, 256)
        initial = Field(grid, 1e-300 * unit_gaussian(grid).values)
    elif name == "half_width=1e300":  # samples of 5e-301 on cells of 2e297: scaled
        grid = GridSpec(1, 1e300, 1024)
        x = grid.axis_coords()
        initial = Field(grid, 5e-301 * (1.0 + 0.5 * np.cos(np.pi * x / 1e300)))
    else:  # "moving-argmax": the best sample of a 2D state moves between cells
        grid = GridSpec(2, 32.0, 128)
        initial = Field(grid, _bumps(grid, (-8.0, 0.6, 1.0), (8.0, 3.0, 1.5)))
        return (ProblemSpec(alpha=1.0, beta=0.0, p=2.0, absorption=PowerAbsorption(0.1),
                            initial=initial),
                make_step_schedule(0.0, 100.0, 0.0, 1e9,
                                   snapshot_times=np.geomspace(0.01, 100.0, 41)))
    return (ProblemSpec(alpha=1.0, beta=0.0, p=2.0, absorption=PowerAbsorption(1.0),
                        initial=initial),
            make_step_schedule(0.5, 60.0, 0.0, 0.2,
                               snapshot_times=geometric_times(0.5, 60.0, 9)))


@pytest.mark.parametrize("run", ["1d-8192", "2d-256", "initial_mass=1e-300",
                                 "half_width=1e300", "moving-argmax"])
def test_trace_block_reads_each_state_as_a_lone_one(run, monkeypatch):
    """On a cut grid solve reads linf and l2 a block of states at a time;
    a block of one state is per-step reading, and every trace column is
    the same, bit for bit."""
    problem, schedule = _block_run(run)
    bests = set()
    plane = solver._FineMax._plane

    def seen(fine_max, u):  # the 2D reader's best sample, after each state
        out = plane(fine_max, u)
        bests.add((u.shape, fine_max.best))
        return out

    monkeypatch.setattr(solver._FineMax, "_plane", seen)
    with logged_cuts() as cuts:
        blocked = solve(problem, schedule).trace
    # the last grid's block holds more than one state
    assert cuts and int(solver._BLOCK_GRIDS * problem.initial.values.size) > (
        cuts[-1][1] ** problem.grid.dim)
    monkeypatch.setattr(solver, "_BLOCK_GRIDS", 0.0)
    stepped = solve(problem, schedule).trace
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(blocked, name), getattr(stepped, name)), name
    if run == "moving-argmax":  # the gather is rebuilt as the best sample moves
        shapes = [shape for shape, _ in bests]
        assert max(map(shapes.count, shapes)) >= 2


@pytest.mark.parametrize("dim,coarse,fine", [(1, 16, 2 ** 17), (1, 2048, 4096), (2, 16, 128)])
def test_fine_max_reads_a_stack_as_lone_states(dim, coarse, fine):
    """Each state of a stack takes the one BLAS product a lone state takes,
    so its linf has the same bits. One product of a chunk's rows need not:
    with r = 2 fine nodes a cell (the 2048-point row), OpenBLAS sums a
    product of more than two rows another way."""
    coarse, fine = GridSpec(dim, 4.0, coarse), GridSpec(dim, 4.0, fine)
    states = np.random.default_rng(7).random((20,) + coarse.shape)
    fine_max = solver._FineMax(coarse, fine)
    lone = [fine_max(u[None])[0] for u in states]
    assert np.array_equal(fine_max(states), lone)


@pytest.mark.parametrize("scale", [1.0, 1e-300], ids=["plain", "scaled"])
@pytest.mark.parametrize("dim", [1, 2])
def test_problem_grid_rows_read_their_state(dim, scale):
    """A 16-point grid cannot cut, so every row is read on the problem grid:
    at t0 and at each snapshot, linf is the state's sample maximum and l2
    grid's L2 norm of it, bit for bit (a 1e-300 datum takes the scaled
    path)."""
    grid = GridSpec(dim, 8.0, 16)
    problem = ProblemSpec(alpha=1.5, beta=0.5, p=2.0, absorption=PowerAbsorption(1.0),
                          initial=Field(grid, scale * unit_gaussian(grid, 1.0).values))
    schedule = make_step_schedule(0.0, 4.0, 0.5, 0.1)
    with logged_cuts() as cuts:
        result = solve(problem, schedule)
    assert not cuts
    assert np.array_equal(result.snapshot_times, schedule.knot_times)
    trace = result.trace
    assert trace.times.size > result.snapshot_times.size  # steps between knots
    rows = np.searchsorted(trace.times, result.snapshot_times)
    assert np.array_equal(trace.times[rows], result.snapshot_times)
    for row, field in zip(rows, result.snapshots):
        values = field.values
        assert trace.linf[row] == values.max()
        assert trace.l2[row] == mixheat.grid._lq_norm(values, 2.0, grid.cell_volume)


class _PoisonAbsorption:
    """Valid until t > 4, then reports NaN; drives the solver into its
    non-finite abort path. Its integral works elementwise, as solve asks."""

    tail_exponent = 0.0

    def rate(self, t):
        return 1.0

    def integral(self, a, b):
        return np.where(b > 4.0, np.nan, b - a)


def test_solve_attaches_partial_result_on_blowup(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=_PoisonAbsorption(), initial=u0)
    sched = make_step_schedule(1.0, 8.0, 0.0, 0.5)
    with pytest.raises(NumericalFailureError) as exc:
        solve(prob, sched)
    partial = exc.value.partial
    assert isinstance(partial, SolveResult)
    assert partial.trace.times[0] == 1.0
    assert partial.trace.times[-1] < 8.0
    assert np.isfinite(partial.trace.mass).all()

    # a blow-up after a cut (8192 -> 128 points at t = 1, a trace block of 8
    # states) leaves 2 states in the block: every completed row is read, and
    # is the healthy run's, linf and l2 too, with no top left in linf's place
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0, absorption=_PoisonAbsorption(),
                       initial=unit_gaussian(GridSpec(1, 400.0, 8192), width=24.0))
    sched = make_step_schedule(1.0, 8.0, 0.0, 0.1)
    with logged_cuts() as cuts, pytest.raises(NumericalFailureError) as exc:
        solve(prob, sched)
    partial = exc.value.partial.trace
    healthy = solve(dataclasses.replace(prob, absorption=PowerAbsorption(1.0)), sched).trace
    assert cuts == [(8192, 128)] and partial.times.size == 35
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(partial, name), getattr(healthy, name)[:35]), name

    # poisoned from the first step: the partial trace is the initial row
    with pytest.raises(NumericalFailureError,
                       match=r"^non-finite state at t = 5\.\d+ \(0 steps completed\)$") as exc:
        solve(prob, make_step_schedule(5.0, 8.0, 0.0, 0.5))
    partial = exc.value.partial
    assert partial.trace.times.tolist() == [5.0] and partial.total_steps == 0


# -- diagnostics --------------------------------------------------------------

def test_comparison_check_ordering(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=PowerAbsorption(1.0), initial=u0)
    sched = make_step_schedule(0.5, 4.0, 0.0, 0.1)
    doubled = Field(small_grid, 2.0 * u0.values)
    gap = comparison_check(prob, doubled, sched)
    assert gap >= -1e-10 * 2.0 * float(u0.values.max())
    # identical data: identical runs, gap exactly zero
    assert comparison_check(prob, u0, sched) == 0.0


def test_comparison_check_rejects_non_dominating(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=PowerAbsorption(0.0), initial=u0)
    sched = make_step_schedule(0.5, 2.0, 0.0, 0.1)
    halved = Field(small_grid, 0.5 * u0.values)
    with pytest.raises(ConfigurationError):
        comparison_check(prob, halved, sched)
    other = unit_gaussian(GridSpec(1, 40.0, 256))
    with pytest.raises(ConfigurationError):
        comparison_check(prob, other, sched)


def test_duhamel_residual_exact_for_linear_flow(small_grid):
    """Without absorption the integral term vanishes and the mild form is
    the semigroup itself; the residual reduces to FFT roundoff."""
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.1, beta=0.4, p=2.0,
                       absorption=PowerAbsorption(0.0), initial=u0)
    sched = make_step_schedule(0.5, 6.0, 0.4, 0.05)
    res = solve(prob, sched)
    assert duhamel_residual(res) < 1e-10


@pytest.mark.parametrize("kept", [1, 2])
def test_duhamel_residual_needs_three_snapshots(small_grid, kept):
    """With fewer than 3 snapshots there is no time quadrature: a result
    keeping only its last one or two raises, and never scores 0."""
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=PowerAbsorption(1.0), initial=u0)
    sched = make_step_schedule(0.5, 8.0, 0.0, 0.02)
    res = solve(prob, dataclasses.replace(
        sched, snapshot_times=sched.snapshot_times[-kept:]))
    assert res.snapshot_times.size == kept
    with pytest.raises(ConfigurationError, match="at least 3 snapshots"):
        duhamel_residual(res)


def test_duhamel_residual_shrinks_with_snapshot_density(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=PowerAbsorption(1.0), initial=u0)
    coarse = solve(prob, make_step_schedule(
        0.5, 8.0, 0.0, 0.02, snapshot_times=geometric_times(0.5, 8.0, 17)))
    dense = solve(prob, make_step_schedule(
        0.5, 8.0, 0.0, 0.02, snapshot_times=geometric_times(0.5, 8.0, 65)))
    r_coarse = duhamel_residual(coarse)
    r_dense = duhamel_residual(dense)
    assert r_dense < r_coarse / 2.0
    assert r_dense < 1e-3
