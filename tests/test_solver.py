"""Time stepping: absorption laws, split steps, full solves, diagnostics."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from mixheat import (
    ConfigurationError,
    ConstantAbsorption,
    NoAbsorption,
    NumericalFailureError,
    PowerAbsorption,
    ProblemSpec,
    SolveResult,
    TableAbsorption,
    absorption_step,
    comparison_check,
    convolve,
    default_snapshot_times,
    delta_field,
    duhamel_residual,
    integral,
    linear_step,
    make_absorption,
    make_field,
    make_grid,
    make_step_schedule,
    make_symbol,
    mass_identity_defect,
    mixed_kernel,
    solve,
    time_to_tau,
    tau_to_time,
)
from mixheat.solver import _MAX_STEPS, geometric_times


def unit_gaussian(grid, width=1.5):
    r2 = sum(c ** 2 for c in grid.coords())
    f = make_field(grid, np.exp(-r2 / (2.0 * width ** 2)))
    return make_field(grid, f.values / integral(f))


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(1, 40.0, 512)


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

def test_no_absorption_is_zero():
    h = NoAbsorption()
    assert h.rate(3.0) == 0.0
    assert h.integral(0.0, 10.0) == 0.0
    assert h.tail_exponent is None


def test_constant_absorption():
    h = ConstantAbsorption(2.5)
    assert h.rate(0.3) == 2.5
    assert h.integral(1.0, 4.0) == pytest.approx(7.5)
    assert h.tail_exponent == 0.0
    with pytest.raises(ConfigurationError):
        ConstantAbsorption(0.0)


@pytest.mark.parametrize("coeff,sigma", [(2.0, 0.7), (1.5, -1.0), (1.0, -2.3)])
def test_power_absorption_integral_matches_quadrature(coeff, sigma):
    h = PowerAbsorption(coeff, sigma)
    for a, b in ((0.0, 1.0), (0.5, 7.0), (3.0, 3.0)):
        oracle = quad(lambda t: coeff * (1.0 + t) ** sigma, a, b, epsabs=1e-13)[0]
        assert h.integral(a, b) == pytest.approx(oracle, rel=1e-10, abs=1e-13)


def test_power_absorption_log_case_closed_form():
    h = PowerAbsorption(1.5, -1.0)
    assert h.integral(0.0, np.e - 1.0) == pytest.approx(1.5, rel=1e-12)


def test_power_absorption_metadata():
    h = PowerAbsorption(1.0, 0.8)
    assert h.tail_exponent == 0.8
    assert h.rate(1.0) == pytest.approx(2.0 ** 0.8)
    with pytest.raises(ConfigurationError):
        PowerAbsorption(-1.0, 0.5)


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


def test_make_absorption_dispatch():
    assert isinstance(make_absorption("none"), NoAbsorption)
    assert isinstance(make_absorption("constant", coefficient=1.0), ConstantAbsorption)
    assert isinstance(make_absorption("power", coefficient=1.0, exponent=-1.0),
                      PowerAbsorption)
    table = make_absorption("table", times=np.array([0.0, 1.0]),
                            values=np.array([1.0, 1.0]))
    assert isinstance(table, TableAbsorption)
    with pytest.raises(ConfigurationError):
        make_absorption("exponential")


# -- problem validation -------------------------------------------------------

def test_problem_spec_validation(small_grid):
    u0 = unit_gaussian(small_grid)
    good = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=NoAbsorption(), initial=u0)
    assert good.grid == small_grid
    for alpha in (0.0, 2.0, 2.5):
        with pytest.raises(ConfigurationError):
            ProblemSpec(alpha=alpha, beta=0.0, p=2.0,
                        absorption=NoAbsorption(), initial=u0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(alpha=1.0, beta=-0.1, p=2.0,
                    absorption=NoAbsorption(), initial=u0)
    for p in (1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="^p must"):
            ProblemSpec(alpha=1.0, beta=0.0, p=p,
                        absorption=NoAbsorption(), initial=u0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(alpha=1.0, beta=0.0, p=2.0, absorption=NoAbsorption(),
                    initial=make_field(small_grid, u0.values - 0.1))


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


# -- absorption step ----------------------------------------------------------

def test_absorption_step_closed_form(small_grid):
    ones = make_field(small_grid, np.ones(small_grid.shape))
    # p = 2, H = 1: u -> u / (1 + H u) = 1/2
    out = absorption_step(ones, 0.0, 1.0, 2.0, ConstantAbsorption(1.0))
    np.testing.assert_allclose(out.values, 0.5, rtol=1e-14)
    # p = 3, H = 2: u -> u (1 + 2 H u^2)^(-1/2) = 5^(-1/2)
    out = absorption_step(ones, 0.0, 2.0, 3.0, ConstantAbsorption(1.0))
    np.testing.assert_allclose(out.values, 5.0 ** -0.5, rtol=1e-14)


def test_absorption_step_matches_ode_solver(small_grid):
    u0 = unit_gaussian(small_grid, width=2.0)
    h = PowerAbsorption(1.0, 0.8)
    p = 2.5
    stepped = absorption_step(u0, 1.0, 2.0, p, h)

    probe = u0.values[::64].copy()
    sol = solve_ivp(lambda t, u: -h.rate(t) * u ** p, (1.0, 2.0), probe,
                    rtol=1e-11, atol=1e-14)
    np.testing.assert_allclose(stepped.values[::64], sol.y[:, -1], rtol=1e-8)


def test_absorption_step_edge_cases(small_grid):
    u0 = unit_gaussian(small_grid)
    same = absorption_step(u0, 1.0, 5.0, 2.0, NoAbsorption())
    np.testing.assert_array_equal(same.values, u0.values)
    zero = make_field(small_grid, np.zeros(small_grid.shape))
    out = absorption_step(zero, 0.0, 1.0, 2.0, ConstantAbsorption(1.0))
    np.testing.assert_array_equal(out.values, 0.0)
    # mass cannot grow
    stepped = absorption_step(u0, 0.0, 1.0, 2.0, ConstantAbsorption(1.0))
    assert integral(stepped) < integral(u0)


def test_absorption_step_rejects_negative_state(small_grid):
    bad = make_field(small_grid, np.full(small_grid.shape, -1.0))
    with pytest.raises(ConfigurationError):
        absorption_step(bad, 0.0, 1.0, 2.0, ConstantAbsorption(1.0))


def test_absorption_step_rejects_non_finite_p(small_grid):
    # p = inf would absorb nothing: inf * 0 is NaN and NaN ** -0.0 is 1
    u0 = unit_gaussian(small_grid)
    for p in (np.inf, np.nan, 1.0):
        with pytest.raises(ConfigurationError, match="^p must"):
            absorption_step(u0, 0.0, 1.0, p, ConstantAbsorption(1.0))


def test_steps_and_solve_leave_their_input_unchanged(small_grid):
    """The stepper works in place on its own copy: input fields stay as
    they were, and every snapshot is a copy of the state, not a view."""
    u0 = unit_gaussian(small_grid)
    rippled = make_field(small_grid, u0.values - 1e-13 * u0.values.max())
    h = ConstantAbsorption(1.0)
    for f in (u0, rippled):
        keep = f.values.copy()
        absorption_step(f, 0.0, 1.0, 3.0, h)
        linear_step(f, 0.5, 1.0)
        np.testing.assert_array_equal(f.values, keep)
    keep = u0.values.copy()
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=3.0, absorption=h, initial=u0)
    res = solve(prob, make_step_schedule(1.0, 4.0, 0.0, 0.5))
    np.testing.assert_array_equal(u0.values, keep)
    np.testing.assert_array_equal(res.snapshots[0].values, keep)
    assert not np.array_equal(res.snapshots[1].values, res.final.values)


# -- linear step --------------------------------------------------------------

def test_linear_step_identity_at_zero(small_grid):
    u0 = unit_gaussian(small_grid)
    out = linear_step(u0, 0.0, 1.0)
    np.testing.assert_allclose(out.values, u0.values, rtol=0, atol=1e-15)


def test_linear_step_delta_reproduces_kernel(small_grid):
    out = linear_step(delta_field(small_grid), 0.8, 1.2)
    kern = mixed_kernel(small_grid, 1.2, 0.8)
    np.testing.assert_allclose(out.values, kern.values, rtol=0, atol=1e-10)


def test_linear_step_semigroup_composition(small_grid):
    u0 = unit_gaussian(small_grid)
    once = linear_step(u0, 0.6, 1.0)
    twice = linear_step(linear_step(u0, 0.3, 1.0), 0.3, 1.0)
    np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-12)


def test_linear_step_accepts_symbol_or_alpha(small_grid):
    u0 = unit_gaussian(small_grid)
    sym = make_symbol(small_grid, 1.3)
    a = linear_step(u0, 0.5, 1.3)
    b = linear_step(u0, 0.5, sym)
    np.testing.assert_array_equal(a.values, b.values)


def test_linear_step_rejects_negative_span(small_grid):
    with pytest.raises(ConfigurationError):
        linear_step(unit_gaussian(small_grid), -0.1, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_step_matches_linear_step_bitwise(dim):
    """With h = 0 one solve substep is exactly linear_step: same spectral
    helper, same multiplier, same clip."""
    grid = make_grid(dim, 20.0, 64)
    u0 = unit_gaussian(grid)
    prob = ProblemSpec(alpha=1.3, beta=0.0, p=2.0, absorption=NoAbsorption(),
                       initial=u0)
    sched = make_step_schedule(1.0, 1.7, 0.0, 1.0, snapshot_times=[1.7])
    res = solve(prob, sched)
    assert res.total_steps == 1
    dtau = sched.knot_taus[1] - sched.knot_taus[0]
    step = linear_step(u0, dtau, make_symbol(grid, 1.3))
    np.testing.assert_array_equal(res.final.values, step.values)


@pytest.mark.parametrize("dim,points", [(1, 256), (2, 64)])
@pytest.mark.parametrize("p", [1.2, 3.0])
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_solve_step_is_absorb_linear_absorb_bitwise(dim, points, p, beta):
    """One solve substep is exactly the Strang composition of the public
    substeps: the in-place loop and the Field-returning steps agree bit
    for bit. A delta on a coarse grid makes the semigroup ripple, so the
    clip runs too."""
    grid = make_grid(dim, 160.0, points)
    u0 = delta_field(grid)
    h = PowerAbsorption(1.0, -0.3)
    prob = ProblemSpec(alpha=1.3, beta=beta, p=p, absorption=h, initial=u0)
    sched = make_step_schedule(0.5, 0.8, beta, 1.0, snapshot_times=[0.8])
    res = solve(prob, sched)
    assert res.total_steps == 1
    t_a, t_b = sched.knot_times
    taus = sched.knot_taus
    t_m = tau_to_time((taus[:-1] + taus[1:]) / 2.0, beta)[0]
    half = absorption_step(u0, t_a, t_m, p, h)
    full = linear_step(half, taus[1] - taus[0], make_symbol(grid, 1.3))
    step = absorption_step(full, t_m, t_b, p, h)
    assert res.absorbed[-1] > 0 and res.clipped_mass > 0
    np.testing.assert_array_equal(res.final.values, step.values)


# -- full solve ---------------------------------------------------------------

def test_solve_linear_limit_matches_kernel(small_grid):
    """With vanishing absorption the split scheme must reproduce the exact
    semigroup: compare against direct kernel convolution."""
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.2, beta=0.3, p=2.0,
                       absorption=ConstantAbsorption(1e-12), initial=u0)
    sched = make_step_schedule(0.5, 5.0, 0.3, 0.05)
    res = solve(prob, sched)
    dtau = time_to_tau(5.0, 0.3) - time_to_tau(0.5, 0.3)
    exact = convolve(mixed_kernel(small_grid, 1.2, dtau), u0)
    assert np.abs(res.final.values - exact.values).max() < 1e-8


def test_solve_trace_structure(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.5, p=2.0,
                       absorption=ConstantAbsorption(1.0), initial=u0)
    sched = make_step_schedule(1.0, 20.0, 0.5, 0.1, snapshot_times=[2.0, 20.0])
    res = solve(prob, sched)
    assert res.times[0] == 1.0 and res.times[-1] == 20.0
    assert res.mass[0] == pytest.approx(integral(u0), rel=1e-14)
    np.testing.assert_allclose(res.taus, time_to_tau(res.times, 0.5), rtol=1e-13)
    assert list(res.snapshot_times) == [2.0, 20.0]
    np.testing.assert_array_equal(res.final.values, res.snapshots[-1].values)
    assert res.total_steps == sched.total_steps
    assert res.clipped_mass <= 1e-15


def test_solve_mass_ledger_and_monotonicity(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=ConstantAbsorption(1.0), initial=u0)
    res = solve(prob, make_step_schedule(0.0, 10.0, 0.0, 0.1))
    m0 = res.mass[0]
    assert mass_identity_defect(res) <= 1e-12 * m0
    assert np.all(np.diff(res.mass) <= 1e-12 * m0)
    assert np.all(np.diff(res.absorbed) >= -1e-15)
    # absorption really happened
    assert res.mass[-1] < 0.9 * m0


def test_solve_rejects_mismatched_beta(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.5, p=2.0,
                       absorption=NoAbsorption(), initial=u0)
    sched = make_step_schedule(1.0, 2.0, 0.0, 0.1)
    with pytest.raises(ConfigurationError):
        solve(prob, sched)


class _PoisonAbsorption:
    """Valid until t > 4, then reports NaN; drives the solver into its
    non-finite abort path."""

    tail_exponent = 0.0

    def rate(self, t):
        return 1.0

    def integral(self, a, b):
        if b > 4.0:
            return float("nan")
        return b - a


def test_solve_attaches_partial_result_on_blowup(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=_PoisonAbsorption(), initial=u0)
    sched = make_step_schedule(1.0, 8.0, 0.0, 0.5)
    with pytest.raises(NumericalFailureError) as exc:
        solve(prob, sched)
    partial = exc.value.partial
    assert isinstance(partial, SolveResult)
    assert partial.times[0] == 1.0
    assert partial.times[-1] < 8.0
    assert np.isfinite(partial.mass).all()


# -- diagnostics --------------------------------------------------------------

def test_comparison_check_ordering(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=ConstantAbsorption(1.0), initial=u0)
    sched = make_step_schedule(0.5, 4.0, 0.0, 0.1)
    doubled = make_field(small_grid, 2.0 * u0.values)
    gap = comparison_check(prob, doubled, sched)
    assert gap >= -1e-10 * 2.0 * float(u0.values.max())
    # identical data: identical runs, gap exactly zero
    assert comparison_check(prob, u0, sched) == 0.0


def test_comparison_check_rejects_non_dominating(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=NoAbsorption(), initial=u0)
    sched = make_step_schedule(0.5, 2.0, 0.0, 0.1)
    halved = make_field(small_grid, 0.5 * u0.values)
    with pytest.raises(ConfigurationError):
        comparison_check(prob, halved, sched)
    other = unit_gaussian(make_grid(1, 40.0, 256))
    with pytest.raises(ConfigurationError):
        comparison_check(prob, other, sched)


def test_duhamel_residual_exact_for_linear_flow(small_grid):
    """Without absorption the integral term vanishes and the mild form is
    the semigroup itself; the residual reduces to FFT roundoff."""
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.1, beta=0.4, p=2.0,
                       absorption=NoAbsorption(), initial=u0)
    sched = make_step_schedule(0.5, 6.0, 0.4, 0.05)
    res = solve(prob, sched)
    assert duhamel_residual(res) < 1e-10


def test_duhamel_residual_shrinks_with_snapshot_density(small_grid):
    u0 = unit_gaussian(small_grid)
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=ConstantAbsorption(1.0), initial=u0)
    coarse = solve(prob, make_step_schedule(
        0.5, 8.0, 0.0, 0.02, snapshot_times=geometric_times(0.5, 8.0, 17)))
    dense = solve(prob, make_step_schedule(
        0.5, 8.0, 0.0, 0.02, snapshot_times=geometric_times(0.5, 8.0, 65)))
    r_coarse = duhamel_residual(coarse)
    r_dense = duhamel_residual(dense)
    assert r_dense < r_coarse / 2.0
    assert r_dense < 1e-3
