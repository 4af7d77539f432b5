"""Mass traces, classification, condition checks, and profile errors."""

import csv
import logging
import re
import warnings

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
    classify_mass_limit,
    condition_h_check,
    critical_exponent,
    decay_rate_exponent,
    integral,
    make_step_schedule,
    mixed_kernel,
    profile_error,
    read_mass_csv,
    solve,
    time_to_tau,
    write_mass_csv,
)
from mixheat import observers


def synthetic_trace(times, mass, m0=None):
    """Ledger-consistent trace: absorbed picks up exactly what mass lost."""
    times = np.asarray(times, dtype=float)
    mass = np.asarray(mass, dtype=float)
    start = mass[0] if m0 is None else m0
    return MassTrace(times=times,
                     taus=times.copy(),
                     mass=mass,
                     absorbed=start - mass,
                     linf=mass * 0.1,
                     l2=mass * 0.3)


# -- trace container ----------------------------------------------------------

def test_mass_trace_validation():
    t = np.array([1.0, 2.0, 3.0])
    m = np.array([1.0, 0.9, 0.8])
    with pytest.raises(ConfigurationError):
        MassTrace(times=t, taus=t, mass=m[:2], absorbed=m, linf=m, l2=m)
    bad_t = np.array([1.0, 2.0, 2.0])
    with pytest.raises(ConfigurationError):
        MassTrace(times=bad_t, taus=bad_t, mass=m, absorbed=m, linf=m, l2=m)


def test_mass_trace_initial_mass():
    tr = synthetic_trace([1.0, 10.0, 100.0], [0.8, 0.7, 0.6], m0=1.0)
    assert tr.initial_mass == pytest.approx(1.0)


def test_mass_trace_from_solve_result():
    grid = GridSpec(1, 40.0, 256)
    bump = np.exp(-sum(c ** 2 for c in grid.coords()))
    u0 = Field(grid, bump / integral(Field(grid, bump)))
    prob = ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=PowerAbsorption(1.0), initial=u0)
    res = solve(prob, make_step_schedule(0.5, 4.0, 0.0, 0.2))
    tr = res.trace
    np.testing.assert_array_equal(tr.times, res.trace.times)
    np.testing.assert_array_equal(tr.mass, res.trace.mass)
    assert tr.initial_mass == pytest.approx(integral(u0), rel=1e-13)


def test_mass_csv_roundtrip(tmp_path):
    tr = synthetic_trace(np.geomspace(0.1, 100.0, 12),
                         np.linspace(1.0, 0.4, 12))
    path = tmp_path / "trace.csv"
    write_mass_csv(tr, path)
    back = read_mass_csv(path)
    # %.17g serialization is lossless for doubles
    np.testing.assert_array_equal(back.times, tr.times)
    np.testing.assert_array_equal(back.mass, tr.mass)
    np.testing.assert_array_equal(back.absorbed, tr.absorbed)
    np.testing.assert_array_equal(back.l2, tr.l2)


# the float edges: a signed zero, the least subnormal, the largest float
EDGES = (-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0, -2.5e-300)


@pytest.mark.parametrize("count", [1, observers._CHUNK_ROWS - 1, observers._CHUNK_ROWS,
                                   observers._CHUNK_ROWS + 1])
def test_mass_csv_bytes_are_csv_writer_s(tmp_path, count):
    """One % per chunk of rows writes the bytes that csv.writer wrote with
    one % per value, \r\n line ends included, on either side of a chunk's
    end; a trace read back is written again byte for byte."""
    times = np.arange(1.0, count + 1.0)
    columns = [times] + [np.resize(np.roll(EDGES, k), count) for k in range(5)]
    write_mass_csv(MassTrace(*columns), tmp_path / "trace.csv")
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "tau", "mass", "absorbed", "linf", "l2"))
        writer.writerows(["%.17g" % v for v in row] for row in zip(*columns))
    written = (tmp_path / "trace.csv").read_bytes()
    assert written == (tmp_path / "old.csv").read_bytes()
    assert written.count(b"\r\n") == count + 1
    assert {b"-0", b"4.9406564584124654e-324", b"1.7976931348623157e+308"} <= set(
        written.replace(b"\r\n", b",").split(b","))
    if count > 1:  # a trace needs two rows
        write_mass_csv(read_mass_csv(tmp_path / "trace.csv"), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == written


def test_mass_csv_rejects_one_row(tmp_path):
    path = tmp_path / "one.csv"
    write_mass_csv(synthetic_trace([1.0], [1.0]), path)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: "):
        read_mass_csv(path)


def test_mass_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigurationError):
        read_mass_csv(path)


# -- exponents ----------------------------------------------------------------

def test_critical_exponent_values():
    assert critical_exponent(1.0, 0.0, 1) == pytest.approx(2.0)
    assert critical_exponent(0.5, 1.0, 2) == pytest.approx(1.125)
    assert critical_exponent(1.5, 0.5, 1) == pytest.approx(2.0)
    for beta in (-0.5, np.nan):
        with pytest.raises(ConfigurationError, match="^beta must be >= 0"):
            critical_exponent(1.0, beta, 1)
    with pytest.raises(ConfigurationError, match="^dim must"):
        critical_exponent(1.0, 0.0, 0)


def test_decay_rate_exponent_values():
    assert decay_rate_exponent(2.0, 1.0, 0.0, 1) == pytest.approx(1.0)
    assert decay_rate_exponent(3.0, 0.5, 1.0, 2) == pytest.approx(16.0)
    for beta in (-0.5, np.nan):
        with pytest.raises(ConfigurationError, match="^beta must be >= 0"):
            decay_rate_exponent(2.0, 1.0, beta, 1)
    for p in (1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="^p must be finite and > 1"):
            decay_rate_exponent(p, 1.0, 0.0, 1)


# -- integrability check ------------------------------------------------------

def test_condition_h_check_power_family():
    # h constant, alpha = 1, beta = 0, N = 1: r = p - 1
    assert condition_h_check(3.0, 1.0, 0.0, 1, PowerAbsorption(1.0)) == "convergent"
    # at the critical exponent the integral diverges logarithmically
    assert condition_h_check(2.0, 1.0, 0.0, 1, PowerAbsorption(1.0)) == "divergent"
    assert condition_h_check(2.0, 1.0, 0.0, 1, PowerAbsorption(1.0, -2.0)) == "convergent"
    # sigma - r = -1 exactly: still divergent
    assert condition_h_check(2.0, 1.0, 0.0, 1, PowerAbsorption(1.0, 0.0)) == "divergent"
    # no absorption at all: h = 0 decays faster than any power
    assert condition_h_check(2.0, 1.0, 0.0, 1, PowerAbsorption(0.0)) == "convergent"


def test_condition_h_check_table_heuristic(caplog):
    # a table does not define h past its last time: no verdict, no warning
    t = np.geomspace(1.0, 1e6, 200)
    tables = (TableAbsorption(t, (1.0 + t) ** -3.0), TableAbsorption(t, np.ones_like(t)),
              TableAbsorption([0.0, 1.0], [1.0, 1.0]))
    with caplog.at_level(logging.DEBUG):
        for h in tables:
            for p in (1.5, 2.0, 3.0):
                assert condition_h_check(p, 1.0, 0.0, 1, h) == "undetermined"
    assert not caplog.records


def test_condition_h_check_validation():
    with pytest.raises(ConfigurationError):
        condition_h_check(1.0, 1.0, 0.0, 1, PowerAbsorption(1.0))


# -- classification -----------------------------------------------------------

def test_classify_plateau():
    t = np.geomspace(0.01, 1000.0, 60)
    mass = 0.5 + 0.3 * np.exp(-t)
    c = classify_mass_limit(synthetic_trace(t, mass, m0=0.8))
    assert c.kind == "positive_plateau"
    assert abs(c.trailing_slope) < 0.01
    assert c.m_inf_estimate == pytest.approx(0.5, rel=1e-6)


def test_classify_decay():
    t = np.geomspace(0.1, 1000.0, 50)
    mass = 2.0 * t ** -0.8
    c = classify_mass_limit(synthetic_trace(t, mass, m0=2.0 * 0.1 ** -0.8))
    assert c.kind == "decaying_to_zero"
    assert c.trailing_slope == pytest.approx(-0.8, abs=0.01)
    assert c.m_inf_estimate is None


def test_classify_inconclusive_shallow_slope():
    t = np.geomspace(0.1, 1000.0, 50)
    mass = t ** -0.03
    c = classify_mass_limit(synthetic_trace(t, mass, m0=0.1 ** -0.03))
    assert c.kind == "inconclusive"


def test_classify_inconclusive_on_bump():
    # steep fitted slope but non-monotone inside the window
    t = np.geomspace(0.1, 1000.0, 80)
    mass = 2.0 * t ** -0.8
    mass[-10] *= 1.3
    c = classify_mass_limit(synthetic_trace(t, np.copy(mass), m0=mass[0]))
    assert c.kind == "inconclusive"


def test_classify_window_argument():
    t = np.geomspace(0.01, 1000.0, 60)
    mass = 0.5 + 0.3 * np.exp(-t)
    tr = synthetic_trace(t, mass, m0=0.8)
    assert classify_mass_limit(tr, window=0.3).kind == "positive_plateau"
    # a full-span window sees the early transient and drops the plateau call
    assert classify_mass_limit(tr, window=1.0).kind != "positive_plateau"
    with pytest.raises(ConfigurationError):
        classify_mass_limit(tr, window=0.0)
    with pytest.raises(ConfigurationError):
        classify_mass_limit(tr, window=1.5)


def test_classify_zero_mass_is_decay():
    """Mass that reaches 0 (to rounding) in the window decays, with no fit."""
    t = np.geomspace(0.1, 1000.0, 50)
    mass = 2.0 * t ** -0.8
    mass[-3:] = 0.0
    c = classify_mass_limit(synthetic_trace(t, mass))
    assert (c.kind, c.trailing_slope, c.relative_drop, c.m_inf_estimate) == (
        "decaying_to_zero", -np.inf, 1.0, None)


def test_classify_refuses_a_window_of_fewer_than_4_samples():
    # two decades, but the last holds only the samples at 10 and 100
    t = np.array([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 10.0, 100.0])
    with pytest.raises(ConfigurationError,
                       match="^trailing window holds fewer than 4 samples$"):
        classify_mass_limit(synthetic_trace(t, np.linspace(1.0, 0.5, 8)))


def test_classify_validation():
    t = np.geomspace(1.0, 10.0, 20)  # a single decade
    tr = synthetic_trace(t, np.linspace(1.0, 0.9, 20))
    with pytest.raises(ConfigurationError):
        classify_mass_limit(tr)
    short = synthetic_trace([1.0, 10.0, 100.0, 1000.0],
                            [1.0, 0.9, 0.8, 0.7])
    with pytest.raises(ConfigurationError):
        classify_mass_limit(short)


# -- profile error ------------------------------------------------------------

def test_profile_error_vanishes_on_exact_profile():
    grid = GridSpec(1, 200.0, 2048)
    alpha, beta, t = 1.0, 0.5, 50.0
    kern = mixed_kernel(grid, alpha, time_to_tau(t, beta))
    u = Field(grid, 0.7 * kern.values)
    assert profile_error(u, 0.7, t, alpha, beta, 2.0) < 1e-12


def test_profile_error_q1_is_plain_l1_distance():
    grid = GridSpec(1, 200.0, 2048)
    alpha, beta, t = 1.2, 0.0, 25.0
    kern = mixed_kernel(grid, alpha, time_to_tau(t, beta))
    u = Field(grid, 0.5 * kern.values + 0.01 * np.exp(-grid.axis_coords() ** 2))
    err = profile_error(u, 0.5, t, alpha, beta, 1.0)
    direct = np.sum(np.abs(u.values - 0.5 * kern.values)) * grid.spacing
    assert err == pytest.approx(direct, rel=1e-12)


def test_profile_error_q2_time_weight():
    grid = GridSpec(1, 200.0, 2048)
    alpha, beta, t, q = 1.0, 1.0, 16.0, 2.0
    kern = mixed_kernel(grid, alpha, time_to_tau(t, beta))
    u = Field(grid, 0.9 * kern.values + 1e-3 * np.exp(-grid.axis_coords() ** 2))
    diff = u.values - 0.9 * kern.values
    l2 = np.sqrt(np.sum(diff ** 2) * grid.spacing)
    weight = t ** ((1.0 / alpha) * (1.0 - 1.0 / q) * (beta + 1.0))
    assert profile_error(u, 0.9, t, alpha, beta, q) == pytest.approx(
        weight * l2, rel=1e-12)


@pytest.mark.parametrize("real", [float, np.float64])
def test_profile_error_past_the_float_range_is_a_config_error(real):
    # t^5 = 1e1500 times a distance of about 1: named, not an OverflowError
    # (nor, for numpy arguments, inf and a RuntimeWarning)
    grid = GridSpec(1, 20.0, 64)
    u = Field(grid, np.exp(-grid.axis_coords() ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError,
                           match=r"^profile_error\(m_inf=1\.0, t=1e\+300, alpha=0\.1, "
                                 r"beta=0\.0, q=2\.0\): t\^5 times the L\^2 distance "
                                 r"[0-9.]+ leaves the float range$"):
            profile_error(u, 1.0, real(1e300), 0.1, 0.0, 2.0)


@pytest.mark.parametrize("real", [float, np.float64])
def test_profile_error_survives_a_weight_past_the_float_range(real):
    # t^5 = 1e350 overflows while its product with a distance of about
    # 1e-300 does not: taken in log space
    grid = GridSpec(1, 20.0, 64)
    u = Field(grid, 1e-300 * np.exp(-grid.axis_coords() ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = profile_error(u, 0.0, real(1e70), 0.1, 0.0, 2.0)
    unit = np.sqrt(np.sum(np.exp(-2.0 * grid.axis_coords() ** 2)) * grid.cell_volume)
    assert err == pytest.approx(1e50 * unit, rel=1e-12)  # 1e350 * 1e-300 * unit


def test_profile_error_rejects_bad_q():
    grid = GridSpec(1, 50.0, 256)
    u = Field(grid, np.exp(-grid.axis_coords() ** 2))
    with pytest.raises(ConfigurationError):
        profile_error(u, 1.0, 1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ConfigurationError):
        profile_error(u, 1.0, 1.0, 1.0, 0.0, np.inf)
