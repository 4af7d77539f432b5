"""Pointwise fractional Laplacian quadrature and capacity integrals."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from mixheat import fractional
from mixheat.cli import main
from mixheat import (
    ConfigurationError,
    GridSpec,
    NumericalFailureError,
    bracket_frac_laplacian,
    bracket_laplacian,
    bracket_profile,
    capacity_integral,
    frac_constant,
    frac_laplacian_pointwise,
    scaling_check,
)


def bracket2(r):
    return bracket_profile(r, 2.0)


def bracket2_d2(r):
    return bracket_laplacian(r, 2.0, 1)


def test_frac_constant_half_is_one_over_pi():
    assert frac_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_frac_constant_validation():
    with pytest.raises(ConfigurationError):
        frac_constant(1, 0.0)
    with pytest.raises(ConfigurationError):
        frac_constant(1, 1.0)
    assert frac_constant(2, 0.3) > 0.0


@pytest.mark.parametrize("x", [0.0, 0.7, 3.0, 20.0])
def test_half_laplacian_closed_form(x):
    """(-Lap)^(1/2) (1+x^2)^-1 = (1-x^2) / (1+x^2)^2 in one dimension."""
    exact = (1.0 - x * x) / (1.0 + x * x) ** 2
    got = frac_laplacian_pointwise(bracket2, 0.5, x, second_derivative=bracket2_d2)
    assert got == pytest.approx(exact, rel=1e-6, abs=1e-12)


def test_pointwise_even_symmetry():
    for x in (0.4, 2.5):
        left = frac_laplacian_pointwise(bracket2, 0.7, -x,
                                        second_derivative=bracket2_d2)
        right = frac_laplacian_pointwise(bracket2, 0.7, x,
                                         second_derivative=bracket2_d2)
        assert left == pytest.approx(right, rel=1e-9)


def test_pointwise_translation_covariance():
    shift = 1.3
    base = frac_laplacian_pointwise(bracket2, 0.6, 0.7,
                                    second_derivative=bracket2_d2)
    shifted = frac_laplacian_pointwise(lambda r: bracket2(r - shift), 0.6,
                                       0.7 + shift,
                                       second_derivative=lambda r: bracket2_d2(r - shift))
    assert shifted == pytest.approx(base, rel=1e-8)


def test_pointwise_rejects_bad_order():
    with pytest.raises(ConfigurationError):
        frac_laplacian_pointwise(bracket2, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        frac_laplacian_pointwise(bracket2, 1.0, 1.0)


def test_far_field_rate():
    # |(-Lap)^s f| ~ r^-(N+2s) for the rapidly decaying part of f
    radii = np.geomspace(10.0, 50.0, 5)
    vals = [abs(frac_laplacian_pointwise(bracket2, 0.5, float(r),
                                         second_derivative=bracket2_d2))
            for r in radii]
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.15)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_scaling_identity_1d(s):
    lhs, rhs = scaling_check(bracket2, s, 2.0, 0.7,
                             second_derivative=bracket2_d2)
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_scaling_identity_2d():
    # dim = 2 profiles consume points shaped (..., 2)
    def radial2(pts):
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        return bracket_profile(r, 2.0)

    lhs, rhs = scaling_check(radial2, 0.5, 2.0, (0.9, 0.4), dim=2)
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_bracket_profile_shape():
    x = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(bracket_profile(x, 2.0), (1.0 + x * x) ** -1.0)


def test_bracket_derivatives_match_finite_differences():
    h = 1e-5
    for r in (0.0, 0.8, 2.7):
        fd = (bracket2(r + h) - 2.0 * bracket2(r) + bracket2(r - h)) / h ** 2
        assert bracket_laplacian(r, 2.0, 1) == pytest.approx(fd, rel=1e-4)
    # radial Laplacian: f'' in 1D, f'' + f'/r in 2D
    r = 1.4
    fp = (bracket2(r + h) - bracket2(r - h)) / (2.0 * h)
    expected2d = bracket_laplacian(r, 2.0, 1) + fp / r
    assert bracket_laplacian(r, 2.0, 2) == pytest.approx(expected2d, rel=1e-4)


@pytest.mark.parametrize("r", [0.0, 0.7, 3.0, 50.0])
@pytest.mark.parametrize("s,q0", [(0.25, 1.2), (0.5, 1.5), (0.75, 2.5)])
def test_bracket_frac_laplacian_matches_quadrature_1d(s, q0, r):
    oracle = frac_laplacian_pointwise(
        lambda y: bracket_profile(y, q0), s, r,
        second_derivative=lambda y: bracket_laplacian(y, q0, 1))
    assert bracket_frac_laplacian(r, q0, s, 1) == pytest.approx(
        oracle, rel=1e-7, abs=1e-8)


@pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 5.0])
@pytest.mark.parametrize("s,q0", [(0.25, 2.2), (0.5, 2.5), (0.75, 3.0)])
def test_bracket_frac_laplacian_matches_quadrature_2d(s, q0, r):
    def radial(pts):
        return bracket_profile(np.linalg.norm(np.asarray(pts), axis=-1), q0)

    oracle = frac_laplacian_pointwise(
        radial, s, (r, 0.0), dim=2,
        laplacian=lambda pt: bracket_laplacian(float(np.linalg.norm(pt)), q0, 2))
    assert bracket_frac_laplacian(r, q0, s, 2) == pytest.approx(
        oracle, rel=1e-7, abs=1e-8)


def test_bracket_frac_laplacian_half_order_closed_form():
    """(-Lap)^(1/2) (1+x^2)^-1 = (1-x^2) / (1+x^2)^2, vectorized over x."""
    x = np.array([0.0, 0.3, 1.0, 2.5, 40.0, 1e3])
    exact = (1.0 - x * x) / (1.0 + x * x) ** 2
    np.testing.assert_allclose(bracket_frac_laplacian(x, 2.0, 0.5, 1), exact,
                               rtol=1e-12)


@pytest.mark.parametrize("s,q0,r,dim,expected", [
    (0.9, 1.5, 16287.2314453125, 1, -1.4168274286668659e-12),
    (0.5, 1.5, 2e4, 1, -4.1466176833262091e-9),
    (0.375, 2.5, 1e3, 2, -8.408223104352663e-9),
])
def test_bracket_frac_laplacian_far_field_reference(s, q0, r, dim, expected):
    # 30-digit values of the same hypergeometric closed form
    assert bracket_frac_laplacian(r, q0, s, dim) == pytest.approx(
        expected, rel=1e-12)


@pytest.mark.parametrize("s,q0,dim,expected", [
    (0.7, 3.0, 1, -5.389241317636086e-05),
    (0.45, 4.0, 2, -5.470606197987311e-06),
])
def test_bracket_frac_laplacian_integer_exponent_gap(s, q0, dim, expected):
    # q0 - N even: the large-r connection formula takes its logarithmic form
    assert bracket_frac_laplacian(50.0, q0, s, dim) == pytest.approx(
        expected, rel=1e-10)


# 40-digit values of the closed form, each from mpmath 1.3.0 at mp.dps = 40
# with q0, s and r the binary floats in the row:
#     4**s * gamma(q0/2 + s) * gamma(N/2 + s) / (gamma(q0/2) * gamma(N/2))
#         * hyp2f1(q0/2 + s, N/2 + s, N/2, -r**2)
_AFTER_ONE = 1.0000000000000002  # the float after 1, in the r > 1 branch


@pytest.mark.parametrize("s,q0,r,dim,expected", [
    # either side of the branch switch at r = 1, and r = 3e4
    (0.5, 1.5, 1.0, 1, 6.8375922899947599e-2),
    (0.5, 1.5, _AFTER_ONE, 1, 6.8375922899947494e-2),
    (0.5, 1.5, 3e4, 1, -1.8451038062418764e-9),
    (0.375, 2.5, 1.0, 2, 2.8719531177534197e-1),
    (0.375, 2.5, _AFTER_ONE, 2, 2.871953117753418e-1),
    (0.375, 2.5, 3e4, 2, -7.5591199961799229e-13),
    # either side of the zero, at r = 1.1814 in 1D and 2.2462 in 2D
    (0.5, 1.5, 1.17, 1, 3.4185478546681507e-3),
    (0.5, 1.5, 1.19, 1, -2.5023370461494434e-3),
    (0.375, 2.5, 2.24, 2, 2.0002641526631411e-4),
    (0.375, 2.5, 2.25, 2, -1.2175101570967781e-4),
    # Gamma arguments of 40 and up: the Gamma ratios come from lgamma
    (0.3, 100.0, 2.0, 1, -1.9274291922645179e-2),
    (0.7, 120.0, 2.0, 2, -9.1230909393227038e-4),
    # q0 < N, so a = q0/2 + s < b = N/2 + s and the 2F1 swaps them
    (0.3, 0.5, 2.0, 1, 1.0440006305353728e-1),
    (0.45, 0.7, 2.0, 2, 1.2654032814043236e-1),
    # q0 = N, so a = b: the r > 1 connection takes its logarithmic form at m = 0
    (0.3, 1.0, 2.0, 1, 5.4863227602833037e-2),
    (0.25, 2.0, 2.0, 2, 8.5003554666576796e-2),
])
def test_bracket_frac_laplacian_matches_40_digit_values(s, q0, r, dim, expected):
    # the 1D rows are C07's q0 and s; abs=0, or approx's default absolute
    # floor of 1e-12 would dwarf the relative tolerance on the 3e4 rows
    assert bracket_frac_laplacian(r, q0, s, dim) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("s,q0,r,dim,expected", [
    (0.7, 3.0, 0.5, 1, 3.5123215547540351e-1),
    (0.7, 3.0, 1.0, 1, -3.5050729173681434e-1),
    (0.7, 3.0, 2.0, 1, -1.7332462888032985e-1),
    (0.7, 3.0, 1e3, 1, -4.036746818417182e-8),
    (0.7, 3.0, 3e4, 1, -1.1506085169084442e-11),
    (0.45, 4.0, 0.5, 2, 9.2719236703693592e-1),
    (0.45, 4.0, 1.0, 2, 8.8216364094053473e-2),
    (0.45, 4.0, 2.0, 2, -4.2262282611840499e-2),
    (0.45, 4.0, 1e3, 2, -9.1821259591452344e-10),
    (0.45, 4.0, 3e4, 2, -4.7783817777027549e-14),
    # s near 0, which puts c - a and c - b next to poles of Gamma; the
    # float N/2 + s holds s only to ulp(N/2), so c - b = -s is passed apart
    (1e-12, 3.0, 2.0, 1, 8.9442719098939777e-2),
    (1e-8, 3.0, 300.0, 1, 3.696974556428297e-8),
    (1e-8, 4.0, 3e4, 2, -9.8765414166889209e-18),
    # large q0, past the default capacity box
    (0.3, 15.0, 4e5, 1, -1.7076089536964315e-10),
    (0.5, 15.0, 4e5, 1, -1.3567654156373249e-12),
    (0.3, 40.0, 4e5, 2, -4.501494721106305e-17),
    (0.5, 40.0, 4e5, 2, -4.1118421052663703e-19),
])
def test_bracket_frac_laplacian_logarithmic_form_matches_40_digit_values(
        s, q0, r, dim, expected):
    # q0 - N even (same mpmath call as above); abs=0 as above
    assert bracket_frac_laplacian(r, q0, s, dim) == pytest.approx(expected, rel=1e-10, abs=0)


@pytest.mark.parametrize("s,q0,dim", [(0.5, 1.5, 1), (0.375, 2.5, 2), (0.7, 3.0, 1)])
def test_bracket_frac_laplacian_reads_each_radius_alone(s, q0, dim):
    # each value depends on its own radius only, to the bit: not on the
    # array's length, shape or order, which sets how far each series runs
    rng = np.random.default_rng(7)
    r = np.concatenate([rng.uniform(0.0, 3.0, 300), 10.0 ** rng.uniform(0.0, 4.5, 300)])
    whole = bracket_frac_laplacian(r, q0, s, dim)
    shuffle = rng.permutation(r.size)
    assert bracket_frac_laplacian(r[shuffle].reshape(20, 30), q0, s, dim).ravel().tolist() \
        == whole[shuffle].tolist()
    assert [bracket_frac_laplacian(v, q0, s, dim) for v in r[::37]] == whole[::37].tolist()


def test_bracket_frac_laplacian_validation():
    with pytest.raises(ConfigurationError):
        bracket_frac_laplacian(1.0, 1.5, 1.0, 1)
    with pytest.raises(ConfigurationError):
        bracket_frac_laplacian(1.0, float("nan"), 0.5, 1)
    with pytest.raises(NumericalFailureError):
        bracket_frac_laplacian(np.array([1.0, np.nan]), 1.5, 0.5, 1)


def test_test_function_spec_window():
    # capacity_integral checks the test functions' admissible exponent
    # window, N < q0 < N + alpha p
    grid = GridSpec(1, 2e4, 2 ** 14)
    for q0 in (1.0, 3.0, 0.9):
        with pytest.raises(ConfigurationError, match=f"^q0={q0} outside the admissible"):
            capacity_integral(q0, 2.0, 1.0, grid, [16.0])
    with pytest.raises(ConfigurationError, match="^p must"):
        capacity_integral(1.5, np.inf, 1.0, grid, [16.0])


def test_capacity_integral_depends_only_on_product_br(tmp_path, capsys):
    # the grid lives in scaled coordinates x / (B R), so a radius enters
    # only through the product B R that the CLI passes
    config = tmp_path / "run.cfg"
    config.write_text("alpha = 1.0\ndim = 1\nhalf_width = 1.0\npoints = 16\n")
    values = []
    for b, radius in (("4", "4"), ("2", "8")):
        assert main(["capacity", "--config", str(config), "--set", f"capacity_b={b}",
                     "--set", f"capacity_radii={radius}", "--set", "capacity_points=32768",
                     "--out-dir", str(tmp_path / "out")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith(f"R={radius} value=")
        values.append(line.split(" ")[1])
    assert values[0] == values[1]


def test_capacity_integral_box_invariance():
    # doubling the scaled box at fixed spacing moves the value below 1e-6
    [small] = capacity_integral(1.5, 2.0, 1.0, GridSpec(1, 2e4, 2 ** 17), [16.0])
    [large] = capacity_integral(1.5, 2.0, 1.0, GridSpec(1, 4e4, 2 ** 18), [16.0])
    assert small == pytest.approx(large, rel=1e-6)


def test_capacity_integral_tail_guard():
    # a box only a few scaled units wide cannot certify its tail
    with pytest.raises(ConfigurationError, match="^capacity tail estimate"):
        capacity_integral(1.5, 2.0, 1.0, GridSpec(1, 50.0, 1024), [16.0])


def test_capacity_integral_rejects_b_r_whose_underflow_may_cost_1e_minus_6():
    # the loss below the smallest normal float is bounded by 10^-12.3,
    # 10^-8.3 and 10^-6.3 of the total at B R = 2e150, 2e152, 2e153, and
    # those values keep the (B R)^-1 scaling to 1e-6; at 2e154 the bound
    # reads 10^-5.05 (and the value was 4.3e-6 off), so it is rejected
    grid = GridSpec(1, 2e4, 2 ** 17)
    scales = [2e100, 2e150, 2e152, 2e153]
    values = capacity_integral(1.5, 2.0, 1.0, grid, scales)
    scaled = [v * s for v, s in zip(values, scales)]
    assert scaled == pytest.approx([scaled[0]] * len(scales), rel=1e-6)
    with pytest.raises(ConfigurationError,
                       match=r"^capacity_radii gives B\*R = 2e\+154, .* may lose more than 1e-6 "):
        capacity_integral(1.5, 2.0, 1.0, grid, [2e154])


def test_capacity_integral_bounds_each_lost_power_by_its_own_size():
    # at p = 1.01 the weights where the power underflows reach 1e275, so
    # 2^-1075 per such point would bound the loss by 10^77 of the total;
    # most of those powers are far below 2^-1075, and the values agree with
    # a sum taken in log space, which nothing underflows, to 1e-15
    grid = GridSpec(1, 68.0, 2 ** 17)
    values = capacity_integral(1.5, 1.01, 1.0, grid, [2.0, 4.0, 16.0])
    assert values == pytest.approx(
        [1.2395785640918268e-11, 1.5137046710648585e-53, 2.63358271599388e-125],
        rel=1e-14)


def test_capacity_integral_2d():
    # alpha = 1.9, p = 3, q0 = 2.1 on a 1024^2 grid spanning 200 B R
    grid = GridSpec(2, 200.0, 1024)
    [a] = capacity_integral(2.1, 3.0, 1.9, grid, [16.0])
    assert math.isfinite(a) and a > 0.0
    # 1.4124785976 on (16 * 400, 2048^2)
    assert a == pytest.approx(1.412478094553838, abs=1e-6)


def _per_radius_capacity(q0, B, R, p, alpha, grid):
    """The capacity sum for one radius, every closed form evaluated on the
    whole lattice of the physical grid (coordinates x, not x / (B R))."""
    scale = B * R
    radius = np.sqrt(sum(c ** 2 for c in grid.coords())) / scale
    frac_part = bracket_frac_laplacian(radius, q0, alpha / 2.0, grid.dim)
    neg_lap_part = -bracket_laplacian(radius, q0, grid.dim)
    phi = bracket_profile(radius, q0)
    symbol_term = scale ** (-2.0) * neg_lap_part + scale ** (-alpha) * frac_part
    integrand = phi ** (-1.0 / (p - 1.0)) * np.abs(symbol_term) ** (p / (p - 1.0))
    return float(np.sum(integrand) * grid.cell_volume)


@pytest.mark.parametrize("dim,q0,radii,p,alpha,box,points,rel", [
    (1, 1.5, [8.0], 2.0, 1.0, 2e4, 2 ** 17, 0.0),
    (1, 1.5, [11.0], 2.0, 1.0, 2e4, 2 ** 17, 0.0),
    (1, 1.5, [3.7], 2.0, 1.0, 2e4, 2 ** 17, 0.0),
    (2, 2.1, [8.0], 3.0, 1.9, 200.0, 1024, 0.0),
    (1, 1.5, [8.0, 16.0, 32.0, 64.0, 128.0], 2.0, 1.0, 2e4, 2 ** 17, 0.0),
    # 2 * 3.7 is no power of two, so the scaled radii are not the physical
    # ones over B R to the bit: 1.5e-16 relative here
    (2, 2.1, [3.7], 3.0, 1.9, 200.0, 1024, 1e-14),
], ids=["1d-R8", "1d-R11", "1d-R3.7", "2d-R8", "1d-C07", "2d-R3.7"])
def test_capacity_integral_folds_one_orthant_bitwise(monkeypatch, dim, q0, radii, p,
                                                     alpha, box, points, rel):
    # the closed forms see the (n/2 + 1)^N orthant radii once for all radii,
    # and each folded sum equals the per-radius full-lattice sum in physical
    # coordinates (to the bit unless rel says otherwise)
    expected = [_per_radius_capacity(q0, 2.0, R, p, alpha,
                                     GridSpec(dim, 2.0 * R * box, points))
                for R in radii]
    sizes = []

    def spy(r, *args):
        sizes.append(np.size(r))
        return bracket_frac_laplacian(r, *args)

    monkeypatch.setattr(fractional, "bracket_frac_laplacian", spy)
    got = capacity_integral(q0, p, alpha, GridSpec(dim, box, points),
                            [2.0 * R for R in radii])
    if rel == 0.0:
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=rel, abs=0.0)
    assert sizes == [(points // 2 + 1) ** dim]


@pytest.mark.parametrize("offset", [2.0, 0.5], ids=["all-positive", "negatives-skipped"])
def test_capacity_tail_slope_is_polyfit_to_roundoff(offset):
    # the tail guard's centred-moment slope is the least-squares one that
    # np.polyfit gives, over the points with f > 0
    r = np.linspace(10.0, 100.0, 4096)
    f = r ** -2.5 * (offset + np.sin(r / 7.0))
    keep = f > 0
    assert keep.all() == (offset > 1.0)
    want = np.polyfit(np.log(r[keep]), np.log(f[keep]), 1)[0]
    assert fractional._tail_slope(np.log(r), f) == pytest.approx(want, rel=1e-12)


def test_capacity_integral_checks_the_memory_budget_first(monkeypatch):
    """A capacity run holds about fractional._CAPACITY_GRIDS lattices at its
    peak; past grid's memory budget it fails before its first array."""
    from mixheat import grid as grid_module
    grid = GridSpec(1, 2e4, 2 ** 14)
    need = fractional._CAPACITY_GRIDS * 8 * 2 ** 14
    monkeypatch.setattr(grid_module, "_MAX_BYTES", need)
    assert capacity_integral(1.5, 2.0, 1.0, grid, [16.0])[0] > 0.0

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the memory check")

    monkeypatch.setattr(grid_module, "_MAX_BYTES", need - 1)
    monkeypatch.setattr(np, "arange", no_allocation)
    with pytest.raises(ConfigurationError,
                       match=r"^capacity_points = 16384 gives a 16384-point capacity "
                             r"grid that needs about 0\.000854 GiB, more than the "
                             r"memory budget of 0\.000854491 GiB$"):
        capacity_integral(1.5, 2.0, 1.0, grid, [16.0])


@pytest.mark.parametrize("dim,q0,p,alpha,box,points", [
    (1, 1.5, 2.0, 1.0, 2e4, 2 ** 17), (2, 2.1, 3.0, 1.9, 200.0, 512)])
def test_capacity_integral_peaks_below_six_lattices(dim, q0, p, alpha, box, points):
    """The run holds no more than the _CAPACITY_GRIDS its memory check
    charges: 5.3 lattices in 1D and 2.5 in 2D, measured."""
    tracemalloc.start()
    try:
        capacity_integral(q0, p, alpha, GridSpec(dim, box, points), [16.0, 32.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * 8 * points ** dim


def test_capacity_integral_refuses_a_profile_past_the_float_range_on_any_box():
    """At p >= 2 the bound is Phi = <y>^-q0 itself: past q0 = 2 log(max
    float) it underflows within |y| = sqrt(e - 1), so no box is wide enough."""
    with pytest.raises(ConfigurationError,
                       match=r"^q0 must be below 1419\.57, beyond which Phi underflows"):
        capacity_integral(1500.0, 1000.0, 1.99, GridSpec(1, 1.0, 16), [16.0])


@pytest.mark.parametrize("q0,p,dim,widest", [
    (1.5, 2.0, 1, 4.34687e153), (1.5, 1.01, 1, 68.8396), (2.1, 3.0, 2, 2.63207e146)])
def test_capacity_integral_bounds_the_box_by_the_float_range(q0, p, dim, widest):
    """Out to the widest box the factors Phi, Phi^(-1/(p-1)) and (q0 + 2) r^2
    stay finite at the corner; a wider box is rejected."""
    alpha = 1.0 if dim == 1 else 1.9
    message = f"capacity_half_width must be at most {widest:.6g} "
    with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
        capacity_integral(q0, p, alpha, GridSpec(dim, widest * 1.000001, 16), [16.0])
    corner = np.array([math.sqrt(dim) * widest * (1.0 - 1e-6)])
    with np.errstate(over="raise", invalid="raise"):
        phi = bracket_profile(corner, q0)
        assert phi[0] > 0.0 and np.isfinite(phi[0] ** (-1.0 / (p - 1.0)))
        assert np.isfinite(bracket_laplacian(corner, q0, dim)[0])
