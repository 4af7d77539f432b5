"""Kernel construction, closed forms, tails, and contraction estimates."""

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import sliced_halvings
from mixheat import (
    ConfigurationError,
    Field,
    GridSpec,
    apply_symbol,
    convolve,
    delta_field,
    gaussian_kernel,
    half_width_for_tail,
    integral,
    kernel_lq_norm,
    make_symbol,
    mixed_kernel,
    mixed_kernel_norms,
    mixed_kernel_quadrature,
    stable_kernel,
    stable_kernel_quadrature,
    stable_tail_constant,
    taylor_contraction_error,
)
from mixheat import grid as grid_module
from mixheat import kernels
from mixheat.kernels import _delta_response

ALPHAS = (0.5, 1.0, 1.5)


def test_gaussian_kernel_closed_form():
    g = GridSpec(1, 30.0, 2048)
    x = g.axis_coords()
    t = 0.7
    k = gaussian_kernel(g, t)
    exact = (4.0 * np.pi * t) ** -0.5 * np.exp(-x * x / (4.0 * t))
    np.testing.assert_allclose(k.values, exact, rtol=1e-15)


def test_gaussian_kernel_unit_peak_time():
    # at t = 1/(4 pi) the prefactor is exactly one
    g = GridSpec(1, 20.0, 4096)
    k = gaussian_kernel(g, 1.0 / (4.0 * np.pi))
    assert k.values[4096 // 2] == pytest.approx(1.0, rel=1e-15)


def test_gaussian_kernel_needs_positive_time():
    g = GridSpec(1, 10.0, 64)
    with pytest.raises(ConfigurationError):
        gaussian_kernel(g, 0.0)


def test_cauchy_closed_form_moderate_grid():
    g = GridSpec(1, 2000.0, 2 ** 17)
    x = g.axis_coords()
    t = 1.0
    k = stable_kernel(g, 1.0, t)
    exact = t / (np.pi * (t * t + x * x))
    mask = np.abs(x) <= 5.0
    rel = np.abs(k.values[mask] - exact[mask]) / exact[mask]
    assert rel.max() < 2e-4


def test_stable_self_similarity_exact_on_dilated_lattice():
    """P(lam^alpha t, lam x) = lam^-1 P(t, x) holds exactly when the grid
    is dilated along with the argument, so the check is roundoff-level."""
    lam = 4.0
    for alpha in ALPHAS:
        gA = GridSpec(1, 50.0, 1024)
        gB = GridSpec(1, 50.0 * lam, 1024)
        pA = stable_kernel(gA, alpha, 1.0)
        pB = stable_kernel(gB, alpha, lam ** alpha)
        np.testing.assert_allclose(pB.values, pA.values / lam, rtol=0, atol=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_mixed_kernel_is_product_of_factors(alpha):
    g = GridSpec(1, 80.0, 2048)
    t = 1.3
    direct = mixed_kernel(g, alpha, t)
    factored = convolve(gaussian_kernel(g, t), stable_kernel(g, alpha, t))
    np.testing.assert_allclose(direct.values, factored.values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("builder,kind", [(mixed_kernel, "mixed"),
                                          (stable_kernel, "fractional")])
@pytest.mark.parametrize("dim,n", [(1, 16), (1, 1024), (1, 2 ** 16), (2, 16), (2, 256)])
def test_kernels_equal_semigroup_on_transformed_delta(builder, kind, dim, n,
                                                     monkeypatch):
    """Skipping the delta's forward transform changes no bit: the in-place
    product with a multiplier of 1 (t = 0), as the transform receives it,
    is the delta's rfftn times the inverse transform's 1/N exactly, every
    kernel is the apply_symbol result,
    and a run of mixed kernels over unordered times returns the last of
    them and the kernel_lq_norm of each, bit for bit: no time but the last
    cuts the grid here (runs that cut are held to the coarse kernels in
    test_kernel_norms_cut_the_grid_where_the_multiplier_allows)."""
    g = GridSpec(dim, 0.37 * n, n)
    delta = delta_field(g)
    spectrum = np.fft.rfftn(delta.values, axes=tuple(range(dim)))
    assert not spectrum.imag.any()
    times = (1.0, 1e-3, 300.0)
    for alpha in ALPHAS:
        sym = make_symbol(g, alpha, kind)
        buffer = np.zeros(sym.values.shape, dtype=complex)
        received = []

        def spy(grid, spectrum, apply=kernels._irfft, **kwargs):
            received.append(spectrum.copy())
            return apply(grid, spectrum, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_irfft", spy)
            _delta_response(sym, buffer, 0.0)
        assert len(received) == 1
        assert np.array_equal(received[0], spectrum * (1.0 / n ** dim))
        built = [builder(g, alpha, t) for t in times]
        for t, k in zip(times, built):
            reference = apply_symbol(delta, sym, scale=t, mode="semigroup")
            assert np.array_equal(k.values, reference.values)
        if kind == "mixed":
            norms, last = mixed_kernel_norms(g, alpha, times)
            assert np.array_equal(last.values, built[-1].values)
            assert norms.tolist() == [[kernel_lq_norm(k, q) for q in (1.0, 2.0, np.inf)]
                                      for k in built]


def test_mixed_kernel_mass_exact():
    for dim in (1, 2):
        g = GridSpec(dim, 40.0, 256)
        k = mixed_kernel(g, 1.0, 2.0)
        assert abs(integral(k) - 1.0) < 1e-12


def test_mixed_kernel_ripple_warning(caplog):
    # alpha = 1.5 on a deliberately coarse box leaves visible negative ripple
    g = GridSpec(1, 40.0, 64)
    with caplog.at_level(logging.WARNING, logger="mixheat.kernels"):
        mixed_kernel(g, 1.5, 0.1)
    assert any("negative ripple" in r.message for r in caplog.records)


def test_kernel_lq_norms():
    g = GridSpec(1, 60.0, 4096)
    k = mixed_kernel(g, 1.0, 1.0)
    assert kernel_lq_norm(k, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert kernel_lq_norm(k, np.inf) == pytest.approx(float(np.abs(k.values).max()))
    l2 = float(np.sqrt(np.sum(k.values ** 2) * g.spacing))
    assert kernel_lq_norm(k, 2.0) == pytest.approx(l2, rel=1e-13)
    with pytest.raises(ConfigurationError):
        kernel_lq_norm(k, 0.5)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 64)])
def test_kernel_lq_norm_matches_plain_expression_bitwise(dim, n):
    # alpha = 1.5 on a coarse box leaves negative ripple; the negated
    # kernel puts the largest |value| on the negative side
    g = GridSpec(dim, 40.0, n)
    k = mixed_kernel(g, 1.5, 0.1)
    assert k.values.min() < 0
    for f in (k, Field(g, -k.values)):
        v = np.abs(f.values)
        top = v.max()
        assert kernel_lq_norm(f, np.inf) == float(top)
        for q in (1.0, 2.0):
            expected = float((np.sum(v ** q) * g.cell_volume) ** (1.0 / q))
            assert kernel_lq_norm(f, q) == expected
        # at any other q, the root of the sum normalised by the top
        for q in (1.5, 3.0):
            expected = float(top * (np.sum((v / top) ** q) * g.cell_volume) ** (1.0 / q))
            assert kernel_lq_norm(f, q) == expected
    # the run's norms of the same signed kernel
    norms, last = mixed_kernel_norms(g, 1.5, [0.1])
    assert np.array_equal(last.values, k.values)
    assert norms.tolist() == [[kernel_lq_norm(k, q) for q in (1.0, 2.0, np.inf)]]


# Grids and unordered times on which mixed_kernel_norms cuts 0 to 6 times.
CUT_RUNS = [(GridSpec(1, 0.37 * 1024, 1024), (1.0, 1e-3, 300.0, 30.0, 3000.0, 0.5)),
            (GridSpec(2, 40.0, 256), (1.0, 1e-3, 300.0, 30.0, 3000.0, 0.5))]


def _halvings(g, alpha, t):
    return sliced_halvings(g, np.exp(-t * make_symbol(g, alpha).values))


def _transform_sizes(monkeypatch):
    """The points per axis of each grid that kernels._irfft transforms on,
    in call order, filled as the transforms run."""
    sizes = []

    def spy(grid, spectrum, apply=kernels._irfft, **kwargs):
        sizes.append(grid.points)
        return apply(grid, spectrum, **kwargs)

    monkeypatch.setattr(kernels, "_irfft", spy)
    return sizes


@pytest.mark.parametrize("g,times", CUT_RUNS, ids=["1d", "2d"])
def test_kernel_norms_cut_the_grid_where_the_multiplier_allows(g, times):
    """The last kernel is mixed_kernel's and every row that does not cut
    is its kernel_lq_norm, bit for bit. A row that cuts is the coarse
    grid's kernel_lq_norm of the coarse grid's mixed_kernel, bit for bit,
    and within 1e-15 (L^1, L^2) and 1e-12 (L^inf) of the full grid's."""
    seen = set()
    for alpha in ALPHAS:
        norms, last = mixed_kernel_norms(g, alpha, times)
        assert np.array_equal(last.values, mixed_kernel(g, alpha, times[-1]).values)
        for row, t in zip(norms, times):
            full = [kernel_lq_norm(mixed_kernel(g, alpha, t), q)
                    for q in (1.0, 2.0, np.inf)]
            halvings = 0 if t == times[-1] else _halvings(g, alpha, t)
            seen.add(halvings)
            if not halvings:
                assert row.tolist() == full
                continue
            coarse = GridSpec(g.dim, g.half_width, g.points >> halvings)
            k = mixed_kernel(coarse, alpha, t)
            assert row.tolist() == [kernel_lq_norm(k, q) for q in (1.0, 2.0, np.inf)]
            np.testing.assert_allclose(row[:2], full[:2], rtol=1e-15, atol=0.0)
            assert row[2] == pytest.approx(full[2], rel=1e-12, abs=0.0)
    assert 0 in seen and max(seen) >= 4


@pytest.mark.parametrize("g,times", CUT_RUNS, ids=["1d", "2d"])
def test_kernel_norms_take_one_full_size_transform_first(g, times, monkeypatch):
    """Where every time but the last cuts, the run's one full-size
    transform is its first: numpy's plan for it is made before the coarse
    ones, which would otherwise sit under its scratch."""
    times = [t for t in times if t >= 30.0] + [1.0]
    sizes = _transform_sizes(monkeypatch)
    mixed_kernel_norms(g, 1.0, times)
    assert len(sizes) == len(times)
    assert sizes[0] == g.points and max(sizes[1:]) < g.points


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_norms_never_cut_a_16_point_grid(dim, monkeypatch):
    g = GridSpec(dim, 40.0, 16)
    times = (1e4, 1e3, 1.0)
    sizes = _transform_sizes(monkeypatch)
    norms, _ = mixed_kernel_norms(g, 1.0, times)
    assert sizes == [16] * 3
    assert norms.tolist() == [[kernel_lq_norm(mixed_kernel(g, 1.0, t), q)
                               for q in (1.0, 2.0, np.inf)] for t in times]


@pytest.mark.parametrize("half_width,l2,top", [
    # a flat 5e154, whose square overflows, on cells of 1.25e-156
    (1e-155, 2.2360679774997896e+77, 5e154),
    # a delta of 8e-300, whose square underflows, on a cell of 1.25e299
    (1e300, 2.8284271247461904e-150, 8e-300),
])
def test_kernel_norms_on_boxes_too_narrow_or_wide_to_square(half_width, l2, top):
    """Each norm is the 40-digit value, and no RuntimeWarning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms, _ = mixed_kernel_norms(GridSpec(1, half_width, 16), 1.0, [1.0])
    assert norms[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert norms[0, 1] == pytest.approx(l2, rel=1e-14)
    assert norms[0, 2] == pytest.approx(top, rel=1e-14)


@pytest.mark.parametrize("dim,n", [(1, 2 ** 16), (2, 256)])
def test_kernel_norms_hold_one_full_grid_kernel_at_a_time(dim, n):
    """Times that do not cut take their kernels on the full grid before
    the last one, in its array: the run's peak stays at the symbol, the
    spectrum buffer, one kernel and one |k| temporary, 3.5 grids
    measured, whether or not the earlier times cut."""
    g = GridSpec(dim, 0.37 * n, n)
    for times in ([0.5, 1e-3, 1.0], [300.0, 0.5, 30.0, 1.0]):
        tracemalloc.start()
        try:
            mixed_kernel_norms(g, 1.0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * 8 * n ** dim


@pytest.mark.parametrize("times", [[], [1.0, 0.0]])
def test_kernel_run_rejects_bad_times_before_any_work(monkeypatch, times):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the times were checked")

    monkeypatch.setattr(kernels, "make_symbol", no_allocation)
    with pytest.raises(ConfigurationError, match="^times must"):
        mixed_kernel_norms(GridSpec(1, 10.0, 64), 1.0, times)


def test_every_kernel_builder_checks_the_memory_budget_first(monkeypatch):
    """A kernel run holds about kernels._KERNEL_GRIDS grids at its peak;
    past grid's memory budget it fails before the symbol, its first
    grid-sized array, is built."""
    g = GridSpec(2, 10.0, 64)
    need = kernels._KERNEL_GRIDS * 8 * 64 ** 2
    x2 = g.axis_coords() ** 2
    bump = Field(g, np.exp(-np.add.outer(x2, x2)))
    builders = [lambda: mixed_kernel_norms(g, 1.0, [1.0]),
                lambda: mixed_kernel(g, 1.0, 1.0),
                lambda: stable_kernel(g, 1.0, 1.0),
                lambda: taylor_contraction_error(bump, [1.0], 1.0)]
    monkeypatch.setattr(grid_module, "_MAX_BYTES", need)
    for build in builders:
        build()

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the memory check")

    monkeypatch.setattr(grid_module, "_MAX_BYTES", need - 1)
    monkeypatch.setattr(kernels, "make_symbol", no_allocation)
    for build in builders:
        with pytest.raises(ConfigurationError,
                           match=r"^points = 64 gives a 4096-point kernel grid that "
                                 r"needs about 0\.000183 GiB, more than the memory "
                                 r"budget of 0\.000183105 GiB$"):
            build()


@pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
def test_young_contraction(q):
    """Convolution against a unit-mass kernel cannot raise any Lq norm."""
    rng = np.random.default_rng(11)
    g = GridSpec(1, 60.0, 2048)
    v = Field(g, rng.random(2048))
    for alpha in ALPHAS:
        k = mixed_kernel(g, alpha, 0.5)
        out = convolve(k, v)
        assert kernel_lq_norm(out, q) <= kernel_lq_norm(v, q) * (1.0 + 1e-6)


def test_sup_norm_decreases_in_time():
    g = GridSpec(1, 200.0, 8192)
    sups = [kernel_lq_norm(mixed_kernel(g, 1.0, t), np.inf)
            for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_stable_tail_constant_cauchy_value():
    # alpha = 1, N = 1: the tail coefficient is 1/pi
    assert stable_tail_constant(1.0, 1) == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_stable_tail_mass_matches_cauchy_integral():
    # the far-field tail mass that half_width_for_tail inverts, 2t/(pi L) at
    # alpha = 1, against the Cauchy law's exact tail 1 - (2/pi) arctan(L/t)
    t, L = 2.0, 50.0
    exact = 1.0 - 2.0 / np.pi * np.arctan(L / t)
    assert half_width_for_tail(1.0, t, 1, tail_mass=exact) == pytest.approx(L, rel=0.05)
    assert half_width_for_tail(1.0, t, 1, tail_mass=2.0 * t / (np.pi * L)) == pytest.approx(
        L, rel=1e-12)


def test_half_width_for_tail_inverts_tail_mass():
    # alpha = 1: the Cauchy law's far-field tail beyond L is 2t/(pi L)
    L = half_width_for_tail(1.0, 3.0, 1, tail_mass=1e-6)
    assert 2.0 * 3.0 / (np.pi * L) == pytest.approx(1e-6, rel=1e-9)
    # every alpha: the tail 2 A t L^(-alpha) / alpha, A the far-field constant
    for alpha in ALPHAS:
        L = half_width_for_tail(alpha, 3.0, 1, tail_mass=1e-6)
        tail = 2.0 * stable_tail_constant(alpha, 1) * 3.0 * L ** -alpha / alpha
        assert tail == pytest.approx(1e-6, rel=1e-9)
    # tighter tolerance must demand a wider box
    assert (half_width_for_tail(1.0, 3.0, 1, tail_mass=1e-8)
            > half_width_for_tail(1.0, 3.0, 1, tail_mass=1e-6))


@pytest.mark.parametrize("real", [float, np.float64])
def test_half_width_past_the_float_range_is_a_config_error(real):
    # alpha = 0.01 needs a width of about e^1841: named, not an OverflowError
    # (nor, for numpy arguments, a RuntimeWarning)
    with pytest.raises(ConfigurationError,
                       match=r"^half_width_for_tail\(alpha=0\.01, t=1\.0, dim=1, "
                             r"tail_mass=1e-08\) overflows the float range$"):
        half_width_for_tail(real(0.01), real(1.0), 1)


def test_half_width_survives_a_ratio_past_the_float_range():
    # at alpha = 1.9 the ratio (about 1e316) overflows while its 1/alpha
    # power does not: the width still grows like t^(1/alpha)
    wide = half_width_for_tail(1.9, 1e308, 1)
    assert wide == pytest.approx(half_width_for_tail(1.9, 1e300, 1) * 1e8 ** (1 / 1.9),
                                 rel=1e-12)


def test_stable_quadrature_matches_cauchy():
    for x in (0.0, 0.7, 3.0):
        val = stable_kernel_quadrature(x, 1.0, 1.5)
        exact = 1.5 / (np.pi * (1.5 ** 2 + x * x))
        assert val == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("alpha,t", [(0.5, 1e3), (0.5, 1e5), (1.5, 1e5),
                                     (0.5, 1e-6)])
def test_stable_quadrature_peak_closed_form(alpha, t):
    """P(0, t) = Gamma(1 + 1/alpha) / (pi t^(1/alpha)): the spectral peak
    has width t^(-1/alpha), from 1e-10 to 1e12 across these cases."""
    exact = math.gamma(1.0 + 1.0 / alpha) / (math.pi * t ** (1.0 / alpha))
    assert stable_kernel_quadrature(0.0, alpha, t) == pytest.approx(
        exact, rel=1e-10)


def test_mixed_quadrature_narrow_peak():
    # at t = 1e3 the fractional part sets the width (1e-6); the lattice
    # sup-norm on (2^24, 2^21) is 6.42e-7
    val = mixed_kernel_quadrature(0.0, 0.5, 1e3)
    assert val == pytest.approx(6.366e-7, rel=1e-4)
    assert val < stable_kernel_quadrature(0.0, 0.5, 1e3)


def test_quadrature_needs_positive_time():
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            mixed_kernel_quadrature(0.0, 0.5, t)


def test_mixed_quadrature_matches_grid_kernel():
    # box wide enough that periodized tail mass sits below the tolerance;
    # at L = 300 the wrap-around alone is ~3e-6 relative
    g = GridSpec(1, 4800.0, 2 ** 19)
    k = mixed_kernel(g, 1.2, 0.8)
    x = g.axis_coords()
    for xq in (0.0, 1.0, 4.0):
        idx = int(np.argmin(np.abs(x - xq)))
        assert mixed_kernel_quadrature(x[idx], 1.2, 0.8) == pytest.approx(
            k.values[idx], rel=1e-6)


def test_taylor_contraction_zero_for_centered_even_data():
    """A centered even bump has vanishing first moment only in the signed
    sense; the bound uses | |x| g |, so the error is controlled but small."""
    g = GridSpec(1, 120.0, 8192)
    x = g.axis_coords()
    bump = np.exp(-x * x)
    f = Field(g, bump / (np.sum(bump) * g.spacing))
    errors, moment = taylor_contraction_error(f, [50.0, 100.0], 1.0)
    assert moment > 0.0
    assert errors[1] < errors[0]
    # centered data contracts faster than t^-1: second-moment rate
    rate = np.log(errors[1] / errors[0]) / np.log(2.0)
    assert rate < -1.5


def test_taylor_contraction_shift_sets_the_rate():
    g = GridSpec(1, 512.0, 8192)
    x = g.axis_coords()
    bump = np.exp(-((x - 1.0) ** 2) / 2.0)
    f = Field(g, bump / (np.sum(bump) * g.spacing))
    ts = np.geomspace(10.0, 100.0, 5)
    errors, moment = taylor_contraction_error(f, ts, 1.0)
    assert moment == pytest.approx(np.sum(np.abs(x) * f.values) * g.spacing)
    slope = np.polyfit(np.log(ts), np.log(errors), 1)[0]
    assert slope < -0.9


def shifted_bump(dim, n):
    grid = GridSpec(dim, 400.0, n)
    return Field(grid, np.exp(-sum((c - 3.0) ** 2 for c in grid.coords()) / 8.0))


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
def test_taylor_contraction_error_is_the_plain_expression_bitwise(dim, n):
    f = shifted_bump(dim, n)
    grid = f.grid
    ts = [0.5, 5.0, 50.0]
    errors, moment = taylor_contraction_error(f, ts, 1.2)
    sym = make_symbol(grid, 1.2)
    mass = integral(f)
    expected = [float(np.sum(np.abs(
        apply_symbol(f, sym, scale=t, mode="semigroup").values
        - mass * mixed_kernel(grid, 1.2, t).values)) * grid.cell_volume) for t in ts]
    assert np.array_equal(errors, expected)
    radius = np.sqrt(sum(c ** 2 for c in grid.coords()))
    assert moment == float(np.sum(radius * np.abs(f.values)) * grid.cell_volume)


@pytest.mark.parametrize("dim,n", [(1, 2 ** 18), (2, 512)])
def test_taylor_contraction_error_peaks_below_six_and_a_half_grids(dim, n):
    """The run holds no more than the _KERNEL_GRIDS its memory check
    charges: 4.5 grids in 1D and 5.5 in 2D, measured."""
    f = shifted_bump(dim, n)
    tracemalloc.start()
    try:
        taylor_contraction_error(f, [1.0, 10.0, 100.0], 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * f.values.nbytes
