"""Grid, field, and spectral-primitive tests."""

import struct
import tracemalloc

import numpy as np
import pytest

from conftest import sliced_band_extrema
from mixheat import (
    ConfigurationError,
    Field,
    GridSpec,
    NumericalFailureError,
    apply_symbol,
    convolve,
    delta_field,
    frac_laplacian_spectral,
    integral,
    make_symbol,
    read_field,
    write_field,
)
from mixheat import kernels
from mixheat.grid import _band_reduce, _irfft, _rfft


def gaussian_field(grid, width=1.0, center=0.0):
    r2 = sum((c - center) ** 2 for c in grid.coords())
    f = Field(grid, np.exp(-r2 / (2.0 * width ** 2)))
    return Field(grid, f.values / integral(f))


def test_grid_geometry():
    g = GridSpec(1, 10.0, 64)
    assert g.spacing == pytest.approx(20.0 / 64)
    assert g.cell_volume == g.spacing
    assert g.shape == (64,)
    x = g.axis_coords()
    assert x[64 // 2] == 0.0
    assert x[0] == -10.0
    assert x[-1] == pytest.approx(10.0 - g.spacing)


def test_grid_geometry_2d():
    g = GridSpec(2, 5.0, 32)
    assert g.shape == (32, 32)
    assert g.cell_volume == pytest.approx(g.spacing ** 2)
    xs, ys = g.coords()
    assert xs.shape == (32, 32)
    assert xs[32 // 2, 32 // 2] == 0.0
    assert ys[32 // 2, 32 // 2] == 0.0


def test_axis_freqs_match_fft_convention():
    g = GridSpec(1, 7.0, 32)
    expected = 2.0 * np.pi * np.fft.fftfreq(32, d=g.spacing)
    np.testing.assert_allclose(g.axis_freqs(), expected, rtol=0, atol=0)


@pytest.mark.parametrize("dim,half_width,points", [
    (3, 1.0, 64),
    (1, 0.0, 64),
    (1, -2.0, 64),
    (1, 1.0, 48),
    (1, 1.0, 8),
])
def test_grid_validation(dim, half_width, points):
    with pytest.raises(ConfigurationError):
        GridSpec(dim, half_width, points)


# boxes whose cell spacing or cell volume leaves the normal float range
@pytest.mark.parametrize("dim,half_width,points", [
    (1, 1e308, 64), (1, 1e-320, 64), (2, 1e200, 16), (2, 1e-160, 16)])
def test_grid_rejects_a_box_outside_the_float_range(dim, half_width, points):
    with pytest.raises(ConfigurationError, match="^half_width must give a finite cell"):
        GridSpec(dim, half_width, points)


def test_grid_stores_whole_floats_as_ints():
    g = GridSpec(1.0, 20, 256.0)
    assert g == GridSpec(1, 20.0, 256) and g.shape == (256,)
    assert [type(v) for v in (g.dim, g.half_width, g.points)] == [int, float, int]


def test_make_field_rejects_wrong_shape_and_nan():
    g = GridSpec(1, 1.0, 16)
    with pytest.raises(ConfigurationError):
        Field(g, np.zeros(17))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(NumericalFailureError):
        Field(g, bad)
    bad[3] = np.inf
    with pytest.raises(NumericalFailureError):
        Field(g, bad)


def test_delta_field_unit_mass():
    for dim in (1, 2):
        g = GridSpec(dim, 3.0, 32)
        d = delta_field(g)
        assert integral(d) == pytest.approx(1.0, abs=1e-14)
        # single nonzero entry at the x = 0 node
        assert np.count_nonzero(d.values) == 1
        idx = np.unravel_index(np.argmax(d.values), g.shape)
        assert all(i == 32 // 2 for i in idx)


def test_integral_is_riemann_sum():
    g = GridSpec(1, 2.0, 64)
    f = Field(g, np.ones(64))
    assert integral(f) == pytest.approx(4.0)


def test_parseval():
    rng = np.random.default_rng(7)
    g = GridSpec(1, 5.0, 256)
    f = Field(g, rng.standard_normal(256))
    direct = np.sum(f.values ** 2) * g.spacing
    fhat = np.fft.fft(f.values)
    spectral = np.sum(np.abs(fhat) ** 2) / 256 * g.spacing
    assert direct == pytest.approx(spectral, rel=1e-13)


def test_make_symbol_values_and_kinds():
    g = GridSpec(1, 4.0, 64)
    mag = g.freq_magnitude()
    np.testing.assert_allclose(make_symbol(g, 1.5).values, mag ** 2 + mag ** 1.5)
    np.testing.assert_allclose(make_symbol(g, 1.0, kind="fractional").values, mag)
    for kind in ("heat", "laplacian"):
        with pytest.raises(ConfigurationError):
            make_symbol(g, 1.0, kind=kind)
    with pytest.raises(ConfigurationError):
        make_symbol(g, 2.5)
    with pytest.raises(ConfigurationError):
        make_symbol(g, 2.0)


def test_apply_symbol_semigroup_composition():
    g = GridSpec(1, 20.0, 512)
    f = gaussian_field(g, width=1.2)
    sym = make_symbol(g, 1.0)
    one = apply_symbol(f, sym, scale=0.7, mode="semigroup")
    two = apply_symbol(apply_symbol(f, sym, scale=0.3, mode="semigroup"),
                       sym, scale=0.4, mode="semigroup")
    np.testing.assert_allclose(one.values, two.values, rtol=0, atol=1e-14)


def test_apply_symbol_scale_zero_is_identity():
    g = GridSpec(1, 20.0, 256)
    f = gaussian_field(g)
    out = apply_symbol(f, make_symbol(g, 0.8), scale=0.0, mode="semigroup")
    np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-14)


def test_apply_symbol_validation():
    g = GridSpec(1, 20.0, 256)
    other = GridSpec(1, 10.0, 256)
    f = gaussian_field(g)
    sym = make_symbol(other, 1.0)
    with pytest.raises(ConfigurationError):
        apply_symbol(f, sym)
    sym = make_symbol(g, 1.0)
    with pytest.raises(ConfigurationError):
        apply_symbol(f, sym, scale=-1.0, mode="semigroup")
    with pytest.raises(ConfigurationError):
        apply_symbol(f, sym, mode="resolvent")


def test_laplacian_symbol_matches_second_derivative():
    """The mixed multiplier less the fractional one, |xi|^2, must act as
    -d^2/dx^2."""
    g = GridSpec(1, 25.0, 2048)
    x = g.axis_coords()
    f = Field(g, np.exp(-x * x))
    exact = -(4.0 * x * x - 2.0) * np.exp(-x * x)
    for alpha in (0.5, 1.0, 1.5):
        out = (apply_symbol(f, make_symbol(g, alpha)).values
               - frac_laplacian_spectral(f, alpha).values)
        np.testing.assert_allclose(out, exact, rtol=0, atol=1e-9)
    # the production fractional route refuses the degenerate endpoint
    with pytest.raises(ConfigurationError):
        frac_laplacian_spectral(f, 2.0)


def test_frac_laplacian_spectral_kills_constants():
    g = GridSpec(1, 5.0, 64)
    f = Field(g, np.full(64, 2.5))
    out = frac_laplacian_spectral(f, 1.0)
    assert np.abs(out.values).max() < 1e-14


def test_convolve_delta_identity():
    g = GridSpec(1, 12.0, 256)
    f = gaussian_field(g, width=0.8)
    out = convolve(f, delta_field(g))
    np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-13)
    out2 = convolve(delta_field(g), f)
    np.testing.assert_allclose(out2.values, f.values, rtol=0, atol=1e-13)


def test_convolve_gaussians():
    # variance adds under convolution; box is wide enough that wrap-around
    # is below the tolerance
    g = GridSpec(1, 40.0, 4096)
    a = gaussian_field(g, width=1.0)
    b = gaussian_field(g, width=1.5)
    c = convolve(a, b)
    x = g.axis_coords()
    w2 = 1.0 ** 2 + 1.5 ** 2
    exact = np.exp(-x * x / (2.0 * w2)) / np.sqrt(2.0 * np.pi * w2)
    np.testing.assert_allclose(c.values, exact, rtol=0, atol=1e-10)


def test_convolve_grid_mismatch():
    a = gaussian_field(GridSpec(1, 10.0, 128))
    b = gaussian_field(GridSpec(1, 10.0, 256))
    with pytest.raises(ConfigurationError):
        convolve(a, b)


def _full_lattice_magnitude(grid):
    """|xi| on the full complex-FFT lattice, built independently of grid."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    if grid.dim == 1:
        return np.abs(xi)
    kx, ky = np.meshgrid(xi, xi, indexing="ij")
    return np.hypot(kx, ky)


def _field_with_nyquist(grid, seed):
    """Random field plus a checkerboard that puts energy at every Nyquist mode."""
    rng = np.random.default_rng(seed)
    idx = np.indices(grid.shape)
    checker = (-1.0) ** idx.sum(axis=0) + (-1.0) ** idx[0]
    return Field(grid, rng.random(grid.shape) + 0.5 * checker)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode,scale", [("multiplier", 0.3), ("semigroup", 0.7)])
def test_half_spectrum_apply_symbol_matches_complex_oracle(dim, mode, scale):
    g = GridSpec(dim, 32.0, 64 if dim == 1 else 32)
    f = _field_with_nyquist(g, seed=dim)
    mag = _full_lattice_magnitude(g)
    full = mag ** 2 + mag ** 1.3
    mult = scale * full if mode == "multiplier" else np.exp(-scale * full)
    oracle = np.fft.ifftn(mult * np.fft.fftn(f.values)).real
    out = apply_symbol(f, make_symbol(g, 1.3), scale=scale, mode=mode)
    tol = 1e-13 * np.abs(f.values).max()
    assert np.abs(out.values - oracle).max() <= tol


@pytest.mark.parametrize("dim", [1, 2])
def test_half_spectrum_convolve_matches_complex_oracle(dim):
    g = GridSpec(dim, 32.0, 64 if dim == 1 else 32)
    f = _field_with_nyquist(g, seed=10 + dim)
    k = gaussian_field(g, width=2.0, center=1.0)
    raw = np.fft.ifftn(np.fft.fftn(f.values) * np.fft.fftn(k.values)).real
    oracle = np.roll(raw, (-(g.points // 2),) * dim, axis=tuple(range(dim))) * g.cell_volume
    out = convolve(f, k)
    tol = 1e-13 * np.abs(f.values).max()
    assert np.abs(out.values - oracle).max() <= tol


def _round_trip(grid, values, multiplier=None, kernel=None, out=None, spectrum=None):
    """_rfft, the products, then _irfft, as the grid's callers chain them:
    the solver with out= and spectrum=, convolve with a kernel."""
    spectrum = _rfft(grid, values, out=spectrum)
    if kernel is not None:
        spectrum *= _rfft(grid, kernel)
    if multiplier is not None:
        spectrum *= multiplier
    return _irfft(grid, spectrum, out=out)


@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_apply_in_place_matches_out_of_place(dim):
    """out=values with a reused spectrum buffer (the solver's in-place
    _rfft/_irfft chain) gives the out-of-place result bit for bit, with a
    multiplier and with a kernel."""
    g = GridSpec(dim, 32.0, 64 if dim == 1 else 32)
    mult = np.exp(-0.7 * make_symbol(g, 1.3).values) / g.points ** dim
    kernel = gaussian_field(g, width=2.0, center=1.0).values
    buf = np.empty(mult.shape, dtype=complex)
    for seed, paths in ((20 + dim, {"multiplier": mult}), (30 + dim, {"kernel": kernel})):
        v = _field_with_nyquist(g, seed).values.copy()
        expected = _round_trip(g, v, **paths)
        out = _round_trip(g, v, out=v, spectrum=buf, **paths)
        assert out is v
        np.testing.assert_array_equal(v, expected)


def _spectral_oracle(grid, values, multiplier=None, kernel=None):
    """numpy's n-D round trip. Named operands keep numpy from eliding a
    temporary, which would swap the factors of the complex product and
    move its last bits."""
    axes = tuple(range(grid.dim))
    spectrum = np.fft.rfftn(values, axes=axes)
    if kernel is not None:
        kernel_spectrum = np.fft.rfftn(kernel, axes=axes)
        spectrum = np.multiply(spectrum, kernel_spectrum)
    if multiplier is not None:
        spectrum = np.multiply(spectrum, multiplier)
    return np.fft.irfftn(spectrum, s=grid.shape, axes=axes)


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 8192), (2, 16), (2, 256)])
def test_spectral_apply_is_the_nd_round_trip_bit_for_bit(dim, n):
    """_rfft is rfftn bit for bit, and _irfft makes numpy's irfftn calls
    in their order but skips the 1/N scaling that the caller folds into a
    factor of its own, so every chain gives the n-D round trip's bits: with
    a multiplier that carries the 1/N, or with none and the result scaled
    by 1/N; with a kernel or without; with and without the out= and
    spectrum= buffers; and from a given spectrum (_irfft alone). At
    dtau = 20 on 8192 points the multiplier falls through the subnormals
    to 0."""
    g = GridSpec(dim, 24.0, n)
    axes = tuple(range(dim))
    inverse_n = 1.0 / g.points ** dim
    symbol = make_symbol(g, 1.3).values
    kernel = gaussian_field(g, width=2.0, center=1.0).values
    v = _field_with_nyquist(g, 40 + dim).values
    assert np.array_equal(_rfft(g, v), np.fft.rfftn(v, axes=axes))
    cases = [{}, {"kernel": kernel}]
    for dtau in (0.7, 20.0):
        mult = np.exp(-dtau * symbol)
        cases += [{"multiplier": mult}, {"multiplier": mult, "kernel": kernel}]
    for paths in cases:
        expected = _spectral_oracle(g, v, **paths)
        scale = inverse_n
        if "multiplier" in paths:
            paths = dict(paths, multiplier=paths["multiplier"] * inverse_n)
            scale = 1.0
        assert np.array_equal(_round_trip(g, v, **paths) * scale, expected)
        buf = np.empty(symbol.shape, dtype=complex)
        out = np.empty(g.shape)
        assert _round_trip(g, v, out=out, spectrum=buf, **paths) is out
        assert np.array_equal(out * scale, expected)
        given = np.fft.rfftn(v, axes=axes)
        if "kernel" in paths:
            given = np.multiply(given, np.fft.rfftn(kernel, axes=axes))
        if "multiplier" in paths:
            given *= paths["multiplier"]
        assert np.array_equal(_irfft(g, given) * scale, expected)


def test_spectral_apply_2d_allocates_no_half_spectrum():
    """The solver's in-place 2D chain (out=values, a reused spectrum buffer,
    a real multiplier) runs its inverse transform in the buffer: at 256^2
    its traced peak stays below half of one complex half spectrum (numpy
    casts the real multiplier to complex through a smaller buffer)."""
    g = GridSpec(2, 64.0, 256)
    mult = np.exp(-0.7 * make_symbol(g, 1.3).values) / g.points ** 2
    v = _field_with_nyquist(g, 50).values.copy()
    buf = np.empty(mult.shape, dtype=complex)
    _round_trip(g, v, mult, out=v, spectrum=buf)
    tracemalloc.start()
    try:
        _round_trip(g, v, mult, out=v, spectrum=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * buf.nbytes


@pytest.mark.parametrize("ufunc,reduce", [(np.minimum, np.min), (np.maximum, np.max)],
                         ids=["minimum", "maximum"])
@pytest.mark.parametrize("dim,n", [(1, 16), (1, 256), (2, 16), (2, 64)])
def test_band_reduce_is_the_extremum_of_each_band(dim, n, ufunc, reduce):
    """On any half-lattice values, not only an even symbol that rises with
    |xi| or a spectrum's moduli: the least or greatest value from each
    band's index c up on the last axis, or in rows c to n - c of the
    leading one (none on 16 points), as slicing each band gives it."""
    g = GridSpec(dim, 1.0, n)
    rng = np.random.default_rng(n + dim)
    for _ in range(20):
        values = rng.random(g.shape[:-1] + (n // 2 + 1,))
        expected = sliced_band_extrema(g, values, reduce)
        assert _band_reduce(g, values, ufunc).tolist() == expected


@pytest.mark.parametrize("dim,n", [(1, 2 ** 14), (2, 128)])
def test_kernel_norms_exp_no_grid_sized_multiplier_to_cut(dim, n, monkeypatch):
    """mixed_kernel_norms decides each time's cut from the symbol's band
    minima: np.exp sees each kernel's own half lattice, at its own points,
    and O(log n) numbers a time, never a whole multiplier per time."""
    exped, points = [], []
    exp, irfft = np.exp, kernels._irfft

    def counting_exp(x, *args, **kwargs):
        exped.append(np.size(x))
        return exp(x, *args, **kwargs)

    def transform(grid, spectrum, **kwargs):
        points.append(grid.points)
        return irfft(grid, spectrum, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    monkeypatch.setattr(kernels, "_irfft", transform)
    times = [300.0, 1e-3, 30.0, 0.5, 3000.0, 1.0]  # some cut, some do not
    kernels.mixed_kernel_norms(GridSpec(dim, 0.37 * n, n), 1.0, times)
    assert len(points) == len(times) and min(points) < n
    half_lattices = sum(p ** (dim - 1) * (p // 2 + 1) for p in points)
    assert sum(exped) <= half_lattices + len(times) * n.bit_length()


def test_field_io_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for dim in (1, 2):
        g = GridSpec(dim, 6.0, 32)
        f = Field(g, rng.standard_normal(g.shape))
        path = tmp_path / f"field{dim}.fhk"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)


def test_field_file_bytes_are_the_header_and_the_samples(tmp_path):
    """write_field writes the contiguous little-endian samples straight
    from the array's buffer: the same bytes as the header plus tobytes(),
    also for a strided 2D view."""
    rng = np.random.default_rng(5)
    for dim, values in ((1, rng.standard_normal(32)),
                        (2, rng.standard_normal((32, 32)).T)):
        g = GridSpec(dim, 6.0, 32)
        f = Field(g, values)
        path = tmp_path / f"field{dim}.fhk"
        write_field(f, path)
        header = struct.pack("<4sBQd", b"FHK1", dim, 32, 6.0)
        samples = np.ascontiguousarray(values, dtype="<f8").tobytes()
        assert path.read_bytes() == header + samples


def test_field_io_rejects_corruption(tmp_path):
    g = GridSpec(1, 6.0, 32)
    f = gaussian_field(g)
    path = tmp_path / "field.fhk"
    write_field(f, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.fhk"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ConfigurationError):
        read_field(bad_magic)

    truncated = tmp_path / "trunc.fhk"
    truncated.write_bytes(blob[:-9])
    with pytest.raises(ConfigurationError):
        read_field(truncated)
