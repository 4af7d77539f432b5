"""Grid, field, and spectral-primitive tests."""

import numpy as np
import pytest

from mixheat import (
    ConfigurationError,
    NumericalFailureError,
    apply_symbol,
    convolve,
    delta_field,
    frac_laplacian_spectral,
    integral,
    make_field,
    make_grid,
    make_symbol,
    read_field,
    write_field,
)


def gaussian_field(grid, width=1.0, center=0.0):
    r2 = sum((c - center) ** 2 for c in grid.coords())
    f = make_field(grid, np.exp(-r2 / (2.0 * width ** 2)))
    return make_field(grid, f.values / integral(f))


def test_grid_geometry():
    g = make_grid(1, 10.0, 64)
    assert g.spacing == pytest.approx(20.0 / 64)
    assert g.cell_volume == g.spacing
    assert g.shape == (64,)
    x = g.axis_coords()
    assert x[64 // 2] == 0.0
    assert x[0] == -10.0
    assert x[-1] == pytest.approx(10.0 - g.spacing)


def test_grid_geometry_2d():
    g = make_grid(2, 5.0, 32)
    assert g.shape == (32, 32)
    assert g.cell_volume == pytest.approx(g.spacing ** 2)
    xs, ys = g.coords()
    assert xs.shape == (32, 32)
    assert xs[32 // 2, 32 // 2] == 0.0
    assert ys[32 // 2, 32 // 2] == 0.0


def test_axis_freqs_match_fft_convention():
    g = make_grid(1, 7.0, 32)
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
        make_grid(dim, half_width, points)


def test_make_field_rejects_wrong_shape_and_nan():
    g = make_grid(1, 1.0, 16)
    with pytest.raises(ConfigurationError):
        make_field(g, np.zeros(17))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(NumericalFailureError):
        make_field(g, bad)
    bad[3] = np.inf
    with pytest.raises(NumericalFailureError):
        make_field(g, bad)


def test_delta_field_unit_mass():
    for dim in (1, 2):
        g = make_grid(dim, 3.0, 32)
        d = delta_field(g)
        assert integral(d) == pytest.approx(1.0, abs=1e-14)
        # single nonzero entry at the x = 0 node
        assert np.count_nonzero(d.values) == 1
        idx = np.unravel_index(np.argmax(d.values), g.shape)
        assert all(i == 32 // 2 for i in idx)


def test_integral_is_riemann_sum():
    g = make_grid(1, 2.0, 64)
    f = make_field(g, np.ones(64))
    assert integral(f) == pytest.approx(4.0)


def test_parseval():
    rng = np.random.default_rng(7)
    g = make_grid(1, 5.0, 256)
    f = make_field(g, rng.standard_normal(256))
    direct = np.sum(f.values ** 2) * g.spacing
    fhat = np.fft.fft(f.values)
    spectral = np.sum(np.abs(fhat) ** 2) / 256 * g.spacing
    assert direct == pytest.approx(spectral, rel=1e-13)


def test_make_symbol_values_and_kinds():
    g = make_grid(1, 4.0, 64)
    mag = g.freq_magnitude()
    np.testing.assert_allclose(make_symbol(g, 1.5).values, mag ** 2 + mag ** 1.5)
    np.testing.assert_allclose(make_symbol(g, 1.0, kind="fractional").values, mag)
    np.testing.assert_allclose(make_symbol(g, 1.0, kind="laplacian").values, mag ** 2)
    with pytest.raises(ConfigurationError):
        make_symbol(g, 1.0, kind="heat")
    with pytest.raises(ConfigurationError):
        make_symbol(g, 2.5)
    with pytest.raises(ConfigurationError):
        make_symbol(g, 2.0)
    # alpha = 2 is a diagnostic-only degenerate case: symbol collapses to 2|xi|^2
    diag = make_symbol(g, 2.0, diagnostic_alpha2=True)
    np.testing.assert_allclose(diag.values, 2.0 * mag ** 2)


def test_apply_symbol_semigroup_composition():
    g = make_grid(1, 20.0, 512)
    f = gaussian_field(g, width=1.2)
    sym = make_symbol(g, 1.0)
    one = apply_symbol(f, sym, scale=0.7, mode="semigroup")
    two = apply_symbol(apply_symbol(f, sym, scale=0.3, mode="semigroup"),
                       sym, scale=0.4, mode="semigroup")
    np.testing.assert_allclose(one.values, two.values, rtol=0, atol=1e-14)


def test_apply_symbol_scale_zero_is_identity():
    g = make_grid(1, 20.0, 256)
    f = gaussian_field(g)
    out = apply_symbol(f, make_symbol(g, 0.8), scale=0.0, mode="semigroup")
    np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-14)


def test_apply_symbol_validation():
    g = make_grid(1, 20.0, 256)
    other = make_grid(1, 10.0, 256)
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
    """The |xi|^2 multiplier must act as -d^2/dx^2."""
    g = make_grid(1, 25.0, 2048)
    x = g.axis_coords()
    f = make_field(g, np.exp(-x * x))
    exact = -(4.0 * x * x - 2.0) * np.exp(-x * x)
    out = apply_symbol(f, make_symbol(g, 1.0, kind="laplacian"))
    np.testing.assert_allclose(out.values, exact, rtol=0, atol=1e-9)
    # diagnostic alpha = 2 collapses the mixed symbol to twice the Laplacian
    mixed = apply_symbol(f, make_symbol(g, 2.0, diagnostic_alpha2=True))
    np.testing.assert_allclose(mixed.values, 2.0 * exact, rtol=0, atol=1e-9)
    # the production fractional route refuses the degenerate endpoint
    with pytest.raises(ConfigurationError):
        frac_laplacian_spectral(f, 2.0)


def test_frac_laplacian_spectral_kills_constants():
    g = make_grid(1, 5.0, 64)
    f = make_field(g, np.full(64, 2.5))
    out = frac_laplacian_spectral(f, 1.0)
    assert np.abs(out.values).max() < 1e-14


def test_convolve_delta_identity():
    g = make_grid(1, 12.0, 256)
    f = gaussian_field(g, width=0.8)
    out = convolve(f, delta_field(g))
    np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-13)
    out2 = convolve(delta_field(g), f)
    np.testing.assert_allclose(out2.values, f.values, rtol=0, atol=1e-13)


def test_convolve_gaussians():
    # variance adds under convolution; box is wide enough that wrap-around
    # is below the tolerance
    g = make_grid(1, 40.0, 4096)
    a = gaussian_field(g, width=1.0)
    b = gaussian_field(g, width=1.5)
    c = convolve(a, b)
    x = g.axis_coords()
    w2 = 1.0 ** 2 + 1.5 ** 2
    exact = np.exp(-x * x / (2.0 * w2)) / np.sqrt(2.0 * np.pi * w2)
    np.testing.assert_allclose(c.values, exact, rtol=0, atol=1e-10)


def test_convolve_grid_mismatch():
    a = gaussian_field(make_grid(1, 10.0, 128))
    b = gaussian_field(make_grid(1, 10.0, 256))
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
    return make_field(grid, rng.random(grid.shape) + 0.5 * checker)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode,scale", [("multiplier", 0.3), ("semigroup", 0.7)])
def test_half_spectrum_apply_symbol_matches_complex_oracle(dim, mode, scale):
    g = make_grid(dim, 32.0, 64 if dim == 1 else 32)
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
    g = make_grid(dim, 32.0, 64 if dim == 1 else 32)
    f = _field_with_nyquist(g, seed=10 + dim)
    k = gaussian_field(g, width=2.0, center=1.0)
    raw = np.fft.ifftn(np.fft.fftn(f.values) * np.fft.fftn(k.values)).real
    oracle = np.roll(raw, (-(g.points // 2),) * dim, axis=tuple(range(dim))) * g.cell_volume
    out = convolve(f, k)
    tol = 1e-13 * np.abs(f.values).max()
    assert np.abs(out.values - oracle).max() <= tol


def test_field_io_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for dim in (1, 2):
        g = make_grid(dim, 6.0, 32)
        f = make_field(g, rng.standard_normal(g.shape))
        path = tmp_path / f"field{dim}.fhk"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)


def test_field_io_rejects_corruption(tmp_path):
    g = make_grid(1, 6.0, 32)
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
