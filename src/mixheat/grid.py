"""Periodic grids, fields, and Fourier-multiplier machinery.

Everything downstream works on a truncated periodic box [-L, L)^N with
N in {1, 2} and a power-of-two point count per axis, so that discrete
frequencies are xi_k = pi k / L and symbols act diagonally under the FFT.
Conventions: x_j = -L + j dx with dx = 2L/n, so x = 0 sits exactly on the
lattice. Fields are real, so every transform is a real FFT: symbols live
on its half lattice, and one helper, _spectral_apply, is the only place
that transforms.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalFailureError

_FIELD_MAGIC = b"FHK1"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_width, half_width)^dim."""

    dim: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ConfigurationError(f"half_width must be positive, got {self.half_width}")
        if not (_is_power_of_two(self.points) and self.points >= 16):
            raise ConfigurationError(
                f"points must be a power of two >= 16, got {self.points}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    def axis_coords(self) -> np.ndarray:
        """Grid coordinates along one axis; x = 0 is at index points//2."""
        n = self.points
        return (np.arange(n) - n // 2) * self.spacing

    def axis_freqs(self) -> np.ndarray:
        """Angular frequencies xi_k = pi k / L in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def coords(self) -> tuple:
        """Meshgrid coordinate arrays, one per axis (ij indexing)."""
        x = self.axis_coords()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def freq_magnitude(self) -> np.ndarray:
        """|xi| on the real-FFT half lattice: FFT order on the leading axis,
        rfftfreq order on the last (Nyquist enters unsigned)."""
        half = 2.0 * np.pi * np.fft.rfftfreq(self.points, d=self.spacing)
        if self.dim == 1:
            return half
        kx, ky = np.meshgrid(self.axis_freqs(), half, indexing="ij")
        return np.hypot(kx, ky)


def make_grid(dim: int, half_width: float, points: int) -> GridSpec:
    return GridSpec(dim=int(dim), half_width=float(half_width), points=int(points))


@dataclass(frozen=True)
class Field:
    """Real scalar field sampled on a GridSpec."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ConfigurationError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise NumericalFailureError("field contains non-finite values")
        object.__setattr__(self, "values", v)


def make_field(grid: GridSpec, values) -> Field:
    return Field(grid=grid, values=np.asarray(values, dtype=np.float64))


def delta_field(grid: GridSpec) -> Field:
    """Discrete delta at the origin with unit discrete integral."""
    v = np.zeros(grid.shape)
    origin = (grid.points // 2,) * grid.dim
    v[origin] = 1.0 / grid.cell_volume
    return Field(grid=grid, values=v)


def integral(f: Field) -> float:
    return float(np.sum(f.values) * f.grid.cell_volume)


@dataclass(frozen=True)
class SpectralSymbol:
    """Fourier symbol on a grid's real-FFT half lattice (see freq_magnitude).

    kind "mixed" is |xi|^2 + |xi|^alpha (the generator of the mixed
    local/nonlocal flow), "fractional" is |xi|^alpha alone, "laplacian"
    is |xi|^2. alpha = 2 collapses the mixed symbol to 2|xi|^2 and is
    only allowed as an explicit diagnostic.
    """

    grid: GridSpec
    alpha: float
    kind: str
    values: np.ndarray = field(repr=False)


def make_symbol(grid: GridSpec, alpha: float, kind: str = "mixed",
                diagnostic_alpha2: bool = False) -> SpectralSymbol:
    if kind not in ("mixed", "fractional", "laplacian"):
        raise ConfigurationError(f"unknown symbol kind {kind!r}")
    if kind != "laplacian":
        if not (0.0 < alpha < 2.0 or (alpha == 2.0 and diagnostic_alpha2)):
            raise ConfigurationError(
                f"alpha must lie in (0, 2) (alpha = 2 needs diagnostic_alpha2), got {alpha}")
    mag = grid.freq_magnitude()
    if kind == "mixed":
        values = mag ** 2 + mag ** alpha
    elif kind == "fractional":
        values = mag ** alpha
    else:
        values = mag ** 2
    return SpectralSymbol(grid=grid, alpha=float(alpha), kind=kind, values=values)


def _spectral_apply(grid: GridSpec, values: np.ndarray, multiplier=None,
                    kernel=None) -> np.ndarray:
    """irfftn(rfftn(values) * rfftn(kernel) * multiplier) on the grid.

    The one transform path: multiplier is a real array on the half lattice,
    kernel a second real grid array (periodic convolution); either may be
    omitted.
    """
    axes = tuple(range(grid.dim))
    spectrum = np.fft.rfftn(values, axes=axes)
    if kernel is not None:
        spectrum *= np.fft.rfftn(kernel, axes=axes)
    if multiplier is not None:
        spectrum *= multiplier
    return np.fft.irfftn(spectrum, s=grid.shape, axes=axes)


def apply_symbol(f: Field, symbol: SpectralSymbol, scale: float = 1.0,
                 mode: str = "multiplier") -> Field:
    """Apply scale*m(xi) (mode "multiplier") or exp(-scale*m(xi))
    (mode "semigroup") to a field in frequency space.

    The multiplier is real and even, so it acts on the half spectrum of
    the real field and the inverse real FFT returns a real field. The zero
    mode of a semigroup multiplier is exactly 1, so the discrete integral
    is preserved to rounding.
    """
    if f.grid != symbol.grid:
        raise ConfigurationError("field and symbol live on different grids")
    if mode == "multiplier":
        mult = scale * symbol.values
    elif mode == "semigroup":
        if scale < 0:
            raise ConfigurationError(f"semigroup scale must be >= 0, got {scale}")
        mult = np.exp(-scale * symbol.values)
    else:
        raise ConfigurationError(f"unknown apply_symbol mode {mode!r}")
    out = _spectral_apply(f.grid, f.values, mult)
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("apply_symbol produced non-finite values")
    return Field(grid=f.grid, values=out)


def frac_laplacian_spectral(f: Field, alpha: float) -> Field:
    """Fractional Laplacian (-Lap)^(alpha/2) f via the |xi|^alpha multiplier."""
    return apply_symbol(f, make_symbol(f.grid, alpha, kind="fractional"),
                        scale=1.0, mode="multiplier")


def convolve(f: Field, g: Field) -> Field:
    """Periodic convolution int f(y) g(x - y) dy on the grid.

    The FFT product computes an index-circular convolution; with the
    origin at index n//2 the result comes back shifted by half a period
    per axis, so it is rolled into place.
    """
    if f.grid != g.grid:
        raise ConfigurationError("convolve needs both fields on one grid")
    grid = f.grid
    raw = _spectral_apply(grid, f.values, kernel=g.values)
    shift = (-(grid.points // 2),) * grid.dim
    out = np.roll(raw, shift, axis=tuple(range(grid.dim))) * grid.cell_volume
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("convolve produced non-finite values")
    return Field(grid=grid, values=out)


def write_field(f: Field, path) -> None:
    """Serialize a field: magic 'FHK1', u8 dim, u64 points per axis,
    f64 half_width, then row-major little-endian f64 samples."""
    header = struct.pack("<4sBQd", _FIELD_MAGIC, f.grid.dim,
                         f.grid.points, f.grid.half_width)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path) -> Field:
    header_size = struct.calcsize("<4sBQd")
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) != header_size:
            raise ConfigurationError(f"{path}: truncated field header")
        magic, dim, points, half_width = struct.unpack("<4sBQd", header)
        if magic != _FIELD_MAGIC:
            raise ConfigurationError(f"{path}: bad magic {magic!r}")
        grid = make_grid(dim, half_width, points)
        payload = fh.read()
    expected = points ** dim * 8
    if len(payload) != expected:
        raise ConfigurationError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    return Field(grid=grid, values=values.copy())
