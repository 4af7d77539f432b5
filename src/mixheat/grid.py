"""Periodic grids, fields, and Fourier-multiplier machinery.

Everything downstream works on a truncated periodic box [-L, L)^N with
N in {1, 2} and a power-of-two point count per axis, so that discrete
frequencies are xi_k = pi k / L and symbols act diagonally under the FFT.
Conventions: x_j = -L + j dx with dx = 2L/n, so x = 0 sits exactly on the
lattice. Fields are real, so every transform is a real FFT: symbols live
on its half lattice, and one pair, _rfft and _irfft, is the only place
that transforms. They call the pocketfft gufuncs behind numpy.fft's
one-axis wrappers, in the order that numpy's n-D real transforms do and
with the same bits, but run the 2D inverse in the caller's spectrum buffer
and leave it unnormalised; each caller folds the exact factor 1/N
(N = points^dim) into a factor of its own, so the bits are the n-D round
trip's.

Beside the pair sits the one grid cut path: _band_walk says how often a grid
may halve, from the band extrema that _band_reduce reads, and _refine
zero-pads a coarse grid's samples back onto a finer one. solve walks its
spectrum's band maxima; mixed_kernel_norms walks exp(-t m) at the symbol's
band minima. Beside integral sits the one L^q
norm, _lq_norm, safe across the float range, which reads one state or a
stack of them.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalFailureError, require

_FIELD_MAGIC = b"FHK1"
_TINY = float(np.finfo(float).tiny)
# The grid cut: the largest |u_k| from the coarse grid's Nyquist index up,
# as a share of the peak |u_0|, that a halving may drop.
_CUT_TOL = 1e-14
_MAX_BYTES = 4 * 2 ** 30  # the memory budget: see _check_budget


def _float_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_width, half_width)^dim; dim and points are whole."""

    dim: int
    half_width: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        require("a power of two >= 16", points=self.points)
        for name, cast in (("dim", int), ("half_width", float), ("points", int)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        # the cell volume as a product: a float power that overflows raises
        volume = math.prod((self.spacing,) * self.dim)
        if not (_TINY <= self.spacing and _TINY <= volume < math.inf):
            raise ConfigurationError(
                f"half_width must give a finite cell spacing and volume of at least "
                f"{_TINY:g} (the least normal float) in {self.dim}D on {self.points} "
                f"points, got {self.half_width}")

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
        return np.arange(-(n // 2), n - n // 2, dtype=float) * self.spacing

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


def _check_budget(need: int, needer: str):
    """Raise if `need` bytes, the most a run will hold, exceed _MAX_BYTES;
    `needer` says what needs them. Each builder counts its need first."""
    if need > _MAX_BYTES:
        raise ConfigurationError(
            f"{needer} about {need / 2 ** 30:.3g} GiB, more than the memory "
            f"budget of {_MAX_BYTES / 2 ** 30:g} GiB")


def _check_grid_budget(grids: int, grid: GridSpec, key: str, what: str):
    """Raise, naming `key`, if `grids` float64 grids exceed _MAX_BYTES."""
    points = grid.points ** grid.dim
    _check_budget(grids * 8 * points,
                  f"{key} = {grid.points} gives a {points}-point {what} grid that needs")


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


def delta_field(grid: GridSpec) -> Field:
    """Discrete delta at the origin with unit discrete integral."""
    v = np.zeros(grid.shape)
    origin = (grid.points // 2,) * grid.dim
    v[origin] = 1.0 / grid.cell_volume
    return Field(grid=grid, values=v)


def integral(f: Field) -> float:
    return float(np.sum(f.values) * f.grid.cell_volume)


def _lq_norm(values: np.ndarray, q: float, dV: float, top=None,
             work: np.ndarray = None):
    """(sum |v|^q dV)^(1/q) of a finite array, or at q = inf its sup top,
    found if not given; work (values' shape, contiguous) is scratch, made
    if not given. Given top as an array of k sups, values is a stack of k
    states along its leading axis, and their k norms come back as an
    array: a lone state is the one-row case, and its norm a float.

    At q = 1 and 2, where top^q, N and dV keep the plain sum normal (N the
    point count), a row has the plain sum's bits, with np.sqrt at q = 2.
    Any other row, and every row at any other q, is divided by its top
    first, so that no power overflows or underflows and the root is taken
    of a sum S in [1, N] (times dV where N dV is finite): a rounded 1/q
    then errs by about |ln(S dV)| 2^-53 / q, not by the log of the plain
    sum."""
    lone = np.ndim(top) == 0
    if top is None:
        top = float(max(values.max(), -values.min()))
    if q == math.inf:
        return top
    tops = [top] if lone else top.tolist()
    rows = values.reshape(len(tops), -1)
    work = np.empty_like(rows) if work is None else work.reshape(rows.shape)
    # log2 of the sum's factors N and dV; a zero row sums to 0 as it is
    n, v = math.log2(rows.shape[1]), math.log2(dV)
    plain = [t == 0.0 or q in (1.0, 2.0) and n - 1022 <= q * math.log2(t) + min(v, 0.0)
             and q * math.log2(t) + n + max(v, 0.0) < 1023 for t in tops]
    if not all(plain):
        rows = np.divide(rows, [[1.0 if p else t] for p, t in zip(plain, tops)], out=work)
    (np.square if q == 2.0 else np.abs)(rows, out=work)
    if q not in (1.0, 2.0):
        np.power(work, q, out=work)
    root = math.sqrt if q == 2.0 else (lambda x: x ** (1.0 / q))
    # a divided row: N dV overflows only on the widest boxes (dV is normal),
    # and then top dV^(1/q) is at most the norm
    norms = [root(s * dV) if p else t * root(s * dV) if n + v < 1023
             else t * root(dV) * root(s)
             for p, t, s in zip(plain, tops, np.add.reduce(work, axis=1).tolist())]
    return float(norms[0]) if lone else np.array(norms)


@dataclass(frozen=True)
class SpectralSymbol:
    """Fourier symbol on a grid's real-FFT half lattice (see freq_magnitude).

    make_symbol's kind "mixed" is |xi|^2 + |xi|^alpha (the generator of the
    mixed local/nonlocal flow), "fractional" is |xi|^alpha alone.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)


def make_symbol(grid: GridSpec, alpha: float, kind: str = "mixed") -> SpectralSymbol:
    if kind not in ("mixed", "fractional"):
        raise ConfigurationError(f"unknown symbol kind {kind!r}")
    require(alpha=alpha)
    mag = grid.freq_magnitude()
    values = mag ** alpha
    if kind == "mixed":  # in place, over mag: a sum commutes, so same bits
        # |xi|^2 overflows to inf on a box narrower than about 1e-150, where
        # the semigroup's exp(-t m) = 0 is the right factor
        with np.errstate(over="ignore"):
            values += np.square(mag, out=mag)
    return SpectralSymbol(grid=grid, values=values)


def _rfft(grid: GridSpec, values: np.ndarray, out=None) -> np.ndarray:
    """The half spectrum of a real grid array: numpy's rfftn, bit for bit,
    into out (complex, half lattice) if given. It calls the pocketfft
    gufuncs behind numpy.fft's rfft and fft wrappers, in their order and
    with their factor 1, and skips the wrappers' per-call Python, and with
    it their check of out: out must have values' leading shape and
    points // 2 + 1 on its last axis, as nothing here checks it."""
    pfu = np.fft._pocketfft_umath  # looked up here: importing grid loads no numpy.fft
    if out is None:
        out = np.empty(values.shape[:-1] + (grid.points // 2 + 1,), dtype=complex)
    pfu.rfft_n_even(values, 1.0, out=out)  # points is a power of two
    if grid.dim == 2:  # the leading axis
        pfu.fft(out, 1.0, axes=[(0,), (), (0,)], out=(out,))
    return out


def _irfft(grid: GridSpec, spectrum: np.ndarray, out=None) -> np.ndarray:
    """N times numpy's irfftn of a half spectrum (N = points^dim), into out
    if given: the inverse skips its 1/N scaling pass, so the caller scales
    a factor of its own by the power of two 1/N and gets the n-D round
    trip's bits. In 2D the inverse runs in spectrum and overwrites it. Like
    _rfft it calls the gufuncs behind numpy.fft's ifft and irfft wrappers,
    with the factor 1 they pass at norm="forward". irfft reads the length
    n from out's last axis and nothing checks it: out must have the grid's
    full shape (spectrum's leading shape and points on the last axis), or
    the transform takes another length without an error."""
    pfu = np.fft._pocketfft_umath
    # numpy's n-D inverse makes these calls in this order, but gives its
    # leading-axis ifft no out= and so allocates a complex half spectrum
    if grid.dim == 2:
        pfu.ifft(spectrum, 1.0, axes=[(0,), (), (0,)], out=(spectrum,))
    if out is None:  # irfft reads n = points from out's last axis
        out = np.empty(spectrum.shape[:-1] + (grid.points,))
    return pfu.irfft(spectrum, 1.0, out=out)


def _bands(grid: GridSpec) -> list:
    """Each halving's coarse Nyquist index c, in order: n/4, n/8, ..., 8
    (never below 16 points). It drops the band from index c up on any axis."""
    return [grid.points >> (m + 2) for m in range(grid.points.bit_length() - 5)]


def _band_walk(peak: float, uppers) -> int:
    """How many times a grid may halve: the number of leading band maxima
    in uppers (in _bands' order) at most _CUT_TOL of peak, the zero mode's
    modulus."""
    m = 0
    for upper in uppers:
        if upper > _CUT_TOL * peak:
            break
        m += 1
    return m


def _band_reduce(grid: GridSpec, values: np.ndarray, ufunc) -> np.ndarray:
    """The ufunc (np.maximum or np.minimum) of `values` on grid's half lattice
    over each of _bands, from one reduction per axis. It reads index k, never
    xi, so the box width cannot overflow a cut."""
    line = values  # the reduction over the indices r on some axis
    if grid.dim == 2:  # column r, and rows r and n - r
        h, rows = grid.points // 2, ufunc.reduce(values, axis=1)
        line = ufunc(ufunc.reduce(values, axis=0), ufunc(rows[:h + 1], rows[-np.arange(h + 1)]))
    # a band is its narrower neighbour and one shell of indices more
    return ufunc.accumulate(ufunc.reduceat(line, _bands(grid)[::-1])[::-1])


def _refine(values: np.ndarray, coarse: GridSpec, fine: GridSpec) -> np.ndarray:
    """The band-limited interpolant of a coarse grid's samples on a finer
    grid with the same box: its spectrum zero-padded, the coarse Nyquist
    modes dropped."""
    spectrum = _rfft(coarse, values)
    h = coarse.points // 2
    padded = np.zeros(fine.shape[:-1] + (fine.points // 2 + 1,), dtype=complex)
    low = (slice(h),) * coarse.dim
    padded[low] = spectrum[low]
    if coarse.dim == 2:  # the leading axis's negative frequencies
        padded[1 - h:, :h] = spectrum[h + 1:, :h]
    out = _irfft(fine, padded)
    out *= 1.0 / values.size  # the inverse's 1/N, at the coarse N
    return out


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
        require("finite", scale=scale)
        mult = scale * symbol.values
    elif mode == "semigroup":
        require(">= 0 and finite", scale=scale)
        mult = np.exp(-scale * symbol.values)
    else:
        raise ConfigurationError(f"unknown apply_symbol mode {mode!r}")
    mult *= 1.0 / f.values.size  # the inverse transform's 1/N
    spectrum = _rfft(f.grid, f.values)
    spectrum *= mult
    return Field(grid=f.grid, values=_irfft(f.grid, spectrum))


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
    spectrum = _rfft(grid, f.values)
    spectrum *= _rfft(grid, g.values)
    raw = _irfft(grid, spectrum)
    raw *= grid.cell_volume / raw.size  # dV and the inverse's 1/N
    shift = (-(grid.points // 2),) * grid.dim
    out = np.roll(raw, shift, axis=tuple(range(grid.dim)))
    return Field(grid=grid, values=out)


def write_field(f: Field, path) -> None:
    """Serialize a field: magic 'FHK1', u8 dim, u64 points per axis,
    f64 half_width, then row-major little-endian f64 samples."""
    header = struct.pack("<4sBQd", _FIELD_MAGIC, f.grid.dim,
                         f.grid.points, f.grid.half_width)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").data)


def read_field(path) -> Field:
    header_size = struct.calcsize("<4sBQd")
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) != header_size:
            raise ConfigurationError(f"{path}: truncated field header")
        magic, dim, points, half_width = struct.unpack("<4sBQd", header)
        if magic != _FIELD_MAGIC:
            raise ConfigurationError(f"{path}: bad magic {magic!r}")
        grid = GridSpec(dim, half_width, points)
        payload = fh.read()
    expected = points ** dim * 8
    if len(payload) != expected:
        raise ConfigurationError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    return Field(grid=grid, values=values.copy())
