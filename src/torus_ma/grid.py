"""Uniform periodic tensor grids on the d-torus with spectral calculus.

All fields live on [0,1)^d sampled at N_i equispaced points per axis.
Differentiation, quadrature and the shifted-Laplacian inverse are exact for
trigonometric polynomials resolved by the grid.  Values are float64 arrays in
row-major axis order; instances are treated as immutable after construction.

Every field is real, so its spectrum is stored on the half spectrum of the
last axis (`np.fft.rfftn`), and every spectral symbol has that shape.  Values
are checked for finiteness where they enter: the public `ScalarField`
constructor, and the public entry points of `equations`, `solver` and
`verify`.  Fields computed from fields already on a grid are built unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_MAX_POINTS = 1 << 24


@dataclass(eq=False)
class TorusGrid:
    """Equispaced periodic grid on [0,1)^d, d between 2 and 5, even sizes >= 8."""

    sizes: tuple[int, ...]
    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self):
        self.sizes = tuple(int(n) for n in self.sizes)
        if not 2 <= len(self.sizes) <= 5:
            raise ValueError(f"grid dimension must be 2..5, got {len(self.sizes)}")
        for n in self.sizes:
            if n < 8 or n % 2:
                raise ValueError(f"axis sizes must be even and >= 8, got {n}")
        npts = math.prod(self.sizes)
        if npts > self.max_points:
            raise ValueError(f"grid has {npts} points, budget is {self.max_points}")

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def npoints(self) -> int:
        return math.prod(self.sizes)

    def axis_points(self, axis: int) -> np.ndarray:
        n = self.sizes[axis]
        return np.arange(n) / n

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Sparse meshgrid of coordinates, broadcastable to the grid shape."""
        axes = [self.axis_points(a) for a in range(self.d)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Integer mode numbers along `axis` on the half spectrum, shaped for
        broadcasting: the last axis holds only the modes 0..N/2."""
        n = self.sizes[axis]
        freq = np.fft.rfftfreq if axis == self.d - 1 else np.fft.fftfreq
        m = freq(n, d=1.0 / n)
        shape = [1] * self.d
        shape[axis] = m.size
        return m.reshape(shape)

    @cached_property
    def _symbols(self) -> dict:
        return {}

    def _cached_symbol(self, key, build) -> np.ndarray:
        sym = self._symbols.get(key)
        if sym is None:
            sym = build()
            # shared by every later derivative on this grid: an in-place op
            # must raise instead of corrupting them
            sym.flags.writeable = False
            self._symbols[key] = sym
        return sym

    def multiplier(self, axis: int, order: int) -> np.ndarray:
        """Read-only Fourier multiplier of d^order/dx_axis^order (order 1 or 2),
        shaped for broadcasting."""
        if not 0 <= axis < self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")

        def build():
            m = self.wavenumbers(axis)
            if order == 2:
                return -((2 * np.pi * m) ** 2)
            # the Nyquist mode of an odd-order derivative has no consistent
            # real representative; zero it
            return 2j * np.pi * m * (np.abs(m) != self.sizes[axis] // 2)

        return self._cached_symbol((axis, order), build)

    def shifted_laplacian_symbol(self, sigma: float) -> np.ndarray:
        """Read-only Fourier symbol of sigma*I - Laplacian on the half spectrum."""
        sigma = float(sigma)

        def build():
            # the axis multipliers broadcast to the whole half spectrum
            denom = sigma
            for axis in range(self.d):
                denom = denom - self.multiplier(axis, 2)
            return denom

        return self._cached_symbol(("shifted_laplacian", sigma), build)

    def compatible(self, other: "TorusGrid") -> bool:
        return self.sizes == other.sizes


@dataclass(eq=False)
class ScalarField:
    """Real periodic function sampled on a TorusGrid.

    The spectral cache is the exact discrete Fourier transform of `values` on
    the half spectrum of the last axis; it is computed lazily and must never
    be read after mutating `values` (fields are immutable by convention).
    The constructor rejects non-finite values.
    """

    grid: TorusGrid
    values: np.ndarray
    _hat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values = _grid_values(self.grid, self.values)
        require_finite(self)

    @property
    def hat(self) -> np.ndarray:
        if self._hat is None:
            self._hat = np.fft.rfftn(self.values)
        return self._hat

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _grid_values(grid: TorusGrid, values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return v if v.shape == grid.sizes else np.broadcast_to(v, grid.sizes).copy()


def require_finite(*fields: ScalarField) -> None:
    """Reject fields holding a non-finite value: the check at every place
    where values enter, since computed fields are built unchecked."""
    for f in fields:
        if not np.all(np.isfinite(f.values)):
            raise ValueError("field values must be finite")


def _unchecked_field(grid: TorusGrid, values) -> ScalarField:
    """A field computed from fields already on the grid, built without the
    finite check of the public constructor: the inner loops' constructor."""
    f = object.__new__(ScalarField)
    f.grid, f.values, f._hat = grid, _grid_values(grid, values), None
    return f


class _SpectrumField(ScalarField):
    """A computed field held by its half spectrum: its values, one inverse
    transform, are formed on first read, so a consumer of `hat` takes none."""

    def __init__(self, grid: TorusGrid, hat: np.ndarray):
        self.grid, self._hat = grid, hat

    @cached_property
    def values(self) -> np.ndarray:
        return np.fft.irfftn(self._hat, s=self.grid.sizes, axes=tuple(range(self.grid.d)))


def from_function(grid: TorusGrid, fn) -> ScalarField:
    """Sample a callable of the grid coordinates (broadcast arrays) into a field."""
    vals = fn(*grid.coords)
    return ScalarField(grid, np.broadcast_to(vals, grid.sizes).astype(np.float64))


def constant(grid: TorusGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.sizes, float(value)))


def derivative(f: ScalarField, axis: int, order: int = 1) -> ScalarField:
    """Spectral derivative along one axis, held by its half spectrum."""
    return _SpectrumField(f.grid, f.hat * f.grid.multiplier(axis, order))


def mixed_derivative(f: ScalarField, axis_a: int, axis_b: int) -> ScalarField:
    """Second mixed derivative; axis order is immaterial.

    For distinct axes the product of the two first-order multipliers, each
    with its Nyquist mode zeroed, is applied in one inverse transform.
    """
    if axis_a == axis_b:
        return derivative(f, axis_a, 2)
    mult = f.grid.multiplier(axis_a, 1) * f.grid.multiplier(axis_b, 1)
    return _SpectrumField(f.grid, f.hat * mult)


def integrate(f: ScalarField) -> float:
    """Integral over the unit torus: the grid mean (exact spectral quadrature)."""
    return float(np.mean(f.values))


def project_mean_zero(f: ScalarField) -> ScalarField:
    return _unchecked_field(f.grid, f.values - np.mean(f.values))


def invert_shifted_laplacian(r: ScalarField, sigma: float) -> ScalarField:
    """Solve (sigma*I - Laplacian) w = r diagonally; w is held by its half spectrum."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return _SpectrumField(r.grid, r.hat / r.grid.shifted_laplacian_symbol(sigma))


def _pad_axis(hat: np.ndarray, axis: int, n_old: int, n_new: int) -> np.ndarray:
    """Resize a full-spectrum axis of an FFT array, splitting/folding the Nyquist bin."""
    if n_new == n_old:
        return hat
    shape = list(hat.shape)
    shape[axis] = n_new
    out = np.zeros(shape, dtype=complex)
    half = n_old // 2

    def sl(arr, lo, hi):
        idx = [slice(None)] * arr.ndim
        idx[axis] = slice(lo, hi)
        return tuple(idx)

    if n_new > n_old:
        out[sl(out, 0, half)] = hat[sl(hat, 0, half)]
        out[sl(out, n_new - half + 1, n_new)] = hat[sl(hat, half + 1, n_old)]
        nyq = hat[sl(hat, half, half + 1)] / 2.0
        out[sl(out, half, half + 1)] = nyq
        out[sl(out, n_new - half, n_new - half + 1)] += nyq
    else:
        halfn = n_new // 2
        out[sl(out, 0, halfn)] = hat[sl(hat, 0, halfn)]
        out[sl(out, halfn + 1, n_new)] = hat[sl(hat, n_old - halfn + 1, n_old)]
        out[sl(out, halfn, halfn + 1)] = (
            hat[sl(hat, halfn, halfn + 1)] + hat[sl(hat, n_old - halfn, n_old - halfn + 1)]
        )
    return out


def _pad_last_axis(hat: np.ndarray, n_old: int, n_new: int) -> np.ndarray:
    """`_pad_axis` on the last axis of a half spectrum.  A fold adds the mode
    -N/2 to the new Nyquist bin: the conjugate of +N/2 at the negated indices
    of the other axes."""
    half = min(n_old, n_new) // 2
    out = np.zeros(hat.shape[:-1] + (n_new // 2 + 1,), dtype=complex)
    out[..., :half] = hat[..., :half]
    nyq, others = hat[..., half], tuple(range(hat.ndim - 1))
    out[..., half] = nyq / 2.0 if n_new > n_old else nyq + np.conj(np.roll(np.flip(nyq), 1, others))
    return out


def resample(f: ScalarField, sizes: tuple[int, ...]) -> ScalarField:
    """Spectral interpolation/truncation onto a grid with different sizes.

    Works on the half spectrum of f, splitting and folding the Nyquist bin
    of every axis alike; the result is held by its half spectrum."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) != f.grid.d:
        raise ValueError("resample cannot change dimension")
    hat = f.hat
    for axis, (n_old, n_new) in enumerate(zip(f.grid.sizes, sizes)):
        if n_old != n_new:
            hat = (_pad_last_axis(hat, n_old, n_new) if axis == f.grid.d - 1
                   else _pad_axis(hat, axis, n_old, n_new))
    new_grid = TorusGrid(sizes, max_points=f.grid.max_points)
    return _SpectrumField(new_grid, hat * (new_grid.npoints / f.grid.npoints))


def random_trig_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    max_mode: int = 3,
    scale: float = 1.0,
    axes: tuple[int, ...] | None = None,
    mean_zero: bool = True,
) -> ScalarField:
    """Random band-limited field: modes up to `max_mode` on the chosen axes.

    `scale` is the approximate max-norm of the result.  Restricting `axes`
    produces fields constant along the remaining directions.
    """
    if axes is None:
        axes = tuple(range(grid.d))
    vals = np.zeros(grid.sizes)
    coords = grid.coords
    n_terms = 0
    for _ in range(4 * len(axes)):
        term = 1.0
        ms = rng.integers(0, max_mode + 1, size=len(axes))
        if not np.any(ms):
            continue
        for ax, m in zip(axes, ms):
            phase = rng.uniform(0, 2 * np.pi)
            if m == 0:
                continue
            term = term * np.cos(2 * np.pi * m * coords[ax] + phase)
        vals = vals + rng.uniform(-1.0, 1.0) * np.broadcast_to(term, grid.sizes)
        n_terms += 1
    if n_terms == 0:
        vals = np.broadcast_to(np.cos(2 * np.pi * coords[axes[0]]), grid.sizes).copy()
    amp = np.max(np.abs(vals))
    if amp > 0:
        vals = vals * (scale / amp)
    if mean_zero:
        vals = vals - np.mean(vals)
    return ScalarField(grid, vals)
