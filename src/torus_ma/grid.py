"""Uniform periodic tensor grids on the d-torus with spectral calculus.

All fields live on [0,1)^d sampled at N_i equispaced points per axis.
Differentiation, quadrature and the shifted-Laplacian inverse are exact for
trigonometric polynomials resolved by the grid.  Values are float64 arrays in
row-major axis order; instances are treated as immutable after construction.
"""

from __future__ import annotations

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
        npts = int(np.prod(self.sizes))
        if npts > self.max_points:
            raise ValueError(f"grid has {npts} points, budget is {self.max_points}")

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.sizes))

    def axis_points(self, axis: int) -> np.ndarray:
        n = self.sizes[axis]
        return np.arange(n) / n

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Sparse meshgrid of coordinates, broadcastable to the grid shape."""
        axes = [self.axis_points(a) for a in range(self.d)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Integer mode numbers along `axis`, shaped for broadcasting."""
        n = self.sizes[axis]
        m = np.fft.fftfreq(n, d=1.0 / n)
        shape = [1] * self.d
        shape[axis] = n
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
        """Read-only Fourier symbol of sigma*I - Laplacian on the full grid."""
        sigma = float(sigma)

        def build():
            denom = sigma
            for axis in range(self.d):
                denom = denom - self.multiplier(axis, 2)
            return np.broadcast_to(denom, self.sizes).copy()

        return self._cached_symbol(("shifted_laplacian", sigma), build)

    def compatible(self, other: "TorusGrid") -> bool:
        return self.sizes == other.sizes


@dataclass(eq=False)
class ScalarField:
    """Real periodic function sampled on a TorusGrid.

    The spectral cache is the exact discrete Fourier transform of `values`;
    it is computed lazily and must never be read after mutating `values`
    (fields are immutable by convention).
    """

    grid: TorusGrid
    values: np.ndarray
    _hat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.sizes:
            v = np.broadcast_to(v, self.grid.sizes).copy()
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        self.values = v

    @property
    def hat(self) -> np.ndarray:
        if self._hat is None:
            self._hat = np.fft.fftn(self.values)
        return self._hat

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def from_function(grid: TorusGrid, fn) -> ScalarField:
    """Sample a callable of the grid coordinates (broadcast arrays) into a field."""
    vals = fn(*grid.coords)
    return ScalarField(grid, np.broadcast_to(vals, grid.sizes).astype(np.float64))


def constant(grid: TorusGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.sizes, float(value)))


def derivative(f: ScalarField, axis: int, order: int = 1) -> ScalarField:
    """Spectral derivative along one axis; exact for resolved trig polynomials."""
    mult = f.grid.multiplier(axis, order)
    return ScalarField(f.grid, np.real(np.fft.ifftn(f.hat * mult)))


def mixed_derivative(f: ScalarField, axis_a: int, axis_b: int) -> ScalarField:
    """Second mixed derivative; axis order is immaterial.

    For distinct axes the product of the two first-order multipliers, each
    with its Nyquist mode zeroed, is applied in one inverse transform.
    """
    if axis_a == axis_b:
        return derivative(f, axis_a, 2)
    mult = f.grid.multiplier(axis_a, 1) * f.grid.multiplier(axis_b, 1)
    return ScalarField(f.grid, np.real(np.fft.ifftn(f.hat * mult)))


def integrate(f: ScalarField) -> float:
    """Integral over the unit torus: the grid mean (exact spectral quadrature)."""
    return float(np.mean(f.values))


def project_mean_zero(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, f.values - np.mean(f.values))


def invert_shifted_laplacian(r: ScalarField, sigma: float) -> ScalarField:
    """Solve (sigma*I - Laplacian) w = r diagonally in spectral space."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    w = np.real(np.fft.ifftn(r.hat / r.grid.shifted_laplacian_symbol(sigma)))
    return ScalarField(r.grid, w)


def _pad_axis(hat: np.ndarray, axis: int, n_old: int, n_new: int) -> np.ndarray:
    """Resize one axis of a full FFT array, splitting/folding the Nyquist bin."""
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


def resample(f: ScalarField, sizes: tuple[int, ...]) -> ScalarField:
    """Spectral interpolation/truncation onto a grid with different sizes."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) != f.grid.d:
        raise ValueError("resample cannot change dimension")
    hat = f.hat.copy()
    for axis in range(f.grid.d):
        if f.grid.sizes[axis] != sizes[axis]:
            hat = _pad_axis(hat, axis, f.grid.sizes[axis], sizes[axis])
    scale = np.prod(sizes) / f.grid.npoints
    new_grid = TorusGrid(sizes, max_points=f.grid.max_points)
    return ScalarField(new_grid, np.real(np.fft.ifftn(hat)) * scale)


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
