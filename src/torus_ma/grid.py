"""Uniform periodic tensor grids on the d-torus with spectral calculus.

All fields live on [0,1)^d sampled at N_i equispaced points per axis.
Differentiation, quadrature and the shifted-Laplacian inverse are exact for
trigonometric polynomials resolved by the grid.  Values are float64 arrays in
row-major axis order; instances are treated as immutable after construction.

Every field is real, so its spectrum is stored on the half spectrum of the
last axis (`np.fft.rfftn`), and every spectral symbol has that shape.  Values
are stored C-ordered and checked for finiteness where they enter: the public
`ScalarField` constructor, and the public entry points of `equations`,
`solver` and `verify`.  Fields computed inside are built unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_MAX_POINTS = 1 << 24


@dataclass(eq=False)
class TorusGrid:
    """Equispaced periodic grid on [0,1)^d, d between 2 and 5, even sizes >= 8."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        self.sizes = tuple(int(n) for n in self.sizes)
        if not 2 <= len(self.sizes) <= 5:
            raise ValueError(f"grid dimension must be 2..5, got {len(self.sizes)}")
        for n in self.sizes:
            if n < 8 or n % 2:
                raise ValueError(f"axis sizes must be even and >= 8, got {n}")
        npts = math.prod(self.sizes)
        if npts > DEFAULT_MAX_POINTS:
            raise ValueError(f"grid has {npts} points, budget is {DEFAULT_MAX_POINTS}")

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

    def symbol(self, key: tuple[int, ...]) -> np.ndarray:
        """Read-only Fourier multiplier of the feature key (a,), d/dx_a, or
        (a, b), d^2/dx_a dx_b: for distinct axes the product of the two
        first-order multipliers, each with its Nyquist mode zeroed, formed
        once per grid."""
        a, *b = key
        if not b or b == [a]:
            return self.multiplier(a, len(key))
        return self._cached_symbol(("mixed", *key),
                                   lambda: self.multiplier(a, 1) * self.multiplier(b[0], 1))

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


class ScalarField:
    """Real periodic function sampled on a TorusGrid.

    `hat` is the exact discrete Fourier transform of `values` on the half
    spectrum of the last axis.  A field holds one or both; each is formed from
    the other on its first read, and neither may be read after mutating the
    other (fields are immutable by convention).  The constructor rejects
    non-finite values.
    """

    def __init__(self, grid: TorusGrid, values):
        self.grid, self.values = grid, _grid_values(grid, values)
        require_finite(self)

    @cached_property
    def values(self) -> np.ndarray:
        return np.fft.irfftn(self.hat, s=self.grid.sizes, axes=tuple(range(self.grid.d)))

    @cached_property
    def hat(self) -> np.ndarray:
        return np.fft.rfftn(self.values)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _grid_values(grid: TorusGrid, values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return np.ascontiguousarray(v) if v.shape == grid.sizes else np.broadcast_to(v, grid.sizes).copy()


def require_finite(*fields: ScalarField) -> None:
    """Reject fields holding a non-finite value: the check at every place
    where values enter, since computed fields are built unchecked."""
    for f in fields:
        if not np.all(np.isfinite(f.values)):
            raise ValueError("field values must be finite")


def _field(grid: TorusGrid, values=None, hat=None) -> ScalarField:
    """A field computed from fields already on the grid, held by its values
    or its half spectrum, built without the finite check of the public
    constructor: the inner loops' constructor."""
    f = object.__new__(ScalarField)
    f.grid = grid
    if values is not None:
        f.values = _grid_values(grid, values)
    if hat is not None:
        f.hat = hat
    return f


def derivative(f: ScalarField, axis: int, order: int = 1) -> ScalarField:
    """Spectral derivative along one axis, held by its half spectrum."""
    return _field(f.grid, hat=f.hat * f.grid.multiplier(axis, order))


def mixed_derivative(f: ScalarField, axis_a: int, axis_b: int) -> ScalarField:
    """Second mixed derivative, held by its half spectrum; axis order is
    immaterial."""
    return _field(f.grid, hat=f.hat * f.grid.symbol((min(axis_a, axis_b), max(axis_a, axis_b))))


def integrate(f: ScalarField) -> float:
    """Integral over the unit torus: the grid mean (exact spectral quadrature)."""
    return float(np.mean(f.values))


def project_mean_zero(f: ScalarField) -> ScalarField:
    return _field(f.grid, f.values - np.mean(f.values))


def invert_shifted_laplacian(r: ScalarField, sigma: float) -> ScalarField:
    """Solve (sigma*I - Laplacian) w = r diagonally, sigma > 0; w is held by its half spectrum."""
    return _field(r.grid, hat=r.hat / r.grid.shifted_laplacian_symbol(sigma))


def random_trig_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    max_mode: int = 3,
    scale: float = 1.0,
    axes: tuple[int, ...] | None = None,
) -> ScalarField:
    """Random band-limited field of mean zero: modes up to `max_mode` on the
    chosen axes.

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
    vals = vals - np.mean(vals)
    return ScalarField(grid, vals)
