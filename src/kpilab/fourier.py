"""Torus grids, discrete Fourier analysis and dyadic frequency tools.

Conventions used throughout the package:

* the d-torus is identified with ``[-pi, pi)^d``; physical node ``j`` maps to
  ``x_j = -pi + 2*pi*j/n``;
* Fourier coefficients carry the ``(2*pi)^{-d}`` normalization, so the field
  with coefficient 1 at frequency ``k`` is exactly ``exp(i*k*x)`` and
  ``||u||_{L^2}^2 = (2*pi)^d * sum |u_hat|^2``;
* coefficient arrays are stored in monotone frequency order,
  ``k = -nx/2 .. nx/2 - 1`` along axis 0 and (in 2D)
  ``l = -ny/2 .. ny/2 - 1`` along axis 1.

All values are immutable after construction; every operation returns a new
field, so concurrent use needs no synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import ConstraintError, DimensionError, ParameterError

TWO_PI = 2.0 * np.pi


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform sampling of the 1D or 2D torus.

    Parameters
    ----------
    nx : int
        Sample count in x. Power of two, at least 4.
    ny : int, optional
        Sample count in y; omit for a 1D grid.
    """

    nx: int
    ny: int | None = None

    def __post_init__(self):
        if not (_is_pow2(self.nx) and self.nx >= 4):
            raise ParameterError(f"nx must be a power of two >= 4, got {self.nx}")
        if self.ny is not None and not (_is_pow2(self.ny) and self.ny >= 4):
            raise ParameterError(f"ny must be a power of two >= 4, got {self.ny}")

    @property
    def dimension(self) -> int:
        return 1 if self.ny is None else 2

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nx,) if self.ny is None else (self.nx, self.ny)

    @property
    def cell_volume(self) -> float:
        vol = TWO_PI / self.nx
        if self.ny is not None:
            vol *= TWO_PI / self.ny
        return vol

    @cached_property
    def x_nodes(self) -> np.ndarray:
        return -np.pi + TWO_PI * np.arange(self.nx) / self.nx

    @cached_property
    def y_nodes(self) -> np.ndarray:
        if self.ny is None:
            raise DimensionError("1D grid has no y nodes")
        return -np.pi + TWO_PI * np.arange(self.ny) / self.ny

    @cached_property
    def k_values(self) -> np.ndarray:
        """Integer x-frequencies in storage order, -nx/2 .. nx/2 - 1."""
        return np.arange(-self.nx // 2, self.nx // 2)

    @cached_property
    def l_values(self) -> np.ndarray:
        if self.ny is None:
            raise DimensionError("1D grid has no transverse frequencies")
        return np.arange(-self.ny // 2, self.ny // 2)

    @cached_property
    def frequencies(self) -> tuple[np.ndarray, ...]:
        """Integer frequencies of each axis in storage order: ``(k,)`` or ``(k, l)``."""
        return tuple(np.arange(-n // 2, n // 2) for n in self.shape)

    @cached_property
    def _sign(self) -> np.ndarray:
        # (-1)^(k + l) factors translating the FFT origin to the corner at -pi
        signs = [np.where(f % 2 == 0, 1.0, -1.0) for f in self.frequencies]
        return reduce(np.multiply.outer, signs)

    def index_of_k(self, k: int) -> int:
        if not -self.nx // 2 <= k < self.nx // 2:
            raise ParameterError(f"frequency k={k} outside window of nx={self.nx}")
        return k + self.nx // 2

    def index_of_l(self, l: int) -> int:
        if self.ny is None:
            raise DimensionError("1D grid has no transverse frequencies")
        if not -self.ny // 2 <= l < self.ny // 2:
            raise ParameterError(f"frequency l={l} outside window of ny={self.ny}")
        return l + self.ny // 2


def along_axis(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A 1D array shaped to broadcast along ``axis`` of an ``ndim``-dimensional one."""
    shape = [1] * ndim
    shape[axis] = -1
    return np.reshape(values, shape)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Truncated Fourier representation of a complex field on a torus grid.

    ``coeffs`` is read-only; use the arithmetic helpers or build a new field.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.shape != self.grid.shape:
            raise DimensionError(
                f"coefficient shape {arr.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "coeffs", _frozen(arr))

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)

    def coeff(self, k: int, l: int = 0) -> complex:
        """Coefficient at integer frequency ``(k, l)`` (``l`` ignored in 1D)."""
        if self.grid.dimension == 1:
            return complex(self.coeffs[self.grid.index_of_k(k)])
        return complex(self.coeffs[self.grid.index_of_k(k), self.grid.index_of_l(l)])

    def norm(self) -> float:
        """L2 norm via the Parseval identity."""
        return float(
            np.sqrt(TWO_PI ** self.grid.dimension * np.sum(np.abs(self.coeffs) ** 2))
        )

    def inner(self, other: "SpectralField") -> complex:
        """L2 inner product (conjugate-linear in ``other``)."""
        if other.grid != self.grid:
            raise DimensionError("inner product requires matching grids")
        return complex(
            TWO_PI ** self.grid.dimension
            * np.sum(self.coeffs * np.conj(other.coeffs))
        )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if other.grid != self.grid:
            raise DimensionError("field addition requires matching grids")
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if other.grid != self.grid:
            raise DimensionError("field subtraction requires matching grids")
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def zero_field(grid: TorusGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def mode_field(grid: TorusGrid, k: int, l: int = 0, amplitude: complex = 1.0) -> SpectralField:
    """Pure exponential ``amplitude * exp(i(kx + ly))`` as a field."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    if grid.dimension == 1:
        coeffs[grid.index_of_k(k)] = amplitude
    else:
        coeffs[grid.index_of_k(k), grid.index_of_l(l)] = amplitude
    return SpectralField(grid, coeffs)


# a field, or a ``(B, *grid.shape)`` stack of the coefficient arrays of B fields
FieldOrStack = SpectralField | np.ndarray
_stack_grid = lru_cache(maxsize=16)(TorusGrid)


def grid_and_coeffs(u: FieldOrStack) -> tuple[TorusGrid, np.ndarray]:
    """Grid and coefficients of a field or of a stack of fields."""
    if isinstance(u, SpectralField):
        return u.grid, u.coeffs
    return _stack_grid(*np.shape(u)[1:]), u


def forward_transform(samples: np.ndarray, grid: TorusGrid) -> FieldOrStack:
    """Physical samples on the grid nodes (of a field or a stack) -> Fourier coefficients.

    Follows the ``(2*pi)^{-d}`` integral normalization, evaluated exactly by
    the trapezoid rule on the periodic grid (which the FFT realizes).
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape not in (grid.shape, samples.shape[:1] + grid.shape):
        raise DimensionError(
            f"sample shape {samples.shape} does not match grid {grid.shape}"
        )
    axes = range(-grid.dimension, 0)
    spec = np.fft.fftshift(np.fft.fftn(samples, axes=axes), axes=axes) / np.prod(grid.shape)
    coeffs = spec * grid._sign
    return SpectralField(grid, coeffs) if samples.shape == grid.shape else coeffs


def inverse_transform(field: FieldOrStack) -> np.ndarray:
    """Fourier coefficients of a field or a stack of fields -> physical samples on the nodes."""
    grid, coeffs = grid_and_coeffs(field)
    axes = range(-grid.dimension, 0)
    spec = np.fft.ifftshift(coeffs * grid._sign, axes=axes)
    return np.fft.ifftn(spec, axes=axes) * np.prod(grid.shape)


def project_mean_zero(field: SpectralField) -> SpectralField:
    """Zero the k = 0 coefficients (every l in 2D); other modes untouched."""
    coeffs = field.coeffs.copy()
    coeffs[field.grid.index_of_k(0)] = 0.0
    return field.with_coeffs(coeffs)


def mean_zero_defect(field: SpectralField) -> tuple[float, int | None]:
    """Largest |coefficient| on the k = 0 slice and the offending l (2D)."""
    row = field.coeffs[field.grid.index_of_k(0)]
    if field.grid.dimension == 1:
        return float(np.abs(row)), None
    j = int(np.argmax(np.abs(row)))
    return float(np.abs(row[j])), int(field.grid.l_values[j])


def require_mean_zero(field: SpectralField) -> None:
    """Raise ``ConstraintError`` when the x-mean exceeds 1e-14 of the largest coefficient."""
    defect, l = mean_zero_defect(field)
    scale = max(np.max(np.abs(field.coeffs)), 1e-300)
    if defect > 1e-14 * scale:
        where = "" if l is None else f" at transverse frequency l={l}"
        raise ConstraintError(
            f"field has nonzero x-mean content{where}: |coeff| = {defect:.3e}"
        )


def sobolev_norm(field: SpectralField, s: float) -> float:
    """Anisotropic Sobolev norm with homogeneous x-weight ``|k|^(2s)``.

    In 2D the weight is ``|k|^(2s) * (1 + l^2)^s``. Negative ``s`` requires a
    mean-zero field because the weight is singular at k = 0.
    """
    grid = field.grid
    k = grid.k_values.astype(float)
    if s < 0:
        defect, l = mean_zero_defect(field)
        if defect > 0.0:
            where = "" if l is None else f" (l={l})"
            raise ConstraintError(
                f"negative-order norm needs zero x-mean, found |coeff|={defect:.3e}{where}"
            )
    with np.errstate(divide="ignore"):
        wk = np.where(k == 0.0, 0.0 if s != 0 else 1.0, np.abs(k) ** (2.0 * s))
    weights = [wk] + [(1.0 + l.astype(float) ** 2) ** s for l in grid.frequencies[1:]]
    total = np.sum(reduce(np.multiply.outer, weights) * np.abs(field.coeffs) ** 2)
    return float(np.sqrt(TWO_PI ** grid.dimension * total))


# ---------------------------------------------------------------------------
# Dyadic (Littlewood-Paley style) frequency decomposition
# ---------------------------------------------------------------------------


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C^infinity ramp: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    with np.errstate(over="ignore", under="ignore"):
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / (1.0 - tm))
        out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class LPFamily:
    """Dyadic partition of unity built from a smooth cutoff.

    The base cutoff ``psi`` is even, supported in ``1/2 <= |xi| <= 2``, and the
    rescaled blocks ``psi(2^n xi)`` sum to 1 for every ``xi != 0`` exactly, by
    telescoping of the cumulative step. ``enlarged`` equals 1 on the support
    of ``psi`` so that ``enlarged * psi = psi``.
    """

    def psi(self, xi: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(xi, dtype=float))
        return smooth_step(2.0 * a - 1.0) - smooth_step(a - 1.0)

    def enlarged(self, xi: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(xi, dtype=float))
        return smooth_step(4.0 * a - 1.0) - smooth_step(a / 2.0 - 1.0)

    def block(self, n: int, xi: np.ndarray) -> np.ndarray:
        """Block multiplier ``psi(2^n xi)``; supported in ``2^{-n}[1/2, 2]``."""
        return self.psi(np.ldexp(np.asarray(xi, dtype=float), n))

    def block_range(self, h: float, grid: TorusGrid) -> range:
        """All n whose block meets the grid's nonzero frequencies ``h*k``."""
        absk = np.abs(grid.k_values[grid.k_values != 0]).astype(float)
        lo, hi = h * absk.min(), h * absk.max()
        n_min = int(np.floor(-np.log2(2.0 * hi)))
        n_max = int(np.ceil(-np.log2(lo / 2.0)))
        return range(n_min, n_max + 1)


DEFAULT_LP_FAMILY = LPFamily()


def littlewood_paley_block(
    field: SpectralField,
    n: int,
    h: float,
) -> SpectralField:
    """Apply the dyadic block multiplier ``psi(2^n h k)`` along x-frequencies."""
    if h <= 0:
        raise ParameterError(f"semiclassical parameter h must be positive, got {h}")
    weights = DEFAULT_LP_FAMILY.block(n, h * field.grid.k_values.astype(float))
    return field.with_coeffs(field.coeffs * along_axis(weights, 0, field.grid.dimension))
