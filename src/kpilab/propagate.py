"""Exact-in-time spectral propagation of the linear evolutions.

All equations handled here are linear with constant coefficients, so the
evolution is a diagonal phase multiplication per Fourier mode and carries no
discretization error. A classical per-mode RK4 integrator is provided as an
independent oracle for tests; it is never part of the primary path.

The Nyquist frequencies (k = -nx/2 and, in 2D, l = -ny/2) are excluded from
every evolution: the unpaired mode breaks conjugate symmetry for real data,
so its coefficient is forced to zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dispersion import (
    DispersionParams, frequencies_1d, frequencies_2d, semiclassical_frequencies, unit_phases,
)
from .errors import ConstraintError, DimensionError, ParameterError
from .fourier import SpectralField, require_mean_zero


# bytes of one complex stack: the time-domain oracles work a stack of time
# nodes or of lines at a time, and the Gramian blocks a stack of rows, which
# bounds their memory whatever the node count or block size
_STACK_BYTES = 128 * 1024


def _stack_slices(
    count: int, item_shape: tuple[int, ...], budget: int = _STACK_BYTES
) -> list[slice]:
    """Consecutive slices of ``count`` complex items of ``item_shape``, ``budget`` bytes at most.

    The items are time nodes (of a grid's shape or of a stack of lines), lines, or rows of a
    Gramian block; an empty item counts as one entry.
    """
    size = max(1, budget // max(16, 16 * int(np.prod(item_shape))))
    return [slice(i, i + size) for i in range(0, count, size)]


@lru_cache(maxsize=128)
def _kept_modes(grid) -> np.ndarray:
    """Read-only mask of the modes every evolution keeps: not k = 0, not the Nyquist row/column."""
    kept = np.ones(grid.shape, dtype=bool)
    kept[grid.index_of_k(0)] = False
    kept[0] = False  # k = -nx/2
    kept[..., 0] = False  # l = -ny/2 (k = -nx/2 again in 1D)
    kept.flags.writeable = False
    return kept


def _support(field: SpectralField) -> np.ndarray:
    """The modes an evolution of ``field`` writes: the kept modes that hold a nonzero coefficient."""
    return _kept_modes(field.grid) & (field.coeffs != 0)


def check_no_nyquist(field: SpectralField) -> None:
    """A ``ParameterError`` when ``field`` has content that every evolution drops (Nyquist)."""
    if np.any(field.coeffs[0] != 0) or np.any(field.coeffs[..., 0] != 0):
        raise ParameterError("the field has content on a Nyquist frequency, which evolutions drop")


def _check_family(params: DispersionParams, dimension: int) -> None:
    """A ``DimensionError`` unless ``params`` is the family of a ``dimension``-D field.

    ``full-2d`` params go with 2D fields and ``reduced-1d`` ones (at ``params.lam``, the
    transverse mode the 1D field stands for) with 1D fields.
    """
    family = 2 if params.mode == "full-2d" else 1
    if dimension != family:
        raise DimensionError(f"{params.mode} dispersion requires a {family}D field")


@lru_cache(maxsize=128)
def _cached_grid_frequencies(grid, params) -> np.ndarray:
    """Frequencies over the whole grid, in extended precision: the one grid-to-family map.

    The grid's dimension must be that of the family (:func:`_check_family`).
    """
    _check_family(params, grid.dimension)
    table = (frequencies_2d if grid.dimension == 2 else frequencies_1d)(*grid.frequencies, params)
    table.flags.writeable = False
    return table


def _evolution(
    u0: SpectralField, table: np.ndarray, keep: np.ndarray, times: np.ndarray,
    view=np.asarray,
):
    """``part ->`` the stack of ``u0`` at ``times[part]`` under the grid array ``table``.

    The phases are taken on the modes ``keep`` only, none of them singular in ``table``; every
    other mode of the stack is +0. ``view`` maps a grid array (``table`` and ``keep`` too) to
    each field's layout, e.g. lines along an axis.
    """
    keep = view(keep)
    omega, coeffs = view(table)[keep], view(u0.coeffs)[keep]
    # as a row: numpy multiplies a (1,) by a (1, 1) array in another complex kernel, whose
    # last bits can differ, and one mode at one node would then leave the full-grid formula
    row = coeffs[None]

    def stack(part: slice) -> np.ndarray:
        phase = unit_phases(omega, times[part])
        out = np.zeros(phase.shape[:1] + keep.shape, dtype=np.complex128)
        out[:, keep] = row * phase
        return out

    return stack


def finite_times(times) -> np.ndarray:
    """``times`` as a float array; a ``ParameterError`` unless every one is finite."""
    times = np.asarray(times, dtype=float)
    finite = np.isfinite(times)
    if not finite.all():
        raise ParameterError(f"evolution times must be finite, got {times[~finite][0]}")
    return times


def evolve_many(u0: SpectralField, times: np.ndarray, params: DispersionParams) -> np.ndarray:
    """The field at each of ``times``, coefficients times ``exp(i*t*omega)``: a stack.

    Phases are taken on the support (:func:`_support`) only; every other mode is +0. Requires
    zero x-mean (the inverse x-derivative is undefined at k = 0). Norm is conserved to
    rounding; the group law holds exactly up to the extended-precision phase reduction.
    """
    times = finite_times(times)
    table = _cached_grid_frequencies(u0.grid, params)
    require_mean_zero(u0)
    return _evolution(u0, table, _support(u0), times)(slice(None))


def evolve(u0: SpectralField, t: float, params: DispersionParams) -> SpectralField:
    """Propagate to time ``t``: :func:`evolve_many` at the single time ``t``."""
    return u0.with_coeffs(evolve_many(u0, [t], params)[0])


def evolve_modewise(u0: SpectralField, t: float, alpha: float) -> SpectralField:
    """2D evolution under a table assembled one transverse frequency at a time.

    Each l-column is the reduced 1D family with ``lam = |l|``; coefficientwise identical to
    :func:`evolve` on the full 2D multiplier. Kept as a distinct table for cross-checking the
    mode reduction.
    """
    if u0.grid.dimension != 2:
        raise DimensionError("modewise evolution requires a 2D field")
    require_mean_zero(u0)
    k, l_values = u0.grid.frequencies
    columns = [frequencies_1d(k, DispersionParams.reduced(alpha, float(abs(l)))) for l in l_values]
    stack = _evolution(u0, np.stack(columns, axis=-1), _support(u0), finite_times([t]))
    return u0.with_coeffs(stack(slice(None))[0])


def evolve_semiclassical(
    w0: SpectralField, t: float | np.ndarray, h: float, params: DispersionParams
) -> SpectralField | np.ndarray:
    """Evolution in the frame translated to the critical frequency.

    Coefficient k is multiplied by ``exp(i*t*Phi(hk)/h^(1+alpha))`` where
    ``Phi`` is the multiplier translated by ``h*floor(xi0/h)`` and gauged so
    its value at the critical offset ``sigma_h`` is zero (a global phase).
    The translated image of the original k = 0 mode, ``k = -floor(xi0/h)``,
    is singular and must carry no mass; it is +0, as is the Nyquist mode. With
    a 1-D array of times ``t`` it returns the ``(len(t), nx)`` stack.
    """
    if w0.grid.dimension != 1:
        raise DimensionError("semiclassical evolution acts on 1D fields")
    if not 0.0 < h < 1.0:
        raise ParameterError(f"h must lie in (0, 1), got {h}")
    grid = w0.grid
    omega, shift = semiclassical_frequencies(grid.k_values, h, params)
    keep = w0.coeffs != 0
    keep[0] = False  # Nyquist
    if -grid.nx // 2 <= -shift < grid.nx // 2:
        singular = grid.index_of_k(-shift)
        mass = abs(w0.coeffs[singular])
        scale = max(np.max(np.abs(w0.coeffs)), 1e-300)
        if mass > 1e-14 * scale:
            raise ConstraintError(f"mass {mass:.3e} on the singular translated mode k={-shift}")
        keep[singular] = False
    out = _evolution(w0, omega, keep, finite_times(np.reshape(t, -1)))(slice(None))
    return out if np.ndim(t) else w0.with_coeffs(out[0])


def rk4_reference_evolve(
    u0: SpectralField, t: float, steps: int, params: DispersionParams
) -> SpectralField:
    """Classical RK4 on ``du_hat/dt = i*omega*u_hat``, one mode at a time.

    Independent verification oracle; global error is O(t*(t*omega/steps)^4
    * omega / 120) per mode, so it is only meaningful on frequency windows
    where ``t*omega/steps`` is small. Used by tests and never by the primary
    evolution path.
    """
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    rate = 1j * _cached_grid_frequencies(u0.grid, params).astype(np.float64)
    require_mean_zero(u0)
    u = np.where(_kept_modes(u0.grid), u0.coeffs, 0.0)
    dt = t / steps
    for _ in range(steps):
        k1 = rate * u
        k2 = rate * (u + 0.5 * dt * k1)
        k3 = rate * (u + 0.5 * dt * k2)
        k4 = rate * (u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u0.with_coeffs(u)
