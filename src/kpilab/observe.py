"""Control operators, time Gramians and observability constants.

The vertical control operator is ``G h = g(x) (h - integral(g h dx))`` with a
fixed nonnegative bump ``g`` of unit integral; its horizontal counterpart acts
in y. The observed energy ``integral_0^T ||G u(t)||^2 dt`` is a hermitian
quadratic form whose per-transverse-frequency blocks carry the closed-form
time factor

    E(delta, T) = (exp(i T delta) - 1) / (i delta),    E(0, T) = T,

paired with the static Gram matrix of G on exponentials. One kernel builds
every block; run backward in time (at frequencies ``-omega``) it gives the
control Gramian used by the HUM synthesis.

All Gram matrices are assembled from the grid DFT of ``g`` and ``g^2`` with
periodic index wrapping, which makes them exactly consistent with the
physical-space application of G on the same grid.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, partial
from math import cos, inf, isqrt, pi
from operator import mul
from typing import Iterator, Literal, Sequence

import numpy as np

from .dispersion import DispersionParams, check_phases, frequencies_2d, unit_phases
from .errors import ConstraintError, DimensionError, NumericalConsistencyError, ParameterError
from .fourier import (
    TWO_PI,
    FieldOrStack,
    SpectralField,
    TorusGrid,
    along_axis,
    forward_transform,
    grid_and_coeffs,
    inverse_transform,
    require_mean_zero,
)
from .propagate import (
    _cached_grid_frequencies, _check_family, _evolution, _stack_slices, _support, check_no_nyquist,
)

ProfileKind = Literal["smooth-exp", "hann-squared"]
Orientation = Literal["vertical", "horizontal"]

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10


# ---------------------------------------------------------------------------
# Control profiles
# ---------------------------------------------------------------------------


def _bump_values(x: np.ndarray, a: float, b: float, kind: str) -> np.ndarray:
    s = (2.0 * x - (a + b)) / (b - a)  # [-1, 1] on the support
    inside = np.abs(s) < 1.0
    out = np.zeros_like(x)
    if kind == "smooth-exp":
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    elif kind == "hann-squared":
        out[inside] = np.sin(np.pi * (x[inside] - a) / (b - a)) ** 4
    else:
        raise ParameterError(f"unknown profile kind {kind!r}")
    return out


@dataclass(frozen=True, eq=False)
class ControlProfile:
    """Nonnegative bump ``g`` with unit integral on a 1D torus grid.

    Carries the physical samples together with the grid Fourier coefficients
    of both ``g`` and ``g^2``, from which all Gram matrices are assembled.
    """

    grid: TorusGrid
    intervals: tuple[tuple[float, float], ...]
    kind: ProfileKind
    values: np.ndarray
    normalization: float

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @cached_property
    def g_hat(self) -> np.ndarray:
        """Grid Fourier coefficients of g, monotone frequency order."""
        return forward_transform(self.values.astype(complex), self.grid).coeffs

    @cached_property
    def gsq_hat(self) -> np.ndarray:
        """Grid Fourier coefficients of g^2, monotone frequency order."""
        return forward_transform(self.values.astype(complex) ** 2, self.grid).coeffs

    def quad_integral(self) -> float:
        """Trapezoid-rule integral of g over the torus (equals 1 by design)."""
        return float(np.sum(self.values) * TWO_PI / self.grid.nx)

    def exp_moment(self, k: np.ndarray) -> np.ndarray:
        """``integral g(x) exp(i k x) dx`` for integer k with ``-k`` a grid frequency."""
        k = np.asarray(k, dtype=int)
        nx = self.grid.nx
        outside = (-k < -nx // 2) | (-k >= nx // 2)
        if np.any(outside):
            raise ParameterError(f"moment frequency k={k[outside][0]} outside window of nx={nx}")
        return TWO_PI * self.g_hat[nx // 2 - k]

    def gsq_moment(self, m: np.ndarray) -> np.ndarray:
        """``integral g(x)^2 exp(i m x) dx`` with periodic index wrapping.

        Wrapping matches the aliasing of the grid quadrature exactly, so the
        value is valid for arbitrarily large integer ``m``.
        """
        m = np.asarray(m)
        nx = self.grid.nx
        idx = np.mod(-m + nx // 2, nx)
        return TWO_PI * self.gsq_hat[idx]


def make_region_profile(
    intervals: Sequence[tuple[float, float]],
    kind: ProfileKind,
    grid: TorusGrid,
) -> ControlProfile:
    """Bump supported on a union of intervals, jointly normalized to integral 1."""
    if grid.dimension != 1:
        raise DimensionError("control profiles live on 1D grids")
    x = grid.x_nodes
    total = np.zeros_like(x)
    for a, b in intervals:
        if not (-np.pi <= a < b <= np.pi):
            raise ParameterError(f"invalid support interval ({a}, {b})")
        total += _bump_values(x, a, b, kind)
    # with all its mass on one node g dx = 1 there, so G u = g (u - integral g u) vanishes; a
    # second node of relative mass at rounding level leaves G at rounding level too
    mass = np.sum(total)
    if mass - total.max() <= 1e-12 * mass:
        raise ParameterError("profile mass sits on fewer than two grid nodes, where G vanishes")
    integral = float(np.sum(total) * TWO_PI / grid.nx)
    return ControlProfile(
        grid=grid,
        intervals=tuple((float(a), float(b)) for a, b in intervals),
        kind=kind,
        values=total / integral,
        normalization=1.0 / integral,
    )


def make_control_profile(
    a: float, b: float, kind: ProfileKind, grid: TorusGrid
) -> ControlProfile:
    """Single-interval profile on ``(a, b)`` with quadrature integral 1."""
    if not a < b:
        raise ParameterError(f"empty or reversed interval ({a}, {b})")
    return make_region_profile([(a, b)], kind, grid)


def default_profile(nx: int = 1024) -> ControlProfile:
    """The package default: smooth-exp bump on (pi/4, 3*pi/4)."""
    return make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", TorusGrid(nx))


# ---------------------------------------------------------------------------
# Control operators (physical space)
# ---------------------------------------------------------------------------


_CONTROL_AXIS = {"vertical": 0, "horizontal": 1}


def _control_axis(grid: TorusGrid, profile: ControlProfile, orientation: Orientation) -> int:
    """The field axis the control acts along (x vertical, y horizontal), checked."""
    if orientation not in _CONTROL_AXIS:
        raise ParameterError(f"unknown control orientation {orientation!r}")
    axis = _CONTROL_AXIS[orientation]
    if axis >= grid.dimension:
        raise DimensionError("horizontal control requires a 2D field")
    if grid.shape[axis] != profile.grid.nx:
        raise DimensionError(f"profile grid does not match the field's {'xy'[axis]}-axis")
    return axis


def apply_control(
    u: FieldOrStack, profile: ControlProfile, orientation: Orientation
) -> FieldOrStack:
    """``g (u - integral g u)`` along the control axis of ``orientation``, on a field or stack."""
    grid, _ = grid_and_coeffs(u)
    # counted from the trailing grid axes, so that it holds in a stack too
    axis = _control_axis(grid, profile, orientation) - grid.dimension
    samples = inverse_transform(u)
    g = along_axis(profile.values, axis, samples.ndim)
    step = TWO_PI / grid.shape[axis]
    mean = np.sum(g * samples, axis=axis, keepdims=True) * step
    return forward_transform(g * (samples - mean), grid)


def _control_lines(a: np.ndarray, axis: int, lines: np.ndarray, cols=slice(None)) -> np.ndarray:
    """``(L, n)``, or ``(L, s)`` at ``cols``: the lines ``lines`` along ``axis`` of ``a``."""
    return np.moveaxis(a, axis, -1)[lines][:, cols]


def _support_layout(support: np.ndarray, axis: int):
    """``(lines, cols, view)``: the lines along ``axis`` that hold the modes ``support``.

    ``lines`` masks those lines (0-d on a 1D grid, whose one line is the field) and ``cols`` the
    s modes along ``axis`` that any of them holds; ``view`` maps a grid array to ``(L, s)``, the
    lines at those modes. The line-wise oracles and the blocks of ``ControlGramian`` and
    :func:`gramian_observed_energy` lay out their vectors so.
    """
    lines = np.any(support, axis=axis)
    cols = np.any(_control_lines(support, axis, lines), axis=0)
    return lines, cols, partial(_control_lines, axis=axis, lines=lines, cols=cols)


def _line_labels(grid: TorusGrid, axis: int, lines: np.ndarray) -> np.ndarray:
    """The frequency on the other axis of each of the lines ``lines`` (0 on a 1D grid)."""
    return grid.frequencies[1 - axis][lines] if grid.dimension == 2 else np.zeros(1, dtype=int)


def _to_grid(shape: tuple[int, ...], axis: int, lines: np.ndarray, values: np.ndarray):
    """The grid array of ``shape`` holding ``values``, ``(L, n)``, on the lines; +0 elsewhere."""
    out = np.zeros(shape, dtype=np.complex128)
    np.moveaxis(out, axis, -1)[lines] = values
    return out


def _support_columns(cols: np.ndarray, profile: ControlProfile) -> np.ndarray:
    """``(s, n)``: the physical-space G of the unit 1D fields on the modes ``cols``.

    Built a stack of rows at a time, so that G's transforms take stack-sized temporaries.
    """
    modes = np.flatnonzero(cols)
    out = np.empty((modes.size, cols.size), dtype=np.complex128)
    for part in _stack_slices(modes.size, cols.shape):
        units = modes[part, None] == np.arange(cols.size)
        out[part] = apply_vertical_control(units.astype(np.complex128), profile)
    return out


def apply_vertical_control(u: FieldOrStack, profile: ControlProfile) -> FieldOrStack:
    """``G u = g(x) (u - integral g(x') u(x', y) dx')``.

    Self-adjoint on L^2 and, because g has unit integral, the output has zero
    x-mean for every y.
    """
    return apply_control(u, profile, "vertical")


def apply_horizontal_control(u: FieldOrStack, profile: ControlProfile) -> FieldOrStack:
    """``g(y) (u - integral g(y') u(x, y') dy')``; annihilates y-independent fields."""
    return apply_control(u, profile, "horizontal")


# ---------------------------------------------------------------------------
# Gramian blocks
# ---------------------------------------------------------------------------


def _static_gram(
    profile: ControlProfile, rows: np.ndarray, cols: np.ndarray, plain_weight: bool
) -> np.ndarray:
    """Rows ``rows`` and columns ``cols`` of the static Gram ``<G e_{kj}, G e_{ki}>``.

    ``plain_weight`` selects multiplication by g instead of the mean-corrected
    control operator. Each entry is computed alone, so a block of rows holds
    the bits of the same rows of the full matrix.
    """
    q_diff = profile.gsq_moment(cols[None, :] - rows[:, None])
    if plain_weight:
        return q_diff
    c_row, c_col = profile.exp_moment(rows), profile.exp_moment(cols)  # integral g e^{ikx}
    q_row, q_col = profile.gsq_moment(rows), profile.gsq_moment(cols)
    q_zero = profile.gsq_moment(np.array(0))
    return (
        q_diff
        - np.conj(c_row)[:, None] * q_col[None, :]
        - np.conj(q_row)[:, None] * c_col[None, :]
        + q_zero * np.conj(c_row)[:, None] * c_col[None, :]
    )


def control_gram_matrix(profile: ControlProfile, indices: np.ndarray) -> np.ndarray:
    """Static Gram ``M[i, j] = <G e_{kj}, G e_{ki}>`` over a frequency window.

    Assembled from the grid DFT of g and g^2; exactly the matrix of the
    physical-space operator restricted to the window.
    """
    indices = np.asarray(indices, dtype=int)
    return _static_gram(profile, indices, indices, plain_weight=False)


def plain_weight_gram_matrix(profile: ControlProfile, indices: np.ndarray) -> np.ndarray:
    """Static Gram of plain multiplication by g: ``<g e_{kj}, g e_{ki}>``."""
    indices = np.asarray(indices, dtype=int)
    return _static_gram(profile, indices, indices, plain_weight=True)


def time_factor(delta: np.ndarray, horizon: float) -> np.ndarray:
    """``E(delta, T) = (exp(i T delta) - 1)/(i delta)`` with a near-resonant branch.

    For ``|T delta| < 1e-3`` the closed form cancels, so those entries take the
    equal ``T exp(i T delta/2) sinc(T delta/2)``, which has no cancellation and is
    exactly T on the resonant diagonal (delta = 0). The closed form runs on every
    entry and the near-resonant form overwrites its own.
    """
    delta = np.asarray(delta, dtype=float)
    # the near-resonant entries (0/0 at delta = 0, overflow at subnormal delta) are replaced
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.asarray((unit_phases(delta, horizon) - 1.0) / (1j * delta))
    z = horizon * delta
    small = np.abs(z) < 1e-3
    out[small] = horizon * unit_phases(delta[small], horizon / 2.0) * np.sinc(z[small] / TWO_PI)
    return out


@dataclass(frozen=True, eq=False)
class GramianBlock:
    """Hermitian PSD block of the observed-energy form at one fixed frequency.

    ``indices`` are the varying frequencies (x-window for vertical control,
    transverse window for horizontal), ``fixed_freq`` the frozen one. The
    matrix is normalized so that the Rayleigh quotient against the plain
    coefficient 2-norm equals the observed-energy ratio.
    """

    indices: np.ndarray
    fixed_freq: int
    horizon: float
    matrix: np.ndarray
    axis: Literal["x", "y"] = "x"

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise DimensionError(f"Gramian block must be a nonempty square matrix, got {m.shape}")
        # checked and symmetrized a stack of rows at a time, within the
        # budget of the time-domain stacks
        sym = np.empty_like(m, order="C")
        scale = herm = 0.0
        for part in _stack_slices(m.shape[0], m.shape[1:]):
            rows, mirror = m[part], m[:, part].conj().T
            if not np.all(np.isfinite(rows)):
                raise NumericalConsistencyError("Gramian block has non-finite entries")
            scale = max(scale, float(np.max(np.abs(rows))))
            herm = max(herm, float(np.max(np.abs(rows - mirror))))
            sym[part] = 0.5 * (rows + mirror)
        scale = scale or 1.0
        # absolute dust allowance keeps degenerate (zero to rounding) blocks
        # from tripping on rounding noise
        dust = 1e-15 * (1.0 + scale)
        if herm > HERMITICITY_TOL * scale + dust:
            raise NumericalConsistencyError(
                f"Gramian block lost hermiticity: defect {herm:.3e} at scale {scale:.3e}"
            )
        m = sym
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        idx = np.ascontiguousarray(self.indices, dtype=int)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        floor = -PSD_TOL * max(np.trace(m).real, 0.0) / m.shape[0] - dust
        if self.eigenvalues[0] < floor:
            raise NumericalConsistencyError(
                f"Gramian block is not PSD: lambda_min = {self.eigenvalues[0]:.3e}"
            )

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def at_fixed_freq(self, fixed_freq: int) -> "GramianBlock":
        """The same checked block labelled ``fixed_freq``, sharing matrix and eigenvalues."""
        twin = copy.copy(self)
        object.__setattr__(twin, "fixed_freq", fixed_freq)
        return twin

    def quadratic_form(self, vec: np.ndarray) -> float:
        return float(np.real(np.vdot(vec, self.matrix @ vec)))


def window_mask(freqs: np.ndarray, size: int, exclude_zero: bool) -> np.ndarray:
    """Boolean mask of the window ``|f| <= size`` over the frequencies of a grid axis.

    ``freqs[mask]`` is ``-size .. size``, without 0 if ``exclude_zero``, in
    storage order. The window must be nonempty and stay below the axis Nyquist
    frequency, which has no positive partner on the grid.
    """
    lo, hi = int(exclude_zero), freqs.size // 2 - 1
    if not lo <= size <= hi:
        raise ParameterError(
            f"window {size} is outside {lo} .. {hi}: empty, or reaching the Nyquist "
            f"frequency of a {freqs.size}-point axis"
        )
    mask = np.abs(freqs) <= size
    return mask & (freqs != 0) if exclude_zero else mask


def _check_horizon(horizon: float) -> None:
    """The time horizon must be a positive finite number (NaN fails too)."""
    if not 0.0 < horizon < np.inf:
        raise ParameterError(f"horizon must be positive and finite, got {horizon}")


def _is_odd(omega: np.ndarray) -> bool:
    """Whether ``omega[..., ::-1] == -omega`` and no entry is -0.

    Then ``delta[i, j] = omega[j] - omega[i]`` has ``delta[n-1-i, n-1-j]`` bitwise equal to
    ``delta[j, i]``: both round the same real number, and a zero difference is +0 in both.
    """
    zeros = omega[omega == 0]
    return np.array_equal(omega[..., ::-1], -omega) and not np.signbit(zeros).any()


def _gramian_kernel(
    profile: ControlProfile,
    indices: np.ndarray,
    omega: np.ndarray,
    horizon: float,
    plain_weight: bool = False,
    static: np.ndarray | None = None,
) -> np.ndarray:
    """Static Gram times the exact time factor ``E(omega_j - omega_i, T)``, over 2 pi.

    ``omega`` holds the per-mode frequencies of one block, or of a stack of
    blocks along its leading axes, which then share the static Gram. Callers
    pass their exact (extended-precision) table; here alone it is rounded to
    float64, once, before the differences are formed. With
    ``-omega`` the kernel runs backward in time and gives the control
    Gramian. ``plain_weight`` selects multiplication by g instead of the
    mean-corrected control operator; ``static``, if given, is that static Gram
    over ``indices``, shared by a caller that builds several blocks. The output
    is the only full-size array: it is filled a stack of rows at a time, within
    the budget of the time-domain stacks, first with E and then with the
    product, and each entry keeps the bits of the one-shot formula. When the
    rounded ``omega`` is odd (:func:`_is_odd`), E is persymmetric bit for bit,
    ``E[n-1-i, n-1-j] == E[j, i]``: the rows ``[a, b)`` take E on the columns
    ``[0, n-a)`` alone and copy the rest from rows already filled.
    """
    _check_horizon(horizon)
    indices = np.asarray(indices, dtype=int)
    n = indices.size
    if n == 0:
        raise ParameterError("the frequency window is empty")
    omega = np.asarray(omega, dtype=np.float64)
    out = np.empty(omega.shape[:-1] + (n, n), dtype=np.complex128)
    parts = _stack_slices(n, omega.shape)
    odd = _is_odd(omega)
    for part in parts:
        a, b = part.start, min(part.stop, n)
        width = n - a if odd else n
        out[..., part, :width] = time_factor(
            omega[..., None, :width] - omega[..., part, None], horizon
        )
        if width < n:  # E[i, j] = E[n-1-j, n-1-i], rows n-1-j < a, columns n-1-i in [n-b, n-a)
            mirror = out[..., :a, n - b : n - a][..., ::-1, ::-1]
            out[..., part, width:] = np.swapaxes(mirror, -1, -2)
    for part in parts:
        if static is None:
            m = _static_gram(profile, indices[part], indices, plain_weight)
        else:
            m = static[part]
        out[..., part, :] = m * out[..., part, :] / TWO_PI
    return out


def assemble_observability_gramian(
    horizon: float,
    k_window: int,
    l: int,
    profile: ControlProfile,
    params: DispersionParams,
) -> GramianBlock:
    """The vertical-control block at transverse ``l``, of :func:`observability_gramian_blocks`."""
    return next(observability_gramian_blocks(horizon, k_window, [l], profile, params))


def observability_gramian_blocks(
    horizon: float, k_window: int, labels: Sequence[int], profile: ControlProfile,
    params: DispersionParams,
) -> Iterator[GramianBlock]:
    """Vertical-control blocks over ``k in [-K, K] \\ {0}``, one per transverse l of ``labels``.

    Entry ``(k1, k2)`` is ``E(omega(k2, l) - omega(k1, l), T)`` times the
    static Gram of G; distinct l decouple exactly because the y-integral
    forces equal transverse frequencies. Each block is built when it is asked
    for, after every check, the phase bound of every block's time factor too;
    two or more blocks share one static Gram. ``params`` must be a 2D family.
    """
    _check_horizon(horizon)
    _check_family(params, 2)
    if k_window < 1:
        raise ParameterError("k_window must be >= 1")
    k = profile.grid.k_values
    idx = k[window_mask(k, k_window, exclude_zero=True)]
    omegas = frequencies_2d(idx, labels, params).T
    # the largest |omega_j - omega_i| of each block, rounded as the kernel rounds it
    rounded = omegas.astype(np.float64)
    check_phases(horizon, rounded.max(axis=-1) - rounded.min(axis=-1))
    static = control_gram_matrix(profile, idx) if len(labels) > 1 else None
    for l, omega in zip(labels, omegas):
        # no name holds the kernel's output, so that it goes with its block
        yield GramianBlock(
            idx, l, horizon, _gramian_kernel(profile, idx, omega, horizon, static=static), "x"
        )


def assemble_horizontal_gramian(
    horizon: float,
    l_window: int,
    k: int,
    profile: ControlProfile,
    params: DispersionParams,
) -> GramianBlock:
    """Horizontal-control block over ``l in [-L, L]`` at fixed x-frequency k.

    l = 0 stays in the window (only k = 0 is excluded by the mean-zero
    constraint); that row and column vanish, which is exactly the invisible
    y-independent sector. ``params`` must be a 2D family.
    """
    _check_family(params, 2)
    if k == 0:
        raise ParameterError("x-frequency k = 0 is excluded by the mean-zero constraint")
    freqs = profile.grid.k_values  # the profile's axis is y
    idx = freqs[window_mask(freqs, l_window, exclude_zero=False)]
    omega = frequencies_2d([k], idx, params)[0]
    return GramianBlock(idx, k, horizon, _gramian_kernel(profile, idx, omega, horizon), "y")


def gramian_from_frequencies(
    horizon: float,
    indices: np.ndarray,
    omega: np.ndarray,
    profile: ControlProfile,
    plain_weight: bool = False,
) -> GramianBlock:
    """Block, labelled 0, with caller-supplied per-mode frequencies.

    Used for the semiclassical (translated-frame) evolutions, where the
    frequency table is not the standard multiplier. ``plain_weight`` selects
    multiplication by g instead of the mean-corrected control operator.
    """
    indices = np.asarray(indices, dtype=int)
    omega = np.asarray(omega)
    if omega.shape != indices.shape:
        raise DimensionError("frequency table must match the index window")
    matrix = _gramian_kernel(profile, indices, omega, horizon, plain_weight)
    return GramianBlock(indices, 0, horizon, matrix, "x")


# ---------------------------------------------------------------------------
# Observability ratios and constants
# ---------------------------------------------------------------------------


def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of ``order`` points on [-1, 1].

    Newton's method on the three-term recurrence finds the roots in [0, 1), which are mirrored:
    the rule is exactly symmetric. The weights are ``2 / ((1 - x^2) P_n'(x)^2)`` at the roots.
    """

    def legendre(x):
        # P_n(x) and P_n'(x)
        p0, p1 = np.ones_like(x), x
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, order * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))

    # math.cos: numpy's cos would page in its vector code, 0.2 MiB of a command's peak memory
    x = np.array([cos(pi * (i - 0.25) / (order + 0.5)) for i in range(1, (order + 1) // 2 + 1)])
    if order % 2:
        x[-1] = 0.0
    for _ in range(100):
        value, slope = legendre(x)
        x -= value / slope
        if np.max(np.abs(value / slope)) <= 1e-15:
            break
    half = 2.0 / ((1.0 - x) * (1.0 + x) * legendre(x)[1] ** 2)
    nodes = np.concatenate((-x[: order // 2], x[::-1]))
    weights = np.concatenate((half[: order // 2], half[::-1]))
    return nodes, weights


def gauss_legendre_nodes(
    horizon: float, panels: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, T]: each node the sum of its three level times."""
    (coarse, _), (fine, _), (offsets, weights) = gauss_legendre_levels(horizon, panels, order)
    nodes = coarse[:, None, None] + fine[:, None] + offsets
    return nodes.ravel().astype(float), np.tile(weights, panels)


def gauss_legendre_levels(
    horizon: float, panels: int, order: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The composite rule on [0, T] as three levels of ``(times, weights)``, times in long double.

    ``panels`` and ``order`` are positive integers. With W = T / panels and m the largest divisor
    of ``panels`` at most its square root, node b of panel ``c m + d`` is at ``c m W + d W +
    o_b``, ``o_b = W (x_b + 1) / 2``, with a weight ``W w_b / 2`` of the offset alone. The
    levels are the coarse starts ``c m W`` and the fine starts ``d W``, of weight 1, and the
    offsets with their weights.
    """
    _check_horizon(horizon)
    if not all(isinstance(n, (int, np.integer)) and n > 0 for n in (panels, order)):
        raise ParameterError(f"panels and order must be positive integers: {panels!r}, {order!r}")
    base_x, base_w = _legendre_rule(order)
    fine = max(d for d in range(1, isqrt(panels) + 1) if panels % d == 0)
    width = np.longdouble(horizon) / panels
    return [
        (np.arange(panels // fine) * fine * width, np.ones(panels // fine)),
        (np.arange(fine) * width, np.ones(fine)),
        (width * (base_x.astype(np.longdouble) + 1) / 2, base_w * (horizon / panels) / 2.0),
    ]


def quadrature_observed_energy(
    u0: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    orientation: Orientation = "vertical",
    panels: int = 16,
    order: int = 24,
) -> float:
    """Time-quadrature oracle for ``integral_0^T ||G u(t)||^2 dt``.

    Evolves the field to a stack of nodes at a time; G, built once in physical space, is
    independent of the closed-form time kernel. G acts along the control axis alone, so the
    evolution writes, as 1D fields, only the lines along that axis that hold a kept, nonzero
    coefficient of ``u0`` (a 1D field is one line), at the s modes they hold, with the phases on
    the field's support only. G's ``(s, n)`` columns on those modes are factored once,
    ``columns.T = Q R`` (Householder QR, backward stable); Q has orthonormal columns, so a line
    ``c`` has ``||c @ columns|| = ||c @ R.T||`` and each node's energy is a sum of squares over
    its ``(lines, s)`` array, in stacks sized by that layout. Node energies are added in node
    order.
    """
    axis = _control_axis(u0.grid, profile, orientation)
    nodes, weights = gauss_legendre_nodes(horizon, panels, order)
    table = _cached_grid_frequencies(u0.grid, params)
    require_mean_zero(u0)
    support = _support(u0)
    if not np.any(support):
        return 0.0
    _, cols, view = _support_layout(support, axis)
    factor = np.linalg.qr(_support_columns(cols, profile).T, mode="r").T
    evolve = _evolution(u0, table, support, nodes, view)
    total = 0.0
    for part in _stack_slices(nodes.size, view(support).shape):
        observed = evolve(part) @ factor
        # SpectralField.norm of each node's field
        sums = np.sum(np.abs(observed.reshape(len(observed), -1)) ** 2, axis=1)
        for w, norm in zip(weights[part], np.sqrt(TWO_PI**u0.grid.dimension * sums).tolist()):
            total += w * norm**2
    return total


def gramian_observed_energy(
    u0: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    orientation: Orientation = "vertical",
) -> float:
    """Observed energy via exact-time-factor blocks on the field's support.

    The blocks lie on the lines of the quadrature's layout, at the modes they hold: the kept
    modes with nonzero coefficients (:func:`_support_layout`).
    """
    grid = u0.grid
    axis = _control_axis(grid, profile, orientation)
    table = _cached_grid_frequencies(grid, params)
    support = _support(u0)
    if not np.any(support):
        return 0.0
    lines, cols, view = _support_layout(support, axis)
    idx = grid.frequencies[axis][cols]
    stack = _gramian_kernel(profile, idx, view(table), horizon)
    total = 0.0
    for label, matrix, vec in zip(_line_labels(grid, axis, lines), stack, view(u0.coeffs)):
        block = GramianBlock(idx, int(label), horizon, matrix, axis="xy"[axis])
        total += block.quadratic_form(vec)
    return TWO_PI**grid.dimension * total


def observability_ratio(
    u0: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    orientation: Orientation = "vertical",
    method: Literal["gramian", "quadrature"] = "gramian",
    panels: int = 16,
    order: int = 24,
) -> float:
    """``integral_0^T ||G u(t)||^2 dt / ||u0||^2`` for the chosen operator."""
    _check_horizon(horizon)
    require_mean_zero(u0)
    norm_sq = u0.norm() ** 2
    if norm_sq == 0.0:
        raise ConstraintError("observability ratio undefined for the zero field")
    # its mass is in ||u0||^2
    check_no_nyquist(u0)
    if method == "quadrature":
        energy = quadrature_observed_energy(
            u0, horizon, profile, params, orientation, panels, order
        )
    elif method == "gramian":
        energy = gramian_observed_energy(u0, horizon, profile, params, orientation)
    else:
        raise ParameterError(f"unknown method {method!r}")
    return energy / norm_sq


@dataclass(frozen=True)
class ObservabilityEstimate:
    """Smallest Gramian eigenvalue over a block family and its inverse."""

    lambda_min: float
    constant: float
    per_block: tuple[float, ...]


def observability_constant(blocks: Sequence[GramianBlock]) -> ObservabilityEstimate:
    """``C_T`` estimate ``1/lambda_min`` over the supplied truncated blocks."""
    if not blocks:
        raise ParameterError("need at least one Gramian block")
    minima = tuple(float(b.eigenvalues[0]) for b in blocks)
    lam_min = min(minima)
    constant = float("inf") if lam_min <= 0 else 1.0 / lam_min
    return ObservabilityEstimate(lambda_min=lam_min, constant=constant, per_block=minima)


# ---------------------------------------------------------------------------
# Spectral inequality constant
# ---------------------------------------------------------------------------


def concentration_matrix(profile: ControlProfile, m0: int) -> np.ndarray:
    """Toeplitz matrix ``integral g^2 e^{i(k-j)x} dx`` over ``|j|,|k| <= m0``."""
    return plain_weight_gram_matrix(profile, np.arange(-m0, m0 + 1))


# inverse-power warm start: share of the generic unit vector; relative stop
_GENERIC_SHARE = 0.5
_SWEEP_TOL = 10**18  # successive estimates agree to one part in this
_MAX_SWEEPS = 80
_GUARD_BITS = 64  # fixed-point bits beyond the working precision
_PHASE_GUARD_BITS = 32  # beyond those, while the node phases are multiplied out
_SINGULAR = "concentration matrix is numerically singular; the constant diverges"


def _working_precision(m_max: int) -> int:
    """Bits of ``digits = max(50, 60 + 3 m_max)`` decimal digits: ``round((digits + 1) log2 10)``."""
    return round((max(50, 60 + 3 * m_max) + 1) * 3.3219280948873626)


def _fixed(value: float, bits: int, power: int = 1) -> int:
    """``floor(value**power * 2**bits)``, exact."""
    num, den = value.as_integer_ratio()
    return (num**power << bits) // den**power


def _arctan_inverse(x: int, bits: int) -> int:
    """``arctan(1/x) * 2**bits`` for an integer ``x > 1``, by its Taylor series."""
    total = term = (1 << bits) // x
    x2, n = x * x, 1
    while term:
        term //= x2
        n += 2
        total += -(term // n) if n % 4 == 3 else term // n
    return total


def _node_step(nx: int, bits: int) -> tuple[int, tuple[int, int]]:
    """``2 pi / nx`` and ``e^{2 pi i / nx}``, real and imaginary part, at scale ``2**bits``.

    ``pi`` comes from Machin's formula ``pi/4 = 4 arctan(1/5) - arctan(1/239)``, the root from
    its Taylor series; both are summed 16 bits beyond ``bits``, which absorb the truncations.
    """
    work = bits + 16
    half_turn = 4 * (4 * _arctan_inverse(5, work) - _arctan_inverse(239, work))
    angle = 2 * half_turn // nx  # nx is a power of two
    parts, term, n = [1 << work, 0], 1 << work, 0
    while term:
        n += 1
        term = (term * angle >> work) // n
        parts[n % 2] += -term if n % 4 in (2, 3) else term
    return angle >> 16, (parts[0] >> 16, parts[1] >> 16)


def _concentration_moments(profile: ControlProfile, m_abs: int, bits: int) -> list:
    """g^2 moments ``integral g^2 e^{imx} dx``, m = 0 .. m_abs, as fixed-point ``(re, im)`` ints.

    An int ``n`` stands for ``n * 2**-bits``. Node ``j`` sits at ``x = -pi + 2 pi j / nx``, so
    ``e^{imx}`` there is the root of unity ``e^{2 pi i / nx}`` to the power
    ``m (j - nx/2) mod nx``. Its ``nx`` powers are a running product with
    ``_PHASE_GUARD_BITS`` more bits, each step three integer products (Gauss:
    ``(a + ib)(c + id) = c(a + b) - b(c + d) + i (c(a + b) + a(d - c))``). g^2 is exact from
    the float samples, and each moment is an exact sum of products, floored once.
    """
    nx = profile.grid.nx
    work = bits + _PHASE_GUARD_BITS
    weight, (c, d) = _node_step(nx, work)
    c_plus_d, d_minus_c = c + d, d - c
    power_re, power_im, a, b = [], [], 1 << work, 0
    for _ in range(nx):
        power_re.append(a)
        power_im.append(b)
        k = c * (a + b)
        a, b = (k - b * c_plus_d) >> work, (k + a * d_minus_c) >> work
    support = np.flatnonzero(profile.values)
    gsq = [_fixed(v, bits, 2) for v in profile.values[support].tolist()]
    offsets = (support - nx // 2).tolist()
    moments = []
    for m in range(m_abs + 1):
        powers = [m * j % nx for j in offsets]
        re = sum(map(mul, gsq, map(power_re.__getitem__, powers)))
        im = sum(map(mul, gsq, map(power_im.__getitem__, powers)))
        moments.append((re * weight >> 2 * work, im * weight >> 2 * work))
    return moments


def _fixed_cholesky(moments: list, size: int, bits: int) -> tuple[list, list, list]:
    """Cholesky factor ``L`` of the order-``size`` Hermitian Toeplitz matrix of ``moments``.

    Fixed point: an int ``n`` stands for ``n * 2**-bits``, and ``moments`` are ``(re, im)``
    pairs. Returns the real and imaginary parts of each row left of the diagonal and the
    positive diagonal. A pivot below the working epsilon ``2**(1 - bits + _GUARD_BITS)`` is
    singular. Each complex inner product is three exact integer sums.
    """
    cr, ci = zip(*moments[:size])
    floor = 1 << (bits + _GUARD_BITS + 1)  # the working epsilon, at scale 2**(2*bits)
    re, im, plus, minus, diag = [], [], [], [], []
    for i in range(size):
        ri, ii, si = [], [], []
        for k in range(i):  # A[i][k] = conj(moment[i-k]) minus sum_j L[i][j] conj(L[k][j])
            common = sum(map(mul, re[k], si))
            sr = (cr[i - k] << bits) - common + sum(map(mul, ii, minus[k]))
            sm = -(ci[i - k] << bits) - common + sum(map(mul, ri, plus[k]))
            ri.append(sr // diag[k])
            ii.append(sm // diag[k])
            si.append(ri[-1] + ii[-1])
        pivot = (cr[0] << bits) - sum(map(mul, ri, ri)) - sum(map(mul, ii, ii))
        if pivot < floor:
            raise NumericalConsistencyError(_SINGULAR)
        re.append(ri)
        im.append(ii)
        plus.append(si)
        minus.append([a - b for a, b in zip(ri, ii)])
        diag.append(isqrt(pivot))
    return re, im, diag


def _bottom_eigenvalues(moments: list, m_max: int, bits: int) -> list[tuple[int, int]]:
    """Smallest eigenvalue of every leading Toeplitz block, as a quotient ``(zz, yy)`` of ints.

    The order-m0 matrix and its Cholesky factor ``L`` are the leading
    ``2*m0+1`` blocks of the order-m_max ones. The factor and the sweeps run
    in fixed point (:func:`_fixed_cholesky`), every complex inner product as
    three exact integer sums. Inverse power solves ``L z = x`` and ``L^H y = z``,
    so ``y = A^-1 x``, normalises ``y`` into the next ``x`` and takes the
    Rayleigh quotient ``z^H z / y^H y`` of ``y`` as the eigenvalue. Each order
    starts from the previous eigenvector padded with zeros plus a share of a
    generic vector: the eigenvectors of a symmetric g^2 have definite parity,
    which the padded vector alone may miss. An order stops once two successive
    quotients agree to one part in ``_SWEEP_TOL``, compared exactly; one whose
    estimate still moves after ``_MAX_SWEEPS`` sweeps raises.
    """
    size = 2 * m_max + 1
    re, im, diag = _fixed_cholesky(moments, size, bits)
    plus = [[a + b for a, b in zip(ar, ai)] for ar, ai in zip(re, im)]
    col_r = [[re[k][i] for k in range(i + 1, size)] for i in range(size)]
    col_i = [[im[k][i] for k in range(i + 1, size)] for i in range(size)]
    col_minus = [[a - b for a, b in zip(cr, ci)] for cr, ci in zip(col_r, col_i)]
    share = _fixed(_GENERIC_SHARE, bits)
    xr, xi, out = [], [], []
    for m0 in range(m_max + 1):
        n = 2 * m0 + 1
        generic = [((n + i) << bits) // n for i in range(n)]
        norm = isqrt(sum(map(mul, generic, generic)))
        xr = [v + g * share // norm for v, g in zip([0, *xr, 0] if xr else [0], generic)]
        xi = [0, *xi, 0] if xi else [0]
        previous = None
        for _ in range(_MAX_SWEEPS):
            zr, zi, zs, zd = [], [], [], []  # z, and Re z + Im z, Im z - Re z
            for i in range(n):  # L z = x
                common = sum(map(mul, plus[i], zr))
                wr = ((xr[i] << bits) - common + sum(map(mul, im[i], zs))) // diag[i]
                wi = ((xi[i] << bits) - common - sum(map(mul, re[i], zd))) // diag[i]
                zr.append(wr)
                zi.append(wi)
                zs.append(wr + wi)
                zd.append(wi - wr)
            yr, yi, ys, yd = [0] * n, [0] * n, [0] * n, [0] * n
            for i in reversed(range(n)):  # L^H y = z
                common = sum(map(mul, col_minus[i], yr[i + 1 :]))
                wr = ((zr[i] << bits) - common - sum(map(mul, col_i[i], ys[i + 1 :]))) // diag[i]
                wi = ((zi[i] << bits) - common - sum(map(mul, col_r[i], yd[i + 1 :]))) // diag[i]
                yr[i], yi[i], ys[i], yd[i] = wr, wi, wr + wi, wi - wr
            zz = sum(map(mul, zr, zr)) + sum(map(mul, zi, zi))
            yy = sum(map(mul, yr, yr)) + sum(map(mul, yi, yi))
            scale = isqrt(yy)
            xr = [(v << bits) // scale for v in yr]
            xi = [(v << bits) // scale for v in yi]
            if previous is not None:
                change, base = abs(zz * previous[1] - previous[0] * yy), zz * previous[1]
                if _SWEEP_TOL * change <= base:
                    break
            previous = zz, yy
        else:
            raise NumericalConsistencyError(
                f"inverse power did not converge at order m0 = {m0} after {_MAX_SWEEPS} sweeps; "
                f"last relative change {change / base:.3g}"
            )
        out.append((zz, yy))
    return out


def spectral_constant_table(profile: ControlProfile, m_max: int) -> list[float]:
    """``kappa(m0)`` for ``m0 = 0 .. m_max`` (sharp constants, one assembly).

    The inequality ``sum |c_k|^2 <= kappa(m0) integral |g p|^2`` is sharp at
    the bottom eigenvector of the concentration matrix. Those eigenvalues
    decay exponentially in m0 and fall far below float64 resolution around
    m0 = 12, so the dense solve runs in fixed point on Python ints, sized to
    m_max; each constant is the correctly rounded float of an exact quotient.
    """
    if m_max < 0:
        raise ParameterError(f"m_max must be nonnegative, got {m_max}")
    window_mask(profile.grid.k_values, m_max, exclude_zero=False)  # the window -m_max .. m_max
    bits = _working_precision(m_max) + _GUARD_BITS
    moments = _concentration_moments(profile, 2 * m_max, bits)
    if moments[0][0] <= 0:
        raise NumericalConsistencyError("profile has no quadrature mass; the constant diverges")
    lams = _bottom_eigenvalues(moments, m_max, bits)
    if any(zz <= 0 for zz, _ in lams):
        raise NumericalConsistencyError(_SINGULAR)
    return [_quotient(yy, zz) for zz, yy in lams]


def _quotient(num: int, den: int) -> float:
    """``num / den`` correctly rounded; infinite past the float64 range."""
    try:
        return num / den
    except OverflowError:
        return inf


def spectral_constant(profile: ControlProfile, m0: int) -> float:
    """Sharp constant in ``sum |c_k|^2 <= kappa(m0) * integral |g p|^2``."""
    return spectral_constant_table(profile, m0)[-1]
