"""Gaussian wave packets at the critical frequency and the dichotomy probes.

A packet is built from the Fourier coefficients of a periodized, rescaled
Gaussian, localized in frequency by a smooth plateau cutoff, then translated
to the lattice point nearest the group-velocity zero. Under weak dispersion
(alpha < 1) the packet stays concentrated away from the observation region
and its observed-energy ratio decays with the concentration scale; for
alpha >= 1 the same recipe disperses quickly and the ratio keeps a floor.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dispersion import DispersionParams, critical_shift, semiclassical_frequencies
from .errors import DimensionError, NumericalConsistencyError, ParameterError, TruncationError
from .fourier import TWO_PI, SpectralField, TorusGrid, mode_field, smooth_step
from .observe import ControlProfile, gramian_from_frequencies, make_region_profile


def _next_pow2(n: int) -> int:
    p = 4
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class PacketParams:
    """Recipe for the dispersion-critical packet family.

    ``h(n) = 0.5**n`` is the semiclassical sequence. The frequency
    localization scale is ``htilde = h**(1-alpha)`` for ``alpha < 1``; the
    probes at ``alpha >= 1`` reuse the recipe with ``htilde = sqrt(h)`` so the
    packet still concentrates. ``eps = sqrt(htilde)`` sets the Gaussian width.
    The observation region is ``(-pi, -beta) u (beta, pi)``.
    """

    alpha: float
    big_cutoff: float = 1.0
    small_cutoff: float = 0.5
    beta: float = np.pi / 4

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not 0.0 < self.small_cutoff < self.big_cutoff:
            raise ParameterError("cutoff bounds need 0 < b < B")
        if not 0.0 < self.beta < np.pi:
            raise ParameterError(f"beta must lie in (0, pi), got {self.beta}")

    def h(self, n: int) -> float:
        return 0.5**n

    def htilde(self, n: int) -> float:
        exponent = 1.0 - self.alpha if self.alpha < 1.0 else 0.5
        return self.h(n) ** exponent

    def eps(self, n: int) -> float:
        return math.sqrt(self.htilde(n))

    def region_intervals(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((-np.pi, -self.beta), (self.beta, np.pi))


def packet_cutoff(xi: np.ndarray, small: float, big: float) -> np.ndarray:
    """Even plateau bump: 1 on [-b, b], smooth ramp to 0 at |xi| = B."""
    a = np.abs(np.asarray(xi, dtype=float))
    return 1.0 - smooth_step((a - small) / (big - small))


def _quadpack():
    """scipy's compiled QUADPACK module, loaded without the ``scipy.integrate`` package.

    The package's ``__init__`` pulls in ``scipy.special`` and costs far more than
    the Fortran routine it fronts; the module is registered under its own name,
    so a later ``import scipy.integrate`` reuses it.
    """
    name = "scipy.integrate._quadpack"
    if name not in sys.modules:
        import scipy

        path = [os.path.join(scipy.__path__[0], "integrate")]
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


@lru_cache(maxsize=None)
def _gaussian_coefficient(eps: float, k: int) -> float:
    # integral of exp(-z^2/2) cos(eps*k*z) over the truncated window by QAWO,
    # the very call quad(weight="cos") makes for finite limits: no full output,
    # epsabs 1e-13, epsrel 1e-11, 400 subintervals, 50 Chebyshev moments
    # computed afresh (icall 1)
    val, _, ier = _quadpack()._qawoe(
        lambda z: math.exp(-0.5 * z * z),
        0.0, math.pi / eps, eps * abs(k), 1, (), 0, 1e-13, 1e-11, 400, 50, 1,
    )
    if ier != 0:
        raise NumericalConsistencyError(
            f"QUADPACK QAWO did not converge for the packet coefficient at eps {eps!r}, "
            f"k {k} (ier = {ier})"
        )
    return math.sqrt(eps) / TWO_PI * 2.0 * val


def gaussian_packet_coefficients(eps: float, k: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the periodized Gaussian ``G(x/eps)/sqrt(eps)``.

    ``(sqrt(eps)/2pi) * integral_{-pi/eps}^{pi/eps} exp(-z^2/2) exp(-i eps k z) dz``
    by adaptive oscillatory quadrature; real, even in k, positive for small
    ``eps*k``.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    k = np.asarray(k, dtype=int)
    return np.array([_gaussian_coefficient(float(eps), int(abs(m))) for m in k.ravel()]).reshape(
        k.shape
    )


# the largest packet grid: n <= 21 at alpha = 0.5 and at every alpha >= 1, where
# the 2,897-mode Gramian block of n = 21 takes about 7 s and 0.4 GiB
MAX_PACKET_NX = 2**13


def packet_grid(params: PacketParams, n: int) -> TorusGrid:
    """Smallest comfortable grid for the packet at index n (4x the support).

    An index below 1 (``eps >= 1``) or a grid above ``MAX_PACKET_NX`` is a
    ``ParameterError``.
    """
    if n < 1:
        raise ParameterError(f"packet index n must be at least 1, got {n}")
    htilde = params.htilde(n)
    # htilde underflows to 0 for large n
    need = 4.0 * (params.big_cutoff / htilde + 2.0) if htilde > 0.0 else math.inf
    if need > MAX_PACKET_NX:
        raise ParameterError(
            f"the packet at n = {n} needs a grid of more than MAX_PACKET_NX = {MAX_PACKET_NX} "
            "points; lower n_max"
        )
    return TorusGrid(_next_pow2(int(math.ceil(need))))


def packet_initial_data(params: PacketParams, n: int, grid: TorusGrid) -> SpectralField:
    """Frequency-localized Gaussian packet in the translated frame.

    Coefficients ``g_eps(k) * cutoff(htilde * k)`` over the grid window; the
    L2 norm is of order one and the mass outside the cutoff plateau is small.
    """
    if grid.dimension != 1:
        raise DimensionError("packets are built on 1D grids")
    htilde = params.htilde(n)
    support = params.big_cutoff / htilde
    if support > grid.nx // 2 - 1:
        raise TruncationError(
            f"packet support |k| <= {support:.1f} exceeds the grid window",
            required_nx=_next_pow2(int(math.ceil(2.0 * (support + 2.0)))),
        )
    k = grid.k_values
    window = packet_cutoff(htilde * k.astype(float), params.small_cutoff, params.big_cutoff)
    active = window > 0.0
    coeffs = np.zeros(grid.nx, dtype=np.complex128)
    coeffs[active] = (
        gaussian_packet_coefficients(params.eps(n), k[active]) * window[active]
    )
    return SpectralField(grid, coeffs)


def modulated_packet(
    v: SpectralField, h: float, params: DispersionParams
) -> SpectralField:
    """Shift coefficients by ``floor(xi0/h)``: the packet rides the critical mode."""
    if v.grid.dimension != 1:
        raise DimensionError("modulation acts on 1D fields")
    shift = critical_shift(h, params)
    active = np.nonzero(np.abs(v.coeffs) > 0.0)[0]
    if active.size == 0:
        return v
    k_lo = int(v.grid.k_values[active[0]]) + shift
    k_hi = int(v.grid.k_values[active[-1]]) + shift
    nx = v.grid.nx
    if k_hi > nx // 2 - 1 or k_lo < -nx // 2:
        raise TruncationError(
            f"shifted window [{k_lo}, {k_hi}] overflows the grid",
            required_nx=_next_pow2(2 * (max(abs(k_lo), abs(k_hi)) + 2)),
        )
    out = np.zeros_like(v.coeffs)
    out[active + shift] = v.coeffs[active]
    return v.with_coeffs(out)


def embed_2d(w: SpectralField, h: float, alpha: float) -> SpectralField:
    """Tensor the 1D packet with a single transverse oscillation.

    The transverse frequency ``N = h**(-(alpha+2)/2)`` must be a positive
    integer; construct ``h`` from an integer N as ``h = N**(-2/(alpha+2))``.
    Evolving the embedded field under the full 2D multiplier equals evolving
    ``w`` under the reduced family with ``lam = N``.
    """
    if w.grid.dimension != 1:
        raise DimensionError("embedding expects a 1D field")
    n_float = h ** (-(alpha + 2.0) / 2.0)
    n_int = int(round(n_float))
    if n_int < 1 or abs(n_float - n_int) > 1e-9 * max(1.0, n_float):
        raise ParameterError(
            f"transverse frequency {n_float:.6f} is not a positive integer; "
            "choose N first and set h = N**(-2/(alpha+2))"
        )
    ny = _next_pow2(2 * (n_int + 1))
    grid2 = TorusGrid(w.grid.nx, ny)
    coeffs = np.zeros(grid2.shape, dtype=np.complex128)
    coeffs[:, grid2.index_of_l(n_int)] = w.coeffs
    return SpectralField(grid2, coeffs)


def invisible_solution(k: int, grid: TorusGrid) -> SpectralField:
    """y-independent plane wave: annihilated by horizontal control for all t."""
    if k == 0:
        raise ParameterError("k = 0 is excluded by the mean-zero constraint")
    if grid.dimension != 2:
        raise DimensionError("invisible solutions live on 2D grids")
    return mode_field(grid, k, 0)


# ---------------------------------------------------------------------------
# Dichotomy experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyRow:
    n: int
    h: float
    eps: float
    ratio: float
    grid_nx: int


@dataclass(frozen=True)
class DichotomyResult:
    alpha: float
    horizon: float
    rows: tuple[DichotomyRow, ...]
    slope: float

    def ratios(self) -> np.ndarray:
        return np.array([r.ratio for r in self.rows])

    def table(self) -> tuple[list[str], list[list]]:
        """CSV header and one row per packet index."""
        rows = [[r.n, r.h, r.eps, r.ratio, r.grid_nx] for r in self.rows]
        return ["n", "h", "eps", "ratio", "grid_nx"], rows

    def summary(self) -> dict:
        """Fitted slope, monotonicity, and the last and smallest ratio over the first.

        Over a zero first ratio both are ``None`` (JSON ``null``), like an infinite constant.
        """
        ratios, first = self.ratios(), self.rows[0].ratio
        return {
            "alpha": self.alpha,
            "slope": self.slope,
            "monotone_decreasing": bool(np.all(np.diff(ratios) < 0)),
            "last_over_first": float(ratios[-1] / first) if first else None,
            "floor_over_first": float(ratios.min() / first) if first else None,
        }


def packet_observed_ratio(
    v0: SpectralField,
    horizon: float,
    h: float,
    dparams: DispersionParams,
    profile: ControlProfile,
) -> float:
    """Observed-energy ratio of a translated-frame packet, exact time kernel.

    Assembles the control Gram over the packet's active window with the
    gauged semiclassical frequencies; no time quadrature is involved, so the
    result is deterministic to rounding. The ratio is a Rayleigh quotient of
    that block, which rounding cannot resolve below ``size * eps * lambda_max``;
    a ratio below that bound is a ``NumericalConsistencyError``.
    """
    grid = v0.grid
    active = np.nonzero(np.abs(v0.coeffs) > 0.0)[0]
    if active.size == 0:
        raise ParameterError("packet has no active modes")
    idx = grid.k_values[active]
    omega_all, _ = semiclassical_frequencies(grid.k_values, h, dparams)
    omega = omega_all[active]
    block = gramian_from_frequencies(horizon, idx, omega, profile)
    energy = TWO_PI * block.quadratic_form(v0.coeffs[active])
    ratio = energy / v0.norm() ** 2
    bound = idx.size * np.finfo(float).eps * block.eigenvalues[-1]
    if ratio < bound:
        raise NumericalConsistencyError(
            f"observed-energy ratio {ratio:.3e} is below its resolution {bound:.3e}"
            " (block size * eps * lambda_max)"
        )
    return ratio


def dichotomy_experiment(
    params: PacketParams,
    horizon: float,
    n_values=range(4, 10),
) -> DichotomyResult:
    """Observed-energy ratios of the packet family across the h sequence.

    For each n the packet is built on its own grid, evolved in the translated
    semiclassical frame, and observed through a smooth bump supported in the
    region ``(-pi, -beta) u (beta, pi)``. Reports one row per n and the
    fitted log-log slope of ratio against the concentration scale eps.
    """
    n_values = list(n_values)
    if len(n_values) < 2:
        raise ParameterError("need at least two packet indices to fit a slope")
    grids = [packet_grid(params, n) for n in n_values]  # every bound before any packet
    dparams = DispersionParams.reduced(params.alpha, 1.0)

    rows = []
    for n, grid in zip(n_values, grids):
        v0 = packet_initial_data(params, n, grid)
        profile = make_region_profile(params.region_intervals(), "hann-squared", grid)
        try:
            ratio = packet_observed_ratio(v0, horizon, params.h(n), dparams, profile)
        except NumericalConsistencyError as exc:
            raise NumericalConsistencyError(f"packet n = {n}: {exc}") from exc
        rows.append(
            DichotomyRow(n=n, h=params.h(n), eps=params.eps(n), ratio=ratio, grid_nx=grid.nx)
        )
    log_eps = np.log([r.eps for r in rows])
    log_ratio = np.log([max(r.ratio, 1e-300) for r in rows])
    slope = float(np.polyfit(log_eps, log_ratio, 1)[0])
    return DichotomyResult(
        alpha=params.alpha, horizon=horizon, rows=tuple(rows), slope=slope
    )
