"""Dispersion relations of (fractional) KP-I and their critical-point geometry.

The 2D equation diagonalizes to the per-mode frequency
``omega(k, l) = |k|^alpha * k + l^2 / k`` and the transverse-parameter
reduction to ``omega(k) = |k|^alpha * k + lam^2 / k``. The group velocity
``(alpha+1)|xi|^alpha - lam^2/xi^2`` vanishes at
``xi0 = (lam^2/(alpha+1))^{1/(alpha+2)}``, the frequency around which all
slow-packet phenomena concentrate.

Phases are evaluated in extended precision with argument reduction mod 2*pi;
at large frequencies ``t*omega`` exceeds 1e8 and float64 evaluation would
lose most of the phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ParameterError

TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900577")
PHASE_LIMIT = 2.0**53  # largest |t*omega|: there the long-double product's ulp is 2**-10 rad


@dataclass(frozen=True)
class DispersionParams:
    """Dispersion exponent and transverse structure.

    ``alpha = 2`` is KP-I. ``mode`` selects the full 2D multiplier (transverse
    frequency supplied per mode) or the reduced 1D family with fixed ``lam``.
    """

    alpha: float
    lam: float = 0.0
    mode: Literal["reduced-1d", "full-2d"] = "reduced-1d"

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.lam < np.inf:
            raise ParameterError(f"lam must be nonnegative and finite, got {self.lam}")
        if self.mode not in ("reduced-1d", "full-2d"):
            raise ParameterError(f"unknown mode {self.mode!r}")

    @staticmethod
    def kp1(alpha: float = 2.0) -> "DispersionParams":
        """Full 2D (fractional) KP-I."""
        return DispersionParams(alpha=alpha, lam=0.0, mode="full-2d")

    @staticmethod
    def reduced(alpha: float, lam: float) -> "DispersionParams":
        return DispersionParams(alpha=alpha, lam=lam, mode="reduced-1d")


@dataclass(frozen=True)
class CriticalPointData:
    """Critical frequency of the 1D multiplier and derived semiclassical data.

    ``sigma_h``, ``r_h`` are populated by :func:`semiclassical_translation`;
    ``phi_pp`` is the second derivative of the translated multiplier at
    ``sigma_h`` (equal to the second derivative at ``xi0`` by construction)
    and ``a0`` is half the second derivative at ``xi0``.
    """

    xi0: float
    phi_pp: float
    a0: float
    h: float | None = None
    sigma_h: float | None = None
    r_h: float | None = None


def _multiplier_ld(xi: np.ndarray, alpha: float, lam: float) -> np.ndarray:
    """phi(xi) = |xi|^alpha xi + lam^2/xi in extended precision."""
    x = np.asarray(xi, dtype=np.longdouble)
    out = np.abs(x) ** np.longdouble(alpha) * x
    if lam != 0.0:
        out = out + np.longdouble(lam) ** 2 / x
    return out


def dispersion_relation(k: float, l: int, params: DispersionParams) -> float:
    """Per-mode frequency; 2D uses ``l``, the reduced family uses ``params.lam``.

    A real ``k`` gives the multiplier at ``xi = k``. The x-mean-zero
    constraint excludes k = 0, where the formula is singular.
    """
    if k == 0:
        raise ParameterError("dispersion frequency undefined at k = 0")
    transverse = float(l) if params.mode == "full-2d" else params.lam
    return float(abs(k) ** params.alpha * k + transverse**2 / k)


def group_velocity(xi: float, params: DispersionParams) -> float:
    """Derivative of the reduced multiplier: (alpha+1)|xi|^alpha - lam^2/xi^2."""
    if xi == 0:
        raise ParameterError("group velocity undefined at xi = 0")
    return float(
        (params.alpha + 1.0) * abs(xi) ** params.alpha - params.lam**2 / xi**2
    )


def multiplier_curvature(xi: float, params: DispersionParams) -> float:
    """Second derivative of the reduced multiplier (odd in xi)."""
    if xi == 0:
        raise ParameterError("curvature undefined at xi = 0")
    a = params.alpha
    return float(
        a * (a + 1.0) * abs(xi) ** (a - 1.0) * np.sign(xi) + 2.0 * params.lam**2 / xi**3
    )


def _positive_critical_frequency(params: DispersionParams) -> float:
    """Closed-form root of the group velocity, Newton-polished."""
    xi = (params.lam**2 / (params.alpha + 1.0)) ** (1.0 / (params.alpha + 2.0))
    for _ in range(4):
        step = group_velocity(xi, params) / multiplier_curvature(xi, params)
        xi -= step
    return xi


def critical_points(params: DispersionParams) -> tuple[CriticalPointData, ...]:
    """The (+, -) pair of group-velocity zeros, or empty when ``lam == 0``."""
    if params.lam == 0.0:
        return ()
    xi0 = _positive_critical_frequency(params)
    pp = multiplier_curvature(xi0, params)
    plus = CriticalPointData(xi0=xi0, phi_pp=pp, a0=pp / 2.0)
    minus = CriticalPointData(xi0=-xi0, phi_pp=-pp, a0=-pp / 2.0)
    return (plus, minus)


def semiclassical_translation(h: float, params: DispersionParams) -> CriticalPointData:
    """Offset data of the positive critical frequency on the h-lattice.

    ``sigma_h = h*(xi0/h - floor(xi0/h))`` is where the translated multiplier
    ``phi(. + h*floor(xi0/h))`` has its group-velocity zero; ``r_h = sigma_h/h``.
    """
    if not 0.0 < h < 1.0:
        raise ParameterError(f"h must lie in (0, 1), got {h}")
    if params.lam <= 0.0:
        raise ParameterError("semiclassical translation requires lam > 0")
    xi0 = _positive_critical_frequency(params)
    shift = int(np.floor(xi0 / h))
    sigma_h = xi0 - h * shift
    pp_at_sigma = multiplier_curvature(sigma_h + h * shift, params)
    return CriticalPointData(
        xi0=xi0,
        phi_pp=pp_at_sigma,
        a0=multiplier_curvature(xi0, params) / 2.0,
        h=h,
        sigma_h=sigma_h,
        r_h=sigma_h / h,
    )


def critical_shift(h: float, params: DispersionParams) -> int:
    """Integer lattice shift ``floor(xi0/h)`` used by the translated frame."""
    if not 0.0 < h < 1.0:
        raise ParameterError(f"h must lie in (0, 1), got {h}")
    return int(np.floor(_positive_critical_frequency(params) / h))


def modular_pair(r: float) -> tuple[float, float]:
    """Pair ``mu1 = mu2`` in [1/8, 7/8] with ``mu1 + mu2 = 2r (mod 1)``.

    Deterministic symmetric tie-breaking: with ``f = frac(2r)``, take
    ``mu = f/2`` when ``f >= 1/4`` (landing in [1/8, 1/2)) and
    ``mu = (f+1)/2`` when ``f < 1/4`` (landing in [1/2, 5/8)).
    """
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"r must lie in [0, 1), got {r}")
    f = float(2.0 * r - np.floor(2.0 * r))
    mu = f / 2.0 if f >= 0.25 else (f + 1.0) / 2.0
    return (mu, mu)


# ---------------------------------------------------------------------------
# Frequency tables for the evolution operators
# ---------------------------------------------------------------------------


def frequencies_1d(k: np.ndarray, params: DispersionParams) -> np.ndarray:
    """Reduced-family frequencies over an integer array, extended precision.

    Entries at k = 0 are set to 0; callers must mask that mode themselves.
    """
    k = np.asarray(k)
    safe = np.where(k == 0, 1, k).astype(np.longdouble)
    out = _multiplier_ld(safe, params.alpha, params.lam)
    return np.where(k == 0, np.longdouble(0.0), out)


def frequencies_2d(
    k: np.ndarray, l: np.ndarray, params: DispersionParams
) -> np.ndarray:
    """Full 2D frequency table ``omega[k, l]`` in extended precision."""
    kk = np.asarray(k)
    safe = np.where(kk == 0, 1, kk).astype(np.longdouble)
    ll = np.asarray(l).astype(np.longdouble)
    out = (np.abs(safe) ** np.longdouble(params.alpha) * safe)[:, None] + (
        ll**2
    )[None, :] / safe[:, None]
    out[kk == 0, :] = 0.0
    return out


def semiclassical_frequencies(
    k: np.ndarray, h: float, params: DispersionParams
) -> tuple[np.ndarray, int]:
    """Gauged translated frequencies ``(phi(h(k+S)) - phi(xi0)) / h^(1+alpha)``.

    ``S = floor(xi0/h)``. The gauge makes the value at the critical offset
    vanish. The singular index ``k = -S`` (image of the original k = 0) is
    masked to 0; callers must ensure it carries no mass. Returns the
    frequency table and ``S``.
    """
    shift = critical_shift(h, params)
    k = np.asarray(k)
    h_ld = np.longdouble(h)
    xi = h_ld * (k.astype(np.longdouble) + np.longdouble(shift))
    singular = k == -shift
    xi = np.where(singular, np.longdouble(1.0), xi)
    gauge = _multiplier_ld(
        np.array(_positive_critical_frequency(params), dtype=np.longdouble),
        params.alpha,
        params.lam,
    )
    phases = (_multiplier_ld(xi, params.alpha, params.lam) - gauge) / h_ld ** (
        np.longdouble(1.0) + np.longdouble(params.alpha)
    )
    return np.where(singular, np.longdouble(0.0), phases), shift


def check_phases(t: float | np.ndarray, omega: np.ndarray) -> None:
    """A ``ParameterError`` unless ``max|t| * max|omega|`` is at most :data:`PHASE_LIMIT`.

    A NaN time or frequency fails too. :func:`unit_phases` checks its phases so; a caller that
    writes as it goes, all of them first.
    """
    bound = float(np.abs(t).max(initial=0.0)) * float(np.abs(omega).max(initial=0.0))
    if not bound <= PHASE_LIMIT:
        raise ParameterError(f"phases t*omega up to {bound:.3e} exceed 2**53, too large to reduce")


def unit_phases(omega: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """``exp(i*t*omega)`` with extended-precision argument reduction mod 2*pi.

    A 1-D array of times ``t`` gives the ``(len(t), *omega.shape)`` stack; the phases must pass
    :func:`check_phases`.
    """
    t = np.asarray(t, dtype=np.longdouble)
    check_phases(t, omega)
    t = t.reshape(t.shape + (1,) * np.ndim(omega))
    theta = np.mod(t * np.asarray(omega, dtype=np.longdouble), TWO_PI_LD)
    return np.exp(1j * theta.astype(np.float64))
