"""Constructive exact controllability: Gramian inversion and verification.

The control Gramian ``Lambda_T v = integral_0^T S(s) G^2 S(-s) v ds`` is the
observability kernel run backward in time: the same static Gram and time
factor, at the frequencies ``-omega``. Solving ``Lambda_T phi = u1 - S(T) u0``
blockwise and setting ``f(t) = G S(t - T) phi`` steers ``u0`` to ``u1`` at
time T; the Duhamel identity makes this exact in the truncated (grid) state
space. The solver is the conjugate-residual variant of the conjugate-gradient
family, whose residual norms decrease monotonically.

Verification integrates the forced equation with a classical RK4 scheme in
the integrating-factor frame (the diagonal part is removed exactly, so no
stiffness limit applies); it evaluates the synthesis rule at the RK4 substage
times and never touches the closed-form Gramian kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .dispersion import DispersionParams
from .errors import DimensionError, NonConvergenceError, ParameterError
from .fourier import SpectralField, TorusGrid, require_mean_zero
from .observe import (
    ControlProfile, Orientation, _control_axis, _control_lines, _gramian_kernel, _line_labels,
    _support_columns, _support_layout, _to_grid, apply_control, apply_vertical_control,
    gauss_legendre_nodes,
)
from .propagate import (
    _cached_grid_frequencies, _direct_phases, _evolution, _kept_modes, _lattice_phases,
    _stack_slices, _support, evolve, evolve_many,
)


class ControlGramian:
    """Dense per-block representation of ``Lambda_T`` on a grid.

    Vertical control decouples transverse frequencies: one block per l over
    the full x-window. Horizontal control decouples x-frequencies instead.
    ``stack[b]`` is the block of ``labels[b]``; the blocks are assembled once
    and reused across conjugate-residual sweeps. They lie on the lines of
    the kept modes (:func:`~kpilab.propagate._kept_modes`), which leave out
    ``k = 0`` and the Nyquist frequencies, in the line-wise oracles' layout.
    """

    def __init__(
        self,
        grid: TorusGrid,
        horizon: float,
        profile: ControlProfile,
        params: DispersionParams,
        orientation: Orientation = "vertical",
    ):
        self.grid = grid
        self.horizon = horizon
        self.profile = profile
        self.params = params
        self.orientation = orientation
        self._axis = _control_axis(grid, profile, orientation)
        # gather: the block vectors ``(len(labels), n)`` of a grid array
        self._lines, self._cols, self.gather = _support_layout(_kept_modes(grid), self._axis)
        self.labels = _line_labels(grid, self._axis, self._lines)
        omega = self.gather(_cached_grid_frequencies(grid, params))
        idx = grid.frequencies[self._axis][self._cols]
        # the observability kernel run backward in time
        self.stack = _gramian_kernel(profile, idx, -omega, horizon)

    def scatter(self, vecs: np.ndarray) -> np.ndarray:
        """Coefficient array holding the block vectors, zero off the blocks."""
        lines = np.zeros(vecs.shape[:1] + self._cols.shape, dtype=np.complex128)
        lines[:, self._cols] = vecs
        return _to_grid(self.grid.shape, self._axis, self._lines, lines)

    def apply(self, v: SpectralField) -> SpectralField:
        """Hermitian PSD action of the control Gramian on a field."""
        require_mean_zero(v)
        vecs = self.gather(v.coeffs)
        return SpectralField(self.grid, self.scatter((self.stack @ vecs[..., None])[..., 0]))


def control_gramian_apply(
    v: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    orientation: Orientation = "vertical",
) -> SpectralField:
    """One-shot ``Lambda_T v``; assembles the dense blocks and applies them."""
    op = ControlGramian(v.grid, horizon, profile, params, orientation)
    return op.apply(v)


def quadrature_gramian_apply(
    v: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    orientation: Orientation = "vertical",
    panels: int = 8,
    order: int = 16,
) -> SpectralField:
    """Matrix-free oracle: Gauss-Legendre quadrature of S(s) G^2 S(-s) v.

    G acts along the control axis alone, so the nodes are summed, as 1D fields, on the lines
    along that axis that hold ``v``'s support; every other mode of the result is +0.
    """
    nodes, weights = gauss_legendre_nodes(horizon, panels, order)
    # the Gauss-Legendre nodes are not equispaced: each node's phases directly
    phases = (_direct_phases(-nodes), _direct_phases(nodes))
    return SpectralField(v.grid, _g2_sum(v, params, profile, orientation, weights, *phases))


def _g2_sum(
    v: SpectralField, params: DispersionParams, profile: ControlProfile, orientation: Orientation,
    weights: np.ndarray, before, after,
) -> np.ndarray:
    """``sum_j weights[j] S(after_j) G^2 S(before_j) v`` on the grid, +0 off the kept modes.

    ``before`` and ``after`` are the phase sources of the incoming and outgoing times, both
    :func:`~kpilab.propagate._direct_phases` or both :func:`~kpilab.propagate._lattice_phases`
    over the same nodes. G acts along the control axis alone, so the evolution writes, as 1D
    fields, only the lines along that axis that hold a kept, nonzero coefficient of ``v`` (a 1D
    field is one line), at the s modes they hold; each stack times G^2's ``(s, n)`` columns on
    those modes, G applied twice in physical space once per call, takes the outgoing phases on
    the lines' kept modes. The nodes go a stack at a time, in order.
    """
    grid = v.grid
    axis = _control_axis(grid, profile, orientation)
    support = _support(v)
    lines, cols, view = _support_layout(support, axis)
    square = apply_vertical_control(_support_columns(cols, profile), profile)
    stack_at = _evolution(v, params, support, before, view)
    # the lines' kept modes and their frequencies, the control axis last
    kept = _control_lines(_kept_modes(grid), axis, lines)
    omega = _control_lines(_cached_grid_frequencies(grid, params), axis, lines)[kept]
    after_at = after(omega)
    acc = np.zeros(kept.shape, dtype=np.complex128)
    for part in _stack_slices(weights.size, grid.shape):
        g2 = (stack_at(part) @ square)[:, kept]
        acc[kept] += np.einsum("b,b...->...", weights[part], g2 * after_at(part))
    return _to_grid(grid.shape, axis, lines, acc)


def _conjugate_residual(
    matrix: np.ndarray,
    rhs: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, list[float], int, bool]:
    """Conjugate-residual iteration for a hermitian PSD block.

    The minimal-residual member of the conjugate-direction family: residual
    2-norms are non-increasing by construction, which the classic CG update
    does not guarantee. Iteration counts match plain CG on these
    well-conditioned blocks.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        return x, [0.0], 0, True
    r = rhs.copy()
    p = r.copy()
    ar = matrix @ r
    ap = ar.copy()
    rar = float(np.real(np.vdot(r, ar)))
    history = [rhs_norm]
    for iteration in range(1, max_iter + 1):
        denom = float(np.real(np.vdot(ap, ap)))
        if denom <= 0.0 or rar <= 0.0:
            return x, history, iteration - 1, False
        alpha = rar / denom
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        history.append(res)
        if res <= tol * rhs_norm:
            return x, history, iteration, True
        ar = matrix @ r
        rar_new = float(np.real(np.vdot(r, ar)))
        beta = rar_new / rar
        rar = rar_new
        p = r + beta * p
        ap = ar + beta * ap
    return x, history, max_iter, False


@dataclass(frozen=True, eq=False)
class ControlTrajectory:
    """HUM control realized by ``f(t) = G S(t - T) phi_T``.

    Stores the adjoint final datum, the data needed to re-derive the rule at
    arbitrary times, uniformly sampled control snapshots for export, and the
    solver diagnostics.
    """

    horizon: float
    phi_final: SpectralField
    profile: ControlProfile
    params: DispersionParams
    orientation: Orientation
    times: np.ndarray
    samples: tuple[SpectralField, ...]
    diagnostics: dict = dataclass_field(default_factory=dict)

    def controls_at(self, times: np.ndarray) -> np.ndarray:
        """The synthesis rule at each of ``times``: a ``(len(times), *grid.shape)`` stack."""
        back = evolve_many(self.phi_final, times - self.horizon, self.params)
        return apply_control(back, self.profile, self.orientation)

    def control_at(self, t: float) -> SpectralField:
        """Evaluate the synthesis rule at time t."""
        return SpectralField(self.phi_final.grid, self.controls_at(np.array([t]))[0])


def synthesize_control(
    u0: SpectralField,
    u1: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    tol: float = 1e-10,
    max_iter: int = 500,
    orientation: Orientation = "vertical",
    sample_count: int = 256,
) -> ControlTrajectory:
    """Steer ``u0`` to ``u1`` over ``[0, T]`` through the Gramian inversion.

    Solves ``Lambda_T phi = u1 - S(T) u0`` blockwise by conjugate-residual
    (minimal-residual conjugate-direction) iteration to
    relative residual ``tol``. Raises ``NonConvergenceError`` (carrying the
    residual history) when a block stagnates, which is the expected signal
    for data invisible to the chosen control operator.
    """
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"tol must lie in (0, 1), got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ParameterError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not isinstance(sample_count, (int, np.integer)) or sample_count < 0:
        raise ParameterError(f"sample_count must be a nonnegative integer, got {sample_count!r}")
    if u0.grid != u1.grid:
        raise DimensionError("initial and target fields live on different grids")
    require_mean_zero(u0)
    require_mean_zero(u1)
    op = ControlGramian(u0.grid, horizon, profile, params, orientation)
    rhs = op.gather((u1 - evolve(u0, horizon, params)).coeffs)
    solution = np.zeros_like(rhs)
    iterations = 0
    final_rel = 0.0
    histories: dict[int, list[float]] = {}
    for b, label in enumerate(op.labels.tolist()):
        x, history, iters, ok = _conjugate_residual(op.stack[b], rhs[b], tol, max_iter)
        histories[label] = history
        if not ok:
            raise NonConvergenceError(
                f"conjugate gradient stagnated on block {label} "
                f"(residual {history[-1]:.3e} after {iters} iterations); "
                "the data may be invisible to this control operator",
                residual_history=history,
            )
        iterations = max(iterations, iters)
        if history[0] > 0:
            final_rel = max(final_rel, history[-1] / history[0])
        solution[b] = x
    phi_field = SpectralField(u0.grid, op.scatter(solution))
    times = np.linspace(0.0, horizon, sample_count)
    traj = ControlTrajectory(
        horizon=horizon,
        phi_final=phi_field,
        profile=profile,
        params=params,
        orientation=orientation,
        times=times,
        samples=(),
        diagnostics={
            "iterations": iterations,
            "relative_residual": final_rel,
            "residual_histories": histories,
            "tolerance": tol,
        },
    )
    samples = [
        SpectralField(u0.grid, row)
        for part in _stack_slices(times.size, u0.grid.shape)
        for row in traj.controls_at(times[part])
    ]
    object.__setattr__(traj, "samples", tuple(samples))
    return traj


def hum_functional(
    psi: SpectralField,
    rhs: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    orientation: Orientation = "vertical",
) -> float:
    """HUM energy ``J(psi) = 1/2 <Lambda psi, psi> - Re <psi, rhs>``.

    Minimized exactly by the synthesized adjoint datum; perturbing the
    minimizer by ``delta`` raises J by half the squared Gramian norm of
    ``delta``, which is the first-order optimality statement behind the
    minimal-control-energy property.
    """
    lam_psi = control_gramian_apply(psi, horizon, profile, params, orientation)
    return 0.5 * float(np.real(lam_psi.inner(psi))) - float(np.real(psi.inner(rhs)))


MAX_VERIFY_STEPS = 10**6


def check_verify_steps(steps) -> None:
    """Reject a verifier step count outside ``100 .. MAX_VERIFY_STEPS`` before any work."""
    if not isinstance(steps, (int, np.integer)) or not 100 <= steps <= MAX_VERIFY_STEPS:
        raise ParameterError(
            f"verification needs an integer of 100 to {MAX_VERIFY_STEPS} steps, got {steps!r}"
        )


def verify_control(
    u0: SpectralField,
    traj: ControlTrajectory,
    steps: int,
) -> SpectralField:
    """Integrate the forced equation independently and return ``u(T)``.

    Classical RK4 in the integrating-factor frame: with ``w = S(-t) u`` the
    forced equation becomes ``dw/dt = S(-t) G f(t)``, which RK4 reduces to a
    composite Simpson rule over the control samples. The forcing is
    re-derived from the synthesis rule at every node ``t_j = j h``,
    ``h = T / (2 steps)``, under the trajectory's own dynamics
    ``traj.params``. The forcing ``S(-t) G^2 S(t - T) phi`` is summed line by
    line, as :func:`quadrature_gramian_apply` sums its nodes, with the Simpson
    weights in node order. Its incoming phases, at ``t_j - T``, and outgoing ones, at ``-t_j``,
    lie on the lattice ``m h`` and come from a two-level table
    (:func:`~kpilab.propagate._lattice_phases`): about ``2 sqrt(2 steps)`` extended-precision
    phases per mode instead of one per node. The exported control samples keep the whole-grid
    :meth:`ControlTrajectory.controls_at`.
    """
    check_verify_steps(steps)
    if u0.grid != traj.phi_final.grid:
        raise DimensionError("initial field and control trajectory live on different grids")
    require_mean_zero(u0)
    horizon = traj.horizon
    dt = horizon / steps
    # Simpson weights 1, 4, 2, 4, ..., 2, 4, 1 (times dt/6)
    weights = np.append(1.0, np.tile([4.0, 2.0], steps))
    weights[-1] = 1.0
    j = np.arange(2 * steps + 1)
    h = np.longdouble(horizon) / (2 * steps)
    phases = (_lattice_phases(h, j - 2 * steps), _lattice_phases(h, -j))
    rule = (traj.phi_final, traj.params, traj.profile, traj.orientation)
    acc = _g2_sum(*rule, weights, *phases) * (dt / 6.0)
    return evolve(SpectralField(u0.grid, u0.coeffs + acc), horizon, traj.params)
