"""Constructive exact controllability: Gramian inversion and verification.

The control Gramian ``Lambda_T v = integral_0^T S(s) G^2 S(-s) v ds`` is the
observability kernel run backward in time: the same static Gram and time
factor, at the frequencies ``-omega``. Solving ``Lambda_T phi = u1 - S(T) u0``
blockwise and setting ``f(t) = G S(t - T) phi`` steers ``u0`` to ``u1`` at
time T; the Duhamel identity makes this exact in the truncated (grid) state
space. The solver is the conjugate-residual variant of the conjugate-gradient
family, whose residual norms decrease monotonically.

Verification takes Duhamel's formula, ``u(T) = S(T) u0 + Lambda_T phi`` for the
synthesized ``phi``, and evaluates ``Lambda_T phi`` by composite Gauss-Legendre
quadrature of ``S(s) G^2 S(-s) phi``, never touching the closed-form Gramian
kernel. On each line along the control axis the quadrature is
``sum_p v_p G^2[p, q] K[p, q]`` with K the node-Gram of the rule's phases; a
node's time is a coarse panel start plus a fine one plus an in-panel offset, so
K is the entrywise product of those three levels' node-Grams: O(sqrt(panels) +
order) phases per mode instead of one per node.

The exported control samples take the same lines: on each, ``f(t)`` is phi's
coefficients times their phases ``exp(i omega (t - T))``, times G's rows on the
support modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .dispersion import DispersionParams, unit_phases
from .errors import DimensionError, NonConvergenceError, ParameterError
from .fourier import SpectralField, TorusGrid, require_mean_zero
from .observe import (
    ControlProfile, Orientation, _control_axis, _control_lines, _gramian_kernel, _line_labels,
    _check_horizon, _support_columns, _support_layout, _to_grid, apply_vertical_control,
    gauss_legendre_levels,
)
from .propagate import (
    _STACK_BYTES, _cached_grid_frequencies, _kept_modes, _stack_slices, _support,
    check_no_nyquist, evolve, finite_times,
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
    """Matrix-free oracle: Gauss-Legendre quadrature of ``Lambda_T v = int_0^T S(s) G^2 S(-s) v``.

    On each line along the control axis that holds a kept, nonzero coefficient of ``v`` (a 1D
    field is one line) it sums ``sum_p v_p G^2[p, q] K[p, q]``: p the s modes the lines hold,
    q their kept modes, G^2 built once per call in physical space, and +0 elsewhere. The
    node-Gram ``K = sum_j w_j exp(-i omega_p t_j) exp(i omega_q t_j)`` is the entrywise product
    of those of the rule's three levels (:func:`~kpilab.observe.gauss_legendre_levels`). A stack
    of lines takes the shared budget, or one line where its K, as large as G^2's rows, is more.
    """
    levels = gauss_legendre_levels(horizon, panels, order)
    table = _cached_grid_frequencies(v.grid, params)
    require_mean_zero(v)
    grid = v.grid
    axis = _control_axis(grid, profile, orientation)
    lines, cols, view = _support_layout(_support(v), axis)
    # the kept modes along the control axis are the same on every line that holds one
    kept = np.any(_control_lines(_kept_modes(grid), axis, lines), axis=0)
    # G^2's rows: G again, in place, a stack of rows at a time
    square = _support_columns(cols, profile)
    for part in _stack_slices(len(square), cols.shape):
        square[part] = apply_vertical_control(square[part], profile)
    square = square[:, kept]
    before, after = view(table), _control_lines(table, axis, lines, kept)
    coeffs = view(v.coeffs)
    acc = np.zeros((len(coeffs), kept.size), dtype=np.complex128)
    for part in _stack_slices(len(coeffs), square.shape):
        k = square
        for times, weights in levels:
            # numpy multiplies into the temporary node-Gram in place, as (Gram, k): an explicit
            # np.multiply(k, gram, out=gram) holds as little but swaps operands and last bits
            k = k * _node_gram(before[part], after[part], times, weights)
        acc[part, kept] = (coeffs[part, None] @ k)[:, 0]
    return SpectralField(grid, _to_grid(grid.shape, axis, lines, acc))


def _node_gram(
    before: np.ndarray, after: np.ndarray, times: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``(lines, s, n)``: ``sum_j weights[j] outer(exp(-i before t_j), exp(i after t_j))``.

    ``before`` ``(lines, s)`` and ``after`` ``(lines, n)`` are the lines' incoming and outgoing
    frequencies and ``t_j = times[j]``, at least one; one batched product per stack of nodes.
    A stack takes the shared budget, or as many bytes as the Gram where that is more.
    """
    shape = before.shape + after.shape[-1:]
    budget = max(_STACK_BYTES, 16 * math.prod(shape))
    gram = None
    for part in _stack_slices(weights.size, (before.size + after.size,), budget):
        weighted = unit_phases(before, -times[part]) * weights[part, None, None]
        term = np.moveaxis(weighted, 0, -1) @ np.moveaxis(unit_phases(after, times[part]), 0, -2)
        # the first product is the sum: one Gram-sized array when it is the only one
        gram = term if gram is None else np.add(gram, term, out=gram)
    return gram


def _conjugate_residual(
    matrix: np.ndarray,
    rhs: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, list[float], int, str]:
    """Conjugate-residual iteration for a hermitian PSD block.

    The minimal-residual member of the conjugate-direction family: residual
    2-norms are non-increasing by construction, which the classic CG update
    does not guarantee. Iteration counts match plain CG on these
    well-conditioned blocks. Returns the solution, the residual history, the
    iteration count and why it stopped: ``"converged"``, ``"breakdown"`` (a
    search direction the block does not see) or ``"max_iter"``.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        return x, [0.0], 0, "converged"
    r = rhs.copy()
    p = r.copy()
    ar = matrix @ r
    ap = ar.copy()
    rar = float(np.real(np.vdot(r, ar)))
    history = [rhs_norm]
    for iteration in range(1, max_iter + 1):
        denom = float(np.real(np.vdot(ap, ap)))
        if denom <= 0.0 or rar <= 0.0:
            return x, history, iteration - 1, "breakdown"
        alpha = rar / denom
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        history.append(res)
        if res <= tol * rhs_norm:
            return x, history, iteration, "converged"
        ar = matrix @ r
        rar_new = float(np.real(np.vdot(r, ar)))
        beta = rar_new / rar
        rar = rar_new
        p = r + beta * p
        ap = ar + beta * ap
    return x, history, max_iter, "max_iter"


@dataclass(frozen=True, eq=False)
class ControlTrajectory:
    """HUM control realized by ``f(t) = G S(t - T) phi_T``.

    Stores the adjoint final datum, the data needed to re-derive the rule at
    arbitrary times, the control sampled at ``times`` for export (a read-only
    ``(len(times), *grid.shape)`` stack), and the solver diagnostics.
    """

    horizon: float
    phi_final: SpectralField
    profile: ControlProfile
    params: DispersionParams
    orientation: Orientation
    times: np.ndarray
    samples: np.ndarray
    diagnostics: dict = dataclass_field(default_factory=dict)

    def controls_at(self, times: np.ndarray) -> np.ndarray:
        """The synthesis rule at each of ``times``: a ``(len(times), *grid.shape)`` stack.

        G acts on each line along the control axis alone, so only the lines that hold phi's
        support (a 1D field is one line) carry f, at all n modes of the axis: on a line, f(t)
        is ``(phi * exp(i omega (t - T))) @ columns``, with ``omega`` the ``(L, s)`` frequencies
        of the s modes the lines hold and ``columns`` G's ``(s, n)`` rows on them
        (:func:`~kpilab.observe._support_columns`). Every other mode is +0.
        """
        times = finite_times(times)
        phi = self.phi_final
        grid = phi.grid
        axis = _control_axis(grid, self.profile, self.orientation)
        table = _cached_grid_frequencies(grid, self.params)
        require_mean_zero(phi)
        lines, cols, view = _support_layout(_support(phi), axis)
        weighted = unit_phases(view(table), times - self.horizon)
        weighted *= view(phi.coeffs)
        columns = _support_columns(cols, self.profile)
        out = np.zeros((times.size,) + grid.shape, dtype=np.complex128)
        on_lines = np.moveaxis(out, axis + 1, -1)
        for part in _stack_slices(times.size, grid.shape):
            # one (L, s) product per sample: one (samples * L, s) product can be large enough
            # for BLAS to start its threads, which stalled some calls by milliseconds on 2 cores
            on_lines[part, lines] = weighted[part] @ columns
        return out

    def control_at(self, t: float) -> SpectralField:
        """Evaluate the synthesis rule at time t."""
        return SpectralField(self.phi_final.grid, self.controls_at(np.array([t]))[0])


_SAMPLE_COUNT = 256  # the exported control samples; trajectory.bin records the count


def synthesize_control(
    u0: SpectralField,
    u1: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    tol: float = 1e-10,
    max_iter: int = 500,
    orientation: Orientation = "vertical",
) -> ControlTrajectory:
    """Steer ``u0`` to ``u1`` over ``[0, T]`` through the Gramian inversion.

    Solves ``Lambda_T phi = u1 - S(T) u0`` blockwise by conjugate-residual
    (minimal-residual conjugate-direction) iteration to
    relative residual ``tol``. Raises ``NonConvergenceError`` (carrying the
    residual history) when a block stagnates, which is the expected signal
    for data invisible to the chosen control operator, and when a block
    reaches ``max_iter`` iterations with its residual still falling.
    Content of ``u0`` or ``u1`` on a Nyquist frequency, which no evolution
    carries, is a ``ParameterError`` before any work.
    """
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"tol must lie in (0, 1), got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ParameterError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if u0.grid != u1.grid:
        raise DimensionError("initial and target fields live on different grids")
    for u in (u0, u1):
        require_mean_zero(u)
        check_no_nyquist(u)
    op = ControlGramian(u0.grid, horizon, profile, params, orientation)
    rhs = op.gather((u1 - evolve(u0, horizon, params)).coeffs)
    solution = np.zeros_like(rhs)
    iterations = 0
    final_rel = 0.0
    histories: dict[int, list[float]] = {}
    for b, label in enumerate(op.labels.tolist()):
        x, history, iters, stop = _conjugate_residual(op.stack[b], rhs[b], tol, max_iter)
        histories[label] = history
        if stop == "max_iter":
            raise NonConvergenceError(
                f"conjugate residual reached max_iter = {max_iter} on block {label} with the "
                f"residual still falling ({history[-2]:.3e} to {history[-1]:.3e} in its last "
                "iteration); a larger max_iter may converge",
                residual_history=history,
            )
        if stop == "breakdown":
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
    times = np.linspace(0.0, horizon, _SAMPLE_COUNT)
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
    samples = traj.controls_at(times)
    samples.flags.writeable = False
    object.__setattr__(traj, "samples", samples)
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
# the largest |delta| W for which a 24-node Gauss-Legendre panel of width W integrates
# exp(i delta t) to within 2^-53 W (Abramowitz & Stegun 25.4.30)
_PANEL_RADIANS = 34.55


def check_verify_steps(steps) -> None:
    """Reject a verifier step count outside ``100 .. MAX_VERIFY_STEPS`` before any work."""
    if not isinstance(steps, (int, np.integer)) or not 100 <= steps <= MAX_VERIFY_STEPS:
        raise ParameterError(
            f"verification needs an integer of 100 to {MAX_VERIFY_STEPS} steps, got {steps!r}"
        )


def _step_side(steps: int) -> int:
    """``ceil(sqrt(ceil(2 steps / 24)))``: side^2 panels of 24 nodes hold ``2 steps`` nodes."""
    return math.isqrt(-(-steps // 12) - 1) + 1


def _verify_side(
    field: SpectralField,
    horizon: float,
    profile: ControlProfile,
    params: DispersionParams,
    orientation: Orientation,
    steps: int,
) -> int:
    """Side of the verifier's side^2 panels on the control lines that hold ``field``.

    The larger of the step rule's (:func:`_step_side`) and the span rule's, which takes
    ``ceil(span T / 34.55)`` panels: span is the largest ``|omega_q - omega_p|`` over the kept
    modes of one such line. A side past ``MAX_VERIFY_STEPS``'s is a ``ParameterError``.
    """
    check_verify_steps(steps)
    _check_horizon(horizon)
    grid = field.grid
    axis = _control_axis(grid, profile, orientation)
    lines = np.any(_support(field), axis=axis)
    kept = _control_lines(_kept_modes(grid), axis, lines)
    omega = _control_lines(_cached_grid_frequencies(grid, params), axis, lines)
    top = np.max(omega, axis=-1, where=kept, initial=-np.inf)
    span = float(np.max(top - np.min(omega, axis=-1, where=kept, initial=np.inf), initial=0.0))
    panels, cap = span * horizon / _PANEL_RADIANS, _step_side(MAX_VERIFY_STEPS)
    if not panels <= cap**2:
        raise ParameterError(
            f"verification needs {panels:.6g} panels for the frequency span {span:.6g} over "
            f"T = {horizon}; at most {cap**2} ({MAX_VERIFY_STEPS} steps)"
        )
    return max(_step_side(steps), math.isqrt(max(math.ceil(panels), 1) - 1) + 1)


def verify_control(
    u0: SpectralField,
    traj: ControlTrajectory,
    steps: int,
) -> SpectralField:
    """``u(T)`` of the forced equation by Duhamel's formula, independently of the Gramian.

    With the synthesis rule ``f(t) = G S(t - T) phi``, ``u(T) = S(T) u0 + integral_0^T
    S(T - t) G f(t) dt``, and t -> T - t makes the integral ``Lambda_T phi``. A composite
    Gauss-Legendre rule is symmetric under t -> T - t, so its sum of the forcing over the nodes
    is :func:`quadrature_gramian_apply` of ``phi``, under the trajectory's own dynamics
    ``traj.params``. The rule is side^2 panels of 24 nodes (:func:`_verify_side`): at least
    ``2 steps`` nodes, and enough panels to resolve the frequency span of phi's lines. Neither
    the closed-form kernel nor its time factor enters, and neither do the exported samples.
    """
    if u0.grid != traj.phi_final.grid:
        raise DimensionError("initial field and control trajectory live on different grids")
    require_mean_zero(u0)
    phi = traj.phi_final
    side = _verify_side(phi, traj.horizon, traj.profile, traj.params, traj.orientation, steps)
    forced = quadrature_gramian_apply(
        phi, traj.horizon, traj.profile, traj.params, traj.orientation, side**2, 24
    )
    return evolve(u0, traj.horizon, traj.params) + forced
