"""Properties of the single array path on random 1D and 2D grids.

The control operator is written once for both axes and both dimensions, and
the containers once for both dimensions; these checks hold for every grid
that path can meet. The closed-form Gramians agree with the time-batched
quadrature oracles, the Gramian kernel and the block check, which work a
stack of rows at a time, give the bytes of their one-shot formulas, the HUM
solve's residuals never grow, a damaged container is read back exactly or
rejected as a ``DimensionError``, and the spectral-constant table is
nondecreasing with every prefix equal to the table of that order. The
evolution written straight into the control-axis lines that carry the field's
support is the full-grid evolution on those lines bit for bit, the
quadrature's line-by-line energy, taken through the triangular factor of G's
columns on the support, is the full-grid formula's, and ``evolve_many`` gives
the bytes of the full-grid formula on the field's support and +0 elsewhere,
whatever the sign of a zero coefficient. The line-by-line verifier and
``quadrature_gramian_apply`` agree with the whole-grid sum of the same
Gauss-Legendre rule and the dense Gramian on fields supported on a few
lines, and the verifier of a steering that needs no control is the free
flow. The control samples, taken on the lines, are the whole-grid formula.
"""

import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import kpilab as kl
from kpilab.errors import DimensionError, ParameterError
from kpilab.experiments import random_field
from kpilab.fourier import TWO_PI
from kpilab.hum import ControlGramian, ControlTrajectory, quadrature_gramian_apply
from kpilab.observe import (
    GramianBlock,
    _control_lines,
    _gramian_kernel,
    _is_odd,
    apply_control,
    control_gram_matrix,
    gauss_legendre_nodes,
    gramian_observed_energy,
    plain_weight_gram_matrix,
    quadrature_observed_energy,
    time_factor,
)
from kpilab.dispersion import unit_phases
from kpilab.propagate import (
    _cached_grid_frequencies, _evolution, _kept_modes, _support, evolve_many,
)
from kpilab.storage import (
    _FIELD_HEADER,
    _MATRIX_HEADER,
    read_field,
    read_gramian,
    write_field,
    write_gramian,
)


@st.composite
def grids(draw, sides=(4, 8, 16, 32, 64)):
    nx = draw(st.sampled_from(sides))
    ny = draw(st.one_of(st.none(), st.sampled_from(sides)))
    return kl.TorusGrid(nx) if ny is None else kl.TorusGrid(nx, ny)


def _random_field(grid, seed):
    draw = np.random.default_rng(seed).standard_normal(grid.shape + (2,))
    return kl.SpectralField(grid, draw[..., 0] + 1j * draw[..., 1])


@settings(max_examples=60, deadline=None)
@given(
    grid=grids(),
    horizontal=st.booleans(),
    # every such interval holds the node x = 0 of every grid
    support=st.tuples(st.floats(-3.0, -0.5), st.floats(0.5, 3.0)),
    kind=st.sampled_from(["smooth-exp", "hann-squared"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_control_is_self_adjoint_with_zero_mean_along_its_axis(
    grid, horizontal, support, kind, seed
):
    orientation = "horizontal" if horizontal and grid.ny else "vertical"
    axis = 1 if orientation == "horizontal" else 0
    try:
        profile = kl.make_control_profile(*support, kind, kl.TorusGrid(grid.shape[axis]))
    except kl.ParameterError:
        reject()  # a support on one node of a coarse grid, where G vanishes
    u, v = _random_field(grid, seed), _random_field(grid, seed + 1)
    gu = apply_control(u, profile, orientation)
    gv = apply_control(v, profile, orientation)
    # ||G|| <= 2 max g
    bound = 1.0 + 2.0 * profile.values.max()
    assert abs(gu.inner(v) - u.inner(gv)) <= 1e-13 * bound**2 * u.norm() * v.norm()
    # the zero frequency along the control axis carries no mass
    zero = np.take(gu.coeffs, grid.shape[axis] // 2, axis=axis)
    assert np.max(np.abs(zero)) <= 1e-14 * bound * np.sum(np.abs(u.coeffs))


@settings(max_examples=60, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1))
def test_field_container_round_trip(grid, seed):
    field = _random_field(grid, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.bin"
        write_field(field, path)
        back = read_field(path)
    assert back.grid == field.grid
    assert np.array_equal(back.coeffs, field.coeffs)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 24),
    fixed=st.integers(-(2**31), 2**31 - 1),
    horizon=st.floats(1e-6, 1e6),
    axis=st.sampled_from(["x", "y"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gramian_container_round_trip(n, fixed, horizon, axis, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    indices = rng.integers(-(2**31), 2**31, size=n)
    block = GramianBlock(indices, fixed, horizon, a @ a.conj().T, axis=axis)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.bin"
        write_gramian(block, path)
        back = read_gramian(path)
    assert (back.fixed_freq, back.horizon, back.axis) == (fixed, horizon, axis)
    assert np.array_equal(back.indices, block.indices)
    assert np.array_equal(back.matrix, block.matrix)


@settings(max_examples=40, deadline=None)
@given(
    nx=st.sampled_from([16, 32]),
    ny=st.sampled_from([None, 8, 16]),
    horizontal=st.booleans(),
    horizon=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_conjugate_residual_histories_never_grow(nx, ny, horizontal, horizon, seed):
    grid = kl.TorusGrid(nx) if ny is None else kl.TorusGrid(nx, ny)
    orientation = "horizontal" if horizontal and ny else "vertical"
    axis = 1 if orientation == "horizontal" else 0
    profile = kl.make_control_profile(-2.5, 2.5, "smooth-exp", kl.TorusGrid(grid.shape[axis]))
    params = kl.DispersionParams.kp1(2.0) if ny else kl.DispersionParams.reduced(2.0, 1.0)
    rng = np.random.default_rng(seed)
    u0 = random_field(grid, rng, kmax=nx // 4, lmax=ny // 4 if ny else None)
    if orientation == "horizontal":
        # the horizontal control has zero mean in y, so l = 0 is out of its reach
        u0 = kl.SpectralField(grid, np.where(grid.frequencies[1] == 0, 0.0, u0.coeffs))
    traj = kl.synthesize_control(u0, u0 * 0.0, horizon, profile, params, orientation=orientation)
    for history in traj.diagnostics["residual_histories"].values():
        assert np.all(np.diff(history) <= 1e-12 * history[0])


@settings(max_examples=30, deadline=None)
@given(
    nx=st.sampled_from([4, 8, 16]),
    ny=st.sampled_from([None, 4, 8]),
    horizontal=st.booleans(),
    horizon=st.floats(0.1, 2.0),
    zeroed=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gramian_equals_batched_quadrature(nx, ny, horizontal, horizon, zeroed, seed):
    grid = kl.TorusGrid(nx) if ny is None else kl.TorusGrid(nx, ny)
    orientation = "horizontal" if horizontal and ny else "vertical"
    axis = 1 if orientation == "horizontal" else 0
    profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(grid.shape[axis]))
    params = kl.DispersionParams.kp1(2.0) if ny else kl.DispersionParams.reduced(2.0, 1.0)
    rng = np.random.default_rng(seed)
    u0 = random_field(grid, rng, kmax=nx // 2 - 1, lmax=ny // 2 - 1 if ny else None)
    # a share of the coefficients zeroed leaves gaps in the lines and the modes of the
    # support, so the Gramian's blocks cover the support modes alone
    u0 = u0.with_coeffs(np.where(rng.random(grid.shape) < zeroed, 0.0, u0.coeffs))
    if orientation == "horizontal":
        # the horizontal control has zero mean in y, so l = 0 is out of its reach: a field left
        # on l = 0 alone has observed energy 0, which no relative bound can meet
        u0 = u0.with_coeffs(np.where(grid.frequencies[1] == 0, 0.0, u0.coeffs))
    # at most 8 radians of any frequency difference per 24-node panel
    spread = float(np.ptp(_cached_grid_frequencies(grid, params).astype(float)))
    panels = int(np.ceil(horizon * spread / 8.0)) + 1
    gram = gramian_observed_energy(u0, horizon, profile, params, orientation)
    quad = quadrature_observed_energy(u0, horizon, profile, params, orientation, panels, 24)
    assert abs(gram - quad) <= 1e-10 * gram
    dense = ControlGramian(grid, horizon, profile, params, orientation).apply(u0)
    quad_op = quadrature_gramian_apply(u0, horizon, profile, params, orientation, panels, 24)
    assert (quad_op - dense).norm() <= 1e-10 * dense.norm()


# a block row holds 16 * n bytes per stacked block, so windows of more than
# 90 modes, or stacks of smaller ones, are built and checked in several row
# slices, the last one short
@settings(max_examples=60, deadline=None)
@given(
    symmetric=st.booleans(),
    odd=st.booleans(),
    lo=st.integers(-300, 0),
    size=st.integers(1, 301),
    stack=st.sampled_from([(), (3,), (2, 2)]),
    plain_weight=st.booleans(),
    kind=st.sampled_from(["smooth-exp", "hann-squared"]),
    # the smaller horizons put off-diagonal entries on the near-resonant branch
    horizon=st.sampled_from([1e-9, 1e-5, 0.7, 5.0]),
    spread=st.sampled_from([1e-3, 1.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
# 256 odd modes, as in the floor's blocks of lab runs: 8 row slices of 32 rows
@example(
    symmetric=True, odd=True, lo=0, size=255, stack=(), plain_weight=False, kind="smooth-exp",
    horizon=0.7, spread=1e4, seed=0,
)
def test_kernel_is_the_one_shot_formula_bytewise(
    symmetric, odd, lo, size, stack, plain_weight, kind, horizon, spread, seed
):
    profile = kl.make_control_profile(-2.0, 1.0, kind, kl.TorusGrid(1024))
    if symmetric:
        idx = np.arange(-(size // 2 + 1), size // 2 + 2)
        idx = idx[idx != 0]
    else:
        idx = np.arange(lo, lo + size)
    omega = spread * np.random.default_rng(seed).standard_normal(stack + idx.shape)
    if odd:
        # omega[..., ::-1] == -omega takes the kernel's mirrored fill of the time factor; an
        # odd count of modes has a zero middle one
        omega = (omega - omega[..., ::-1]) / 2.0
        assert _is_odd(omega)
    static = (plain_weight_gram_matrix if plain_weight else control_gram_matrix)(profile, idx)
    # the time factor is named: numpy reuses a large temporary right operand for
    # the product, which swaps the operands of the fused complex multiply and
    # can move its last bit
    e = time_factor(omega[..., None, :] - omega[..., :, None], horizon)
    expect = static * e / TWO_PI
    matrix = _gramian_kernel(profile, idx, omega, horizon, plain_weight)
    assert matrix.shape == expect.shape
    assert matrix.tobytes() == expect.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_check_is_the_one_shot_symmetrization_bytewise(n, fortran, seed):
    rng = np.random.default_rng(seed)
    a, dust = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    gram = a @ a.conj().T
    # hermitian to 1e-14 of its largest entry, so that the symmetrization moves bits
    matrix = gram + 1e-14 * np.max(np.abs(gram)) * dust
    block = GramianBlock(np.arange(n), 0, 1.0, np.asfortranarray(matrix) if fortran else matrix)
    assert block.matrix.flags.c_contiguous
    assert block.matrix.tobytes() == (0.5 * (matrix + matrix.conj().T)).tobytes()


@st.composite
def sparse_quadratures(draw):
    """``(u0, horizon, profile, params, orientation)`` of a sparse field on a random grid.

    The field has a random window, a random share of it kept, optional content
    on the Nyquist row and column, and optional k = 0 dust.
    """
    grid = draw(grids())
    nx, ny = grid.nx, grid.ny
    orientation = "horizontal" if draw(st.booleans()) and ny else "vertical"
    window = draw(st.tuples(st.integers(1, 31), st.integers(0, 31)))
    keep = draw(st.floats(0.05, 1.0))
    nyquist = draw(st.tuples(st.booleans(), st.booleans()))
    dust = draw(st.booleans())
    horizon = draw(st.floats(0.1, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = 1 if orientation == "horizontal" else 0
    profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(grid.shape[axis]))
    params = kl.DispersionParams.kp1(2.0) if ny else kl.DispersionParams.reduced(2.0, 1.0)
    kmax, lmax = min(window[0], nx // 2 - 1), min(window[1], ny // 2 - 1) if ny else None
    coeffs = random_field(grid, rng, kmax=kmax, lmax=lmax).coeffs
    coeffs = np.where(rng.random(grid.shape) < keep, coeffs, 0.0)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if nyquist[0]:
        coeffs[0] = noise[0]  # k = -nx/2
    if nyquist[1] and ny:
        coeffs[:, 0] = noise[:, 0]  # l = -ny/2
    k0 = grid.index_of_k(0)
    # k = 0 mass, if any, below 1e-14 of the other coefficients (require_mean_zero)
    coeffs[k0] = 0.0
    coeffs[k0] = 1e-16 * np.max(np.abs(coeffs)) * noise[k0] if dust else 0.0
    return kl.SpectralField(grid, coeffs), horizon, profile, params, orientation


@settings(max_examples=60, deadline=None)
@given(case=sparse_quadratures())
def test_support_quadrature_equals_full_grid_bitwise(case):
    # the stack the line-wise oracles evolve, against evolve_many's gathered onto its lines
    u0, horizon, _, params, orientation = case
    axis = 1 if orientation == "horizontal" else 0
    support = _support(u0)
    lines = np.any(support, axis=axis)
    times = gauss_legendre_nodes(horizon, 2, 8)[0]
    view = partial(_control_lines, axis=axis, lines=lines)
    table = _cached_grid_frequencies(u0.grid, params)
    lined = _evolution(u0, table, support, times, view)(slice(None))
    full = np.moveaxis(evolve_many(u0, times, params), 1 + axis, -1)[:, lines]
    assert np.array_equal(lined, full)


@settings(max_examples=60, deadline=None)
@given(case=sparse_quadratures())
def test_line_energy_is_the_full_grid_formula(full_grid_quadrature_energy, case):
    u0, horizon, profile, params, orientation = case
    energy = quadrature_observed_energy(*case, 2, 8)
    expect = full_grid_quadrature_energy(
        u0, horizon, profile, orientation, 2, 8, lambda f, t: evolve_many(f, t, params)
    )
    # the whole-grid formula carries the roundoff of a transform round trip across the
    # lines, and the oracle that of G's columns on the support, relative to the field and
    # not to G of it: 1e-15 relative for a field that G sees (E ~ T ||u0||^2), looser for
    # one that G nearly annihilates
    assert abs(energy - expect) <= 1e-15 * np.sqrt(expect * horizon) * u0.norm()


@pytest.mark.parametrize("shape, orientation", [((512,), "vertical"), ((256, 8), "horizontal")])
def test_wide_dense_line_energy_is_the_full_grid_formula(
    full_grid_quadrature_energy, shape, orientation
):
    # every kept mode set: the largest matrix of G's columns on the support that a line holds
    grid, axis, horizon = kl.TorusGrid(*shape), 1 if orientation == "horizontal" else 0, 0.5
    profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(grid.shape[axis]))
    params = kl.DispersionParams.kp1(2.0) if grid.ny else kl.DispersionParams.reduced(2.0, 1.0)
    u0 = _kept_random_field(grid, 29)
    energy = quadrature_observed_energy(u0, horizon, profile, params, orientation, 2, 8)
    expect = full_grid_quadrature_energy(
        u0, horizon, profile, orientation, 2, 8, lambda f, t: evolve_many(f, t, params)
    )
    assert abs(energy - expect) <= 1e-15 * np.sqrt(expect * horizon) * u0.norm()


@pytest.mark.parametrize("orientation", ["vertical", "horizontal"])
@pytest.mark.parametrize("panels, order, steps", [(2, 8, 100), (16, 24, 1000)])
def test_oracles_build_g_once_per_call(monkeypatch, orientation, panels, order, steps):
    # G's columns on the support come from the physical-space G once per call, whatever
    # the number of node stacks (64x16 holds 8 nodes in a stack: 2 to 251 stacks here)
    calls = []

    def counted(u, profile):
        calls.append(np.shape(u))
        return apply_control(u, profile, "vertical")

    for module in (kl.observe, kl.hum):
        monkeypatch.setattr(module, "apply_vertical_control", counted)
    grid, axis = kl.TorusGrid(64, 16), 1 if orientation == "horizontal" else 0
    profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(grid.shape[axis]))
    params = kl.DispersionParams.kp1(2.0)
    u0 = kl.mode_field(grid, 1, 1) + kl.mode_field(grid, 3, -2) + kl.mode_field(grid, -5, 4)
    quadrature_observed_energy(u0, 1.0, profile, params, orientation, panels, order)
    assert len(calls) == 1
    traj = ControlTrajectory(1.0, u0, profile, params, orientation, np.empty(0), ())
    kl.verify_control(u0, traj, steps)
    assert len(calls) == 3


def test_quadrature_stacks_are_sized_by_the_line_layout(monkeypatch):
    # 9 lines of 16 modes per node: a 128 KiB stack holds 56 of the 384 nodes of the
    # 16x24 rule, where a stack sized by the 512x64 grid held one
    calls = []

    def counted(omega, t):
        calls.append(np.size(t))
        return unit_phases(omega, t)

    monkeypatch.setattr(kl.propagate, "unit_phases", counted)
    grid = kl.TorusGrid(512, 64)
    u0 = random_field(grid, np.random.default_rng(20), kmax=8, lmax=4)
    profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(512))
    quadrature_observed_energy(u0, 1.0, profile, kl.DispersionParams.kp1(2.0), "vertical", 16, 24)
    assert len(calls) <= 7 and sum(calls) == 384


@st.composite
def line_fields(draw, sides):
    """``(phi, profile, params, orientation)`` of a field on a few lines along the control axis.

    In 2D at most three of those lines carry a random share of their kept modes;
    a 1D field is one line. The field may be zero.
    """
    grid = draw(grids(sides))
    orientation = "horizontal" if draw(st.booleans()) and grid.ny else "vertical"
    axis = 1 if orientation == "horizontal" else 0
    profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(grid.shape[axis]))
    params = kl.DispersionParams.kp1(2.0) if grid.ny else kl.DispersionParams.reduced(2.0, 1.0)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    count = grid.shape[1 - axis] if grid.ny else 1
    lines = np.zeros(count, dtype=bool)
    lines[rng.choice(count, size=draw(st.integers(0, min(3, count))), replace=False)] = True
    # (lines, n) with the control axis last, then back to the grid's layout
    mask = lines[:, None] & (rng.random((count, grid.shape[axis])) < draw(st.floats(0.1, 1.0)))
    mask = np.moveaxis(mask, -1, axis) if grid.ny else mask[0]
    coeffs = np.where(_kept_modes(grid) & mask, _random_field(grid, seed).coeffs, 0.0)
    return kl.SpectralField(grid, coeffs), profile, params, orientation


def _kept_random_field(grid, seed):
    coeffs = np.where(_kept_modes(grid), _random_field(grid, seed).coeffs, 0.0)
    return kl.SpectralField(grid, coeffs)


@settings(max_examples=40, deadline=None)
@given(
    case=line_fields([4, 8, 16, 32]),
    horizon=st.floats(0.1, 2.0),
    steps=st.integers(100, 140),
    seed=st.integers(0, 2**32 - 1),
)
# named for the Simpson rule the verifier summed before its Gauss-Legendre rule
def test_line_verifier_is_the_whole_grid_simpson_sum(
    direct_phase_verify, case, horizon, steps, seed
):
    phi, profile, params, orientation = case
    u0 = _kept_random_field(phi.grid, seed)
    traj = ControlTrajectory(horizon, phi, profile, params, orientation, np.empty(0), ())
    out = kl.verify_control(u0, traj, steps)
    # ||G|| <= 1 + 2 max g; the forcing sums to at most T ||G||^2 ||phi||
    bound = 1.0 + 2.0 * profile.values.max()
    scale = u0.norm() + horizon * bound**2 * phi.norm()
    assert (out - direct_phase_verify(u0, traj, steps)).norm() <= 1e-14 * scale


@settings(max_examples=20, deadline=None)
@given(case=line_fields([4, 8, 16, 32]), horizon=st.floats(0.1, 2.0), zero=st.booleans())
@pytest.mark.parametrize("count", [0, 1, 2, 17, 256])
def test_line_control_samples_are_the_whole_grid_formula(case, horizon, zero, count):
    phi, profile, params, orientation = case
    phi = phi * 0.0 if zero else phi
    traj = ControlTrajectory(horizon, phi, profile, params, orientation, np.empty(0), ())
    times = np.linspace(0.0, horizon, count)
    expect = apply_control(kl.evolve_many(phi, times - horizon, params), profile, orientation)
    # a field that G annihilates (y-independent lines under horizontal control) leaves only
    # the roundoff of the whole-grid transforms, relative to the field
    allowed = 1e-14 * np.abs(expect).max(initial=0.0) + 1e-16 * np.abs(phi.coeffs).sum()
    found = traj.controls_at(times)
    assert found.shape == (count, *phi.grid.shape)
    assert np.abs(found - expect).max(initial=0.0) <= allowed


@settings(max_examples=40, deadline=None)
@given(case=line_fields([4, 8, 16]), horizon=st.floats(0.1, 1.0))
def test_line_quadrature_apply_is_the_dense_gramian(case, horizon):
    v, profile, params, orientation = case
    # at most 8 radians of any frequency difference per 24-node panel
    spread = float(np.ptp(_cached_grid_frequencies(v.grid, params).astype(float)))
    panels = int(np.ceil(horizon * spread / 8.0)) + 1
    quad = quadrature_gramian_apply(v, horizon, profile, params, orientation, panels, 24)
    dense = ControlGramian(v.grid, horizon, profile, params, orientation).apply(v)
    # a field that G annihilates (y-independent lines under horizontal control) leaves
    # only the roundoff of the dense blocks, relative to the field
    bound = 1.0 + 2.0 * profile.values.max()
    allowed = 1e-10 * dense.norm() + 1e-14 * horizon * bound**2 * v.norm()
    assert (quad - dense).norm() <= allowed


@settings(max_examples=20, deadline=None)
@given(case=line_fields([4, 8, 16]), horizon=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_verifier_without_control_is_the_free_flow(case, horizon, seed):
    _, profile, params, orientation = case
    u0 = _kept_random_field(case[0].grid, seed)
    target = kl.evolve(u0, horizon, params)
    traj = kl.synthesize_control(u0, target, horizon, profile, params, orientation=orientation)
    # u1 = S(T) u0 needs no control: phi = 0, and the verifier sums over no line
    assert not traj.phi_final.coeffs.any()
    assert np.array_equal(kl.verify_control(u0, traj, 100).coeffs, target.coeffs)


def test_line_oracles_check_the_orientation():
    params = kl.DispersionParams.kp1(2.0)
    profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(8))
    v = _kept_random_field(kl.TorusGrid(8, 8), 3)
    traj = ControlTrajectory(1.0, v, profile, params, "diagonal", np.empty(0), ())
    with pytest.raises(ParameterError):
        kl.verify_control(v, traj, 100)
    with pytest.raises(ParameterError):
        quadrature_gramian_apply(v, 1.0, profile, params, "diagonal")
    reduced = kl.DispersionParams.reduced(2.0, 1.0)
    v = _kept_random_field(kl.TorusGrid(8), 3)
    traj = ControlTrajectory(1.0, v, profile, reduced, "horizontal", np.empty(0), ())
    with pytest.raises(DimensionError):
        kl.verify_control(v, traj, 100)
    with pytest.raises(DimensionError):
        quadrature_gramian_apply(v, 1.0, profile, reduced, "horizontal")


@settings(max_examples=60, deadline=None)
@given(
    grid=grids(),
    alpha=st.floats(0.5, 2.5),
    lam=st.floats(0.0, 3.0),
    keep=st.floats(0.0, 1.0),
    nyquist=st.tuples(st.booleans(), st.booleans()),
    dust=st.booleans(),
    times=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_many_is_the_full_grid_formula_bytewise(
    grid, alpha, lam, keep, nyquist, dust, times, seed
):
    params = kl.DispersionParams.kp1(alpha) if grid.ny else kl.DispersionParams.reduced(alpha, lam)
    freqs = np.meshgrid(*grid.frequencies, indexing="ij")
    kept = freqs[0] != 0
    for f, n in zip(freqs, grid.shape):
        kept &= f != -n // 2
    assert np.array_equal(_kept_modes(grid), kept)

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    # zeros of both signs inside the kept set, content on the Nyquist row/column
    zeros = np.where(rng.random(grid.shape) < 0.5, 0.0, complex(-0.0, -0.0))
    coeffs = np.where(rng.random(grid.shape) < keep, noise, zeros)
    if nyquist[0]:
        coeffs[0] = noise[0]  # k = -nx/2
    if nyquist[1]:
        coeffs[..., 0] = noise[..., 0]  # l = -ny/2 (k = -nx/2 again in 1D)
    k0 = grid.index_of_k(0)
    # k = 0 mass, if any, below 1e-14 of the other coefficients (require_mean_zero)
    coeffs[k0] = 0.0
    coeffs[k0] = 1e-16 * np.max(np.abs(coeffs)) * noise[k0] if dust else 0.0
    u0 = kl.SpectralField(grid, coeffs)

    # the formula before the kept-mode mask: every mode's phase, then zeroing; the phases
    # are taken on the support only, so a zero coefficient of either sign comes out +0
    expect = u0.coeffs * unit_phases(_cached_grid_frequencies(grid, params), np.asarray(times))
    expect[:, ~(kept & (coeffs != 0))] = 0.0
    assert evolve_many(u0, times, params).tobytes() == expect.tobytes()


def _damaged(data, raw: bytes, header_size: int):
    """``(position, bytes)``: truncated, extended, then each header byte changed in turn."""
    yield None, raw[: data.draw(st.integers(0, len(raw) - 1))]
    yield None, raw + data.draw(st.binary(min_size=1, max_size=64))
    flip = data.draw(st.integers(1, 255))
    for pos in range(header_size):
        damaged = bytearray(raw)
        damaged[pos] ^= flip
        yield pos, bytes(damaged)


@settings(max_examples=100, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_damaged_field_container_round_trips_or_is_rejected(grid, seed, data):
    field = _random_field(grid, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.bin"
        write_field(field, path)
        for _, damaged in _damaged(data, path.read_bytes(), _FIELD_HEADER.size):
            path.write_bytes(damaged)
            try:
                back = read_field(path)
            except DimensionError:
                continue
            assert back.grid == field.grid
            assert np.array_equal(back.coeffs, field.coeffs)


# the header bytes of the axis, fixed_freq and horizon: values, not layout,
# which no check can tell from damage
_GRAMIAN_VALUE_BYTES = {5, *range(6, 10), *range(14, 22)}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_damaged_gramian_container_round_trips_or_is_rejected(n, seed, data):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    block = GramianBlock(np.arange(1, n + 1), int(rng.integers(-9, 10)), 1.5, a @ a.conj().T)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.bin"
        write_gramian(block, path)
        for pos, damaged in _damaged(data, path.read_bytes(), _MATRIX_HEADER.size):
            path.write_bytes(damaged)
            try:
                back = read_gramian(path)
            except DimensionError:
                continue
            assert np.array_equal(back.indices, block.indices)
            assert np.array_equal(back.matrix, block.matrix)
            if (back.fixed_freq, back.horizon, back.axis) != (block.fixed_freq, 1.5, "x"):
                # a changed value is read as written: writing it back gives the same bytes
                assert pos in _GRAMIAN_VALUE_BYTES
                write_gramian(back, path)
                assert path.read_bytes() == damaged


@settings(max_examples=25, deadline=None)
@given(
    nx=st.sampled_from([64, 128, 256]),
    kind=st.sampled_from(["smooth-exp", "hann-squared"]),
    a=st.floats(-3.0, 1.0),
    width=st.floats(1.0, 2.1),
    data=st.data(),
)
def test_spectral_table_is_nondecreasing_and_prefix_consistent(nx, kind, a, width, data):
    profile = kl.make_control_profile(a, a + width, kind, kl.TorusGrid(nx))
    # the matrix is singular once the window 2*m_max+1 exceeds the support's nodes
    nodes = int(np.count_nonzero(profile.values))
    m_max = data.draw(st.integers(0, min(6, (nodes - 1) // 2)), label="m_max")
    table = kl.spectral_constant_table(profile, m_max)
    assert all(hi >= lo for lo, hi in zip(table, table[1:]))
    for m0 in range(m_max + 1):
        assert abs(kl.spectral_constant(profile, m0) - table[m0]) <= 1e-12 * table[m0]
