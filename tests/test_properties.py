"""Properties of the single array path on random 1D and 2D grids.

The control operator is written once for both axes and both dimensions, and
the containers once for both dimensions; these checks hold for every grid
that path can meet.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import kpilab as kl
from kpilab.observe import GramianBlock, apply_control
from kpilab.storage import read_field, read_gramian, write_field, write_gramian

SIDES = st.sampled_from([4, 8, 16, 32, 64])


@st.composite
def grids(draw):
    nx = draw(SIDES)
    ny = draw(st.one_of(st.none(), SIDES))
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
    profile = kl.make_control_profile(*support, kind, kl.TorusGrid(grid.shape[axis]))
    u, v = _random_field(grid, seed), _random_field(grid, seed + 1)
    gu = apply_control(u, profile, orientation)
    gv = apply_control(v, profile, orientation)
    # ||G|| <= 2 max g; a profile on one node makes G zero up to rounding
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
