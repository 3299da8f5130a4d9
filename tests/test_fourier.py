import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import kpilab as kl
from kpilab.errors import ConstraintError, DimensionError, ParameterError
from kpilab.experiments import random_field
from kpilab.fourier import DEFAULT_LP_FAMILY, TWO_PI, smooth_step


def direct_dft(samples, grid):
    """O(n^2) quadrature oracle for the forward transform."""
    if grid.dimension == 1:
        x = grid.x_nodes
        out = np.array(
            [np.sum(samples * np.exp(-1j * k * x)) / grid.nx for k in grid.k_values]
        )
        return out
    x = grid.x_nodes[:, None]
    y = grid.y_nodes[None, :]
    out = np.empty((grid.nx, grid.ny), dtype=complex)
    for i, k in enumerate(grid.k_values):
        for j, l in enumerate(grid.l_values):
            out[i, j] = np.sum(samples * np.exp(-1j * (k * x + l * y))) / (
                grid.nx * grid.ny
            )
    return out


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            kl.TorusGrid(48)
        with pytest.raises(ParameterError):
            kl.TorusGrid(2)

    def test_node_layout(self):
        g = kl.TorusGrid(8)
        assert g.x_nodes[0] == -np.pi
        assert_allclose(np.diff(g.x_nodes), TWO_PI / 8)
        assert g.k_values[0] == -4 and g.k_values[-1] == 3


class TestTransform:
    def test_constant_field(self, grid_1d):
        field = kl.forward_transform(np.full(grid_1d.nx, 2.5 + 0j), grid_1d)
        assert abs(field.coeff(0) - 2.5) < 1e-14
        others = field.coeffs.copy()
        others[grid_1d.index_of_k(0)] = 0
        assert np.max(np.abs(others)) < 1e-14

    def test_single_exponential(self):
        g = kl.TorusGrid(64)
        field = kl.forward_transform(np.exp(3j * g.x_nodes), g)
        assert abs(field.coeff(3) - 1.0) < 1e-13
        rest = field.coeffs.copy()
        rest[g.index_of_k(3)] = 0
        assert np.max(np.abs(rest)) <= 1e-13

    def test_direct_summation_oracle_1d(self, rng):
        g = kl.TorusGrid(32)
        samples = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        field = kl.forward_transform(samples, g)
        assert np.max(np.abs(field.coeffs - direct_dft(samples, g))) < 1e-12

    def test_direct_summation_oracle_2d(self, rng):
        g = kl.TorusGrid(16, 8)
        samples = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        field = kl.forward_transform(samples, g)
        assert np.max(np.abs(field.coeffs - direct_dft(samples, g))) < 1e-12

    def test_round_trip(self, grid_2d, rng):
        samples = rng.standard_normal(grid_2d.shape) + 1j * rng.standard_normal(
            grid_2d.shape
        )
        back = kl.inverse_transform(kl.forward_transform(samples, grid_2d))
        assert np.max(np.abs(back - samples)) < 1e-12

    def test_size_mismatch(self, grid_1d):
        with pytest.raises(DimensionError):
            kl.forward_transform(np.zeros(12), grid_1d)

    def test_parseval_against_quadrature(self, rng):
        g = kl.TorusGrid(64, 16)
        for _ in range(100):
            samples = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            field = kl.forward_transform(samples, g)
            quad = np.sqrt(np.sum(np.abs(samples) ** 2) * g.cell_volume)
            assert abs(field.norm() - quad) <= 1e-12 * quad

    def test_linearity(self, grid_1d, rng):
        u = rng.standard_normal(grid_1d.nx) + 1j * rng.standard_normal(grid_1d.nx)
        v = rng.standard_normal(grid_1d.nx) + 1j * rng.standard_normal(grid_1d.nx)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        lhs = kl.forward_transform(a * u + b * v, grid_1d).coeffs
        rhs = (
            a * kl.forward_transform(u, grid_1d).coeffs
            + b * kl.forward_transform(v, grid_1d).coeffs
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestMeanZero:
    def test_pure_mean_becomes_zero(self, grid_1d):
        field = kl.mode_field(grid_1d, 0, amplitude=4.0)
        assert kl.project_mean_zero(field).norm() == 0.0

    def test_exponential_plus_constant(self):
        g = kl.TorusGrid(64)
        field = kl.forward_transform(np.exp(1j * g.x_nodes) + 5.0, g)
        projected = kl.project_mean_zero(field)
        expect = kl.mode_field(g, 1)
        assert np.max(np.abs(projected.coeffs - expect.coeffs)) < 1e-13

    def test_idempotent_bitwise(self, grid_2d, rng):
        field = kl.SpectralField(
            grid_2d,
            rng.standard_normal(grid_2d.shape) + 1j * rng.standard_normal(grid_2d.shape),
        )
        once = kl.project_mean_zero(field)
        twice = kl.project_mean_zero(once)
        assert np.array_equal(once.coeffs, twice.coeffs)


class TestLittlewoodPaley:
    def test_ramp_endpoints(self):
        assert smooth_step(np.array([-1.0, 0.0, 1.0, 2.0])).tolist() == [0, 0, 1, 1]

    def test_partition_of_unity_pointwise(self):
        fam = DEFAULT_LP_FAMILY
        xi = np.concatenate([np.geomspace(1e-3, 1e3, 301), -np.geomspace(1e-3, 1e3, 7)])
        total = sum(fam.block(n, xi) for n in range(-12, 13))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_block_support(self):
        fam = DEFAULT_LP_FAMILY
        xi = np.linspace(-3, 3, 1201)
        vals = fam.block(2, xi)
        inside = (np.abs(xi) >= 2.0**-3) & (np.abs(xi) <= 2.0**-1)
        assert np.all(vals[~inside] == 0.0)

    def test_enlargement_covers_base(self):
        fam = DEFAULT_LP_FAMILY
        xi = np.linspace(-2.5, 2.5, 2001)
        psi = fam.psi(xi)
        assert np.max(np.abs(fam.enlarged(xi) * psi - psi)) < 1e-15

    def test_plateau_mode_unchanged(self, grid_1d):
        # psi(2^0 * h k) = 1 at h k = 1
        field = kl.mode_field(grid_1d, 8)
        out = kl.littlewood_paley_block(field, 0, 1.0 / 8.0)
        assert np.max(np.abs(out.coeffs - field.coeffs)) == 0.0

    def test_outside_support_zeroed(self, grid_1d):
        field = kl.mode_field(grid_1d, 24)  # |h k| = 3 > 2
        out = kl.littlewood_paley_block(field, 0, 1.0 / 8.0)
        assert out.norm() == 0.0

    def test_partition_recovers_field(self, rng):
        g = kl.TorusGrid(128)
        field = random_field(g, rng, kmax=50)
        h = 1.0 / 16.0
        fam = DEFAULT_LP_FAMILY
        total = np.zeros(g.nx, dtype=complex)
        for n in fam.block_range(h, g):
            total += kl.littlewood_paley_block(field, n, h).coeffs
        target = kl.project_mean_zero(field)
        # relative to the coefficients: the field is unit-norm, its entries below 0.1
        assert np.max(np.abs(total - target.coeffs)) < 1e-13 * np.max(np.abs(field.coeffs))

    def test_almost_orthogonality_factor_four(self, rng):
        g = kl.TorusGrid(128)
        field = random_field(g, rng, kmax=50)
        h = 1.0 / 16.0
        total = sum(
            kl.littlewood_paley_block(field, n, h).norm() ** 2
            for n in DEFAULT_LP_FAMILY.block_range(h, g)
        )
        assert total <= 4.0 * field.norm() ** 2
        assert field.norm() ** 2 <= 4.0 * total

    def test_bad_h(self, grid_1d):
        with pytest.raises(ParameterError):
            kl.littlewood_paley_block(kl.mode_field(grid_1d, 1), 0, -1.0)


class TestSobolev:
    def test_unit_mode_l2(self, grid_1d):
        assert abs(kl.sobolev_norm(kl.mode_field(grid_1d, 1), 0.0) - np.sqrt(TWO_PI)) < 1e-14

    def test_inverse_derivative_weight(self, grid_1d):
        val = kl.sobolev_norm(kl.mode_field(grid_1d, 2), -1.0)
        assert abs(val - np.sqrt(TWO_PI) / 2.0) < 1e-14

    def test_l2_matches_quadrature(self, rng):
        g = kl.TorusGrid(64)
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        field = kl.forward_transform(samples, g)
        quad = np.sqrt(np.sum(np.abs(samples) ** 2) * g.cell_volume)
        assert abs(kl.sobolev_norm(field, 0.0) - quad) <= 1e-12 * quad

    def test_negative_order_requires_mean_zero(self, grid_1d):
        with pytest.raises(ConstraintError):
            kl.sobolev_norm(kl.mode_field(grid_1d, 0, amplitude=1.0), -1.0)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=-31, max_value=31).filter(lambda k: k != 0),
    amp_re=st.floats(-5, 5, allow_nan=False),
    amp_im=st.floats(-5, 5, allow_nan=False),
)
def test_mode_round_trip_property(k, amp_re, amp_im):
    g = kl.TorusGrid(64)
    amp = amp_re + 1j * amp_im
    field = kl.forward_transform(amp * np.exp(1j * k * g.x_nodes), g)
    assert abs(field.coeff(k) - amp) < 1e-12 * max(1.0, abs(amp))
