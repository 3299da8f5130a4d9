import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kpilab as kl
from kpilab.dispersion import frequencies_1d, frequencies_2d, unit_phases
from kpilab.errors import (
    ConstraintError,
    DimensionError,
    NumericalConsistencyError,
    ParameterError,
)
from kpilab.experiments import random_field
from kpilab.fourier import TWO_PI, inverse_transform
from kpilab.observe import (
    GramianBlock,
    _fixed_cholesky,
    _gramian_kernel,
    _is_odd,
    _bottom_eigenvalues,
    _concentration_moments,
    _legendre_rule,
    _node_step,
    _quotient,
    _working_precision,
    concentration_matrix,
    gauss_legendre_levels,
    gauss_legendre_nodes,
    gramian_from_frequencies,
    quadrature_observed_energy,
    time_factor,
)


def quad_integral(values, grid):
    return np.sum(values) * grid.cell_volume


class TestControlProfile:
    def test_normalization_and_positivity(self, profile_default):
        assert abs(profile_default.quad_integral() - 1.0) < 1e-10
        assert np.all(profile_default.values >= 0.0)

    def test_support(self, profile_default):
        g = profile_default.grid
        x = g.x_nodes
        outside = (x <= np.pi / 4) | (x >= 3 * np.pi / 4)
        assert np.all(profile_default.values[outside] == 0.0)

    def test_zeroth_coefficient(self, profile_default, profile_64):
        for prof in (profile_default, profile_64):
            val = prof.g_hat[prof.grid.index_of_k(0)]
            assert abs(val - 1.0 / TWO_PI) < 1e-12

    def test_full_support_hann(self):
        g = kl.TorusGrid(256)
        prof = kl.make_control_profile(-np.pi, np.pi, "hann-squared", g)
        assert abs(prof.quad_integral() - 1.0) < 1e-10
        assert prof.values[g.nx // 2] > 0.0

    def test_smooth_exp_spectral_decay(self, profile_default):
        # frozen from the first verified run: any compactly supported bump
        # decays like exp(-c*sqrt(k)); the measured octave ratios are
        # 3.3e-2 (8 -> 32) and 1.7e-5 (8 -> 128)
        g = profile_default.grid
        gh = np.abs(profile_default.g_hat)
        r32 = gh[g.index_of_k(32)] / gh[g.index_of_k(8)]
        r128 = gh[g.index_of_k(128)] / gh[g.index_of_k(8)]
        assert r32 <= 0.05
        assert r128 <= 3e-5

    def test_reversed_interval_rejected(self):
        with pytest.raises(ParameterError):
            kl.make_control_profile(1.0, -1.0, "smooth-exp", kl.TorusGrid(64))

    def test_support_on_fewer_than_two_nodes_rejected(self):
        # hann-squared on (0.3, 1.4) holds one node of 8 points, where g dx = 1 makes G
        # vanish; (0.3, 0.5) holds none
        for b in (1.4, 0.5):
            with pytest.raises(ParameterError):
                kl.make_control_profile(0.3, b, "hann-squared", kl.TorusGrid(8))
        # smooth-exp on (0.78, 2.3562) holds two nodes of 8 points, but g(pi/4) is about 1e-32
        # against g(pi/2) about 0.37: the mass is on one node to rounding, and so is G
        with pytest.raises(ParameterError):
            kl.make_control_profile(0.78, 2.3562, "smooth-exp", kl.TorusGrid(8))
        profile = kl.make_control_profile(0.3, 2.2, "hann-squared", kl.TorusGrid(8))
        assert np.count_nonzero(profile.values) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            kl.make_control_profile(0.0, 1.0, "boxcar", kl.TorusGrid(64))

    def test_two_component_region(self):
        g = kl.TorusGrid(128)
        prof = kl.make_region_profile(
            [(-np.pi, -np.pi / 4), (np.pi / 4, np.pi)], "hann-squared", g
        )
        assert abs(prof.quad_integral() - 1.0) < 1e-10
        middle = np.abs(g.x_nodes) < np.pi / 4
        assert np.all(prof.values[middle] == 0.0)


class TestVerticalControl:
    def test_annihilates_x_constants(self, grid_2d, profile_64):
        # h = c(y): the mean subtraction removes everything
        u = kl.mode_field(grid_2d, 0, 2, amplitude=3.0)
        out = kl.apply_vertical_control(u, profile_64)
        assert out.norm() < 1e-14

    def test_single_mode_formula(self, profile_64):
        g = kl.TorusGrid(64)
        u = kl.mode_field(g, 1)
        out = kl.apply_vertical_control(u, profile_64)
        # quadrature oracle: g(x) (e^{ix} - integral g e^{ix'} dx')
        gv = profile_64.values
        moment = quad_integral(gv * np.exp(1j * g.x_nodes), g)
        expect = kl.forward_transform(gv * (np.exp(1j * g.x_nodes) - moment), g)
        assert np.max(np.abs(out.coeffs - expect.coeffs)) < 1e-14
        ghat_m1 = profile_64.g_hat[g.index_of_k(-1)]
        assert abs(moment - TWO_PI * ghat_m1) < 1e-13

    def test_self_adjoint(self, grid_2d, profile_64, rng):
        u = random_field(grid_2d, rng)
        v = random_field(grid_2d, rng)
        lhs = kl.apply_vertical_control(u, profile_64).inner(v)
        rhs = u.inner(kl.apply_vertical_control(v, profile_64))
        assert abs(lhs - rhs) < 1e-12

    def test_output_mean_free(self, grid_2d, profile_64, rng):
        for _ in range(100):
            u = random_field(grid_2d, rng)
            out = kl.apply_vertical_control(u, profile_64)
            row = out.coeffs[grid_2d.index_of_k(0)]
            assert np.max(np.abs(row)) <= 1e-14


class TestHorizontalControl:
    @pytest.fixture()
    def profile_y(self):
        return kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "hann-squared", kl.TorusGrid(16))

    def test_annihilates_y_independent(self, grid_2d, profile_y):
        for k in (1, 3):
            u = kl.mode_field(grid_2d, k, 0)
            assert kl.apply_horizontal_control(u, profile_y).norm() <= 1e-14

    def test_mixed_mode_nonzero(self, grid_2d, profile_y):
        u = kl.mode_field(grid_2d, 1, 1)
        out = kl.apply_horizontal_control(u, profile_y)
        # quadrature oracle
        g = grid_2d
        gy = profile_y.values
        samples = inverse_transform(u)
        mean = np.sum(gy[None, :] * samples, axis=1) * TWO_PI / g.ny
        expect = kl.forward_transform(gy[None, :] * (samples - mean[:, None]), g)
        assert out.norm() > 0.01
        assert np.max(np.abs(out.coeffs - expect.coeffs)) < 1e-14

    def test_self_adjoint(self, grid_2d, profile_y, rng):
        u = random_field(grid_2d, rng)
        v = random_field(grid_2d, rng)
        lhs = kl.apply_horizontal_control(u, profile_y).inner(v)
        rhs = u.inner(kl.apply_horizontal_control(v, profile_y))
        assert abs(lhs - rhs) < 1e-12

    def test_requires_2d(self, profile_y):
        with pytest.raises(DimensionError):
            kl.apply_horizontal_control(kl.mode_field(kl.TorusGrid(16), 1), profile_y)


class TestTimeFactor:
    def test_resonant_diagonal(self):
        assert time_factor(np.array(0.0), 1.7) == 1.7

    def test_series_branch_continuity(self):
        for delta in (1e-9, -1e-9):
            val = time_factor(np.array(delta), 1.0)
            assert abs(val - 1.0) <= 1e-8

    def test_matches_closed_form(self):
        delta = np.array([0.5, -3.0, 40.0])
        expect = (np.exp(1j * delta * 2.0) - 1.0) / (1j * delta)
        assert np.max(np.abs(time_factor(delta, 2.0) - expect)) < 1e-13

    @pytest.mark.parametrize("horizon", [0.001, 0.7, 2.0, 5.0])
    def test_near_resonance_against_mpmath(self, horizon):
        # the closed form cancels here: up to 4e-12 relative error for 1e-4 <= |T delta| < 1e-3
        z = np.geomspace(1e-7, 1e-3, 40, endpoint=False)
        delta = np.concatenate([z, -z]) / horizon
        with mp.workdps(40):
            expect = [
                complex((mp.expj(mp.mpf(horizon) * mp.mpf(d)) - 1) / (1j * mp.mpf(d)))
                for d in delta
            ]
        err = np.abs(time_factor(delta, horizon) - expect) / np.abs(expect)
        assert np.max(err) <= 2e-15

    def test_close_frequencies_pass_the_block_check(self):
        # off-diagonal entries with 1e-4 <= |T delta| <= 1e-3 once failed the hermiticity check
        omega = 1e-3 * np.random.default_rng(0).standard_normal(6)
        profile = kl.make_control_profile(-2.0, 1.0, "smooth-exp", kl.TorusGrid(1024))
        block = gramian_from_frequencies(0.7, np.arange(1, 7), omega, profile)
        assert block.matrix.shape == (6, 6)


class TestGramianBlocks:
    def test_diagonal_entries(self, profile_64, kp_params):
        block = kl.assemble_observability_gramian(1.3, 4, 2, profile_64, kp_params)
        g1 = kl.TorusGrid(64)
        for pos, k in enumerate(block.indices):
            e = kl.mode_field(g1, int(k))
            ge = kl.apply_vertical_control(e, profile_64)
            expect = 1.3 * ge.norm() ** 2 / TWO_PI
            assert abs(block.matrix[pos, pos].real - expect) < 1e-13

    def test_block_vs_quadrature_applicator(self, profile_64, kp_params, rng):
        grid = kl.TorusGrid(64, 8)
        block_cache = {
            l: kl.assemble_observability_gramian(1.0, 6, l, profile_64, kp_params)
            for l in range(-2, 3)
        }
        for _ in range(20):
            u = random_field(grid, rng, kmax=6, lmax=2)
            exact = TWO_PI**2 * sum(
                block_cache[l].quadratic_form(
                    np.array(
                        [u.coeff(int(k), l) for k in block_cache[l].indices]
                    )
                )
                for l in range(-2, 3)
            )
            quad = kl.observe.quadrature_observed_energy(
                u, 1.0, profile_64, kp_params, panels=32, order=24
            )
            assert abs(exact - quad) <= 1e-10 * max(exact, quad)

    def test_hermitian_and_psd(self, profile_64, kp_params):
        block = kl.assemble_observability_gramian(1.0, 8, 1, profile_64, kp_params)
        m = block.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * np.max(np.abs(m))
        floor = -1e-10 * np.trace(m).real / m.shape[0]
        assert block.eigenvalues[0] >= floor

    def test_window_guard(self, profile_64, kp_params):
        with pytest.raises(ParameterError):
            kl.assemble_observability_gramian(1.0, 40, 0, profile_64, kp_params)

    def test_assembly_allocates_little_beyond_the_block(self, profile_default):
        # a 754-mode window, the largest block of the lab's frequency scan;
        # the one-shot assembly peaked at 5.56 times the block, its check at 2.01
        idx = np.arange(-377, 378)
        idx = idx[idx != 0]
        omega = frequencies_1d(idx, kl.DispersionParams.reduced(2.0, 3.0)).astype(float)
        _gramian_kernel(profile_default, idx[:2], omega[:2], 1.0)  # the profile's DFTs
        tracemalloc.start()
        try:
            matrix = _gramian_kernel(profile_default, idx, omega, 1.0)
            kernel_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            GramianBlock(idx, 3, 1.0, matrix)
            block_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert kernel_peak <= 1.25 * matrix.nbytes
        assert block_peak <= 1.25 * matrix.nbytes

    def test_odd_frequencies_hold_no_negative_zero(self):
        # delta[n-1-i, n-1-j] and delta[j, i] round the same real number, but -0 - +0 is -0
        # where +0 - -0 is +0: a table with a -0 takes every entry of E
        assert _is_odd(np.array([-2.0, 0.0, 2.0]))
        assert not _is_odd(np.array([-2.0, -0.0, 2.0]))
        assert not _is_odd(np.array([-2.0, 1.0, 2.0]))
        # a stack is odd only if each of its blocks is
        assert not _is_odd(np.array([[-1.0, 1.0], [-1.0, 2.0]]))

    def test_odd_block_asks_for_about_half_its_phases(self, profile_default, monkeypatch):
        # a 256-mode floor block, 8 row slices of 32 rows: odd, its closed form runs on the
        # columns [0, n - a) of each slice [a, b), 0.5625 n^2 phases; shifted, on all n^2
        idx = np.arange(-128, 129)
        idx = idx[idx != 0]
        omega = frequencies_2d(idx, [5], kl.DispersionParams.kp1(2.0))[:, 0]
        asked = []

        def counting(delta, t):
            if t == 1.0:  # the closed form; the near-resonant entries take t = 0.5
                asked.append(np.size(delta))
            return unit_phases(delta, t)

        monkeypatch.setattr("kpilab.observe.unit_phases", counting)
        n = idx.size
        _gramian_kernel(profile_default, idx, omega, 1.0)
        assert sum(asked) <= 0.6 * n * n
        asked.clear()
        _gramian_kernel(profile_default, idx, omega + 1.0, 1.0)
        assert sum(asked) == n * n

    def test_block_zero_to_rounding_is_accepted(self):
        # a block of rounding noise, as a G that vanishes on the grid would give: entries of
        # 4e-17 whose hermiticity defect is of their own size, eigenvalues of either sign
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 11):
            noise = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
            noise *= 4e-17 / np.max(np.abs(noise))
            assert np.max(np.abs(noise - noise.conj().T)) > 0.5 * np.max(np.abs(noise))
            block = GramianBlock(np.arange(-3, 4), k, 1.0, noise, axis="y")
            assert np.max(np.abs(block.matrix)) < 1e-16
            assert np.max(np.abs(block.eigenvalues)) < 1e-15


class TestObservabilityRatio:
    def test_single_mode_time_independence(self, grid_2d, profile_64, kp_params):
        u = kl.mode_field(grid_2d, 3, 2)
        horizon = 1.7
        ratio = kl.observability_ratio(u, horizon, profile_64, kp_params)
        ge = kl.apply_vertical_control(u, profile_64)
        assert abs(ratio - horizon * ge.norm() ** 2 / u.norm() ** 2) < 1e-12

    def test_invisible_under_horizontal(self, grid_2d, kp_params):
        prof_y = kl.make_control_profile(0.3, 1.4, "hann-squared", kl.TorusGrid(16))
        u = kl.mode_field(grid_2d, 2, 0)
        ratio = kl.observability_ratio(
            u, 1.0, prof_y, kp_params, orientation="horizontal"
        )
        assert ratio <= 1e-14

    def test_gramian_vs_quadrature_two_modes(self, grid_2d, profile_64, kp_params, rng):
        coeffs = np.zeros(grid_2d.shape, dtype=complex)
        coeffs[grid_2d.index_of_k(1), grid_2d.index_of_l(1)] = 0.7 + 0.2j
        coeffs[grid_2d.index_of_k(2), grid_2d.index_of_l(-1)] = -0.4 + 1.1j
        u = kl.SpectralField(grid_2d, coeffs)
        a = kl.observability_ratio(u, 1.0, profile_64, kp_params, method="gramian")
        b = kl.observability_ratio(
            u, 1.0, profile_64, kp_params, method="quadrature", panels=4, order=16
        )
        assert abs(a - b) <= 1e-10 * a

    def test_phase_invariance(self, grid_2d, profile_64, kp_params, rng):
        u = random_field(grid_2d, rng, kmax=5, lmax=3)
        a = kl.observability_ratio(u, 1.0, profile_64, kp_params)
        b = kl.observability_ratio(u * np.exp(0.73j), 1.0, profile_64, kp_params)
        assert abs(a - b) <= 1e-13 * max(a, 1.0)

    def test_operator_norm_bound(self, grid_2d, profile_64, kp_params, rng):
        horizon = 1.0
        bound = horizon * (2.0 * profile_64.values.max()) ** 2 * 1.01
        for _ in range(10):
            u = random_field(grid_2d, rng, kmax=8, lmax=4)
            assert kl.observability_ratio(u, horizon, profile_64, kp_params) <= bound

    def test_zero_field_rejected(self, grid_2d, profile_64, kp_params):
        with pytest.raises(ConstraintError):
            kl.observability_ratio(kl.zero_field(grid_2d), 1.0, profile_64, kp_params)


class TestQuadratureLines:
    """The quadrature oracle observes the control-axis lines that carry the field."""

    def test_zero_field_has_zero_energy(self, grid_1d, grid_2d, profile_64, kp_params):
        reduced = kl.DispersionParams.reduced(2.0, 1.0)
        for grid, params in ((grid_2d, kp_params), (grid_1d, reduced)):
            zero = kl.zero_field(grid)
            assert quadrature_observed_energy(zero, 1.0, profile_64, params, panels=2) == 0.0

    def test_orientation_is_checked_before_any_evolution(self, grid_1d, grid_2d, profile_64):
        # x-mean content, which the evolution refuses with a ConstraintError
        with pytest.raises(ParameterError):
            quadrature_observed_energy(
                kl.mode_field(grid_2d, 0, 1), 1.0, profile_64, kl.DispersionParams.kp1(2.0),
                orientation="diagonal",
            )
        with pytest.raises(DimensionError):
            quadrature_observed_energy(
                kl.mode_field(grid_1d, 0), 1.0, profile_64, kl.DispersionParams.reduced(2.0, 1.0),
                orientation="horizontal",
            )


def _mp_legendre_rule(order, seeds):
    """The Gauss-Legendre rule at the working precision: Newton on the recurrence from seeds."""

    def legendre(x):
        p0, p1 = mp.mpf(1), x
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, order * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    for seed in seeds:
        x = mp.mpf(seed)
        for _ in range(10):
            value, slope = legendre(x)
            x -= value / slope
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * legendre(x)[1] ** 2))
    return nodes, weights


class TestLegendreRule:
    """One generator, ``_legendre_rule``, for the composite rule and its three levels."""

    def test_rule_is_the_40_digit_rule(self):
        with mp.workdps(40):
            for order in range(1, 49):
                nodes, weights = _legendre_rule(order)
                exact, exact_w = _mp_legendre_rule(order, nodes.tolist())
                # order distinct roots of P_order in (-1, 1), ascending: all of them
                assert -1 < exact[0] and exact[-1] < 1
                assert all(a < b for a, b in zip(exact, exact[1:])), order
                assert np.array_equal(nodes, -nodes[::-1])
                assert np.array_equal(weights, weights[::-1])
                assert max(abs(mp.mpf(a) - b) for a, b in zip(nodes.tolist(), exact)) <= 2e-16
                worst = max(abs(mp.mpf(a) - b) / b for a, b in zip(weights.tolist(), exact_w))
                assert worst <= 1e-13, order

    # panels -> m, the largest divisor of panels at most its square root
    @pytest.mark.parametrize("panels, m", [(1, 1), (2, 1), (7, 1), (9, 3), (12, 3), (256, 16)])
    def test_levels_reproduce_the_composite_rule(self, panels, m):
        horizon = 1.3
        (coarse, ones), (fine, _), (offsets, weights) = gauss_legendre_levels(horizon, panels, 24)
        assert (coarse.size, fine.size) == (panels // m, m) and np.all(ones == 1.0)
        nodes, node_weights = gauss_legendre_nodes(horizon, panels, 24)
        product = (coarse[:, None, None] + fine[:, None] + offsets).ravel()
        assert np.array_equal(nodes, product.astype(float))
        # panel start plus offset, in float64
        x, w = _legendre_rule(24)
        width = horizon / panels
        expect = (width * np.arange(panels)[:, None] + width * (x + 1.0) / 2.0).ravel()
        assert np.max(np.abs(nodes - expect)) <= 2 * np.finfo(float).eps * horizon
        assert np.array_equal(node_weights, np.tile(w * width / 2.0, panels))
        assert np.all(np.diff(nodes) > 0) and 0 < nodes[0] and nodes[-1] < horizon

    @settings(max_examples=60, deadline=None)
    @given(
        omega=st.lists(st.floats(-600.0, 600.0), min_size=1, max_size=4),
        horizon=st.floats(0.05, 2.0),
        panels=st.integers(1, 400),
        order=st.integers(1, 48),
        data=st.data(),
    )
    def test_level_phases_are_the_exact_phase(self, omega, horizon, panels, order, data):
        # the product of a node's three level phases against exp(i omega t) at the exact node
        # (c m + d) W + W (x_b + 1) / 2, W = T / panels, from the float64 Legendre node x_b
        levels = gauss_legendre_levels(horizon, panels, order)
        omega = np.array(omega)
        phases = [unit_phases(omega, times) for times, _ in levels]
        picks = [
            [data.draw(st.integers(0, len(times) - 1)) for times, _ in levels] for _ in range(8)
        ]
        base = _legendre_rule(order)[0]
        fine = len(levels[1][0])
        with mp.workdps(40):
            width = mp.mpf(horizon) / panels
            for c, d, b in picks:
                time = (c * fine + d) * width + width * (mp.mpf(base[b]) + 1) / 2
                table = phases[0][c] * phases[1][d] * phases[2][b]
                for k, w in enumerate(omega.tolist()):
                    assert abs(mp.mpc(complex(table[k])) - mp.expj(mp.mpf(w) * time)) <= 2e-15
        # the first start of either level is the time 0, whose phase is exactly 1
        assert np.all(phases[0][0] == 1.0) and np.all(phases[1][0] == 1.0)


class TestObservabilityConstant:
    def test_horizontal_y_independent_sector_degenerate(self, kp_params):
        prof_y = kl.make_control_profile(0.3, 1.4, "hann-squared", kl.TorusGrid(16))
        block = kl.assemble_horizontal_gramian(1.0, 0, 3, prof_y, kp_params)
        assert block.indices.tolist() == [0]
        assert abs(block.eigenvalues[0]) <= 1e-12

    def test_vertical_floor_positive(self, profile_default, kp_params):
        blocks = [
            kl.assemble_observability_gramian(1.0, 8, l, profile_default, kp_params)
            for l in range(-2, 3)
        ]
        estimate = kl.observability_constant(blocks)
        assert estimate.lambda_min > 0
        assert estimate.constant == pytest.approx(1.0 / estimate.lambda_min)

    def test_monotone_in_horizon(self, profile_default, kp_params):
        lo = kl.assemble_observability_gramian(1.0, 8, 4, profile_default, kp_params)
        hi = kl.assemble_observability_gramian(2.0, 8, 4, profile_default, kp_params)
        assert hi.eigenvalues[0] >= lo.eigenvalues[0] * (1.0 - 1e-12)
        # the increment form over [T1, T2] is itself PSD
        diff = np.linalg.eigvalsh(hi.matrix - lo.matrix)[0]
        assert diff >= -1e-12 * np.max(np.abs(hi.matrix))


def _mp_moments(profile, count, dps=80):
    """The g^2 moments ``integral g^2 e^{imx} dx``, m = 0 .. count - 1, by mp.fsum.

    Summed node by node, one complex exponential per (m, node) pair.
    """
    nx = profile.grid.nx
    with mp.workdps(dps):
        gsq = [(j, mp.mpf(float(v)) ** 2) for j, v in enumerate(profile.values) if v != 0.0]
        moments = []
        for m in range(count):
            phases = (v * mp.expjpi(mp.mpf(2 * m * j) / nx) for j, v in gsq)
            moments.append((-1) ** m * 2 * mp.pi / nx * mp.fsum(phases))
        return moments


def _mp_bottom_eigenvalue(profile, m0, dps=80):
    """Smallest eigenvalue of the order-m0 Toeplitz block by dense mp.eigh."""
    n = 2 * m0 + 1
    moments = _mp_moments(profile, n, dps)
    with mp.workdps(dps):
        block = mp.matrix(n, n)
        for r in range(n):
            for c in range(n):
                block[r, c] = moments[c - r] if c >= r else mp.conj(moments[r - c])
        return mp.eigh(block, eigvals_only=True)[0]


def _to_fixed(value, bits):
    """Real and imaginary parts of the mpmath number ``value * 2**bits``, floored to ints."""
    c = mp.mpc(value)
    return mp.libmp.to_fixed(c.real._mpf_, bits), mp.libmp.to_fixed(c.imag._mpf_, bits)


class TestSpectralConstant:
    def test_kappa_zero(self, profile_default):
        g = profile_default.grid
        gsq_integral = np.sum(profile_default.values**2) * g.cell_volume
        assert abs(kl.spectral_constant(profile_default, 0) - 1.0 / gsq_integral) < 1e-10

    def test_monotone_prefix(self, profile_default):
        table = kl.spectral_constant_table(profile_default, 12)
        assert all(table[m + 1] >= table[m] for m in range(12))

    def test_matches_float_eigensolve_small_orders(self, profile_default):
        # the dense float64 eigensolve is still trustworthy while the
        # smallest eigenvalue sits far above machine epsilon
        for m0 in (0, 1, 2, 3):
            mat = concentration_matrix(profile_default, m0)
            lam = np.linalg.eigvalsh(mat)[0]
            assert kl.spectral_constant(profile_default, m0) == pytest.approx(
                1.0 / lam, rel=1e-6
            )

    def test_random_polynomials_satisfy_inequality(self, profile_default, rng):
        g = profile_default.grid
        for m0 in (2, 5, 8):
            kappa = kl.spectral_constant(profile_default, m0)
            idx = np.arange(-m0, m0 + 1)
            phases = np.exp(1j * np.outer(g.x_nodes, idx))
            for _ in range(100):
                c = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
                p = phases @ c
                rhs = np.sum((profile_default.values * np.abs(p)) ** 2) * g.cell_volume
                assert np.sum(np.abs(c) ** 2) <= kappa * rhs * (1.0 + 1e-8)

    @pytest.mark.parametrize(
        "intervals, kind, nx",
        [
            ([(np.pi / 4, 3 * np.pi / 4)], "smooth-exp", 1024),  # symmetric about a node
            ([(0.3, 1.7)], "hann-squared", 256),  # no node at the centre
            ([(-2.6, -1.4), (0.3, 2.1)], "hann-squared", 512),
        ],
    )
    def test_matches_dense_mpmath_eigensolve(self, intervals, kind, nx):
        # mp.eigh shares no code with the Cholesky and inverse-power path
        profile = kl.make_region_profile(intervals, kind, kl.TorusGrid(nx))
        table = kl.spectral_constant_table(profile, 6)
        for m0 in range(7):
            kappa = 1 / float(_mp_bottom_eigenvalue(profile, m0))
            assert abs(table[m0] - kappa) <= 1e-12 * kappa

    def test_deep_order_matches_dense_mpmath_eigensolve(self, profile_default):
        # at m0 = 12 the bottom eigenvalue is about 4e-36, far below float64
        table = kl.spectral_constant_table(profile_default, 12)
        kappa = 1 / float(_mp_bottom_eigenvalue(profile_default, 12, dps=100))
        assert kappa > 1e35
        assert abs(table[12] - kappa) <= 1e-12 * kappa

    @pytest.mark.parametrize("points, size", [(1, 1), (3, 3), (6, 5), (9, 7)])
    def test_fixed_point_factor_matches_mp_cholesky(self, points, size):
        # the moments sum_j w_j e^{i m t_j} of a positive measure on `points`
        # atoms give a positive-definite Toeplitz matrix while size <= points
        rng = np.random.default_rng(points)
        weights, angles = rng.uniform(0.1, 1.0, points), rng.uniform(-3.0, 3.0, points)
        atoms = [(float(w), float(t)) for w, t in zip(weights, angles)]
        with mp.workdps(60):
            moments = [mp.fsum(w * mp.expj(m * t) for w, t in atoms) for m in range(size)]
            matrix = mp.matrix(size, size)
            for r in range(size):
                for c in range(size):
                    matrix[r, c] = moments[c - r] if c >= r else mp.conj(moments[r - c])
            lower = mp.cholesky(matrix)
            bits = mp.mp.prec + 64
            fixed = [_to_fixed(c, bits) for c in moments]
            re, im, diag = _fixed_cholesky(fixed, size, bits)
            for i in range(size):
                row = [mp.mpc(mp.ldexp(a, -bits), mp.ldexp(b, -bits)) for a, b in zip(re[i], im[i])]
                for k, entry in enumerate([*row, mp.ldexp(diag[i], -bits)]):
                    assert abs(entry - lower[i, k]) <= 1e-57 * abs(lower[i, i])

    def test_fixed_point_factor_rejects_a_singular_matrix(self):
        # [[1, 1], [1, 1]]: the second pivot is zero
        bits = _working_precision(0) + 64
        with pytest.raises(NumericalConsistencyError, match="singular"):
            _fixed_cholesky([(1 << bits, 0), (1 << bits, 0)], 2, bits)

    def test_unconverged_sweeps_raise(self):
        # [[1, .499, .5], [.499, 1, .499], [.5, .499, 1]]: the two lowest
        # eigenvalues are .5 and about .5015, so inverse power crawls and an
        # 80-sweep cut would leave the estimate 0.26% high
        bits = _working_precision(0) + 64
        with mp.workdps(50):
            moments = [_to_fixed(mp.mpf(v), bits) for v in ("1", "0.499", "0.5")]
        with pytest.raises(NumericalConsistencyError, match="m0 = 1.*change"):
            _bottom_eigenvalues(moments, 1, bits)

    def test_warm_start_finds_a_bottom_eigenvector_of_the_other_parity(self):
        # [[1, 0, .5], [0, 1, 0], [.5, 0, 1]] has eigenvalues .5 (odd vector
        # (1, 0, -1)), 1 and 1.5; the order-0 vector padded with zeros is even
        bits = _working_precision(0) + 64
        moments = [(1 << bits, 0), (0, 0), (1 << bits - 1, 0)]
        lams = _bottom_eigenvalues(moments, 1, bits)
        assert [zz / yy for zz, yy in lams] == [1.0, 0.5]

    def test_a_constant_past_the_float_range_is_infinite(self):
        # [[1, 0, c], [0, 1, 0], [c, 0, 1]] with 1 - c = 2**-1100: kappa(1) = 2**1100
        bits = 1200
        moments = [(1 << bits, 0), (0, 0), ((1 << bits) - (1 << bits - 1100), 0)]
        lams = _bottom_eigenvalues(moments, 1, bits)
        assert [_quotient(yy, zz) for zz, yy in lams] == [1.0, np.inf]

    def test_an_order_past_the_support_nodes_is_singular(self):
        # the order-(2 m0 + 1) matrix sums one rank-one term per support node, so past the
        # node count it is exactly singular
        grid = kl.TorusGrid(64)
        profile = kl.make_region_profile([(np.pi / 4, 3 * np.pi / 4)], "smooth-exp", grid)
        nodes = np.count_nonzero(profile.values)
        assert nodes == 15
        assert np.isfinite(kl.spectral_constant_table(profile, 7)).all()
        with pytest.raises(NumericalConsistencyError, match="singular"):
            kl.spectral_constant_table(profile, 8)

    @pytest.mark.parametrize(
        "intervals, kind, nx",
        [
            ([(np.pi / 4, 3 * np.pi / 4)], "smooth-exp", 1024),
            ([(0.3, 1.7)], "hann-squared", 256),
            ([(-2.6, -1.4), (0.3, 2.1)], "hann-squared", 512),
            ([(-3.1, 3.1)], "hann-squared", 4),
        ],
    )
    @pytest.mark.parametrize("m_max", [0, 6])
    def test_integer_moments_match_mpmath(self, intervals, kind, nx, m_max):
        # 80 digits resolve 2**-269, below the working precision of either order
        profile = kl.make_region_profile(intervals, kind, kl.TorusGrid(nx))
        prec = _working_precision(m_max)
        bits = prec + 64
        moments = _concentration_moments(profile, 2 * m_max, bits)
        exact = _mp_moments(profile, 2 * m_max + 1)
        with mp.workdps(80):
            bound = mp.ldexp(abs(exact[0]), -prec)
            for (re, im), value in zip(moments, exact):
                assert abs(mp.mpc(mp.ldexp(re, -bits), mp.ldexp(im, -bits)) - value) <= bound

    @pytest.mark.parametrize("nx", [4, 64, 1024, 2**20])
    @pytest.mark.parametrize("m_max", [0, 32])
    def test_machin_step_and_root_of_unity_match_mpmath(self, nx, m_max):
        bits = _working_precision(m_max) + 64
        angle, (c, d) = _node_step(nx, bits)
        with mp.workdps(bits // 3 + 20):
            ulp = mp.ldexp(1, -bits)
            assert abs(mp.ldexp(angle, -bits) - 2 * mp.pi / nx) <= ulp
            root = mp.expjpi(mp.mpf(2) / nx)
            assert abs(mp.ldexp(c, -bits) - root.real) <= ulp
            assert abs(mp.ldexp(d, -bits) - root.imag) <= ulp

    def test_window_guard(self, profile_64):
        with pytest.raises(ParameterError):
            kl.spectral_constant(profile_64, 40)


from hypothesis import example, given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(-1e6, 1e6, allow_nan=False),
    horizon=st.floats(0.01, 10.0, allow_nan=False),
)
# |T delta| = 1.2e-4: the closed form's reflection defect was 4.0e-12 here
@example(delta=6.103515625e-05, horizon=2.0)
def test_time_factor_properties(delta, horizon):
    import numpy as np

    val = complex(time_factor(np.array(delta), horizon))
    # magnitude bound of the oscillatory kernel
    bound = horizon if delta == 0 else min(horizon, 2.0 / abs(delta))
    assert abs(val) <= bound * (1.0 + 1e-12) + 1e-12
    # reflection symmetry
    mirrored = complex(time_factor(np.array(-delta), horizon))
    assert abs(mirrored - val.conjugate()) <= 1e-12 * max(1.0, abs(val))
