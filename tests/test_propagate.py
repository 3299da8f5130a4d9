import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kpilab as kl
from kpilab.errors import ConstraintError, DimensionError, ParameterError
from kpilab.dispersion import semiclassical_frequencies, unit_phases
from kpilab.experiments import random_field
from kpilab.observe import gauss_legendre_levels
from kpilab.propagate import _cached_grid_frequencies, _kept_modes, _support


class TestExactEvolution:
    def test_time_zero_is_bitwise_identity(self, grid_2d, kp_params, rng):
        u = random_field(grid_2d, rng)
        out = kl.evolve(u, 0.0, kp_params)
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_full_period_mode(self, grid_2d, kp_params):
        # omega(1, 1) = 2, so t = pi gives phase exp(2*pi*i) = 1
        u = kl.mode_field(grid_2d, 1, 1)
        out = kl.evolve(u, np.pi, kp_params)
        assert np.max(np.abs(out.coeffs - u.coeffs)) < 1e-13

    def test_rk4_oracle_agreement(self, grid_2d, kp_params, rng):
        u = random_field(grid_2d, rng, kmax=4, lmax=4)
        exact = kl.evolve(u, 0.7, kp_params)
        approx = kl.rk4_reference_evolve(u, 0.7, 10_000, kp_params)
        assert np.max(np.abs(exact.coeffs - approx.coeffs)) < 1e-8

    def test_unitarity(self, kp_params, rng):
        g = kl.TorusGrid(128, 16)
        for _ in range(100):
            u = random_field(g, rng)
            for t in (0.1, 1.0, 10.0):
                out = kl.evolve(u, t, kp_params)
                assert abs(out.norm() - u.norm()) <= 1e-12 * u.norm()

    def test_group_law_and_reversal(self, grid_2d, kp_params, rng):
        u = random_field(grid_2d, rng)
        two_step = kl.evolve(kl.evolve(u, 0.3, kp_params), 0.4, kp_params)
        one_step = kl.evolve(u, 0.7, kp_params)
        assert np.max(np.abs(two_step.coeffs - one_step.coeffs)) < 1e-12
        back = kl.evolve(one_step, -0.7, kp_params)
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12

    def test_commutes_with_frequency_blocks(self, kp_params, rng):
        g = kl.TorusGrid(64, 8)
        u = random_field(g, rng)
        a = kl.littlewood_paley_block(kl.evolve(u, 0.9, kp_params), 1, 0.25)
        b = kl.evolve(kl.littlewood_paley_block(u, 1, 0.25), 0.9, kp_params)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15

    def test_mean_mass_rejected_with_offending_l(self, grid_2d, kp_params):
        u = kl.mode_field(grid_2d, 0, 3)
        with pytest.raises(ConstraintError, match="l=3"):
            kl.evolve(u, 1.0, kp_params)

    def test_nyquist_zeroed(self, grid_2d, kp_params):
        u = kl.mode_field(grid_2d, -grid_2d.nx // 2, 1)
        out = kl.evolve(u, 0.5, kp_params)
        assert out.norm() == 0.0

    def test_mode_mismatch(self, grid_1d, kp_params):
        with pytest.raises(DimensionError):
            kl.evolve(kl.mode_field(grid_1d, 1), 1.0, kp_params)


def _all_plus_zero(a: np.ndarray) -> bool:
    """Every real and imaginary part of ``a`` is +0.0: all bits clear."""
    return not np.ascontiguousarray(a).view(np.uint64).any()


class TestSupportPhases:
    def test_phases_are_asked_for_on_the_support_only(self, monkeypatch, kp_params):
        asked = []

        def counted(omega, t):
            asked.append(np.size(omega) * np.size(t))
            return unit_phases(omega, t)

        monkeypatch.setattr(kl.propagate, "unit_phases", counted)
        grid = kl.TorusGrid(512, 64)
        u0 = random_field(grid, np.random.default_rng(21), kmax=8, lmax=4)
        # 16 x 9 nonzero coefficients of the 32,130 kept modes
        assert _support(u0).sum() == 144 and _kept_modes(grid).sum() == 32_130
        kl.evolve_many(u0, np.linspace(0.2, 1.0, 5), kp_params)
        kl.evolve(u0, 0.7, kp_params)
        assert asked == [5 * 144, 144]

    def test_one_mode_at_one_time_keeps_the_full_grid_bits(self, grid_2d, kp_params, rng):
        # one coefficient times one phase must take the complex product of the full grid
        omega = _cached_grid_frequencies(grid_2d, kp_params)
        for _ in range(50):
            k, l = int(rng.integers(1, 20)), int(rng.integers(-5, 6))
            u0 = kl.mode_field(grid_2d, k, l, complex(*rng.standard_normal(2)))
            t = float(rng.uniform(-5.0, 5.0))
            expect = np.where(u0.coeffs != 0, u0.coeffs * unit_phases(omega, t), 0.0)
            assert kl.evolve(u0, t, kp_params).coeffs.tobytes() == expect.tobytes()

    def test_zero_field_evolves_to_plus_zero(self, grid_2d, kp_params):
        for zero in (0.0, complex(-0.0, -0.0)):
            u0 = kl.SpectralField(grid_2d, np.full(grid_2d.shape, zero))
            stack = kl.evolve_many(u0, [0.0, 0.7, -3.0], kp_params)
            assert stack.shape == (3,) + grid_2d.shape and _all_plus_zero(stack)

    def test_zeros_of_either_sign_come_out_plus_zero(self, grid_2d, kp_params, rng):
        u0 = random_field(grid_2d, rng, kmax=6, lmax=3)
        zero = u0.coeffs == 0
        signs = rng.integers(0, 4, grid_2d.shape)
        signed = np.array([0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
        mixed = u0.with_coeffs(np.where(zero, signed[signs], u0.coeffs))
        assert np.signbit(mixed.coeffs.view(float)).any()
        stack = kl.evolve_many(mixed, [0.3, 1.1], kp_params)
        assert _all_plus_zero(stack[:, zero])
        assert stack.tobytes() == kl.evolve_many(u0, [0.3, 1.1], kp_params).tobytes()


class TestModewiseReduction:
    def test_single_mode_phase(self, grid_2d, kp_params):
        u = kl.mode_field(grid_2d, 1, 2)
        a = kl.evolve(u, 1.0, kp_params)
        b = kl.evolve_modewise(u, 1.0, 2.0)
        assert abs(a.coeff(1, 2) - np.exp(5j)) < 1e-13
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13

    def test_zero_transverse_slice_is_pure_airy(self, grid_2d):
        u = kl.mode_field(grid_2d, 3, 0)
        out = kl.evolve_modewise(u, 0.25, 2.0)
        assert abs(out.coeff(3, 0) - np.exp(1j * 0.25 * 27.0)) < 1e-13

    def test_matches_full_multiplier(self, grid_2d, kp_params, rng):
        for _ in range(5):
            u = random_field(grid_2d, rng)
            a = kl.evolve(u, 0.7, kp_params)
            b = kl.evolve_modewise(u, 0.7, 2.0)
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13


class TestSemiclassical:
    def test_time_zero_identity(self, rng):
        g = kl.TorusGrid(64)
        p = kl.DispersionParams.reduced(2.0, 1.0)
        u = random_field(g, rng, kmax=4)  # stay clear of the singular mode
        out = kl.evolve_semiclassical(u, 0.0, 0.125, p)
        # identical up to the masked singular/Nyquist modes, which carry no mass
        assert np.max(np.abs(out.coeffs - u.coeffs)) == 0.0

    def test_gauge_kills_near_critical_phase(self):
        # the gauged frequency at the mode nearest r_h is O(curvature * h)
        p = kl.DispersionParams.reduced(2.0, 1.0)
        h = 1.0 / 64.0
        from kpilab.dispersion import semiclassical_frequencies

        g = kl.TorusGrid(64)
        omega, shift = semiclassical_frequencies(g.k_values, h, p)
        data = kl.semiclassical_translation(h, p)
        k_near = int(round(data.r_h))
        val = abs(float(omega[g.index_of_k(k_near)]))
        curvature_scale = data.phi_pp / (2.0 * h ** (1.0 + p.alpha))
        assert val <= curvature_scale * (h * (k_near - data.r_h)) ** 2 * 1.01 + 1e-12

    def test_substitution_equivalence_oracle(self, rng):
        # undoing the modulation reproduces the reduced evolution with the
        # enlarged transverse parameter, up to the global gauge phase
        alpha, h, t = 2.0, 0.125, 0.37
        p = kl.DispersionParams.reduced(alpha, 1.0)
        shift = kl.critical_shift(h, p)
        g = kl.TorusGrid(256)
        w = random_field(g, rng, kmax=5)  # stay clear of the singular mode at -shift

        lam_eff = h ** (-(2.0 + alpha) / 2.0)
        p_eff = kl.DispersionParams.reduced(alpha, lam_eff)
        v_coeffs = np.zeros(g.nx, dtype=complex)
        active = np.nonzero(np.abs(w.coeffs) > 0)[0]
        v_coeffs[active + shift] = w.coeffs[active]
        v = kl.SpectralField(g, v_coeffs)

        via_semiclassical = kl.evolve_semiclassical(w, t, h, p)
        evolved_v = kl.evolve(v, t, p_eff)
        from kpilab.dispersion import unit_phases
        import numpy as _np

        xi0 = kl.critical_points(p)[0].xi0
        gauge = unit_phases(
            _np.array((abs(xi0) ** alpha * xi0 + 1.0 / xi0) / h ** (1.0 + alpha)), -t
        )
        back = evolved_v.coeffs[active + shift] * gauge
        assert np.max(np.abs(via_semiclassical.coeffs[active] - back)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_keeps_the_bits_of_the_phase_product(self, rng, alpha):
        # the frame's own formula before it took the one evolution path: coefficients times
        # unit_phases of the translated table, Nyquist and singular modes zeroed after
        g, h = kl.TorusGrid(64), 0.125
        p = kl.DispersionParams.reduced(alpha, 1.0)
        omega, shift = semiclassical_frequencies(g.k_values, h, p)
        singular = g.index_of_k(-shift)
        coeffs = random_field(g, rng, kmax=9).coeffs.copy()
        coeffs[0] = 1.0  # Nyquist content, which the evolution drops
        coeffs[singular] = 1e-16  # below the singular mode's mass guard
        w0 = kl.SpectralField(g, coeffs)
        kept = coeffs != 0
        kept[[0, singular]] = False
        times = np.array([0.0, 0.37, -2.5, 11.0])
        stack = kl.evolve_semiclassical(w0, times, h, p)
        for t, row in zip(times, stack):
            out = kl.evolve_semiclassical(w0, t, h, p).coeffs
            assert np.array_equal(out, row)
            assert np.all(out[kept] == (coeffs * unit_phases(omega, t))[kept])
            dropped = np.concatenate([out[~kept].real, out[~kept].imag])
            assert np.all(dropped == 0.0) and not np.any(np.signbit(dropped))

    def test_singular_mode_guard(self):
        g = kl.TorusGrid(64)
        p = kl.DispersionParams.reduced(2.0, 1.0)
        shift = kl.critical_shift(0.125, p)  # inside the window for h=1/8
        u = kl.mode_field(g, -shift)
        with pytest.raises(ConstraintError):
            kl.evolve_semiclassical(u, 1.0, 0.125, p)

    def test_h_range(self, grid_1d):
        p = kl.DispersionParams.reduced(2.0, 1.0)
        with pytest.raises(ParameterError):
            kl.evolve_semiclassical(kl.mode_field(grid_1d, 1), 1.0, 2.0, p)


class TestRK4Oracle:
    def test_single_step_matches_taylor(self):
        g = kl.TorusGrid(16)
        p = kl.DispersionParams.reduced(2.0, 0.0)
        u = kl.mode_field(g, 2)
        t = 0.01
        out = kl.rk4_reference_evolve(u, t, 1, p)
        z = 1j * t * 8.0
        taylor = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
        assert abs(out.coeff(2) - taylor) < 1e-15

    def test_fourth_order_convergence(self, grid_2d, kp_params, rng):
        u = random_field(grid_2d, rng, kmax=4, lmax=3)
        exact = kl.evolve(u, 0.5, kp_params)
        err = []
        for steps in (50, 100):
            approx = kl.rk4_reference_evolve(u, 0.5, steps, kp_params)
            err.append(np.max(np.abs(approx.coeffs - exact.coeffs)))
        ratio = err[0] / err[1]
        assert 10.0 < ratio < 22.0

    def test_steps_validation(self, grid_2d, kp_params):
        with pytest.raises(ParameterError):
            kl.rk4_reference_evolve(kl.mode_field(grid_2d, 1, 0), 1.0, 0, kp_params)


class TestLatticePhases:
    """The panel starts of the composite Gauss-Legendre rule as a two-level table.

    Panel ``c m + d`` starts at ``c m W + d W``, W = T / panels; the verifier forms the phase at
    a start, forward or backward in time, as the product of the phases of its two levels.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        omega=st.lists(st.floats(-600.0, 600.0), min_size=1, max_size=4),
        horizon=st.floats(0.05, 2.0),
        panels=st.integers(1, 5000),
        count=st.integers(1, 300),
        incoming=st.booleans(),
        data=st.data(),
    )
    def test_two_level_table_is_the_exact_phase(
        self, omega, horizon, panels, count, incoming, data
    ):
        # count consecutive starts j = c m + d, against exp(i sign omega j W) at 40 digits
        (coarse, _), (fine, _), _ = gauss_legendre_levels(horizon, panels, 1)
        size = fine.size
        count = min(count, panels)
        j = data.draw(st.integers(0, panels - count)) + np.arange(count)
        c, d = np.divmod(j, size)
        sign, omega = (1 if incoming else -1), np.array(omega)
        table = unit_phases(omega, sign * coarse[c]) * unit_phases(omega, sign * fine[d])
        assert table.shape == (count, len(omega))
        with mp.workdps(40):
            width = mp.mpf(horizon) / panels
            worst = max(
                abs(mp.mpc(complex(table[i, k])) - mp.expj(sign * mp.mpf(w) * ji * width))
                for i, ji in enumerate(j.tolist())
                for k, w in enumerate(omega.tolist())
            )
        assert worst <= 2e-15
        assert np.all(table[j == 0] == 1.0)

    def test_zero_offset_is_exactly_one(self):
        # at 200 panels (m = 10) the first start of either level is the time 0, and its phase,
        # forward or backward, is exactly 1
        omega = np.array([-4096.0, -1.5, 0.0, 2.0, 517.25, 4096.0])
        (coarse, _), (fine, _), _ = gauss_legendre_levels(1.0, 200, 24)
        assert (coarse.size, fine.size) == (20, 10)
        for sign in (1, -1):
            one = unit_phases(omega, sign * coarse[:1])[0] * unit_phases(omega, sign * fine[:1])[0]
            assert np.all(one == 1.0)
            assert np.all(one.imag == 0.0)
