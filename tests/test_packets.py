import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import kpilab as kl
from kpilab import packets
from kpilab.cli import main
from kpilab.errors import NumericalConsistencyError, ParameterError, TruncationError
from kpilab.fourier import TWO_PI
from kpilab.packets import (
    MAX_PACKET_NX,
    PacketParams,
    packet_cutoff,
    packet_grid,
    packet_observed_ratio,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _lab_run_inputs() -> list[tuple[float, int]]:
    """The distinct (eps, |k|) of the dichotomies at alpha 0.5, 1 and 2 over n = 4..12."""
    pairs = set()
    for alpha in (0.5, 1.0, 2.0):
        params = PacketParams(alpha=alpha)
        for n in range(4, 13):
            k = packet_grid(params, n).k_values
            window = packet_cutoff(params.htilde(n) * k, params.small_cutoff, params.big_cutoff)
            pairs.update((params.eps(n), abs(int(m))) for m in k[window > 0.0])
    return sorted(pairs)


def _quad_coefficient(eps: float, k: int) -> float:
    """The coefficient through ``scipy.integrate.quad`` with the package's settings."""
    val = quad(
        lambda z: math.exp(-0.5 * z * z), 0.0, math.pi / eps, weight="cos", wvar=eps * k,
        epsabs=1e-13, epsrel=1e-11, limit=400,
    )[0]
    return math.sqrt(eps) / TWO_PI * 2.0 * val


class TestGaussianCoefficients:
    def test_zero_frequency_value(self):
        # sqrt(eps/(2 pi)) up to a super-exponentially small truncation error
        val = kl.gaussian_packet_coefficients(0.01, np.array(0))
        assert abs(val - 0.0398942) < 1e-6

    def test_even_symmetry(self):
        eps = 0.05
        ks = np.arange(-40, 41)
        vals = kl.gaussian_packet_coefficients(eps, ks)
        assert np.max(np.abs(vals - vals[::-1])) < 1e-14

    def test_matches_closed_form(self):
        # the untruncated transform is sqrt(eps/2pi) exp(-(eps k)^2 / 2)
        eps = 0.05
        ks = np.arange(0, 60, 7)
        vals = kl.gaussian_packet_coefficients(eps, ks)
        closed = np.sqrt(eps / TWO_PI) * np.exp(-((eps * ks) ** 2) / 2.0)
        assert np.max(np.abs(vals - closed)) < 1e-12

    def test_sup_norm_scale(self):
        for eps in (0.1, 0.05, 0.01):
            ks = np.arange(-200, 201)
            vals = kl.gaussian_packet_coefficients(eps, ks)
            assert np.max(np.abs(vals)) <= np.sqrt(eps)

    def test_difference_scale(self):
        # integer finite differences stand in for the derivative bound
        for eps in (0.1, 0.01):
            ks = np.arange(-300, 301)
            vals = kl.gaussian_packet_coefficients(eps, ks)
            assert np.max(np.abs(np.diff(vals))) <= 2.0 * eps**1.5

    def test_eps_range(self):
        with pytest.raises(ParameterError):
            kl.gaussian_packet_coefficients(1.5, np.array(0))


class TestDirectQuadpack:
    def test_lab_run_inputs_are_bit_equal_to_quad(self):
        pairs = _lab_run_inputs()
        assert len(pairs) == 210
        assert [packets._gaussian_coefficient(e, k) for e, k in pairs] == [
            _quad_coefficient(e, k) for e, k in pairs
        ]

    @pytest.mark.parametrize(
        "eps, k", [(0.01, 0), (0.5, 0), (0.999, 0), (0.9, 123457), (0.5, 10**6), (0.05, 10**7)]
    )
    def test_edge_inputs_are_bit_equal_to_quad(self, eps, k):
        assert packets._gaussian_coefficient(eps, k) == _quad_coefficient(eps, k)

    def test_error_flag_raises(self, monkeypatch, tmp_path, capsys):
        class NotConverged:
            @staticmethod
            def _qawoe(*args):
                return 0.25, 1e-3, 1  # ier = 1: the subdivision limit was reached

        monkeypatch.setattr(packets, "_quadpack", lambda: NotConverged)
        with pytest.raises(NumericalConsistencyError, match=r"eps 0\.0123, k 17 \(ier = 1\)"):
            kl.gaussian_packet_coefficients(0.0123, np.array([17]))
        packets._gaussian_coefficient.cache_clear()  # earlier tests may hold these packets
        code = main(["--out", str(tmp_path), "dichotomy", "--alpha", "0.5"])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("numerical consistency error:") and "ier = 1" in err
        assert not (tmp_path / "dichotomy.csv").exists()

    def test_scipy_integrate_still_imports_after_a_coefficient(self):
        script = """
import math, sys
import numpy as np
import kpilab
kpilab.gaussian_packet_coefficients(0.05, np.array([7]))
loaded = sys.modules["scipy.integrate._quadpack"]
assert "scipy.integrate" not in sys.modules
import scipy.integrate
from scipy.integrate import quad
assert scipy.integrate._quadpack_py._quadpack is loaded
print(quad(math.cos, 0.0, 1.0)[0] == math.sin(1.0))
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "True"


class TestPacketInitialData:
    def test_mass_of_order_one(self):
        params = PacketParams(alpha=0.5)
        for n in range(4, 10):
            grid = packet_grid(params, n)
            v = kl.packet_initial_data(params, n, grid)
            gaussian_mass_sq = TWO_PI * float(
                np.sum(
                    kl.gaussian_packet_coefficients(params.eps(n), grid.k_values) ** 2
                )
            )
            assert 0.5 * gaussian_mass_sq <= v.norm() ** 2 <= 2.0 * gaussian_mass_sq

    def test_plateau_coefficients_exact(self):
        params = PacketParams(alpha=0.5)
        n = 5
        grid = packet_grid(params, n)
        v = kl.packet_initial_data(params, n, grid)
        htilde = params.htilde(n)
        plateau = np.abs(htilde * grid.k_values) <= params.small_cutoff
        expect = kl.gaussian_packet_coefficients(
            params.eps(n), grid.k_values[plateau]
        )
        assert np.max(np.abs(v.coeffs[plateau] - expect)) == 0.0

    def test_tail_bound_from_derivative(self):
        # mass beyond the plateau against the 1/k^2 integration-by-parts bound
        params = PacketParams(alpha=0.5)
        n = 6
        grid = packet_grid(params, n)
        eps = params.eps(n)
        htilde = params.htilde(n)
        k = grid.k_values
        outside = np.abs(htilde * k) > params.small_cutoff
        coeffs = kl.gaussian_packet_coefficients(eps, k[outside])
        lhs = float(np.sum(coeffs**2))
        g_prime_l1 = 2.0  # integral of |z exp(-z^2/2)|
        rhs = g_prime_l1**2 / (4.0 * np.pi**2 * eps) * float(
            np.sum(1.0 / k[outside].astype(float) ** 2)
        )
        assert lhs <= rhs

    def test_window_too_small(self):
        params = PacketParams(alpha=0.5)
        with pytest.raises(TruncationError) as err:
            kl.packet_initial_data(params, 9, kl.TorusGrid(16))
        assert err.value.required_nx >= 32


class TestModulation:
    def test_single_mode_shift(self):
        g = kl.TorusGrid(256)
        p = kl.DispersionParams.reduced(2.0, 1.0)
        h = 0.01
        shift = kl.critical_shift(h, p)
        out = kl.modulated_packet(kl.mode_field(g, 3), h, p)
        assert abs(out.coeff(3 + shift) - 1.0) < 1e-15

    def test_norm_preserved(self, rng):
        from kpilab.experiments import random_field

        g = kl.TorusGrid(512)
        p = kl.DispersionParams.reduced(2.0, 1.0)
        v = random_field(g, rng, kmax=20)
        out = kl.modulated_packet(v, 0.01, p)
        assert out.norm() == v.norm()

    def test_group_velocity_at_center(self):
        p = kl.DispersionParams.reduced(2.0, 1.0)
        for h in (0.05, 0.02, 0.01):
            center = h * kl.critical_shift(h, p)
            assert abs(kl.group_velocity(center, p)) <= 10.0 * h

    def test_overflow_guard(self):
        g = kl.TorusGrid(64)
        p = kl.DispersionParams.reduced(2.0, 1.0)
        with pytest.raises(TruncationError):
            kl.modulated_packet(kl.mode_field(g, 3), 0.01, p)


class TestEmbedding:
    def test_integer_transverse_frequency(self):
        out = kl.embed_2d(kl.mode_field(kl.TorusGrid(32), 2), 0.5, 2.0)
        # h = 1/2 and alpha = 2 give N = 4
        assert out.grid.dimension == 2
        assert abs(out.coeff(2, 4) - 1.0) == 0.0

    def test_non_integer_rejected(self):
        with pytest.raises(ParameterError):
            kl.embed_2d(kl.mode_field(kl.TorusGrid(32), 2), 0.3, 2.0)

    def test_tensor_consistency(self, rng):
        from kpilab.experiments import random_field

        w = random_field(kl.TorusGrid(32), rng, kmax=8)
        alpha = 2.0
        big_n = 4
        h = big_n ** (-2.0 / (alpha + 2.0))
        u = kl.embed_2d(w, h, alpha)
        evolved_2d = kl.evolve(u, 0.7, kl.DispersionParams.kp1(alpha))
        reduced = kl.DispersionParams.reduced(alpha, float(big_n))
        evolved_1d = kl.evolve(w, 0.7, reduced)
        col = evolved_2d.coeffs[:, u.grid.index_of_l(big_n)]
        assert np.max(np.abs(col - evolved_1d.coeffs)) <= 1e-13

    def test_vertical_control_sees_embedded_packet(self, profile_64):
        w = kl.mode_field(kl.TorusGrid(64), 2)
        u = kl.embed_2d(w, 0.5, 2.0)
        out = kl.apply_vertical_control(u, profile_64)
        assert out.norm() > 0.01


class TestInvisibleSolutions:
    def test_horizontal_blindness_along_the_flow(self, kp_params):
        grid = kl.TorusGrid(32, 8)
        prof_y = kl.make_control_profile(0.3, 2.2, "hann-squared", kl.TorusGrid(8))
        for k in (1, 3):
            u = kl.invisible_solution(k, grid)
            for t in (0.0, 0.5, 1.0):
                moved = kl.evolve(u, t, kp_params)
                assert kl.apply_horizontal_control(moved, prof_y).norm() <= 1e-14

    def test_vertical_control_is_not_blind(self, kp_params):
        grid = kl.TorusGrid(32, 8)
        prof_x = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(32))
        u = kl.invisible_solution(1, grid)
        ratio = kl.observability_ratio(u, 1.0, prof_x, kp_params, method="quadrature", panels=4, order=12)
        assert ratio > 1e-3

    def test_zero_mode_rejected(self):
        with pytest.raises(ParameterError):
            kl.invisible_solution(0, kl.TorusGrid(32, 8))


class TestDichotomy:
    def test_kernel_matches_quadrature(self, full_grid_quadrature_energy):
        # low-dispersion regime keeps the oscillation budget small enough for
        # a direct time-quadrature cross-check of the exact kernel
        params = PacketParams(alpha=0.5)
        n = 4
        grid = packet_grid(params, n)
        v0 = kl.packet_initial_data(params, n, grid)
        dparams = kl.DispersionParams.reduced(0.5, 1.0)
        profile = kl.make_region_profile(params.region_intervals(), "hann-squared", grid)
        h = params.h(n)
        exact = packet_observed_ratio(v0, 1.0, h, dparams, profile)

        def evolve(f, t):
            return kl.evolve_semiclassical(f, t, h, dparams)

        quad = full_grid_quadrature_energy(v0, 1.0, profile, "vertical", 24, 24, evolve)
        assert abs(exact - quad / v0.norm() ** 2) <= 1e-10 * exact

    def test_weak_dispersion_ratios_decay(self):
        params = PacketParams(alpha=0.5)
        result = kl.dichotomy_experiment(params, 1.0, range(4, 7))
        ratios = result.ratios()
        assert np.all(np.diff(ratios) < 0)

    def test_strong_dispersion_keeps_floor(self):
        params = PacketParams(alpha=2.0)
        result = kl.dichotomy_experiment(params, 1.0, range(4, 7))
        ratios = result.ratios()
        assert ratios.min() >= 0.3 * ratios[0]

    def test_rows_carry_grid_sizes(self):
        params = PacketParams(alpha=0.5)
        result = kl.dichotomy_experiment(params, 1.0, range(4, 6))
        assert [r.grid_nx for r in result.rows] == [packet_grid(params, n).nx for n in (4, 5)]

    def test_grid_is_bounded(self):
        params = PacketParams(alpha=0.5)
        assert packet_grid(params, 21).nx == MAX_PACKET_NX
        for n in (22, 3000):  # 0.5**(3000/2) underflows to 0
            with pytest.raises(ParameterError, match=f"n = {n} needs a grid of more than"):
                packet_grid(params, n)
        for n in (0, -2000):  # eps >= 1; 0.5**-2000 overflows
            with pytest.raises(ParameterError, match="at least 1"):
                packet_grid(params, n)

    def test_every_grid_is_bounded_before_any_packet(self, monkeypatch):
        monkeypatch.setattr(packets, "packet_initial_data", None)  # calling it would raise
        with pytest.raises(ParameterError, match="n = 22 needs"):
            kl.dichotomy_experiment(PacketParams(alpha=0.5), 1.0, range(4, 41))

    def test_cutoff_shape(self):
        xi = np.linspace(-2, 2, 801)
        vals = packet_cutoff(xi, 0.5, 1.0)
        assert np.all(vals[np.abs(xi) <= 0.5] == 1.0)
        assert np.all(vals[np.abs(xi) >= 1.0] == 0.0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            PacketParams(alpha=3.0)
        with pytest.raises(ParameterError):
            PacketParams(alpha=0.5, big_cutoff=0.2, small_cutoff=0.5)
        with pytest.raises(ParameterError):
            PacketParams(alpha=0.5, beta=4.0)


class TestPacketMassConservation:
    def test_semiclassical_flow_preserves_packet_mass(self):
        params = PacketParams(alpha=0.5)
        n = 5
        grid = packet_grid(params, n)
        v0 = kl.packet_initial_data(params, n, grid)
        dparams = kl.DispersionParams.reduced(0.5, 1.0)
        for t in (0.3, 1.0, 4.0):
            moved = kl.evolve_semiclassical(v0, t, params.h(n), dparams)
            assert abs(moved.norm() - v0.norm()) <= 1e-13 * v0.norm()


class TestModulatedMeanCorrection:
    def test_profile_moment_of_modulated_packet_vanishes(self):
        # the mean-subtraction term of the control operator is asymptotically
        # negligible on modulated packets; first verified run: 2.7e-5,
        # 1.7e-8, 1.8e-12 for n = 4, 6, 8
        import numpy as np
        from kpilab.fourier import TWO_PI, inverse_transform
        from kpilab.observe import make_region_profile

        params = PacketParams(alpha=0.5)
        dp = kl.DispersionParams.reduced(0.5, 1.0)
        bounds = {4: 1e-4, 6: 1e-7, 8: 1e-11}
        for n, bound in bounds.items():
            small = packet_grid(params, n)
            v = kl.packet_initial_data(params, n, small)
            shift = kl.critical_shift(params.h(n), dp)
            nx = 4
            while nx < 2 * (shift + small.nx // 2 + 2):
                nx *= 2
            big = kl.TorusGrid(nx)
            c = np.zeros(nx, dtype=complex)
            c[big.index_of_k(0) - small.nx // 2 : big.index_of_k(0) + small.nx // 2] = v.coeffs
            w = kl.modulated_packet(kl.SpectralField(big, c), params.h(n), dp)
            prof = make_region_profile(params.region_intervals(), "hann-squared", big)
            moment = abs(np.sum(prof.values * inverse_transform(w)) * TWO_PI / big.nx)
            assert moment <= bound * w.norm()
