import tracemalloc

import numpy as np
import pytest

import kpilab as kl
from kpilab.dispersion import unit_phases
from kpilab import hum
from kpilab.errors import DimensionError, NonConvergenceError, ParameterError
from kpilab.experiments import random_field, seeded_rng
from kpilab.hum import (
    MAX_VERIFY_STEPS, ControlGramian, ControlTrajectory, quadrature_gramian_apply,
)
from kpilab.observe import (
    _support_columns, _support_layout, apply_control, apply_vertical_control,
    gauss_legendre_nodes, quadrature_observed_energy,
)
from kpilab.propagate import _cached_grid_frequencies, _kept_modes, _support


@pytest.fixture(scope="module")
def small_setup():
    grid = kl.TorusGrid(32, 8)
    params = kl.DispersionParams.kp1(2.0)
    profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(32))
    return grid, params, profile


class TestControlGramianOperator:
    def test_positive_form(self, small_setup, rng):
        grid, params, profile = small_setup
        op = ControlGramian(grid, 1.0, profile, params)
        for _ in range(100):
            v = random_field(grid, rng, kmax=8, lmax=3)
            val = op.apply(v).inner(v).real
            assert val >= 0.0

    def test_hermitian_action(self, small_setup, rng):
        grid, params, profile = small_setup
        op = ControlGramian(grid, 1.0, profile, params)
        for _ in range(10):
            v = random_field(grid, rng, kmax=8, lmax=3)
            w = random_field(grid, rng, kmax=8, lmax=3)
            lhs = op.apply(v).inner(w)
            rhs = v.inner(op.apply(w))
            assert abs(lhs - rhs) <= 1e-12 * v.norm() * w.norm()

    def test_horizontal_kernel_contains_y_independent(self, rng):
        grid = kl.TorusGrid(32, 8)
        params = kl.DispersionParams.kp1(2.0)
        prof_y = kl.make_control_profile(0.3, 2.2, "hann-squared", kl.TorusGrid(8))
        op = ControlGramian(grid, 1.0, prof_y, params, orientation="horizontal")
        v = kl.mode_field(grid, 3, 0)
        assert op.apply(v).norm() <= 1e-14

    def test_dense_vs_quadrature_applicator(self, rng):
        grid = kl.TorusGrid(16, 4)
        params = kl.DispersionParams.kp1(2.0)
        profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(16))
        v = random_field(grid, rng, kmax=3, lmax=1)
        dense = kl.control_gramian_apply(v, 1.0, profile, params)
        # 128 nodes resolve every frequency the quadratic form can see
        quad_form = quadrature_gramian_apply(v, 1.0, profile, params, panels=8, order=16)
        lhs = dense.inner(v).real
        rhs = quad_form.inner(v).real
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
        # the full operator output carries edge-of-grid oscillations and
        # needs a finer rule
        quad_op = quadrature_gramian_apply(v, 1.0, profile, params, panels=48, order=16)
        assert (dense - quad_op).norm() <= 1e-10 * dense.norm()

    def test_quadrature_memory_stays_bounded(self):
        grid = kl.TorusGrid(64, 16)
        params = kl.DispersionParams.kp1(2.0)
        v = kl.mode_field(grid, 1, 1) + kl.mode_field(grid, 2, -1)
        # all 6,400 nodes in one stack would take 105 MB
        tracemalloc.start()
        try:
            quadrature_gramian_apply(v, 1.0, kl.default_profile(64), params, panels=400, order=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_dense_line_stays_within_its_stack_budget(self):
        # G's columns and G^2 on a dense 1024-point line, a stack of rows at a time: at most
        # G^2's rows and two node-Grams. Applying G to all 1,022 unit rows at once, and G^2
        # to all its columns, peaked at 5.1 times G^2's rows.
        grid = kl.TorusGrid(1024)
        v = random_field(grid, seeded_rng(3, "dense-line"), kmax=511)
        profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", grid)
        params = kl.DispersionParams.reduced(2.0, 1.0)
        rows = 16 * 1022**2
        quadrature_gramian_apply(v, 1e-3, profile, params, panels=1, order=1)  # the profile's DFTs
        for oracle in (
            lambda: quadrature_gramian_apply(v, 1e-3, profile, params, panels=16, order=24),
            lambda: quadrature_observed_energy(v, 1e-3, profile, params, panels=2, order=8),
        ):
            tracemalloc.start()
            try:
                oracle()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3.5 * rows


    def test_large_node_grams_multiply_in_a_fixed_operand_order(self, monkeypatch):
        # each level's node-Gram here is about 1 MiB: numpy's temporary elision computed k * Gram
        # in place as (Gram, k) from 256 KiB up, and as (k, Gram) below, which can differ in
        # a last bit; the reference forms every level product as np.multiply(k, gram)
        grid = kl.TorusGrid(256)
        v = random_field(grid, seeded_rng(3, "dense-line"), kmax=127)
        profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", grid)
        params = kl.DispersionParams.reduced(2.0, 1.0)
        node_gram, grams = hum._node_gram, []

        def recorded(*args):
            gram = node_gram(*args)
            grams.append(gram.copy())
            return gram

        monkeypatch.setattr(hum, "_node_gram", recorded)
        out = quadrature_gramian_apply(v, 0.5, profile, params, panels=4, order=8)
        assert len(grams) == 3 and min(gram.nbytes for gram in grams) >= 2**18
        _, cols, view = _support_layout(_support(v), 0)
        kept = _kept_modes(grid)
        k = apply_vertical_control(_support_columns(cols, profile), profile)[:, kept]
        for gram in grams:
            k = np.multiply(k, gram)
        expect = np.zeros(grid.shape, dtype=np.complex128)
        expect[kept] = (view(v.coeffs)[:, None] @ k)[0, 0]
        assert np.array_equal(out.coeffs, expect)


class TestSynthesis:
    def test_free_evolution_needs_no_control(self, small_setup, rng):
        grid, params, profile = small_setup
        u0 = random_field(grid, rng, kmax=8, lmax=3)
        traj = kl.synthesize_control(u0, kl.evolve(u0, 1.0, params), 1.0, profile, params)
        assert traj.diagnostics["iterations"] == 0
        assert traj.phi_final.norm() == 0.0
        assert traj.samples.shape == (256, *grid.shape) and not traj.samples.any()

    def test_steering_and_independent_verification(self, small_setup):
        grid, params, profile = small_setup
        rng = seeded_rng(99, "steer-small")
        u0 = random_field(grid, rng, kmax=8, lmax=2)
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params, tol=1e-10)
        assert traj.diagnostics["iterations"] <= 500
        assert traj.diagnostics["relative_residual"] <= 1e-8
        terminal = kl.verify_control(u0, traj, steps=4000)
        assert terminal.norm() <= 1e-6 * u0.norm()

    def test_horizontal_invisible_data_raises(self):
        grid = kl.TorusGrid(32, 8)
        params = kl.DispersionParams.kp1(2.0)
        prof_y = kl.make_control_profile(0.3, 2.2, "hann-squared", kl.TorusGrid(8))
        u0 = kl.mode_field(grid, 1, 0)
        with pytest.raises(NonConvergenceError) as excinfo:
            kl.synthesize_control(
                u0, u0 * 0.0, 1.0, prof_y, params, orientation="horizontal", max_iter=40
            )
        assert len(excinfo.value.residual_history) >= 1
        assert "stagnated on block 1" in str(excinfo.value)
        assert "max_iter" not in str(excinfo.value)

    def test_an_exhausted_iteration_budget_is_not_stagnation(self, small_setup):
        grid, params, profile = small_setup
        u0 = random_field(grid, seeded_rng(3, "budget"), kmax=6, lmax=2)
        with pytest.raises(NonConvergenceError) as excinfo:
            kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params, max_iter=1)
        message, history = str(excinfo.value), excinfo.value.residual_history
        assert "reached max_iter = 1" in message and "still falling" in message
        assert "stagnated" not in message
        assert len(history) == 2 and history[1] < history[0]

    def test_cg_residuals_non_increasing(self, small_setup):
        grid, params, profile = small_setup
        rng = seeded_rng(7, "monotone")
        u0 = random_field(grid, rng, kmax=8, lmax=3)
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params, tol=1e-10)
        for history in traj.diagnostics["residual_histories"].values():
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-12 * history[0])

    def test_control_samples_rederivable_and_mean_free(self, small_setup):
        grid, params, profile = small_setup
        rng = seeded_rng(11, "samples")
        u0 = random_field(grid, rng, kmax=6, lmax=2)
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params)
        assert traj.samples.shape == (256, *grid.shape)
        for t, coeffs in zip(traj.times, traj.samples):
            sample = kl.SpectralField(grid, coeffs)
            again = traj.control_at(float(t))
            assert (again - sample).norm() <= 1e-13 * max(sample.norm(), 1.0)
            row = sample.coeffs[grid.index_of_k(0)]
            assert np.max(np.abs(row)) <= 1e-14

    def test_samples_are_taken_on_the_lines(self, monkeypatch, small_setup):
        grid, params, profile = small_setup
        shapes = []

        def watched(u, *args):
            shapes.append(np.shape(u.coeffs if isinstance(u, kl.SpectralField) else u))
            return apply_control(u, *args)

        monkeypatch.setattr(kl.observe, "apply_control", watched)
        u0 = random_field(grid, seeded_rng(2727, "on-lines"), kmax=8, lmax=2)
        kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params)
        # G is built on unit lines of the control axis; no stack of whole grids reaches it
        assert shapes and all(shape[1:] != grid.shape for shape in shapes)

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_few_samples_are_a_read_only_stack(self, small_setup, count):
        # the synthesis exports 256 samples; the rule takes any number of times
        grid, params, profile = small_setup
        u0 = random_field(grid, seeded_rng(4, "few-samples"), kmax=6, lmax=2)
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params)
        assert not traj.samples.flags.writeable
        assert np.array_equal(traj.samples, traj.controls_at(traj.times))
        times = np.linspace(0.0, 1.0, count)
        found = traj.controls_at(times)
        assert found.shape == (count, *grid.shape)
        for t, sample in zip(times, found):
            assert np.array_equal(sample, traj.control_at(float(t)).coeffs)

    @pytest.mark.parametrize("shape", [(256,), (128, 8)])
    def test_samples_are_the_rule_at_their_recorded_times(self, shape):
        # each sample is its own phases at its float64 time and its own product with G's
        # rows, so a sample of the synthesis and the rule at its recorded time share their bits
        grid = kl.TorusGrid(*shape)
        params = kl.DispersionParams.kp1(2.0) if grid.ny else kl.DispersionParams.reduced(2.0, 1.0)
        axis = kl.TorusGrid(shape[0])
        profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", axis)
        windows = {"kmax": shape[0] // 2 - 1, "lmax": 2 if grid.ny else None}
        u0 = random_field(grid, seeded_rng(3, "recorded-times"), **windows)
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params)
        assert traj.samples.any()
        for t, sample in zip(traj.times, traj.samples):
            assert np.array_equal(sample, traj.control_at(float(t)).coeffs)

    def test_linearity_of_synthesis(self, small_setup):
        grid, params, profile = small_setup
        rng = seeded_rng(5, "linear")
        u0a = random_field(grid, rng, kmax=6, lmax=2)
        u0b = random_field(grid, rng, kmax=6, lmax=2)
        u1a = random_field(grid, rng, kmax=6, lmax=2)
        u1b = random_field(grid, rng, kmax=6, lmax=2)
        t_a = kl.synthesize_control(u0a, u1a, 1.0, profile, params, tol=1e-12)
        t_b = kl.synthesize_control(u0b, u1b, 1.0, profile, params, tol=1e-12)
        t_ab = kl.synthesize_control(u0a + u0b, u1a + u1b, 1.0, profile, params, tol=1e-12)
        for t in (0.0, 0.4, 1.0):
            combined = t_a.control_at(t) + t_b.control_at(t)
            direct = t_ab.control_at(t)
            assert (combined - direct).norm() <= 1e-6

    def test_minimality_of_hum_functional(self, small_setup):
        grid, params, profile = small_setup
        rng = seeded_rng(13, "minimal")
        u0 = random_field(grid, rng, kmax=8, lmax=3)
        rhs = u0 * 0.0 - kl.evolve(u0, 1.0, params)
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params, tol=1e-12)
        phi = traj.phi_final
        j_min = kl.hum_functional(phi, rhs, 1.0, profile, params)
        delta = random_field(grid, rng, kmax=8, lmax=3)
        lam_norm = np.sqrt(kl.control_gramian_apply(delta, 1.0, profile, params).inner(delta).real)
        delta = delta * (1e-3 / lam_norm)
        j_pert = kl.hum_functional(phi + delta, rhs, 1.0, profile, params)
        increment = j_pert - j_min
        assert increment > 0.0
        assert increment == pytest.approx(0.5e-6, rel=1e-3)

    def test_grid_mismatch(self, small_setup):
        grid, params, profile = small_setup
        other = kl.TorusGrid(16, 8)
        with pytest.raises(Exception):
            kl.synthesize_control(
                kl.mode_field(grid, 1, 0), kl.mode_field(other, 1, 0), 1.0, profile, params
            )

    def test_sample_count_is_not_a_parameter(self, small_setup):
        # the export is 256 samples, the count trajectory.bin records
        grid, params, profile = small_setup
        u0 = kl.mode_field(grid, 1, 0)
        with pytest.raises(TypeError):
            kl.synthesize_control(u0, u0, 1.0, profile, params, sample_count=9)

    def test_max_iter_must_be_an_integer(self, small_setup):
        grid, params, profile = small_setup
        u0 = kl.mode_field(grid, 1, 0)
        with pytest.raises(ParameterError):
            kl.synthesize_control(u0, u0, 1.0, profile, params, max_iter=2.5)


def _node_loop_verify(u0, traj, panels):
    """The verifier as a per-node loop: one forcing evaluation per Gauss-Legendre node.

    The rule is ``panels`` panels of 24 nodes; the forcing is summed in the frame
    ``w = S(-t) u`` at the nodes themselves.
    """
    omega = _cached_grid_frequencies(u0.grid, traj.params)
    acc = np.zeros(u0.grid.shape, dtype=np.complex128)
    for t, w in zip(*gauss_legendre_nodes(traj.horizon, panels, 24)):
        control = kl.evolve(traj.phi_final, t - traj.horizon, traj.params)
        for _ in range(2):
            control = apply_control(control, traj.profile, traj.orientation)
        acc += w * control.coeffs * unit_phases(omega, -t)
    acc[u0.grid.k_values == 0] = 0.0
    return kl.evolve(kl.SpectralField(u0.grid, u0.coeffs + acc), traj.horizon, traj.params)


class TestVerification:
    def test_zero_control_reproduces_free_flow(self, small_setup):
        grid, params, profile = small_setup
        rng = seeded_rng(17, "freeflow")
        u0 = random_field(grid, rng, kmax=8, lmax=3)
        traj = kl.synthesize_control(u0, kl.evolve(u0, 1.0, params), 1.0, profile, params)
        terminal = kl.verify_control(u0, traj, steps=10_000)
        free = kl.evolve(u0, 1.0, params)
        assert (terminal - free).norm() <= 1e-8

    # the name is the Simpson verifier's, which converged at fourth order; the Gauss-Legendre
    # rule converges to rounding once it resolves the frequency span of phi's lines
    def test_fourth_order_convergence(self):
        # small grid, span of phi's lines 686.3: 9 panels (100 steps alone) left it unresolved
        # (1e-6); the span asks for 20, so 100 steps take 25 panels, as 200 steps do
        grid = kl.TorusGrid(16, 4)
        params = kl.DispersionParams.kp1(2.0)
        profile = kl.make_control_profile(
            np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(16)
        )
        rng = seeded_rng(19, "order")
        u0 = random_field(grid, rng, kmax=3, lmax=1)
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params, tol=1e-12)
        reference = kl.verify_control(u0, traj, steps=51_200)
        runs = {n: kl.verify_control(u0, traj, n) for n in (100, 200, 800, 1600)}
        assert max((run - reference).norm() for run in runs.values()) <= 1e-14 * u0.norm()
        assert np.array_equal(runs[100].coeffs, runs[200].coeffs)

    # side^2 panels of 24 nodes: from the steps alone side 3 at 100-104 steps, 4 at 127-128,
    # 6 at 333, 21 near 5,000, where the span of the lines (686.3 along x) asks for side 5; the
    # names are the Simpson verifier's, whose last lattice block these counts varied
    @pytest.mark.parametrize(
        "shape, orientation, steps",
        [
            pytest.param(shape, orientation, steps, id=f"{label}{steps}")
            for label, shape, orientation, large in [
                ("", (16, 4), "vertical", 4999),
                ("1d-", (16,), "vertical", 5000),
                ("horizontal-", (16, 8), "horizontal", 4997),
            ]
            for steps in (100, 101, 104, 127, 128, 333, large)
        ],
    )
    def test_stacks_match_the_per_step_simpson_loop(
        self, verify_panels, shape, orientation, steps
    ):
        grid, axis = kl.TorusGrid(*shape), 1 if orientation == "horizontal" else 0
        params = kl.DispersionParams.kp1(2.0) if grid.ny else kl.DispersionParams.reduced(2.0, 1.0)
        profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(shape[axis]))
        rng = seeded_rng(23, "stacks")
        windows = {"kmax": 3, "lmax": 1} if grid.ny else {"kmax": 3}
        u0, phi = random_field(grid, rng, **windows), random_field(grid, rng, **windows)
        traj = ControlTrajectory(1.0, phi, profile, params, orientation, np.empty(0), ())
        out = kl.verify_control(u0, traj, steps=steps)
        expect = _node_loop_verify(u0, traj, verify_panels(traj, steps))
        assert (out - expect).norm() <= 1e-14 * u0.norm()

    @pytest.mark.parametrize(
        "shape, orientation", [((64,), "vertical"), ((32, 8), "vertical"), ((32, 8), "horizontal")]
    )
    # the three-level node-Gram against the same rule summed node by node with each node's own
    # phases
    def test_level_phases_match_the_direct_phase_gauss_legendre_sum(
        self, direct_phase_verify, shape, orientation
    ):
        grid, axis = kl.TorusGrid(*shape), 1 if orientation == "horizontal" else 0
        params = kl.DispersionParams.kp1(2.0) if grid.ny else kl.DispersionParams.reduced(2.0, 1.0)
        profile = kl.make_control_profile(-2.0, 1.5, "hann-squared", kl.TorusGrid(shape[axis]))
        rng = seeded_rng(29, "lattice")
        windows = {"kmax": 8, "lmax": 2} if grid.ny else {"kmax": 8}
        u0, phi = random_field(grid, rng, **windows), random_field(grid, rng, **windows)
        traj = ControlTrajectory(1.0, phi, profile, params, orientation, np.empty(0), ())
        expect = direct_phase_verify(u0, traj, 3000)
        assert (kl.verify_control(u0, traj, 3000) - expect).norm() <= 1e-12 * expect.norm()

    @pytest.mark.parametrize("steps", [100, 1000, 6000, MAX_VERIFY_STEPS])
    def test_phase_work_grows_as_the_root_of_the_node_count(
        self, monkeypatch, verify_panels, small_setup, steps
    ):
        grid, params, profile = small_setup
        entries = []

        def counted(omega, t):
            out = unit_phases(omega, t)
            entries.append(out.size)
            return out

        # wherever the package binds it
        for module in (kl.propagate, kl.hum):
            if hasattr(module, "unit_phases"):
                monkeypatch.setattr(module, "unit_phases", counted)
        phi = random_field(grid, seeded_rng(31, "phase-work"), kmax=8, lmax=2)
        traj = ControlTrajectory(1.0, phi, profile, params, "vertical", np.empty(0), ())
        kl.verify_control(phi, traj, steps)
        # incoming phases on phi's support, outgoing on the kept modes of its lines (along x)
        support = _support(phi)
        modes = support.sum() + _kept_modes(grid)[:, support.any(axis=0)].sum()
        # and at most one phase per kept mode for the closing evolve, which takes its support's
        nodes = 24 * verify_panels(traj, steps)
        bound = 3.0 * np.sqrt(nodes) * modes + _kept_modes(grid).sum()
        assert 0 < sum(entries) <= bound

    def test_memory_stays_bounded(self):
        grid = kl.TorusGrid(64, 16)
        params = kl.DispersionParams.kp1(2.0)
        u0 = kl.mode_field(grid, 1, 1) + kl.mode_field(grid, 2, -1)
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, kl.default_profile(64), params)
        # all 42,336 nodes in one stack would take 694 MB; no array may grow with the node
        # count: at the largest count, 2,004,504 nodes, their float64 times alone take 16 MB
        for steps in (10_000, MAX_VERIFY_STEPS):
            tracemalloc.start()
            try:
                kl.verify_control(u0, traj, steps=steps)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, steps

    def test_steps_guard(self, small_setup):
        grid, params, profile = small_setup
        u0 = kl.mode_field(grid, 1, 0)
        traj = kl.synthesize_control(u0, kl.evolve(u0, 1.0, params), 1.0, profile, params)
        with pytest.raises(ParameterError):
            kl.verify_control(u0, traj, steps=10)

    @pytest.mark.parametrize("steps", [150.5, float("nan")])
    def test_steps_must_be_an_integer(self, small_setup, steps):
        grid, params, profile = small_setup
        u0 = kl.mode_field(grid, 1, 0)
        traj = kl.synthesize_control(u0, kl.evolve(u0, 1.0, params), 1.0, profile, params)
        with pytest.raises(ParameterError):
            kl.verify_control(u0, traj, steps)

    def test_grid_mismatch(self, small_setup):
        grid, params, profile = small_setup
        u0 = kl.mode_field(grid, 1, 0)
        traj = kl.synthesize_control(u0, kl.evolve(u0, 1.0, params), 1.0, profile, params)
        with pytest.raises(DimensionError):
            kl.verify_control(kl.mode_field(kl.TorusGrid(16, 4), 1, 0), traj, steps=100)


class TestGoldenTwoModeSteering:
    def test_two_mode_steering_recorded_run(self):
        # golden run frozen on first execution: 14 iterations, residual
        # 2.4e-11, Duhamel terminal error 3.0e-08
        grid = kl.TorusGrid(64, 16)
        params = kl.DispersionParams.kp1(2.0)
        profile = kl.default_profile(64)
        u0 = kl.mode_field(grid, 1, 1) + kl.mode_field(grid, 2, -1)
        u0 = u0 * (1.0 / u0.norm())
        traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params, tol=1e-10)
        assert traj.diagnostics["iterations"] <= 20
        assert traj.diagnostics["relative_residual"] <= 1e-8
        terminal = kl.verify_control(u0, traj, steps=10_000)
        assert terminal.norm() <= 1e-6


from hypothesis import given, reject, settings, strategies as st

from kpilab.dispersion import frequencies_1d, frequencies_2d
from kpilab.fourier import TWO_PI
from kpilab.observe import control_gram_matrix, time_factor


def _reference_blocks(grid, params, orientation):
    """(label, window, omega) per block of the control Gramian, built per element."""
    k_window = np.array([k for k in grid.k_values if k not in (0, -grid.nx // 2)])
    if orientation == "vertical":
        labels = [0] if grid.dimension == 1 else [l for l in grid.l_values if l != -grid.ny // 2]
        for l in labels:
            reduced = params if grid.dimension == 1 else kl.DispersionParams.reduced(
                params.alpha, float(abs(l))
            )
            omega = frequencies_1d(k_window, reduced).astype(float)
            yield l, k_window, omega
    else:
        l_window = np.array([l for l in grid.l_values if l != -grid.ny // 2])
        for k in k_window:
            yield k, l_window, frequencies_2d([k], l_window, params)[0].astype(float)


def _position(grid, orientation, label, j):
    if orientation == "horizontal":
        return grid.index_of_k(int(label)), grid.index_of_l(int(j))
    if grid.dimension == 1:
        return (grid.index_of_k(int(j)),)
    return grid.index_of_k(int(j)), grid.index_of_l(int(label))


@settings(max_examples=40, deadline=None)
@given(
    nx=st.sampled_from([4, 8, 16, 32]),
    ny=st.sampled_from([None, 4, 8]),
    horizontal=st.booleans(),
    horizon=st.floats(0.05, 3.0),
    alpha=st.floats(0.3, 2.0),
    support=st.tuples(st.floats(-3.0, -1.0), st.floats(1.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_control_gramian_blocks_and_apply(nx, ny, horizontal, horizon, alpha, support, seed):
    grid = kl.TorusGrid(nx) if ny is None else kl.TorusGrid(nx, ny)
    orientation = "horizontal" if horizontal and ny is not None else "vertical"
    try:
        profile = kl.make_control_profile(
            *support, "hann-squared", kl.TorusGrid(ny if orientation == "horizontal" else nx)
        )
    except ParameterError:
        reject()  # a support on one node of a coarse grid, where G vanishes
    # a 1D grid takes the reduced family, which at lam = 0 is the 2D multiplier's l = 0 line
    if ny is None:
        params = kl.DispersionParams.reduced(alpha, 0.0)
    else:
        params = kl.DispersionParams.kp1(alpha)
    op = ControlGramian(grid, horizon, profile, params, orientation)
    refs = list(_reference_blocks(grid, params, orientation))
    assert op.labels.tolist() == [int(label) for label, _, _ in refs]
    for block, (_, window, omega) in zip(op.stack, refs):
        static = control_gram_matrix(profile, window)
        delta = omega[None, :] - omega[:, None]
        expected = static * np.conj(time_factor(delta, horizon)) / TWO_PI
        # exp(i T delta) - 1 cancels for small T delta above the near-resonant
        # branch (|T delta| >= 1e-3), in the forward and the time-reversed factor
        # alike; the entry tolerance grows by that cancellation
        cancel = 1.0 / np.clip(np.abs(horizon * delta), 1e-3, 1.0)
        scale = np.abs(static) * horizon / TWO_PI * cancel
        assert np.all(np.abs(block - expected) <= 1e-14 * scale)

    draw = np.random.default_rng(seed).standard_normal(grid.shape + (2,))
    coeffs = draw[..., 0] + 1j * draw[..., 1]
    coeffs[grid.index_of_k(0)] = 0.0
    v = kl.SpectralField(grid, coeffs)
    dense = np.zeros(grid.shape, dtype=complex)
    for block, (label, window, _) in zip(op.stack, refs):
        positions = [_position(grid, orientation, label, j) for j in window]
        product = block @ np.array([coeffs[p] for p in positions])
        for p, value in zip(positions, product):
            dense[p] = value
    assert np.max(np.abs(op.apply(v).coeffs - dense)) <= 1e-14 * np.max(np.abs(dense))
