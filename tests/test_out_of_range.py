"""Numbers that convert but lie outside their range fail before any work.

Each case goes through a ``kpi-lab run`` section and, where one exists,
through its subcommand twin: exit code 1 (3 for a diverging constant or a
dispersion table beyond float64), an ``error:`` line naming the bad key, no
Python traceback and no CSV of the failed experiment. A request too large for
memory is an ``error:`` too. A negative seed, which numpy's SeedSequence
refuses, is a usage error (exit code 2) on the command line and a config
error at its line in a ``[run]`` section.
"""

import numpy as np
import pytest

import kpilab as kl
from kpilab import experiments
from kpilab.cli import main
from kpilab.dispersion import unit_phases
from kpilab.errors import DimensionError, NumericalConsistencyError, ParameterError
from kpilab.experiments import random_field, seeded_rng
from kpilab.hum import ControlTrajectory, quadrature_gramian_apply, synthesize_control
from kpilab.observe import GramianBlock, gramian_from_frequencies, quadrature_observed_energy
from kpilab.storage import write_field


def _expect_error(capsys, code, needle, exit_code=1, prefix="error:"):
    err = capsys.readouterr().err
    assert code == exit_code, err
    assert err.startswith(prefix) and needle in err, err
    assert "Traceback" not in err


def _section(tmp_path, capsys, name, body, needle):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"[{name}]\n{body}")
    out = tmp_path / "out"
    _expect_error(capsys, main(["--out", str(out), "run", str(cfg)]), needle)
    assert not (out / f"{name}.csv").exists()


def _command(tmp_path, capsys, argv, needle, exit_code=1, prefix="error:"):
    code = main(["--out", str(tmp_path / "cli")] + argv)
    _expect_error(capsys, code, needle, exit_code, prefix)


@pytest.fixture()
def field_32x8(tmp_path):
    path = tmp_path / "u0.bin"
    write_field(random_field(kl.TorusGrid(32, 8), seeded_rng(5, "range"), kmax=6, lmax=2), path)
    return str(path)


def test_zero_trials_in_both_scans(tmp_path, capsys):
    weak = "type = weak-observability\nh = 0.0625\ntrials = 0\n"
    _section(tmp_path, capsys, "weak", weak, "trials")
    fscan = "type = frequency-scan\nh = 0.00390625\ntrials = 0\n"
    _section(tmp_path, capsys, "fscan", fscan, "trials")


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_frequency_scan_h_must_be_positive_and_finite(tmp_path, capsys, h):
    body = f"type = frequency-scan\nh = {h}\n"
    _section(tmp_path, capsys, "fscan", body, "parameter h must be positive and finite")


def test_empty_frequency_scan_range(tmp_path, capsys):
    body = "type = frequency-scan\nh = 0.00390625\nn_min = 3\nn_max = 2\n"
    _section(tmp_path, capsys, "fscan", body, "n_min <= n_max")


@pytest.mark.parametrize("horizon", ["nan", "inf", "-inf", "0"])
def test_gramian_horizon_must_be_positive_and_finite(tmp_path, capsys, horizon):
    body = f"type = gramian-floor\nk_window = 4\nhorizon = {horizon}\n"
    _section(tmp_path, capsys, "floor", body, "horizon")
    argv = ["gramian", "--k-window", "4", f"--horizon={horizon}"]
    _command(tmp_path, capsys, argv, "horizon")
    assert not (tmp_path / "cli" / "gramian_eigenvalues.csv").exists()


@pytest.mark.parametrize("method", ["gramian", "quadrature"])
def test_observe_horizon_nan(tmp_path, capsys, field_32x8, method):
    argv = ["observe", "--input", field_32x8, "--horizon", "nan", "--method", method]
    _command(tmp_path, capsys, argv, "horizon")


@pytest.mark.parametrize(
    "key, value",
    [("tol", "nan"), ("tol", "0"), ("tol", "1"), ("horizon", "nan"), ("max_iter", "0")],
)
def test_control_numbers_out_of_range(tmp_path, capsys, field_32x8, key, value):
    body = f"type = hum-steer\nnx = 32\nny = 8\nkmax = 6\nlmax = 2\nverify_steps = 200\n{key} = {value}\n"
    _section(tmp_path, capsys, "steer", body, key)
    flag = "--" + key.replace("_", "-")
    _command(tmp_path, capsys, ["control", "--initial", field_32x8, flag, value], key)
    assert not (tmp_path / "cli" / "control_report.json").exists()


@pytest.mark.parametrize("steps", ["99", "1000001", "10000000000000"])
def test_verify_steps_are_bounded_before_synthesis(
    tmp_path, capsys, monkeypatch, field_32x8, steps
):
    monkeypatch.setattr(experiments, "synthesize_control", None)  # calling it would raise
    needle = f"verification needs an integer of 100 to 1000000 steps, got {steps}"
    body = f"type = hum-steer\nnx = 32\nny = 8\nkmax = 6\nlmax = 2\nverify_steps = {steps}\n"
    _section(tmp_path, capsys, "steer", body, needle)
    argv = ["control", "--initial", field_32x8, "--verify-steps", steps]
    _command(tmp_path, capsys, argv, needle)
    assert not (tmp_path / "cli" / "control_report.json").exists()


def test_a_verifier_rule_past_the_cap_fails_before_synthesis(tmp_path, capsys, monkeypatch):
    # the synthesized phi fills the kept modes of its lines: on a 256-point x-axis their
    # span, 2 * 127^3, asks for 1.2e5 panels at T = 1, past the 289^2 of 1,000,000 steps
    monkeypatch.setattr(experiments, "synthesize_control", None)  # calling it would raise
    needle = "panels for the frequency span"
    body = "type = hum-steer\nnx = 256\nny = 4\nkmax = 3\nlmax = 1\nverify_steps = 1000000\n"
    _section(tmp_path, capsys, "steer", body, needle)
    field = tmp_path / "u0.bin"
    write_field(random_field(kl.TorusGrid(256, 4), seeded_rng(5, "cap"), kmax=3, lmax=1), field)
    argv = ["control", "--initial", str(field), "--verify-steps", "1000000"]
    _command(tmp_path, capsys, argv, needle)
    assert not (tmp_path / "cli").exists()


def test_lmax_on_a_1d_grid_is_an_error(tmp_path, capsys):
    # a 1D grid has no l, so the window would be ignored
    _command(tmp_path, capsys, ["random-field", "--nx", "16", "--lmax", "5"], "lmax")
    assert not (tmp_path / "cli").exists()
    # and --ny 0 is no way to ask for one
    _command(tmp_path, capsys, ["random-field", "--nx", "16", "--ny", "0"], "ny must be")
    assert not (tmp_path / "cli").exists()
    with pytest.raises(ParameterError, match="lmax"):
        random_field(kl.TorusGrid(16), seeded_rng(5, "range"), lmax=0)


@pytest.mark.parametrize(
    "n_min, n_max, needle",
    [
        ("2999", "3000", "n = 2999 needs a grid of more than MAX_PACKET_NX = 8192"),
        ("4", "40", "n = 40 needs a grid of more than MAX_PACKET_NX = 8192"),
        ("4", "1000000000", "n = 1000000000 needs a grid of more than"),
        ("-2000", "5", "packet index n must be at least 1, got -2000"),
    ],
)
def test_dichotomy_is_bounded_before_any_packet(
    tmp_path, capsys, monkeypatch, n_min, n_max, needle
):
    monkeypatch.setattr(experiments, "dichotomy_experiment", None)  # calling it would raise
    body = f"type = dichotomy\nalpha = 0.5\nn_min = {n_min}\nn_max = {n_max}\n"
    _section(tmp_path, capsys, "dich", body, needle)
    argv = ["dichotomy", "--alpha", "0.5", "--n-min", n_min, "--n-max", n_max]
    _command(tmp_path, capsys, argv, needle)
    assert not (tmp_path / "cli" / "dichotomy.csv").exists()


@pytest.mark.parametrize(
    "window",
    [
        ["--nx", "16", "--kmax", "8"],
        ["--nx", "16", "--ny", "4", "--lmax", "2"],
        ["--kmax", "0"],
        ["--kmax", "-3"],
    ],
)
def test_random_field_window_must_be_nonempty_and_below_nyquist(tmp_path, capsys, window):
    _command(tmp_path, capsys, ["random-field", *window], "window")
    assert not (tmp_path / "cli" / "field.bin").exists()


@pytest.mark.parametrize("kmax, lmax", [(16, 2), (0, 2), (6, 4)])
def test_hum_steer_window_must_be_nonempty_and_below_nyquist(tmp_path, capsys, kmax, lmax):
    body = f"type = hum-steer\nnx = 32\nny = 8\nkmax = {kmax}\nlmax = {lmax}\n"
    _section(tmp_path, capsys, "steer", body, "window")


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_alpha_must_be_positive_and_finite(tmp_path, capsys, field_32x8, value):
    body = f"type = hum-steer\nnx = 32\nny = 8\nkmax = 6\nlmax = 2\nalpha = {value}\n"
    _section(tmp_path, capsys, "steer", body, "alpha")
    _command(tmp_path, capsys, ["control", "--initial", field_32x8, "--alpha", value], "alpha")
    assert not (tmp_path / "cli" / "control_report.json").exists()
    _command(tmp_path, capsys, ["dispersion", "--alpha", value], "alpha")
    assert not (tmp_path / "cli" / "dispersion.csv").exists()


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["--count", "-1"], "count"),
        (["--xi-min", "nan"], "xi-min"),
        (["--xi-max", "inf"], "xi-max"),
        (["--xi-min=-inf"], "xi-min"),
        (["--lam=nan"], "lam"),
        (["--lam=inf"], "lam"),
        (["--lam=-1"], "lam"),
        (["--count", "1000001"], "count must be 0 to 1000000"),
        (["--count", "100000000000"], "count must be 0 to 1000000"),
    ],
)
def test_dispersion_table_bounds(tmp_path, capsys, argv, needle):
    _command(tmp_path, capsys, ["dispersion", *argv], needle)
    assert not (tmp_path / "cli" / "dispersion.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "1000"],  # 4**1000 raises OverflowError
        ["--lam", "1e200"],  # so does 1e200**2
        ["--xi-min", "1e-200", "--xi-max", "1e-200", "--count", "1"],  # xi**2 is 0
        ["--xi-min", "1e-160", "--xi-max", "1e-160", "--count", "1"],  # 1/xi**2 is inf
    ],
)
def test_dispersion_table_beyond_float64_exits_3(tmp_path, capsys, argv):
    prefix = "numerical consistency error:"
    _command(tmp_path, capsys, ["dispersion", *argv], "float64", exit_code=3, prefix=prefix)
    assert not (tmp_path / "cli" / "dispersion.csv").exists()


# each first allocation asks for 256 TiB, above the 128 TiB user address space, so it fails
# at once and nothing is allocated
@pytest.mark.parametrize(
    "argv, name",
    [
        (["random-field", "--nx", "4", "--ny", str(2**45)], "field.bin"),
        (["spectral-constant", "--profile-nx", str(2**45)], "spectral_constant.csv"),
    ],
)
def test_out_of_memory_request_exits_1(tmp_path, capsys, argv, name):
    _command(tmp_path, capsys, argv, "out of memory")
    assert not (tmp_path / "cli" / name).exists()


@pytest.mark.parametrize("fmt", ["csv", "json", "bin"])
@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_evolution_times_must_be_finite(tmp_path, capsys, field_32x8, fmt, time):
    argv = ["evolve", "--input", field_32x8, f"--times={time}", "--format", fmt]
    _command(tmp_path, capsys, argv, "times must be finite")
    assert not list((tmp_path / "cli").glob("snapshot_*"))


@pytest.mark.parametrize("value", ["1.5", "0", "nan"])
@pytest.mark.parametrize("command", ["observe", "evolve"])
def test_lam_on_a_2d_field_is_an_error(tmp_path, capsys, field_32x8, command, value):
    # a 2D field takes its transverse frequencies from its grid; --lam would be ignored
    times = ["--times=0.5", "--format", "bin"] if command == "evolve" else []
    argv = [command, "--input", field_32x8, "--lam", value, *times]
    _command(tmp_path, capsys, argv, "--lam")
    assert not list((tmp_path / "cli").glob("snapshot_*"))


@pytest.mark.parametrize("command", ["observe", "evolve"])
def test_lam_on_a_1d_field_must_be_finite(tmp_path, capsys, command):
    field = tmp_path / "u1.bin"
    write_field(random_field(kl.TorusGrid(32), seeded_rng(5, "range"), kmax=6), field)
    times = ["--times=0.5", "--format", "bin"] if command == "evolve" else []
    argv = [command, "--input", str(field), "--lam", "nan", *times]
    _command(tmp_path, capsys, argv, "lam must be nonnegative and finite")
    assert not list((tmp_path / "cli").glob("snapshot_*"))


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--times=1e300", "--format", "bin"],
        ["observe", "--horizon", "1e300", "--method", "gramian"],
        ["observe", "--horizon", "1e300", "--method", "quadrature"],
        # t = 0.5 alone is fine: every time is checked before the first snapshot
        ["evolve", "--times=0.5,1e300", "--format", "bin"],
    ],
)
def test_phases_beyond_their_precision_are_an_error(tmp_path, capsys, field_32x8, argv):
    _command(tmp_path, capsys, argv + ["--input", field_32x8], "exceed 2**53")
    assert not list((tmp_path / "cli").glob("snapshot_*"))


def test_gramian_checks_every_block_before_the_first_container(tmp_path, capsys):
    # at this horizon the l = 0 block, |omega| up to 4,096, keeps its phases within the bound;
    # the block at l = 8, |omega| up to 4,100, comes after the l = 0 container and exceeds it
    horizon = str(2.0**53 / 8196.0)
    argv = ["gramian", "--k-window", "16", "--l-window", "8", "--horizon", horizon]
    _command(tmp_path, capsys, argv, "exceed 2**53")
    assert not list((tmp_path / "cli").glob("gramian_*"))


def test_evolve_many_rejects_non_finite_times_before_work(monkeypatch, small_setup_1d):
    u0, _, params = small_setup_1d
    monkeypatch.setattr(kl.propagate, "_evolution", None)
    with pytest.raises(ParameterError, match="finite"):
        kl.evolve_many(u0, [0.0, np.nan], params)


def test_nan_times_are_an_error():
    # NaN compares false with the phase bound, so it once passed the check as a NaN phase
    u = random_field(kl.TorusGrid(64), seeded_rng(2, "range-nan"), kmax=4)
    p = kl.DispersionParams.reduced(2.0, 1.0)
    with pytest.raises(ParameterError, match="finite"):
        kl.evolve_semiclassical(u, float("nan"), 0.125, p)
    with pytest.raises(ParameterError, match="finite"):
        kl.evolve_semiclassical(u, np.array([0.5, np.nan]), 0.125, p)
    v = random_field(kl.TorusGrid(16, 8), seeded_rng(2, "range-nan"), kmax=4, lmax=2)
    with pytest.raises(ParameterError, match="finite"):
        kl.evolve_modewise(v, float("nan"), 2.0)
    profile, params = kl.default_profile(16), kl.DispersionParams.kp1(2.0)
    traj = ControlTrajectory(1.0, v, profile, params, "vertical", np.empty(0), ())
    with pytest.raises(ParameterError, match="finite"):
        traj.control_at(float("nan"))
    with pytest.raises(ParameterError, match="finite"):
        traj.controls_at(np.array([0.5, np.nan]))
    with pytest.raises(ParameterError, match=r"2\*\*53"):
        unit_phases(np.array([1.0, 2.0]), float("nan"))


_FAMILY_ENTRY_POINTS = [
    ("evolve_many", lambda u, g, p: kl.evolve_many(u, [0.5], p)),
    ("ratio-gramian", lambda u, g, p: kl.observability_ratio(u, 1.0, g, p, method="gramian")),
    (
        "ratio-quadrature",
        lambda u, g, p: kl.observability_ratio(u, 1.0, g, p, method="quadrature", panels=2),
    ),
    ("ControlGramian", lambda u, g, p: kl.ControlGramian(u.grid, 1.0, g, p)),
    ("control_gramian_apply", lambda u, g, p: kl.control_gramian_apply(u, 1.0, g, p)),
    ("hum_functional", lambda u, g, p: kl.hum_functional(u, u, 1.0, g, p)),
    (
        "quadrature_gramian_apply",
        lambda u, g, p: quadrature_gramian_apply(u, 1.0, g, p, panels=2, order=8),
    ),
    ("rk4_reference_evolve", lambda u, g, p: kl.rk4_reference_evolve(u, 0.5, 4, p)),
]


@pytest.mark.parametrize(
    "shape, params",
    [
        pytest.param((16, 8), kl.DispersionParams.reduced(2.0, 1.0), id="2d-reduced"),
        pytest.param((16,), kl.DispersionParams.kp1(2.0), id="1d-kp1"),
    ],
)
@pytest.mark.parametrize(
    "call", [c for _, c in _FAMILY_ENTRY_POINTS], ids=[name for name, _ in _FAMILY_ENTRY_POINTS]
)
def test_a_family_on_the_other_dimension_is_an_error(shape, params, call):
    # the frequency table is the one place that pairs a grid with a family
    grid = kl.TorusGrid(*shape)
    u = random_field(grid, seeded_rng(7, "pairing"), kmax=4, lmax=2 if len(shape) == 2 else None)
    profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(16))
    with pytest.raises(DimensionError, match="dispersion requires a"):
        call(u, profile, params)


@pytest.mark.parametrize(
    "assemble",
    [
        lambda g, p: kl.assemble_observability_gramian(1.0, 4, 2, g, p),
        lambda g, p: next(kl.observability_gramian_blocks(1.0, 4, [0, 1, 2], g, p)),
        lambda g, p: kl.assemble_horizontal_gramian(1.0, 4, 2, g, p),
    ],
    ids=["assemble_observability_gramian", "observability_gramian_blocks", "horizontal"],
)
def test_a_1d_family_in_a_window_gramian_is_an_error(assemble):
    # the window blocks are 2D: a reduced family's lam once went unread
    profile = kl.default_profile(16)
    assemble(profile, kl.DispersionParams.kp1(2.0))
    with pytest.raises(DimensionError, match="reduced-1d dispersion requires a 1D field"):
        assemble(profile, kl.DispersionParams.reduced(2.0, 3.0))


@pytest.fixture()
def small_setup_1d():
    grid = kl.TorusGrid(16)
    u0 = random_field(grid, seeded_rng(2, "range-1d"), kmax=4)
    profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", grid)
    return u0, profile, kl.DispersionParams.reduced(2.0, 1.0)


def test_synthesis_rejects_out_of_range_before_work(small_setup_1d):
    u0, profile, params = small_setup_1d
    for kwargs in ({"tol": float("nan")}, {"tol": -1e-3}, {"tol": 2.0}, {"max_iter": 0}):
        with pytest.raises(ParameterError):
            synthesize_control(u0, u0 * 0.0, 1.0, profile, params, **kwargs)


@pytest.mark.parametrize(
    "bad",
    [
        {"horizon": -1.0}, {"horizon": float("nan")}, {"horizon": float("inf")},
        {"panels": 0}, {"panels": 2.0}, {"order": 0}, {"order": -3}, {"order": "24"},
    ],
)
def test_quadratures_reject_out_of_range_before_work(small_setup_1d, bad):
    u0, profile, params = small_setup_1d
    args = {"horizon": 1.0, "panels": 2, "order": 8} | bad
    horizon, rule = args.pop("horizon"), args
    with pytest.raises(ParameterError):
        quadrature_observed_energy(u0, horizon, profile, params, **rule)
    with pytest.raises(ParameterError):
        quadrature_gramian_apply(u0, horizon, profile, params, **rule)
    with pytest.raises(ParameterError):
        kl.observability_ratio(u0, horizon, profile, params, method="quadrature", **rule)


def test_gramian_block_rejects_non_finite_entries():
    matrix = np.eye(3, dtype=complex)
    for bad in (np.nan, np.inf):
        matrix[1, 1] = bad
        with pytest.raises(NumericalConsistencyError):
            GramianBlock(np.arange(3), 0, 1.0, matrix)


def test_kernel_rejects_non_finite_horizon():
    profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(16))
    idx = np.array([-2, -1, 1, 2])
    for horizon in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ParameterError):
            gramian_from_frequencies(horizon, idx, idx.astype(float) ** 3, profile)


def test_kernel_rejects_an_empty_window_before_work(monkeypatch):
    profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(64))
    for work in ("_static_gram", "time_factor"):
        monkeypatch.setattr(kl.observe, work, None)
    with pytest.raises(ParameterError, match="empty"):
        gramian_from_frequencies(1.0, np.array([], int), np.array([]), profile)
    with pytest.raises(ParameterError, match="empty"):
        kl.assemble_horizontal_gramian(1.0, -1, 1, profile, kl.DispersionParams.kp1(2.0))
    for matrix in (np.zeros((0, 0)), np.eye(3)[:2]):
        with pytest.raises(DimensionError, match="nonempty square"):
            GramianBlock(np.arange(len(matrix)), 0, 1.0, matrix)


def test_moments_name_the_frequency_the_caller_gave():
    # the moment of k reads the coefficient of -k; a 64-point grid holds -32 .. 31
    profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(64))
    with pytest.raises(ParameterError, match="k=40 "):
        gramian_from_frequencies(1.0, np.array([1, 40]), np.array([1.0, 64000.0]), profile)
    with pytest.raises(ParameterError, match="k=-32 "):
        profile.exp_moment(np.array([[3, -32], [1, 2]]))
    assert profile.exp_moment(np.array([32, -31])).shape == (2,)


def test_negative_spectral_order(tmp_path, capsys):
    needle = "m_max must be nonnegative, got -1"
    _section(tmp_path, capsys, "spec", "type = spectral-constant\nm_max = -1\n", needle)
    _command(tmp_path, capsys, ["spectral-constant", "--m-max", "-1"], needle)
    assert not (tmp_path / "cli" / "spectral_constant.csv").exists()


@pytest.mark.parametrize("command", ["random-field", "run"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # numpy's SeedSequence takes nonnegative integers only
    cfg = tmp_path / "spec.cfg"
    cfg.write_text("[spec]\ntype = spectral-constant\nm_max = 1\nprofile_nx = 64\n")
    argv = {"random-field": ["random-field", "--nx", "16"], "run": ["run", str(cfg)]}[command]
    with pytest.raises(SystemExit) as info:
        main(["--out", str(tmp_path / "cli"), *argv, "--seed", "-1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kpi-lab") and "invalid seed value: '-1'" in err, err
    assert not (tmp_path / "cli").exists()


def test_negative_seed_in_a_config_is_an_error_at_its_line(tmp_path, capsys):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text("[spec]\ntype = spectral-constant\nm_max = 1\n[run]\nseed = -5\n")
    code = main(["--out", str(tmp_path / "out"), "run", str(cfg)])
    needle = "line 5: [run] bad value for 'seed': '-5'"
    _expect_error(capsys, code, needle, exit_code=2, prefix="config error:")
    assert not (tmp_path / "out" / "spec.csv").exists()


def test_singular_spectral_constant_exits_3(tmp_path, capsys):
    argv = [
        "spectral-constant", "--profile-nx", "16", "--support-a", "0.3",
        "--support-b", "0.9", "--m-max", "5",
    ]
    prefix = "numerical consistency error:"
    _command(tmp_path, capsys, argv, "diverges", exit_code=3, prefix=prefix)
    assert not (tmp_path / "cli" / "spectral_constant.csv").exists()


def test_gramian_method_rejects_nyquist_content():
    # the evolution zeroes the Nyquist modes, so neither the closed-form blocks
    # nor the quadrature see them on either axis, while ||u0||^2 holds their mass
    grid = kl.TorusGrid(16, 8)
    params = kl.DispersionParams.kp1(2.0)
    profiles = {
        "vertical": kl.make_control_profile(-1.0, 1.0, "smooth-exp", kl.TorusGrid(16)),
        "horizontal": kl.make_control_profile(-1.0, 1.0, "smooth-exp", kl.TorusGrid(8)),
    }
    for position in ((0, 5), (3, 0)):  # k = -8 at l = 1, l = -4 at k = -5
        coeffs = np.zeros(grid.shape, dtype=complex)
        coeffs[grid.index_of_k(2), grid.index_of_l(1)] = 1.0
        coeffs[position] = 0.5
        u = kl.SpectralField(grid, coeffs)
        for orientation, profile in profiles.items():
            for method in ("gramian", "quadrature"):
                with pytest.raises(ParameterError, match="Nyquist"):
                    kl.observability_ratio(u, 1.0, profile, params, orientation, method)
