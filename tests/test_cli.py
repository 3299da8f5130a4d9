import json

import numpy as np
import pytest

import kpilab as kl
from kpilab.cli import main
from kpilab.experiments import random_field, seeded_rng
from kpilab.storage import read_field, write_field


def test_run_success_and_outputs(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[run]\nseed = 3\n\n[d]\ntype = dichotomy\nalpha = 0.5\nn_min = 4\nn_max = 5\n")
    code = main(["--out", str(tmp_path / "out"), "run", str(cfg)])
    assert code == 0
    assert (tmp_path / "out" / "d.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_run_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[d]\ntype = dichotomy\nalpha = fish\n")
    code = main(["run", str(cfg)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[run]\nseed = 3\n")
    for argv in (["--threads", "2", "run", str(cfg)], ["run", str(cfg), "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: kpi-lab")


def test_dispersion_table(tmp_path):
    code = main(["--out", str(tmp_path), "dispersion", "--alpha", "2", "--count", "32"])
    assert code == 0
    lines = (tmp_path / "dispersion.csv").read_text().strip().splitlines()
    assert lines[0] == "xi,multiplier,group_velocity"
    assert len(lines) > 20


def test_evolve_and_observe_round_trip(tmp_path, rng, capsys):
    field = random_field(kl.TorusGrid(32, 8), rng, kmax=5, lmax=2)
    src = tmp_path / "u0.bin"
    write_field(field, src)

    code = main(
        ["--out", str(tmp_path), "evolve", "--input", str(src), "--times", "0.5", "--format", "bin"]
    )
    assert code == 0
    snap = read_field(tmp_path / "snapshot_t0.5.bin")
    expect = kl.evolve(field, 0.5, kl.DispersionParams.kp1(2.0))
    assert np.max(np.abs(snap.coeffs - expect.coeffs)) == 0.0

    code = main(["observe", "--input", str(src), "--horizon", "1.0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    direct = kl.observability_ratio(
        field,
        1.0,
        kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(32)),
        kl.DispersionParams.kp1(2.0),
    )
    assert report["ratio"] == direct


@pytest.mark.parametrize("method", ["gramian", "quadrature"])
# smooth-exp on (pi/4, 3pi/4) holds one node of the 8-point y-axis, where G vanishes; on
# (0.78, 2.3562) it holds two, but the one at pi/4 has about 1e-32 of the mass
@pytest.mark.parametrize("support", [("0.7854", "2.3562"), ("0.78", "2.3562")])
def test_observe_rejects_a_control_profile_on_one_grid_node(tmp_path, capsys, method, support):
    src = tmp_path / "field.bin"
    argv = ["--out", str(tmp_path), "random-field", "--nx", "16", "--ny", "8", "--kmax", "3"]
    assert main(argv + ["--lmax", "2", "--seed", "3"]) == 0
    argv = ["observe", "--input", str(src), "--method", method, "--control", "horizontal"]
    capsys.readouterr()
    assert main(argv + ["--support-a", support[0], "--support-b", support[1]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_evolve_rejects_a_non_finite_time_before_any_write(tmp_path, rng, capsys):
    src = tmp_path / "u0.bin"
    write_field(random_field(kl.TorusGrid(32, 8), rng, kmax=5, lmax=2), src)
    out = tmp_path / "out"
    code = main(["--out", str(out), "evolve", "--input", str(src), "--times", "0,nan"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(out.glob("snapshot_*"))


def test_flags_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    # the parser is built once per process; every call must parse into a fresh namespace

    def field(out, *flags):
        assert main(["--out", str(out), "random-field", "--nx", "16", *flags]) == 0
        return (out / "field.bin").read_bytes()

    plain = field(tmp_path / "a")
    seeded = field(tmp_path / "b", "--seed", "7")
    assert seeded != plain
    assert field(tmp_path / "c", "--kmax", "2") != plain
    assert field(tmp_path / "d", "--seed", "7") == seeded
    assert field(tmp_path / "e") == plain
    evolve = ["evolve", "--input", str(tmp_path / "a" / "field.bin"), "--times", "1"]
    assert main(["--out", str(tmp_path / "f")] + evolve + ["--format", "json"]) == 0
    assert main(["--out", str(tmp_path / "g")] + evolve + ["--lam", "2"]) == 0
    assert main(["--out", str(tmp_path / "h")] + evolve) == 0
    assert [p.name for p in (tmp_path / "h").iterdir()] == ["snapshot_t1.csv"]
    # --lam 2 stayed with its call: the snapshot at the default lam 0 differs
    assert (tmp_path / "h" / "snapshot_t1.csv").read_bytes() != (
        tmp_path / "g" / "snapshot_t1.csv"
    ).read_bytes()


def test_evolve_rejects_times_that_share_a_snapshot_name(tmp_path, rng, capsys):
    src = tmp_path / "u0.bin"
    write_field(random_field(kl.TorusGrid(32, 8), rng, kmax=5, lmax=2), src)
    out = tmp_path / "out"
    # both times print as 0.123457, so the second snapshot would overwrite the first
    times = ["--times", "0.1234567,0.1234568"]
    code = main(["--out", str(out), "evolve", "--input", str(src)] + times)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(out.glob("snapshot_*"))


def test_gramian_subcommand(tmp_path, capsys):
    code = main(
        [
            "--out",
            str(tmp_path),
            "gramian",
            "--k-window",
            "4",
            "--l-window",
            "1",
            "--profile-nx",
            "256",
        ]
    )
    assert code == 0
    assert (tmp_path / "gramian_eigenvalues.csv").exists()
    assert (tmp_path / "gramian_l0.bin").exists()
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["lambda_min"] > 0


def test_control_subcommand(tmp_path, rng, capsys):
    u0 = random_field(kl.TorusGrid(32, 8), rng, kmax=6, lmax=2)
    src = tmp_path / "u0.bin"
    write_field(u0, src)
    code = main(
        [
            "--out",
            str(tmp_path),
            "control",
            "--initial",
            str(src),
            "--verify-steps",
            "2000",
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "control_report.json").read_text())
    assert report["relative_residual"] <= 1e-8
    assert report["terminal_error"] <= 1e-4
    assert (tmp_path / "trajectory.bin").exists()


def test_control_names_an_exhausted_iteration_budget(tmp_path, capsys):
    # one iteration leaves the residual falling: that is not a stagnated solve
    src = tmp_path / "u0.bin"
    write_field(random_field(kl.TorusGrid(16, 4), seeded_rng(3, "budget"), kmax=4, lmax=1), src)
    argv = ["--out", str(tmp_path / "out"), "control", "--initial", str(src), "--max-iter", "1"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error: conjugate residual reached max_iter = 1 on block"), err
    assert "still falling" in err and "stagnated" not in err
    assert not (tmp_path / "out" / "trajectory.bin").exists()


@pytest.mark.parametrize("nyquist", ["--initial", "--target"])
def test_control_rejects_nyquist_content(tmp_path, rng, capsys, nyquist):
    # every evolution drops the row k = -nx/2, so no control sees or reaches content there
    grid = kl.TorusGrid(32, 8)
    clean = random_field(grid, rng, kmax=6, lmax=2)
    coeffs = clean.coeffs.copy()
    coeffs[0, grid.index_of_l(1)] = 0.3
    write_field(clean, tmp_path / "clean.bin")
    write_field(kl.SpectralField(grid, coeffs), tmp_path / "nyquist.bin")
    argv = ["control", "--verify-steps", "200"]
    for flag in ("--initial", "--target"):
        argv += [flag, str(tmp_path / ("nyquist.bin" if flag == nyquist else "clean.bin"))]
    assert main(["--out", str(tmp_path / "out")] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Nyquist" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape", [(32, 4), (16, 8)])
def test_control_target_on_another_grid_is_an_error(tmp_path, capsys, shape):
    write_field(kl.mode_field(kl.TorusGrid(16, 4), 1, 1), tmp_path / "u0.bin")
    write_field(kl.mode_field(kl.TorusGrid(*shape), 1, 1), tmp_path / "u1.bin")
    argv = ["control", "--initial", str(tmp_path / "u0.bin"), "--target", str(tmp_path / "u1.bin")]
    assert main(["--out", str(tmp_path / "out")] + argv) == 1
    assert "initial and target fields live on different grids" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dichotomy_subcommand(tmp_path, capsys):
    code = main(
        ["--out", str(tmp_path), "dichotomy", "--alpha", "0.5", "--n-min", "4", "--n-max", "5"]
    )
    assert code == 0
    assert (tmp_path / "dichotomy.csv").exists()
    summary = json.loads((tmp_path / "dichotomy.json").read_text())
    assert "slope" in summary


def test_dichotomy_zero_first_ratio_is_null(tmp_path, capsys, recwarn):
    # a subnormal horizon observes nothing, so every ratio is exactly 0
    argv = ["dichotomy", "--alpha", "2", "--n-min", "4", "--n-max", "5", "--horizon", "5e-324"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    summary = json.loads((tmp_path / "dichotomy.json").read_text())
    assert summary["last_over_first"] is None and summary["floor_over_first"] is None
    assert json.loads(capsys.readouterr().out) == summary
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("n_max, code", [(16, 0), (17, 3)])
def test_dichotomy_rejects_ratios_below_their_resolution(tmp_path, capsys, n_max, code):
    # at alpha = 0.5 the ratio of n = 16 (1.8e-13) clears size * eps * lambda_max (3.5e-14);
    # that of n = 17 (3.5e-16, bound 5.0e-14) is rounding noise
    n_min = 4 if code == 0 else 16
    argv = ["dichotomy", "--alpha", "0.5", "--n-min", str(n_min), "--n-max", str(n_max)]
    assert main(["--out", str(tmp_path)] + argv) == code
    if code:
        assert "packet n = 17: observed-energy ratio" in capsys.readouterr().err
        assert not (tmp_path / "dichotomy.csv").exists()


def test_spectral_constant_subcommand(tmp_path):
    code = main(
        ["--out", str(tmp_path), "spectral-constant", "--m-max", "4", "--profile-nx", "256"]
    )
    assert code == 0
    lines = (tmp_path / "spectral_constant.csv").read_text().strip().splitlines()
    assert lines[0] == "m0,kappa"
    assert len(lines) == 6


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KPI_LAB_OUTPUT_ROOT", str(tmp_path / "envout"))
    code = main(["dispersion", "--count", "16"])
    assert code == 0
    assert (tmp_path / "envout" / "dispersion.csv").exists()


def test_run_numerical_consistency_exit_code(tmp_path, capsys):
    # kmax at the window edge trips the spectral-leakage guard
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[run]\nseed = 3\n\n[steer]\ntype = hum-steer\nnx = 64\nny = 16\nkmax = 31\nlmax = 4\n"
    )
    code = main(["--out", str(tmp_path / "out"), "run", str(cfg)])
    assert code == 3
    assert "numerical consistency error" in capsys.readouterr().err


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_gramian_infinite_constant_is_null(tmp_path, capsys):
    # at this horizon the floor block is singular to rounding: lambda_min <= 0
    args = ["--out", str(tmp_path), "gramian", "--horizon", "0.001"]
    code = main(args + ["--k-window", "32", "--l-window", "0"])
    assert code == 0
    report = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["lambda_min"] <= 0
    assert report["constant"] is None


def test_gramian_floor_infinite_constant_is_null(tmp_path):
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("[floor]\ntype = gramian-floor\nhorizon = 0.001\nk_window = 32\nl_window = 0\n")
    assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == 0
    summary = _strict_json((tmp_path / "out" / "summary.json").read_text())
    assert summary["floor"]["observability_constant"] is None


def test_damaged_field_container_is_an_error(tmp_path, capsys):
    src = tmp_path / "u0.bin"
    write_field(kl.mode_field(kl.TorusGrid(16, 4), 1, 1), src)
    raw = src.read_bytes()
    bad_dimension = raw[:5] + bytes([3]) + raw[6:]
    for name, data in [
        ("truncated", raw[:-8]),
        ("padded", raw + bytes(8)),
        ("header-only", raw[:10]),
        ("bad-dimension", bad_dimension),
    ]:
        path = tmp_path / f"{name}.bin"
        path.write_bytes(data)
        code = main(["observe", "--input", str(path)])
        assert code == 1, name
        assert capsys.readouterr().err.startswith("error:"), name


@pytest.mark.parametrize(
    "argv",
    [
        ["observe", "--input", "{missing}"],
        ["observe", "--input", "{folder}"],
        ["evolve", "--input", "{missing}", "--times", "0.5"],
        ["evolve", "--input", "{folder}", "--times", "0.5"],
        ["control", "--initial", "{missing}"],
        ["control", "--initial", "{field}", "--target", "{missing}"],
        ["control", "--initial", "{folder}"],
    ],
)
def test_unreadable_input_is_an_error(tmp_path, capsys, argv):
    write_field(kl.mode_field(kl.TorusGrid(16, 4), 1, 1), tmp_path / "u0.bin")
    paths = {"missing": tmp_path / "nonexist.bin", "folder": tmp_path, "field": tmp_path / "u0.bin"}
    argv = [arg.format(**paths) for arg in argv]
    assert main(["--out", str(tmp_path / "out")] + argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_unwritable_output_is_an_error(tmp_path, capsys):
    src = tmp_path / "u0.bin"
    write_field(kl.mode_field(kl.TorusGrid(16, 4), 1, 1), src)
    # a directory below a regular file cannot be made
    argv = ["control", "--initial", str(src), "--verify-steps", "100"]
    assert main(["--out", str(src / "x")] + argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("name", ["nonexist.toml", "."])
def test_unreadable_config_is_a_config_error(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    assert main(["--out", str(tmp_path / "out"), "run", name]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_text_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"[run]\nseed = \xff\n")
    assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", "..", "nul\0name"])
def test_section_name_that_is_not_one_path_component_is_a_config_error(tmp_path, capsys, name):
    # each section writes <name>.csv in the output directory; this one would land elsewhere
    cfg = tmp_path / "exp.cfg"
    section = f"[{name}]\ntype = dichotomy\nalpha = 0.5\nn_min = 4\nn_max = 5\n"
    cfg.write_text("[run]\nseed = 3\n\n" + section)
    assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]
