import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

import kpilab as kl
from kpilab.errors import ConfigError, NumericalConsistencyError, ParameterError
from kpilab.experiments import (
    GRAMIAN_FLOOR_KEYS,
    check_leakage,
    control_profile,
    gramian_floor,
    leakage_fraction,
    parse_config,
    random_field,
    run_experiment,
    seeded_rng,
)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestRandomFields:
    def test_unit_norm_mean_zero_nyquist_free(self, rng):
        g = kl.TorusGrid(64, 16)
        u = random_field(g, rng)
        assert abs(u.norm() - 1.0) < 1e-13
        assert np.max(np.abs(u.coeffs[g.index_of_k(0)])) == 0.0
        assert np.max(np.abs(u.coeffs[0])) == 0.0
        assert np.max(np.abs(u.coeffs[:, 0])) == 0.0

    def test_seed_stability(self):
        a = random_field(kl.TorusGrid(32), seeded_rng(5, "x"))
        b = random_field(kl.TorusGrid(32), seeded_rng(5, "x"))
        c = random_field(kl.TorusGrid(32), seeded_rng(5, "y"))
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_leakage_guard(self, rng):
        g = kl.TorusGrid(64)
        inner = random_field(g, rng, kmax=10)
        assert leakage_fraction(inner) == 0.0
        check_leakage(inner)
        outer = kl.mode_field(g, 30)
        with pytest.raises(NumericalConsistencyError):
            check_leakage(outer)


class TestScans:
    def test_frequency_scan_rows(self, profile_default):
        rows = kl.frequency_localized_scan(
            h=1.0 / 64.0,
            n_values=range(-1, 2),
            epsilon0=0.5,
            horizon=1.0,
            profile=profile_default,
            trials=4,
            rng=seeded_rng(3, "scan"),
        )
        assert [r["n"] for r in rows] == [-1, 0, 1]
        for r in rows:
            assert r["modes"] > 0
            assert np.isfinite(r["empirical_constant"])
            assert r["empirical_constant"] > 0

    def test_regime_constraint(self, profile_default):
        with pytest.raises(ParameterError):
            kl.frequency_localized_scan(
                h=0.25,
                n_values=[3],
                epsilon0=0.5,
                horizon=1.0,
                profile=profile_default,
                trials=4,
                rng=seeded_rng(3, "regime"),
            )

    def test_weak_observability_rows(self):
        profile = kl.make_control_profile(
            np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(128)
        )
        rows = kl.weak_observability_diagnostic(
            h=1.0 / 16.0,
            horizon=1.0,
            trials=6,
            profile=profile,
            rng=seeded_rng(4, "weak"),
        )
        assert len(rows) == 6
        for r in rows:
            assert r["constant"] > 0
            assert r["constant"] * (r["observed_energy"] + r["weak_remainder"]) == pytest.approx(
                r["mass"]
            )

    def test_weak_bound_single_low_mode(self):
        # for a single low mode the negative-order remainder alone already
        # closes the two-term bound with constant one
        g = kl.TorusGrid(128)
        u_low = kl.mode_field(g, 1)
        remainder = kl.sobolev_norm(u_low, -1.0) ** 2
        assert u_low.norm() ** 2 / remainder <= 1.0 + 1e-12

    def test_weak_bound_high_modes_reduce_to_plain_observability(self):
        # data far up the spectrum make the remainder negligible against the
        # observed energy, so the constant is essentially mass over energy; the
        # data fill the default window of the profile's grid, |k| <= 102 on 512 points
        profile = kl.make_control_profile(
            np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(512)
        )
        rows = kl.weak_observability_diagnostic(
            h=1.0 / 16.0,
            horizon=1.0,
            trials=1,
            profile=profile,
            rng=seeded_rng(6, "weak-high"),
            alpha=2.0,
        )
        row = rows[0]
        # measured 0.064 for this window, 0.26 for the |k| <= 51 of 256 points, and 3.9 for
        # a |k| <= 3 one
        assert row["weak_remainder"] <= 0.2 * row["observed_energy"]


CONFIG_OK = """
# run settings
[run]
seed = 77

[dichotomy-weak]
type = dichotomy
alpha = 0.5
n_min = 4
n_max = 6
horizon = 1.0

[scan-random]
type = weak-observability
h = 0.0625
trials = 3
profile_nx = 128
"""


class TestConfig:
    def test_parse_ok(self):
        sections = parse_config(CONFIG_OK)
        assert set(sections) == {"run", "dichotomy-weak", "scan-random"}
        assert sections["run"]["seed"].value == "77"
        assert sections["scan-random"]["h"].line == 15

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("seed = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[a]\nnonsense\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[a]\nx = 1\nx = 2\n")

    def test_unknown_type(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[bad]\ntype = nonsense\n")
        with pytest.raises(ConfigError, match="line 2"):
            run_experiment(cfg, output_root=tmp_path / "out")

    def test_bad_value_is_line_precise(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[d]\ntype = dichotomy\nalpha = fish\n")
        with pytest.raises(ConfigError, match="line 3"):
            run_experiment(cfg, output_root=tmp_path / "out")


class TestRunExperiment:
    def test_empty_config_gives_manifest_only(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[run]\nseed = 1\n")
        out = tmp_path / "out"
        manifest = run_experiment(cfg, output_root=out)
        assert (out / "manifest.json").exists()
        files = {e["file"] for e in manifest["outputs"]}
        assert files == {"summary.json"}

    def test_manifest_records_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[run]\nseed = 1\n")
        run_experiment(cfg, output_root=tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None
        }
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}

    def test_manifest_blas_is_null_where_numpy_cannot_report_it(self, tmp_path, monkeypatch):
        def old_show_config():  # numpy < 1.26 takes no mode
            return None

        monkeypatch.setattr(np, "show_config", old_show_config)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[run]\nseed = 1\n")
        run_experiment(cfg, output_root=tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["blas"] is None

    def test_manifest_records_scipy_only_where_a_section_loaded_it(self, tmp_path):
        # a fresh interpreter: the floor loads no scipy, a dichotomy loads QUADPACK
        script = """
import sys
from pathlib import Path
from kpilab.experiments import run_experiment
out = Path(sys.argv[1])
(out / "floor.cfg").write_text("[f]\\ntype = gramian-floor\\nk_window = 4\\nl_window = 1\\n")
(out / "dich.cfg").write_text("[d]\\ntype = dichotomy\\nalpha = 2.0\\nn_min = 4\\nn_max = 5\\n")
for name in ("floor", "dich"):
    run_experiment(out / f"{name}.cfg", output_root=out / name)
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True)
        versions = [
            json.loads((tmp_path / name / "manifest.json").read_text())["scipy_version"]
            for name in ("floor", "dich")
        ]
        assert versions == [None, scipy.__version__]

    def test_dichotomy_rows_and_shape(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CONFIG_OK)
        out = tmp_path / "out"
        run_experiment(cfg, output_root=out)
        lines = (out / "dichotomy-weak.csv").read_text().strip().splitlines()
        assert lines[0] == "n,h,eps,ratio,grid_nx"
        assert len(lines) == 1 + 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dichotomy-weak"]["monotone_decreasing"] is True

    def test_manifest_lists_all_outputs_with_hashes(self, tmp_path):
        import hashlib

        cfg = tmp_path / "c.cfg"
        cfg.write_text(CONFIG_OK)
        out = tmp_path / "out"
        manifest = run_experiment(cfg, output_root=out)
        listed = {e["file"] for e in manifest["outputs"]}
        produced = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == produced
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CONFIG_OK)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, output_root=out1)
        run_experiment(cfg, output_root=out2)
        for name in ("dichotomy-weak.csv", "scan-random.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_random_outputs(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CONFIG_OK)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, output_root=out1)
        run_experiment(cfg, output_root=out2, seed_override=1234)
        assert (out1 / "scan-random.csv").read_bytes() != (out2 / "scan-random.csv").read_bytes()
        # the dichotomy is deterministic and seed-independent
        assert (out1 / "dichotomy-weak.csv").read_bytes() == (out2 / "dichotomy-weak.csv").read_bytes()


class TestScanGoldens:
    def test_near_critical_block_has_largest_exact_constant(self, profile_default):
        # the slow modes near the group-velocity zero live in the n = 0
        # block (and the ramp of n = 1); first verified run: 7.3811 there
        # against 7.3100 far away
        rows = kl.frequency_localized_scan(
            h=1.0 / 64.0,
            n_values=range(-2, 3),
            epsilon0=0.5,
            horizon=1.0,
            profile=profile_default,
            trials=4,
            rng=seeded_rng(42, "near-critical"),
        )
        by_n = {r["n"]: r for r in rows}
        near = by_n[0]["exact_constant"]
        far = by_n[-2]["exact_constant"]
        assert np.isfinite(near) and near > 0
        assert near >= 1.005 * far
        for r in rows:
            assert r["empirical_constant"] <= r["exact_constant"] * (1 + 1e-9)

    def test_single_mode_datum_inside_block(self, profile_default):
        # one mode: the ratio is finite, positive, and below the block worst
        from kpilab.dispersion import frequencies_1d
        from kpilab.fourier import TWO_PI
        from kpilab.observe import gramian_from_frequencies

        h = 1.0 / 64.0
        params = kl.DispersionParams.reduced(2.0, 1.0 / h**2)
        idx = np.array([48])  # h*k = 0.75, inside the n = 0 block
        omega = frequencies_1d(idx, params).astype(float)
        block = gramian_from_frequencies(1.0, idx, omega, profile_default, plain_weight=True)
        c = np.array([1.0 + 0.0j])
        ratio = (TWO_PI * np.sum(np.abs(c) ** 2)) / (TWO_PI * block.quadratic_form(c))
        assert 0 < ratio < np.inf

    def test_weak_observability_bounded_across_h(self):
        # first verified run: max constants 7.09, 7.07, 7.08
        profile = kl.make_control_profile(
            np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(1024)
        )
        for h in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
            rows = kl.weak_observability_diagnostic(
                h, 1.0, 8, profile, rng=seeded_rng(9, f"weak-{h}")
            )
            assert max(r["constant"] for r in rows) <= 8.0


class TestScanGuards:
    def test_weak_diagnostic_h_window(self, profile_default):
        with pytest.raises(ParameterError):
            kl.weak_observability_diagnostic(1.5, 1.0, 1, profile_default, seeded_rng(0, "h"))

    def test_frequency_scan_rejects_bad_h(self, profile_default):
        with pytest.raises(ParameterError):
            kl.frequency_localized_scan(-0.1, [0], 0.5, 1.0, profile_default, 1, seeded_rng(0, "h"))


class TestGramianFloor:
    @pytest.mark.parametrize("alpha", [2.0, 0.5])
    def test_blocks_equal_fresh_assembly_at_every_l(self, alpha):
        values = {key: default for key, (_, default) in GRAMIAN_FLOOR_KEYS.items()}
        values.update(alpha=alpha, k_window=8, l_window=3)
        blocks = []
        spectra, lambda_min, _ = gramian_floor(values, blocks.append)
        profile = control_profile(values)
        params = kl.DispersionParams.kp1(alpha)
        assert [s.fixed_freq for s in spectra] == list(range(-3, 4))
        # each block as it is built, then its twin at -l
        assert [b.fixed_freq for b in blocks] == [0, 1, -1, 2, -2, 3, -3]
        for block in blocks:
            fresh = kl.assemble_observability_gramian(
                values["horizon"], 8, block.fixed_freq, profile, params
            )
            assert np.array_equal(block.indices, fresh.indices)
            assert block.matrix.tobytes() == fresh.matrix.tobytes()
            assert block.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        labelled = {b.fixed_freq: b for b in blocks}
        assert all(s.eigenvalues is labelled[s.fixed_freq].eigenvalues for s in spectra)
        assert lambda_min == min(float(s.eigenvalues[0]) for s in spectra)
        # the block at -l shares the matrix and the one eigensolve of the block at l
        for l in range(1, 4):
            assert labelled[-l].matrix is labelled[l].matrix
            assert labelled[-l].eigenvalues is labelled[l].eigenvalues

    def test_floor_holds_one_block_at_a_time(self):
        # 9 blocks of 256 modes: the floor once held all of them, 9 MiB and more
        values = {key: default for key, (_, default) in GRAMIAN_FLOOR_KEYS.items()}
        values.update(k_window=128, l_window=8)
        block = 16 * 256**2
        tracemalloc.start()
        try:
            spectra, _, _ = gramian_floor(values)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(spectra) == 17
        # the static Gram, the kernel's output, its symmetrized copy and the eigensolver's
        assert peak <= 4 * block
        assert held <= 0.1 * block
