"""Frozen bytes of the array path and of the Gramian floor's exports.

``kpi-lab random-field``, ``evolve`` in all three formats and the printed
``observe --method quadrature`` ratio go through the transforms, the
phases, the control operator and the exporters. Of LAPACK they use one
routine: the quadrature's QR factor of G's columns on the support, whose
printed ratios are checked to keep their bytes under one BLAS thread. Their
bytes were frozen before the 1D and 2D code paths were merged into one; a
change of any of them changes a published output.

The quadrature takes its phases on the field's support only. The ratios of
a 128x32 field with 144 of its 4,096 coefficients nonzero were frozen while
the phases were still taken on every grid mode.

``evolve`` then took its phases on the field's support only, the kept
modes with a nonzero coefficient, so every other mode is +0. That re-froze
the twelve snapshot files and nothing else: both ``field.bin`` files and
the three ratio lines kept their bytes. Each snapshot was compared with the
one written before, float by float: every nonzero float is bit-identical,
and 24-106 floats per ``.bin`` file differ, each a -0.0 that is now +0.0
(1D 26 and 24, 2D 106 and 56 at t = 0.5 and 1.25). The CSV and JSON files
differ in the same entries only, where ``-0`` or ``-0.0`` became ``0`` or
``0.0``. A 2D field rejects ``--lam``, which its evolution never read, so
the 2D runs no longer pass it.

``kpi-lab gramian`` writes one container per transverse frequency and the
eigenvalue table. Its bytes were frozen while every block was still
assembled and diagonalized on its own, before the block at ``-l`` became
the block at ``|l|`` relabelled. The eigenvalues come from LAPACK, so their
last digits may depend on the BLAS build and its thread count. Those blocks
of 16 modes fill one row slice of the kernel; the 256-mode blocks of
``--k-window 128`` fill eight. Their containers and, under one BLAS thread,
their eigenvalue table were frozen while every entry of the time factor was
still computed, before an odd frequency table took the mirrored fill, and
while the floor still held every block to the end.

``kpi-lab control`` writes the 256 control samples to ``trajectory.bin``.
Their bytes were frozen while each sample was still evaluated on its own.
The Duhamel verifier's terminal error, a difference of nearly equal fields,
is held to 1e-12 relative, which pins its summation order, and is checked
apart from the samples so that neither frozen value can hide the other.

The quadrature and the verifier build G once per call, as a matrix on the
support modes of the control-axis lines, and multiply each node's lines by
it. That moved two frozen values, which were re-frozen from that code: the
1D quadrature ratio by 1 ulp, and the terminal error by 3.0e-17 (1.7e-12
relative). Every other frozen value kept its bytes.

The quadrature then observed each node through the s x s triangular factor
of those columns. That moved the 2D vertical ratio by 1 ulp and no other
frozen value. The same 16x24 rule evaluated at 40 digits from the same
float64 inputs gives 0.046438177645277071351: the old float lies 1.09 ulp
from it, the re-frozen one 2.09 ulp.

The quadrature's Gauss-Legendre rule then came from the package's own
Newton iteration instead of numpy's ``leggauss``, whose weights are up to
1.2e-13 relative off at order 24 against 9.6e-15, and its node times from
the rule's three levels in long double. That moved the five ratios by 1-6
ulp and no other array-path value. The same 16x24 rule evaluated at 40
digits with mpmath, from the same float64 coefficients, node times, weights
and profile values and the exact frequencies ``k^3 + l^2/k``, puts the old
and new floats at 2.09 and 3.14 ulp (2D vertical), 7.85 and 3.81 ulp (1D),
0.45 and 0.21 ulp (2D horizontal), 1.96 and 5.98 ulp (sparse vertical) and
0.90 and 2.36 ulp (sparse horizontal) from their own rule's value: the
float64 evaluation of 384 nodes carries a few ulp either way.

The verifier then became ``S(T) u0`` plus the Gauss-Legendre quadrature of
``Lambda_T phi`` on at least ``2 steps`` nodes. The old terminal error,
1.744e-5, was the Simpson rule's own error at 200 steps; the new one is the
synthesis' own, 4.3e-11, and it re-froze. The control samples keep their
bytes.

The control samples were then taken on the lines that hold phi, G as a
matrix on their support modes, where each sample had been G applied to the
whole grid. Each keeps its direct phases at its float64 time. That re-froze
``trajectory.bin`` and no other value. Against ``f(t) = G S(t - T) phi``
evaluated at 40 digits with mpmath (the container's phi, the profile's
float64 samples, an mpmath DFT for G, the exact frequencies, t the float64
time the container records beside each sample), the whole-grid samples lay
at most 1.96e-15 of their sample's largest entry off it (median 7.1e-16 over
the 256 samples), the new ones 1.45e-15 (median 5.2e-16). A test holds four
of the samples to 1e-14 of that value.

``kpi-lab spectral-constant`` writes the table of sharp constants
``kappa(m0)``. Its bytes, and the table of a two-interval profile, were
frozen while every order still had its own Cholesky factorization and a
cold-started inverse-power loop; the constants are converged far below
float64 resolution, so the factorization shared by all orders must give the
same floats. The default profile's table to ``m0 = 32`` was frozen as hex
floats while the moments were still summed in mpmath; the integer moments
must give the same bits.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import kpilab as kl
from kpilab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

FIELDS = {
    "1d": ["--nx", "64", "--kmax", "12", "--seed", "3"],
    "2d": ["--nx", "32", "--ny", "8", "--kmax", "6", "--lmax", "2", "--seed", "4"],
}
EVOLVE = ["--times", "0.5,1.25", "--alpha", "1.5"]
# the 1D field stands for the transverse mode lam = 1.5; a 2D field rejects --lam
LAM = {"1d": ["--lam", "1.5"], "2d": []}
OBSERVE = {"1d": ["vertical"], "2d": ["vertical", "horizontal"]}
PROFILE = ["--support-a", "-1.2", "--support-b", "1.9", "--profile", "hann-squared"]

# taken from the code before the merge of the 1D and 2D paths; the snapshots re-frozen
# when evolve took its phases on the support only (the sign of zero entries moved)
FROZEN = {
    "1d-bin/snapshot_t0.5.bin": "f10450ea218ccfe5be8f681e1a8ee3bb10347356644757ce74834e09dd9eac22",
    "1d-bin/snapshot_t1.25.bin": "8c6df15b9a9c554845e4b01943c241bd529defbeb52014c447f6c2a61a7e9db5",
    "1d-csv/snapshot_t0.5.csv": "b85e564ccae5313210dabacd3cbe2d1daa57b236844bfd8a97ae7429e90a14e1",
    "1d-csv/snapshot_t1.25.csv": "674af8adde4503538ff76c7ab046a9133b83b828241d2ad93c17579fcd5c7669",
    "1d-json/snapshot_t0.5.json": "a07bd3dc79aeef3ff6f0f81d0ec31ed894c9cbb2af2f028eb3a3f998ec8bf840",
    "1d-json/snapshot_t1.25.json": "f816f6e9cf4c2364339fbe88fd6616bc6d53878cb7e2012a69635a786d57eb21",
    "1d/field.bin": "76a70e26b073898e45f782e00eeb37fe642ca7afb55b5f8394165cfaf4c54818",
    # G as a matrix on the support moved this ratio by 1 ulp from 0.0617471601111265, the
    # package's own Gauss-Legendre rule by 6 ulp from 0.061747160111126506
    "1d/observe-vertical": '{"ratio": 0.06174716011112655, "horizon": 0.75, "control": "vertical"}\n',
    "2d-bin/snapshot_t0.5.bin": "c7a59123e01325b95c512460996cb59071e4489b49bf6c0c9d6a66f1a2398c2e",
    "2d-bin/snapshot_t1.25.bin": "e316fd739ccdcaff4383a067f92310f6dca5ea9bc5a1a690637cb08689dbf339",
    "2d-csv/snapshot_t0.5.csv": "943da9f353824b6c3663a864c067db2a8c3d92f849f5efde5a916658f2297700",
    "2d-csv/snapshot_t1.25.csv": "b8d51995158ba867738e61bd0e15cd18dbff6422e936496b8f4190e4a74e906d",
    "2d-json/snapshot_t0.5.json": "5bf8c31b06b60a1c44d8fbec0abc590dfc1a33795a7e2c7b335307b9cfc5e5af",
    "2d-json/snapshot_t1.25.json": "81513ba269a04c8f9edb7a1313e9362eeb3369a6946819bcf9577ab3d626d9ca",
    "2d/field.bin": "6307b379e9db28dc8214fd5314f7beabf5fc8885d969154fba2705cef3f97e9b",
    # the package's own Gauss-Legendre rule moved this ratio by 1 ulp from 0.021822612678295696
    "2d/observe-horizontal": '{"ratio": 0.0218226126782957, "horizon": 0.75, "control": "horizontal"}\n',
    # the triangular factor of G's columns moved this ratio by 1 ulp from 0.04643817764527708,
    # the package's own Gauss-Legendre rule by 2 ulp from 0.046438177645277086
    "2d/observe-vertical": '{"ratio": 0.0464381776452771, "horizon": 0.75, "control": "vertical"}\n',
}


def quadrature_argv(field: Path, control: str) -> list[str]:
    """``observe --method quadrature`` of ``field`` under ``control``."""
    argv = ["observe", "--input", str(field), "--method", "quadrature"]
    return argv + PROFILE + ["--control", control, "--horizon", "0.75"]


def quadrature_line(field: Path, control: str, capsys) -> str:
    """The ratio line that ``observe --method quadrature`` prints for ``field``."""
    capsys.readouterr()
    assert main(quadrature_argv(field, control)) == 0
    return capsys.readouterr().out


def frozen_outputs(root: Path, capsys) -> dict:
    """sha256 of every written file and each printed ratio line, by name."""
    found = {}
    for name, flags in FIELDS.items():
        assert main(["--out", str(root / name), "random-field"] + flags) == 0
        field = root / name / "field.bin"
        for fmt in ("csv", "json", "bin"):
            out = root / f"{name}-{fmt}"
            argv = ["--out", str(out), "evolve", "--input", str(field), "--format", fmt]
            assert main(argv + EVOLVE + LAM[name]) == 0
        for control in OBSERVE[name]:
            found[f"{name}/observe-{control}"] = quadrature_line(field, control, capsys)
    for path in sorted(root.rglob("*.*")):
        found[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def test_array_path_outputs_are_frozen(tmp_path, capsys):
    assert frozen_outputs(tmp_path, capsys) == FROZEN


# taken from the code that took the quadrature's phases on every grid mode; the package's own
# Gauss-Legendre rule moved the ratios by 5 ulp (from 0.061188627678056315) and 2 ulp (from
# 0.031352271028588334)
SPARSE_FIELD = ["--nx", "128", "--ny", "32", "--kmax", "8", "--lmax", "4", "--seed", "6"]
FROZEN_SPARSE = {
    "field.bin": "ed0a73b7bf779f686fb72a83be7034f0912f1c5ae757abb9bcd47c4885494d10",
    "observe-vertical": '{"ratio": 0.06118862767805635, "horizon": 0.75, "control": "vertical"}\n',
    "observe-horizontal": (
        '{"ratio": 0.03135227102858835, "horizon": 0.75, "control": "horizontal"}\n'
    ),
}


def test_sparse_field_quadrature_ratios_are_frozen(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "random-field"] + SPARSE_FIELD) == 0
    field = tmp_path / "field.bin"
    found = {"field.bin": hashlib.sha256(field.read_bytes()).hexdigest()}
    for control in ("vertical", "horizontal"):
        found[f"observe-{control}"] = quadrature_line(field, control, capsys)
    assert found == FROZEN_SPARSE


def test_quadrature_ratios_keep_their_bytes_under_one_blas_thread(tmp_path, capsys):
    # the quadrature's QR factor is LAPACK's; its ratios must not depend on the thread count
    cases = [(name, control) for name in FIELDS for control in OBSERVE[name]]
    cases += [("sparse", control) for control in ("vertical", "horizontal")]
    for name, flags in {**FIELDS, "sparse": SPARSE_FIELD}.items():
        assert main(["--out", str(tmp_path / name), "random-field"] + flags) == 0
    argvs = [quadrature_argv(tmp_path / name / "field.bin", control) for name, control in cases]
    default = "".join(quadrature_line(tmp_path / name / "field.bin", c, capsys) for name, c in cases)
    script = "import json, sys\nfrom kpilab.cli import main\n"
    script += "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0\n"
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout == default


# taken from the code that assembled and diagonalized the blocks at l and -l apart
FROZEN_GRAMIAN = {
    "gramian_eigenvalues.csv": "65560ef3b546301ee68285c0e79ff54384058563d77e4d4e88ec1451613575bc",
    "gramian_l-1.bin": "d85befea7e2b145b054019f5ff77b65c21bedf15a761faf9b8064ad4c84ca2d3",
    "gramian_l-2.bin": "6c86f8ef583ff8c9363e4eda3951a4671cf00190e27f9afe4133f630dcf13b84",
    "gramian_l-3.bin": "33bba79f0f1fb7257c805055a0622d718b858fc9f263f861c4361c07b744418f",
    "gramian_l0.bin": "944f6d7b59fcdbc5099d55c70e7efdb165555b97c20e8eec716a32c9f1973377",
    "gramian_l1.bin": "fe3784a7629e1686f4a2b593bcecceced2352081e767958d1c45a05ddc1a6096",
    "gramian_l2.bin": "12f7411fc20a9c5580324e16082296f9c776d53218f85acf48f891ed5c99f060",
    "gramian_l3.bin": "b98e9dfe39f99d306cea00e0ffae8499fdedabdc80056481c12d63696f516659",
}


def test_gramian_outputs_are_frozen(tmp_path):
    assert main(["--out", str(tmp_path), "gramian", "--k-window", "8", "--l-window", "3"]) == 0
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert found == FROZEN_GRAMIAN


# taken from the code that computed every entry of each block's time factor; the eigenvalue
# table under one BLAS thread (under two, its last digits move)
FROZEN_GRAMIAN_SLICES = {
    "gramian_eigenvalues.csv": "3d04309b30b548b8470cfa0e1abd4470d81c4cdbcc838f7085fe862aed0c48e0",
    "gramian_l-1.bin": "eff6e6ffb2b69ffc614a1eeab2b5202b3be065bd0d72c270f0e0d8fb3433a972",
    "gramian_l-2.bin": "efdc367f2525dc6ce5bde7caee20e51d53d99ae9e8f6fec63bbf24150286f429",
    "gramian_l0.bin": "efa52cb6c05465dcfe6854a4ce21eae05012498a8fd5a2db2fc960caccb70586",
    "gramian_l1.bin": "a4f407b699df76cfaeb9c3b5f6f092e6a21c786d361d83959cfe35c455f7d4e4",
    "gramian_l2.bin": "b208b7273fc063a95bc5b1ed39a49d38e0661002d2c9f3710a39bf110515e39c",
}


def test_gramian_outputs_across_row_slices_are_frozen(tmp_path):
    argv = ["--out", str(tmp_path), "gramian", "--k-window", "128", "--l-window", "2"]
    script = "import sys\nfrom kpilab.cli import main\nassert main(sys.argv[1:]) == 0\n"
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, check=True)
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert found == FROZEN_GRAMIAN_SLICES


# taken from the samples on phi's lines; the whole-grid samples gave
# 9e5d84a573bc7c000de7adc8e2af3960fa23d692ff14758d65caf4f322e48241
FROZEN_TRAJECTORY = "70456fc82f26c3fd555b234804ce8d44622d625a5824d2e9571257ba7fd74410"
# taken from the verifier that multiplies its lines by G^2 as a matrix on their support;
# the verifier that applied G twice in physical space at every stack of lines gave
# 1.744024027273117e-05, and the whole-grid verifier, which carried the roundoff of a
# transform round trip across the lines, 1.7440240272678173e-05; the verifier whose phases
# come from the lattice table gave 1.7440240272711137e-05, 5.9e-13 relative to
# 1.744024027270084e-05, which was the Simpson rule's own error at 200 steps; the Gauss-Legendre verifier gives the
# synthesis' error, and 400, 3,000 and 100,000 steps agree with it within 1.2e-17
FROZEN_TERMINAL_ERROR = 4.32243025888876e-11


_TRAJECTORY_HEADER = struct.Struct("<4sBBIIId")


def _control_run(out: Path, steps: int) -> tuple[bytes, dict]:
    """``(trajectory.bin bytes, report)`` of the 16x4 control run verified at ``steps``."""
    field = ["--nx", "16", "--ny", "4", "--kmax", "3", "--lmax", "1", "--seed", "5"]
    assert main(["--out", str(out), "random-field"] + field) == 0
    argv = ["control", "--initial", str(out / "field.bin"), "--verify-steps", str(steps)]
    assert main(["--out", str(out / "control")] + argv) == 0
    report = json.loads((out / "control" / "control_report.json").read_text())
    return (out / "control" / "trajectory.bin").read_bytes(), report


@pytest.fixture(scope="module")
def frozen_control(tmp_path_factory):
    """The frozen 16x4 control run, verified at 200 steps."""
    return _control_run(tmp_path_factory.mktemp("frozen_control"), 200)


def test_control_samples_are_frozen(frozen_control):
    trajectory, _ = frozen_control
    assert hashlib.sha256(trajectory).hexdigest() == FROZEN_TRAJECTORY


def test_control_samples_are_the_40_digit_rule(frozen_control):
    # f(t) = G S(t - T) phi from the container's phi, the profile's float64 samples and the
    # exact frequencies k^3 + l^2/k, with mpmath phases and an mpmath DFT for G
    trajectory, _ = frozen_control
    _, _, _, nx, ny, count, horizon = _TRAJECTORY_HEADER.unpack_from(trajectory)
    size = 16 * nx * ny
    phi = np.frombuffer(trajectory, "<c16", nx * ny, _TRAJECTORY_HEADER.size).reshape(nx, ny)
    g = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(nx)).values
    with mp.workdps(40):
        x = [-mp.pi + 2 * mp.pi * i / nx for i in range(nx)]

        def column(k):
            """G e_k by an mpmath DFT: g (e_k - integral of g e_k), on the k of the grid."""
            u = [mp.expj(k * xi) for xi in x]
            mean = 2 * mp.pi / nx * mp.fsum(gi * ui for gi, ui in zip(g, u))
            values = [gi * (ui - mean) for gi, ui in zip(g, u)]
            return [mp.fsum(v * mp.expj(-q * xi) for v, xi in zip(values, x)) / nx for q in ks]

        ks = range(-nx // 2, nx // 2)
        columns = {k: column(k) for k, row in zip(ks, phi) if row.any()}
        # each sample at the float64 time the container records beside it
        for j in (0, 16, 83, count - 1):
            offset = _TRAJECTORY_HEADER.size + size + j * (8 + size)
            t = mp.mpf(struct.unpack_from("<d", trajectory, offset)[0])
            sample = np.frombuffer(trajectory, "<c16", nx * ny, offset + 8).reshape(nx, ny)
            exact = [[mp.mpc(0)] * ny for _ in ks]
            for (p, m), c in np.ndenumerate(phi):
                if c:
                    k, l = mp.mpf(ks[p]), m - ny // 2
                    phase = mp.expj((k**3 + l**2 / k) * (t - horizon))
                    for q, entry in enumerate(columns[ks[p]]):
                        exact[q][m] += mp.mpc(complex(c)) * phase * entry
            largest = max(abs(e) for row in exact for e in row)
            error = max(abs(mp.mpc(complex(f)) - e) for r in zip(sample, exact) for f, e in zip(*r))
            assert error <= 1e-14 * largest


def test_terminal_error_is_frozen(frozen_control):
    _, report = frozen_control
    error = report["terminal_error"]
    assert abs(error - FROZEN_TERMINAL_ERROR) <= 1e-12 * FROZEN_TERMINAL_ERROR


def test_few_verify_steps_still_resolve_the_frequency_span(tmp_path):
    # 100 steps alone give 9 panels, which reported the rule's own 1.0e-6; the span of phi's
    # lines, 686.3, asks for 20, so the rule takes 25 panels, those of 200 steps
    trajectory, report = _control_run(tmp_path, 100)
    assert hashlib.sha256(trajectory).hexdigest() == FROZEN_TRAJECTORY
    error = report["terminal_error"]
    assert abs(error - FROZEN_TERMINAL_ERROR) <= 1e-12 * FROZEN_TERMINAL_ERROR


# taken from the code that factored and solved every order on its own
FROZEN_SPECTRAL_CSV = "9fcedb803bcdc4f9016e91a20bae4040d301fa77f0e6fe7c045571bac61d3bff"
FROZEN_TWO_INTERVAL_TABLE = [
    1.5428571426429727, 28.186764242215798, 381.9070837707781, 4035.650489253182,
    37201.09368994569, 390644.73076678894, 5390571.6745268935, 71112250.7868068,
    814377296.1976806, 7746685302.657948, 61157930012.97731, 422585268911.4344,
    2792256002074.9736,
]

# the default profile's table to m_max 32, taken while the table was summed in mpmath
FROZEN_DEFAULT_TABLE_HEX = [
    "0x1.29d1678e61017p+0", "0x1.12b90a8691f80p+10", "0x1.1c18a20a92499p+20",
    "0x1.10c1dfc3a8fc5p+30", "0x1.ef5bc7a6d483cp+39", "0x1.afcb17d23d316p+49",
    "0x1.6cd2c81def3ccp+59", "0x1.2cba7d53ce260p+69", "0x1.e5ef07e3ac34ep+78",
    "0x1.821757aaf5eb4p+88", "0x1.2e71d33d0ff4ep+98", "0x1.d4175c20cb41fp+107",
    "0x1.6665375ffd5f7p+117", "0x1.0fd8164fdbb46p+127", "0x1.98f65dac8d77ap+136",
    "0x1.315428692235fp+146", "0x1.c4d81fac0d798p+155", "0x1.4dc2de0c7b2b8p+165",
    "0x1.e93cddd63d088p+174", "0x1.64bb516be1970p+184", "0x1.02e27825eddadp+194",
    "0x1.761bd681baa06p+203", "0x1.0d3600d1b912fp+213", "0x1.81fc5eb0173f4p+222",
    "0x1.13ba132445d02p+232", "0x1.889d1f415726ap+241", "0x1.16a402dee351ep+251",
    "0x1.8a4f6bb2d50dcp+260", "0x1.16323f1921a8fp+270", "0x1.8782cdfdd054ap+279",
    "0x1.12dfae7cf4b6fp+289", "0x1.815af1378063dp+298", "0x1.0de715c8cd4c6p+308",
]


def test_spectral_constant_csv_is_frozen(tmp_path):
    assert main(["--out", str(tmp_path), "spectral-constant", "--m-max", "16"]) == 0
    csv = (tmp_path / "spectral_constant.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == FROZEN_SPECTRAL_CSV


def test_two_interval_spectral_table_is_frozen():
    intervals = [(-2.6, -1.4), (0.3, 2.1)]
    profile = kl.make_region_profile(intervals, "hann-squared", kl.TorusGrid(512))
    assert kl.spectral_constant_table(profile, 12) == FROZEN_TWO_INTERVAL_TABLE


def test_default_spectral_table_to_order_32_is_frozen():
    table = kl.spectral_constant_table(kl.default_profile(), 32)
    assert [kappa.hex() for kappa in table] == FROZEN_DEFAULT_TABLE_HEX
