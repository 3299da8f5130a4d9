"""The four benchmark workloads: their seeded inputs, command lines and checks.

Each workload gives

- ``prepare(seed, rep, out)``: writes the repetition's inputs into ``out``
  and returns the ``kpi-lab`` argument lists to run there, in order. It runs
  in the repetition's own interpreter, inside the measured set-up.
- ``check(out, run, reference)``: reads the outputs and the captured
  standard output of each command, and returns the list of failed checks
  and the worst relative error against the workload's independent
  reference. It runs in the benchmark's parent process.

Inputs come from ``numpy.random.SeedSequence([seed, rep])``, so one seed
gives the same inputs and every repetition of a run gets its own field.
Field containers are written and read here with ``struct`` so that the
program's own storage code is measured, not trusted.

Sizes are chosen so that one repetition takes a few seconds on a 2-core
box: a run then holds several fresh-interpreter repetitions and reports
their medians.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
_FIELD_HEADER = struct.Struct("<4sBBIII")
_TRAJECTORY_HEADER = struct.Struct("<4sBBIIId")
# the composite Gauss-Legendre rule of ``kpi-lab observe --method quadrature``:
# mirrors the defaults of observe.quadrature_observed_energy, which the CLI uses
CLI_PANELS, CLI_ORDER = 16, 24


# ---------------------------------------------------------------------------
# Field containers, seeded data and the control profile
# ---------------------------------------------------------------------------


def write_field(path: Path, coeffs: np.ndarray) -> None:
    """KPIF version-1 container of a 2D coefficient array (monotone order)."""
    nx, ny = coeffs.shape
    header = _FIELD_HEADER.pack(b"KPIF", 1, 2, nx, ny, nx // 2)
    path.write_bytes(header + coeffs.astype("<c16").tobytes())


def read_field(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    magic, version, dim, nx, ny, _ = _FIELD_HEADER.unpack_from(raw)
    if magic != b"KPIF" or version != 1 or dim != 2:
        raise ValueError(f"{path.name} is not a 2D version-1 field container")
    payload = raw[_FIELD_HEADER.size :]
    if len(payload) != 16 * nx * ny:
        raise ValueError(f"{path.name} holds {len(payload)} payload bytes, not {16 * nx * ny}")
    return np.frombuffer(payload, dtype="<c16").reshape(nx, ny)


def field_norm(coeffs: np.ndarray) -> float:
    """L2 norm on the 2D torus: ``||u||^2 = (2 pi)^2 sum |c|^2``."""
    return TWO_PI * float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))


def seeded_field(rng, nx: int, ny: int, kmax: int, lmax: int) -> np.ndarray:
    """Unit-norm complex Gaussian field on ``0 < |k| <= kmax, |l| <= lmax``."""
    k = np.arange(-nx // 2, nx // 2)
    l = np.arange(-ny // 2, ny // 2)
    k_mask = (np.abs(k) <= kmax) & (k != 0)
    l_mask = np.abs(l) <= lmax
    draw = rng.standard_normal((int(k_mask.sum()), int(l_mask.sum()), 2))
    coeffs = np.zeros((nx, ny), dtype=np.complex128)
    coeffs[np.ix_(k_mask, l_mask)] = draw[..., 0] + 1j * draw[..., 1]
    return coeffs / field_norm(coeffs)


def kp1_frequencies(nx: int, ny: int) -> np.ndarray:
    """KP-I multiplier ``|k|^2 k + l^2 / k`` on the grid; 0 on the k = 0 row."""
    k = np.arange(-nx // 2, nx // 2, dtype=float)
    l = np.arange(-ny // 2, ny // 2, dtype=float)
    safe = np.where(k == 0, 1.0, k)
    omega = (np.abs(safe) ** 2 * safe)[:, None] + (l**2)[None, :] / safe[:, None]
    omega[k == 0, :] = 0.0
    return omega


def smooth_exp_profile(nx: int, a: float, b: float) -> np.ndarray:
    """Samples of the unit-integral smooth-exp bump on ``(a, b)``."""
    x = -math.pi + TWO_PI * np.arange(nx) / nx
    s = (2.0 * x - (a + b)) / (b - a)
    g = np.zeros(nx)
    inside = np.abs(s) < 1.0
    g[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return g / (np.sum(g) * TWO_PI / nx)


def rng_for(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# ---------------------------------------------------------------------------
# hum-steer: HUM synthesis plus the Duhamel verification
# ---------------------------------------------------------------------------


class HumSteer:
    why = "kpi-lab control: HUM synthesis plus Duhamel verification; per-call overhead of evolve, control and FFTs on small arrays dominates"
    nx, ny, kmax, lmax = 32, 8, 8, 2
    verify_steps = 3000

    def prepare(self, seed: int, rep: int, out: Path) -> list[list[str]]:
        coeffs = seeded_field(rng_for(seed, rep), self.nx, self.ny, self.kmax, self.lmax)
        write_field(out / "field.bin", coeffs)
        return [
            [
                "control", "--initial", "field.bin",
                "--horizon", "1", "--tol", "1e-10",
                "--verify-steps", str(self.verify_steps), "--out", "out",
            ]
        ]

    def check(self, out: Path, run: dict, reference: dict) -> tuple[list[str], float]:
        problems = []
        report = _json_line(run["stdout"][0])
        if json.loads((out / "out" / "control_report.json").read_text()) != report:
            problems.append("control_report.json differs from the printed report")
        if not report["relative_residual"] <= 1e-8:
            problems.append(f"relative residual {report['relative_residual']:.3e} > 1e-8")
        # the target is 0, so the terminal error is taken relative to ||u0||
        u0_norm = field_norm(read_field(out / "field.bin"))
        rel_terminal = report["terminal_error"] / u0_norm
        if not rel_terminal <= 1e-6:
            problems.append(f"relative terminal error {rel_terminal:.3e} > 1e-6")
        samples = 256
        expected = _TRAJECTORY_HEADER.size + 16 * self.nx * self.ny * (1 + samples) + 8 * samples
        size = (out / "out" / "trajectory.bin").stat().st_size
        if size != expected:
            problems.append(f"trajectory.bin has {size} bytes, expected {expected}")
        return problems, rel_terminal


# ---------------------------------------------------------------------------
# large-field: evolve snapshots and the two observability oracles
# ---------------------------------------------------------------------------


class LargeField:
    why = "evolve --format bin at five times, then observe by quadrature and by Gramian on a 512x64 field: array work, not call overhead, dominates"
    nx, ny, kmax, lmax = 512, 64, 8, 4
    times = ("0.1", "0.25", "0.5", "0.75", "1")

    def prepare(self, seed: int, rep: int, out: Path) -> list[list[str]]:
        coeffs = seeded_field(rng_for(seed, rep), self.nx, self.ny, self.kmax, self.lmax)
        write_field(out / "field.bin", coeffs)
        observe = ["observe", "--input", "field.bin", "--horizon", "1"]
        return [
            ["evolve", "--input", "field.bin", "--times", ",".join(self.times),
             "--format", "bin", "--out", "snapshots"],
            observe + ["--method", "quadrature"],
            observe + ["--method", "gramian"],
        ]

    def check(self, out: Path, run: dict, reference: dict) -> tuple[list[str], float]:
        problems = []
        u0 = read_field(out / "field.bin")
        u0_norm = field_norm(u0)
        omega = kp1_frequencies(self.nx, self.ny)
        worst = 0.0
        for t in self.times:
            snap = read_field(out / "snapshots" / f"snapshot_t{float(t):g}.bin")
            defect = abs(field_norm(snap) - u0_norm) / u0_norm
            if not defect <= 1e-12:
                problems.append(f"t={t}: norm defect {defect:.3e} > 1e-12")
            exact = np.exp(1j * float(t) * omega) * u0
            error = field_norm(snap - exact) / u0_norm
            if not error <= 1e-10:
                problems.append(f"t={t}: error {error:.3e} against exp(i t omega) > 1e-10")
            worst = max(worst, defect, error)
        quadrature = _json_line(run["stdout"][1])["ratio"]
        gramian = _json_line(run["stdout"][2])["ratio"]
        rule, exact = self.observed_ratios(u0)
        # the CLI's 16x24 rule is itself off the exact integral by up to ~1e-9
        # on these fields, so each method is checked against its own reference
        if not _rel(quadrature, rule) <= 1e-12:
            problems.append(f"quadrature ratio off the 16x24-node rule by {_rel(quadrature, rule):.3e}")
        if not _rel(gramian, exact) <= 1e-12:
            problems.append(f"Gramian ratio off the exact time integral by {_rel(gramian, exact):.3e}")
        return problems, max(worst, _rel(quadrature, exact), _rel(gramian, exact))

    def observed_ratios(self, coeffs: np.ndarray):
        """Observed-energy ratio by the composite Gauss-Legendre rule and exactly.

        ``G u = g (u - integral g u dx)`` acts on each transverse mode, so
        ``||G u(t)||^2 = 2 pi sum_l c_l(t)^H M c_l(t)`` with the static Gram
        ``M`` of ``G`` on the active x-frequencies, assembled here by
        trapezoid sums in physical space. Over ``[0, 1]`` the exact time
        integral of ``exp(i t (omega_j - omega_i))`` is closed-form.
        """
        rows = np.nonzero(np.any(coeffs != 0, axis=1))[0]
        cols = np.nonzero(np.any(coeffs != 0, axis=0))[0]
        c = coeffs[np.ix_(rows, cols)]
        omega = kp1_frequencies(self.nx, self.ny)[np.ix_(rows, cols)]
        g = smooth_exp_profile(self.nx, math.pi / 4, 3 * math.pi / 4)
        x = -math.pi + TWO_PI * np.arange(self.nx) / self.nx
        dx = TWO_PI / self.nx
        modes = np.exp(1j * np.outer(x, rows - self.nx // 2))
        controlled = g[:, None] * (modes - (g @ modes * dx)[None, :])
        gram = controlled.conj().T @ controlled * dx

        def energy(t):
            ct = np.exp(1j * t * omega) * c
            return TWO_PI * float(np.real(np.sum(np.conj(ct) * (gram @ ct))))

        base_x, base_w = np.polynomial.legendre.leggauss(CLI_ORDER)
        width = 1.0 / CLI_PANELS
        rule = sum(
            w * width / 2 * energy(p * width + width * (xi + 1) / 2)
            for p in range(CLI_PANELS)
            for xi, w in zip(base_x, base_w)
        )
        delta = omega[None, :, :] - omega[:, None, :]
        safe = np.where(delta == 0, 1.0, delta)
        factor = np.where(delta == 0, 1.0, (np.exp(1j * safe) - 1) / (1j * safe))
        exact = TWO_PI * float(np.real(np.einsum("il,ij,ijl,jl->", np.conj(c), gram, factor, c)))
        norm_sq = TWO_PI**2 * float(np.sum(np.abs(c) ** 2))
        return rule / norm_sq, exact / norm_sq


# ---------------------------------------------------------------------------
# lab-run: kpi-lab run on a reference config
# ---------------------------------------------------------------------------

LAB_CONFIG = """\
[run]
seed = {seed}

[floor]
type = gramian-floor
k_window = 128
l_window = 32

[fscan]
type = frequency-scan
h = 0.00390625
n_min = -2
n_max = 7
trials = 64

[weak]
type = weak-observability
h = 0.0625
trials = 64

[dich-05]
type = dichotomy
alpha = 0.5
n_min = 4
n_max = 12

[dich-1]
type = dichotomy
alpha = 1.0
n_min = 4
n_max = 12

[dich-2]
type = dichotomy
alpha = 2.0
n_min = 4
n_max = 12
"""

# the observability floor of the K=192, L=48 window; K=128, L=32 reproduces
# it to 2e-13
LAMBDA_MIN = 7.278011500665e-04
# outputs that do not depend on the seed, frozen byte for byte
LAB_FIXED_FILES = ("floor.csv", "dich-05.csv", "dich-1.csv", "dich-2.csv")


class LabRun:
    why = "kpi-lab run: Gramian floor (65 blocks of 256x256), frequency and weak scans, three packet dichotomies; closed-form Gramians, no time stepping"

    def prepare(self, seed: int, rep: int, out: Path) -> list[list[str]]:
        run_seed = int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])
        (out / "lab.cfg").write_text(LAB_CONFIG.format(seed=run_seed))
        return [["run", "lab.cfg", "--out", "lab"]]

    def check(self, out: Path, run: dict, reference: dict) -> tuple[list[str], float]:
        problems = []
        lab = out / "lab"
        for name in LAB_FIXED_FILES:
            if _sha256(lab / name) != reference["sha256"][name]:
                problems.append(f"{name} differs from the reference bytes")
        manifest = json.loads((lab / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            if _sha256(lab / entry["file"]) != entry["sha256"]:
                problems.append(f"manifest hash of {entry['file']} does not match the file")

        summary = json.loads((lab / "summary.json").read_text())
        weak_max = summary["weak"].pop("max_constant")
        if summary != reference["summary"]:
            problems.append("summary.json differs from the reference")
        lam = summary["floor"]["lambda_min"]
        worst = _rel(lam, LAMBDA_MIN)
        if not worst <= 1e-3:
            problems.append(f"lambda_min {lam!r} is off the reference by {worst:.3e}")
        if not summary["dich-05"]["monotone_decreasing"]:
            problems.append("weak-dispersion (alpha 0.5) ratios are not strictly decreasing")
        for name in ("dich-1", "dich-2"):
            if not summary[name]["floor_over_first"] >= 0.3:
                problems.append(f"{name}: min/first ratio below 0.3")

        # seeded columns: exact relations instead of frozen bytes
        fscan = _read_csv(lab / "fscan.csv")
        if [[n, m, s, e] for n, m, s, _, e in fscan] != reference["fscan_fixed_columns"]:
            problems.append("fscan.csv seed-independent columns differ from the reference")
        for n, _, _, empirical, exact in fscan:
            if not 0.0 < float(empirical) <= float(exact) * (1 + 1e-12):
                problems.append(f"fscan n={n}: empirical constant exceeds the exact one")
        weak = _read_csv(lab / "weak.csv")
        if len(weak) != 64:
            problems.append(f"weak.csv has {len(weak)} trials, expected 64")
        constants = []
        relations = 0.0
        for _, mass, energy, remainder, constant in weak:
            mass, energy, remainder, constant = map(float, (mass, energy, remainder, constant))
            constants.append(constant)
            # random_field draws unit-norm data, so the observed mass is 1
            relations = max(relations, abs(mass - 1.0), _rel(constant, mass / (energy + remainder)))
        if not relations <= 1e-12:
            problems.append(f"weak-observability relations off by {relations:.3e} > 1e-12")
        if constants and weak_max != max(constants):
            problems.append("summary weak max_constant is not the max of weak.csv")
        return problems, max(worst, relations)


# ---------------------------------------------------------------------------
# spectral-table: the mpmath spectral-constant table
# ---------------------------------------------------------------------------


class SpectralTable:
    why = "kpi-lab spectral-constant --m-max 16 on the default 1024-point profile: mpmath Cholesky and inverse-power sweeps, no random input"
    m_max = 16

    def prepare(self, seed: int, rep: int, out: Path) -> list[list[str]]:
        return [["spectral-constant", "--m-max", str(self.m_max), "--out", "out"]]

    def check(self, out: Path, run: dict, reference: dict) -> tuple[list[str], float]:
        problems = []
        rows = _read_csv(out / "out" / "spectral_constant.csv")
        if [int(m) for m, _ in rows] != list(range(self.m_max + 1)):
            return [f"spectral_constant.csv rows are not m0 = 0..{self.m_max}"], 1.0
        kappa = [float(k) for _, k in rows]
        g = smooth_exp_profile(1024, math.pi / 4, 3 * math.pi / 4)
        kappa0 = 1.0 / (np.sum(g**2) * TWO_PI / g.size)
        worst = _rel(kappa[0], kappa0)
        if not worst <= 1e-10:
            problems.append(f"kappa(0) is off 1/integral(g^2) by {worst:.3e} > 1e-10")
        if any(b < a for a, b in zip(kappa, kappa[1:])):
            problems.append("kappa is not nondecreasing in m0")
        table = max(_rel(k, r) for k, r in zip(kappa, reference["kappa"]))
        if not table <= 1e-12:
            problems.append(f"table is off the reference by {table:.3e} > 1e-12")
        return problems, max(worst, table)


WORKLOADS = {
    "hum-steer": HumSteer(),
    "large-field": LargeField(),
    "lab-run": LabRun(),
    "spectral-table": SpectralTable(),
}
