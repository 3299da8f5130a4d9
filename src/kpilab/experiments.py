"""Experiment orchestration: scans, diagnostics, config-driven runs.

Experiments are described by a plain-text config with one section per
experiment. A run produces per-experiment CSV tables plus a JSON summary and
a manifest listing every output with its content hash. Outputs are
deterministic given the config and seed; timings live only in the manifest.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dispersion import DispersionParams, frequencies_1d
from .errors import ConfigError, NumericalConsistencyError, ParameterError
from .fourier import (
    TWO_PI,
    DEFAULT_LP_FAMILY,
    SpectralField,
    TorusGrid,
    sobolev_norm,
)
from .hum import synthesize_control, verify_control
from .observe import (
    ControlProfile,
    assemble_observability_gramian,
    gramian_from_frequencies,
    make_control_profile,
    observability_constant,
    spectral_constant_table,
)
from .packets import PacketParams, dichotomy_experiment
from .storage import json_text, rows_to_csv


# ---------------------------------------------------------------------------
# Random data
# ---------------------------------------------------------------------------


def seeded_rng(master_seed: int, name: str = "") -> np.random.Generator:
    """Generator derived stably from a master seed and an experiment name."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, tag])))


def random_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    kmax: int | None = None,
    lmax: int | None = None,
    unit_norm: bool = True,
) -> SpectralField:
    """Random complex-Gaussian field on an inner window, mean-zero, Nyquist-free."""
    kmax = kmax if kmax is not None else max(1, int(0.4 * (grid.nx // 2)))
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    kv = grid.k_values
    k_mask = (np.abs(kv) <= kmax) & (kv != 0)
    if grid.dimension == 1:
        draw = rng.standard_normal((int(k_mask.sum()), 2))
        coeffs[k_mask] = draw[:, 0] + 1j * draw[:, 1]
    else:
        lmax = lmax if lmax is not None else max(1, int(0.4 * (grid.ny // 2)))
        lv = grid.l_values
        l_mask = np.abs(lv) <= lmax
        draw = rng.standard_normal((int(k_mask.sum()), int(l_mask.sum()), 2))
        block = draw[..., 0] + 1j * draw[..., 1]
        coeffs[np.ix_(k_mask, l_mask)] = block
    field = SpectralField(grid, coeffs)
    if unit_norm:
        field = field * (1.0 / field.norm())
    return field


def leakage_fraction(field: SpectralField) -> float:
    """Relative mass in the outer 10 percent of the frequency window."""
    grid = field.grid
    total = float(np.sum(np.abs(field.coeffs) ** 2))
    if total == 0.0:
        return 0.0
    k_edge = 0.9 * (grid.nx // 2)
    outer = np.abs(grid.k_values) >= k_edge
    if grid.dimension == 1:
        mass = float(np.sum(np.abs(field.coeffs[outer]) ** 2))
    else:
        l_edge = 0.9 * (grid.ny // 2)
        outer_l = np.abs(grid.l_values) >= l_edge
        mask = outer[:, None] | outer_l[None, :]
        mass = float(np.sum(np.abs(field.coeffs[mask]) ** 2))
    return mass / total


def check_leakage(field: SpectralField, tol: float = 1e-10) -> None:
    frac = leakage_fraction(field)
    if frac > tol:
        raise NumericalConsistencyError(
            f"initial data carries {frac:.3e} relative mass in the outer "
            f"10% of the frequency window (tolerance {tol:.1e})"
        )


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def frequency_localized_scan(
    h: float,
    n_values,
    epsilon0: float,
    horizon: float,
    profile: ControlProfile,
    trials: int = 16,
    rng: np.random.Generator | None = None,
    alpha: float = 2.0,
) -> list[dict]:
    """Empirical single-block observability bounds across dyadic blocks.

    For each block n, random data supported on the block are evolved under
    the reduced family with ``lam = 1/h**2`` and the worst ratio of initial
    block mass to observed energy is reported (a lower bound for the uniform
    block constant). Blocks with no grid modes are skipped.
    """
    if h <= 0.0:
        raise ParameterError(f"semiclassical parameter h must be positive, got {h}")
    rng = rng or np.random.default_rng(0)
    n_values = list(n_values)
    for n in n_values:
        if 2.0**n * h > epsilon0:
            raise ParameterError(
                f"regime constraint violated: 2^{n} * h = {2.0 ** n * h:.3e} > {epsilon0}"
            )
    grid = profile.grid
    params = DispersionParams.reduced(alpha, 1.0 / h**2)
    rows = []
    kv = grid.k_values
    for n in n_values:
        weights = DEFAULT_LP_FAMILY.block(n, h * kv.astype(float))
        active = np.nonzero((weights > 0.0) & (kv != 0) & (kv != -grid.nx // 2))[0]
        if active.size == 0:
            continue
        idx = kv[active]
        omega = frequencies_1d(idx, params).astype(float)
        block = gramian_from_frequencies(horizon, idx, omega, profile, plain_weight=True)
        worst = 0.0
        for _ in range(trials):
            draw = rng.standard_normal((idx.size, 2))
            c = (draw[:, 0] + 1j * draw[:, 1]) * weights[active]
            mass = TWO_PI * float(np.sum(np.abs(c) ** 2))
            energy = TWO_PI * block.quadratic_form(c)
            if energy > 0:
                worst = max(worst, mass / energy)
        rows.append(
            {
                "n": n,
                "modes": int(idx.size),
                "scale": 2.0**-n / h,
                "empirical_constant": worst,
                # worst case over the whole block: random trials cannot find
                # the slow near-critical combinations, the bottom eigenvalue
                # does
                "exact_constant": 1.0 / float(block.eigenvalues[0]),
            }
        )
    return rows


def weak_observability_diagnostic(
    h: float,
    horizon: float,
    trials: int,
    profile: ControlProfile,
    rng: np.random.Generator | None = None,
    alpha: float = 2.0,
    kmax: int | None = None,
    h_max: float = 1.0,
) -> list[dict]:
    """Smallest constant closing the two-term weak bound, per random trial.

    Each trial reports ``||u0||^2 / (observed energy + ||u0||_{-1}^2)``; the
    max over trials is the empirical constant for this h. The diagnostic is
    a semiclassical statement, so ``h`` must stay below ``h_max``.
    """
    if not 0.0 < h < h_max:
        raise ParameterError(f"h must lie in (0, {h_max}), got {h}")
    rng = rng or np.random.default_rng(0)
    grid = profile.grid
    params = DispersionParams.reduced(alpha, 1.0 / h**2)
    kv = grid.k_values
    active = np.nonzero((kv != 0) & (kv != -grid.nx // 2))[0]
    idx = kv[active]
    omega = frequencies_1d(idx, params).astype(float)
    block = gramian_from_frequencies(horizon, idx, omega, profile, plain_weight=True)
    rows = []
    for trial in range(trials):
        field = random_field(grid, rng, kmax=kmax)
        c = field.coeffs[active]
        mass = TWO_PI * float(np.sum(np.abs(c) ** 2))
        energy = TWO_PI * block.quadratic_form(c)
        remainder = sobolev_norm(field, -1.0) ** 2
        rows.append(
            {
                "trial": trial,
                "mass": mass,
                "observed_energy": energy,
                "weak_remainder": remainder,
                "constant": mass / (energy + remainder),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigEntry:
    value: str
    line: int


def parse_config(text: str) -> dict[str, dict[str, ConfigEntry]]:
    """Sections of key = value pairs; raises ConfigError with line numbers."""
    sections: dict[str, dict[str, ConfigEntry]] = {}
    current: dict[str, ConfigEntry] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            current = {}
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        current[key] = ConfigEntry(value.strip(), lineno)
    return sections


class _Section:
    """Typed access to one config section with line-precise errors."""

    def __init__(self, name: str, entries: dict[str, ConfigEntry]):
        self.name = name
        self.entries = entries

    def _get(self, key: str, default=None, required: bool = False) -> ConfigEntry | None:
        if key in self.entries:
            return self.entries[key]
        if required:
            line = min(e.line for e in self.entries.values()) if self.entries else None
            raise ConfigError(f"[{self.name}] missing required key {key!r}", line=line)
        return default

    def _convert(self, key: str, caster, default, required):
        entry = self._get(key, required=required)
        if entry is None:
            return default
        try:
            return caster(entry.value)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] bad value for {key!r}: {entry.value!r}", line=entry.line
            ) from None

    def get_float(self, key, default=None, required=False) -> float:
        return self._convert(key, float, default, required)

    def get_int(self, key, default=None, required=False) -> int:
        return self._convert(key, int, default, required)

    def get_str(self, key, default=None, required=False) -> str:
        entry = self._get(key, required=required)
        return default if entry is None else entry.value


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _profile_from_section(sec: _Section, nx_default: int = 1024) -> ControlProfile:
    nx = sec.get_int("profile_nx", nx_default)
    a = sec.get_float("support_a", float(np.pi / 4))
    b = sec.get_float("support_b", float(3 * np.pi / 4))
    kind = sec.get_str("profile", "smooth-exp")
    grid = TorusGrid(nx)
    return make_control_profile(a, b, kind, grid)


def _run_dichotomy(sec: _Section, seed: int):
    params = PacketParams(
        alpha=sec.get_float("alpha", required=True),
        big_cutoff=sec.get_float("cutoff_big", 1.0),
        small_cutoff=sec.get_float("cutoff_small", 0.5),
        beta=sec.get_float("beta", float(np.pi / 4)),
    )
    n_lo = sec.get_int("n_min", 4)
    n_hi = sec.get_int("n_max", 9)
    horizon = sec.get_float("horizon", 1.0)
    result = dichotomy_experiment(params, horizon, range(n_lo, n_hi + 1))
    rows = [[r.n, r.h, r.eps, r.ratio, r.grid_nx] for r in result.rows]
    summary = {**result.summary(), "horizon": horizon}
    return ["n", "h", "eps", "ratio", "grid_nx"], rows, summary


def _run_frequency_scan(sec: _Section, seed: int):
    h = sec.get_float("h", required=True)
    profile = _profile_from_section(sec)
    rows_dicts = frequency_localized_scan(
        h=h,
        n_values=range(sec.get_int("n_min", -2), sec.get_int("n_max", 2) + 1),
        epsilon0=sec.get_float("epsilon0", 0.5),
        horizon=sec.get_float("horizon", 1.0),
        profile=profile,
        trials=sec.get_int("trials", 16),
        rng=seeded_rng(seed, sec.name),
        alpha=sec.get_float("alpha", 2.0),
    )
    rows = [
        [d["n"], d["modes"], d["scale"], d["empirical_constant"], d["exact_constant"]]
        for d in rows_dicts
    ]
    summary = {
        "h": h,
        "max_constant": max((d["exact_constant"] for d in rows_dicts), default=0.0),
    }
    return ["n", "modes", "scale", "empirical_constant", "exact_constant"], rows, summary


def _run_weak_observability(sec: _Section, seed: int):
    h = sec.get_float("h", required=True)
    profile = _profile_from_section(sec, nx_default=256)
    rows_dicts = weak_observability_diagnostic(
        h=h,
        horizon=sec.get_float("horizon", 1.0),
        trials=sec.get_int("trials", 16),
        profile=profile,
        rng=seeded_rng(seed, sec.name),
        alpha=sec.get_float("alpha", 2.0),
    )
    rows = [
        [d["trial"], d["mass"], d["observed_energy"], d["weak_remainder"], d["constant"]]
        for d in rows_dicts
    ]
    summary = {"h": h, "max_constant": max(d["constant"] for d in rows_dicts)}
    return (
        ["trial", "mass", "observed_energy", "weak_remainder", "constant"],
        rows,
        summary,
    )


def _run_gramian_floor(sec: _Section, seed: int):
    profile = _profile_from_section(sec)
    horizon = sec.get_float("horizon", 1.0)
    k_window = sec.get_int("k_window", 32)
    l_window = sec.get_int("l_window", 8)
    params = DispersionParams.kp1(sec.get_float("alpha", 2.0))

    blocks = [
        assemble_observability_gramian(horizon, k_window, l, profile, params)
        for l in range(-l_window, l_window + 1)
    ]
    estimate = observability_constant(blocks)
    rows = [
        [int(b.fixed_freq), float(b.eigenvalues[0])] for b in blocks
    ]
    summary = {
        "lambda_min": estimate.lambda_min,
        # no finite constant when lambda_min <= 0; JSON null
        "observability_constant": estimate.constant if estimate.lambda_min > 0 else None,
        "k_window": k_window,
        "l_window": l_window,
        "horizon": horizon,
    }
    return ["l", "lambda_min"], rows, summary


def _run_spectral_constant(sec: _Section, seed: int):
    profile = _profile_from_section(sec)
    m_max = sec.get_int("m_max", 32)
    table = spectral_constant_table(profile, m_max)
    rows = [[m, kappa] for m, kappa in enumerate(table)]
    summary = {"m_max": m_max, "kappa_max": rows[-1][1]}
    return ["m0", "kappa"], rows, summary


def _run_hum_steer(sec: _Section, seed: int):
    nx = sec.get_int("nx", 64)
    ny = sec.get_int("ny", 16)
    grid = TorusGrid(nx, ny)
    rng = seeded_rng(seed, sec.name)
    u0 = random_field(grid, rng, kmax=sec.get_int("kmax", 16), lmax=sec.get_int("lmax", 4))
    check_leakage(u0)
    horizon = sec.get_float("horizon", 1.0)
    params = DispersionParams.kp1(sec.get_float("alpha", 2.0))
    profile = make_control_profile(
        sec.get_float("support_a", float(np.pi / 4)),
        sec.get_float("support_b", float(3 * np.pi / 4)),
        sec.get_str("profile", "smooth-exp"),
        TorusGrid(nx),
    )
    traj = synthesize_control(
        u0,
        u0 * 0.0,
        horizon,
        profile,
        params,
        tol=sec.get_float("tol", 1e-10),
        max_iter=sec.get_int("max_iter", 500),
    )
    terminal = verify_control(u0, traj, params, steps=sec.get_int("verify_steps", 10000))
    rows = [
        [int(t_idx), float(t), sample.norm()]
        for t_idx, (t, sample) in enumerate(zip(traj.times, traj.samples))
    ]
    summary = {
        "iterations": traj.diagnostics["iterations"],
        "relative_residual": traj.diagnostics["relative_residual"],
        "terminal_error": terminal.norm(),
        "horizon": horizon,
    }
    return ["node", "time", "control_norm"], rows, summary


_ENGINES = {
    "dichotomy": _run_dichotomy,
    "frequency-scan": _run_frequency_scan,
    "weak-observability": _run_weak_observability,
    "gramian-floor": _run_gramian_floor,
    "spectral-constant": _run_spectral_constant,
    "hum-steer": _run_hum_steer,
}


def run_experiment(
    config_path: str | Path,
    output_root: str | Path | None = None,
    seed_override: int | None = None,
    threads: int = 1,
) -> dict:
    """Execute every experiment section of a config file.

    Writes one CSV per experiment, a JSON summary, and ``manifest.json``
    listing each output with its sha256. Returns the manifest dict.
    ``threads`` is accepted for compatibility and has no effect.
    """
    config_path = Path(config_path)
    text = config_path.read_text()
    sections = parse_config(text)
    run_section = sections.pop("run", {})
    run = _Section("run", run_section)
    seed = seed_override if seed_override is not None else run.get_int("seed", 0)
    out_dir = Path(output_root or run.get_str("output", ".")).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "config": config_path.name,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "seed": seed,
        "outputs": [],
        "timings": {},
    }
    summaries = {}
    for name, entries in sections.items():
        sec = _Section(name, entries)
        etype = sec.get_str("type", required=True)
        engine = _ENGINES.get(etype)
        if engine is None:
            entry = entries["type"]
            raise ConfigError(
                f"[{name}] unknown experiment type {etype!r} "
                f"(known: {', '.join(sorted(_ENGINES))})",
                line=entry.line,
            )
        started = time.perf_counter()
        header, rows, summary = engine(sec, seed)
        manifest["timings"][name] = time.perf_counter() - started
        csv_path = out_dir / f"{name}.csv"
        rows_to_csv(header, rows, csv_path)
        summaries[name] = summary
        manifest["outputs"].append(
            {
                "file": csv_path.name,
                "sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            }
        )
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json_text(summaries, indent=2, sort_keys=True) + "\n")
    manifest["outputs"].append(
        {
            "file": summary_path.name,
            "sha256": hashlib.sha256(summary_path.read_bytes()).hexdigest(),
        }
    )
    (out_dir / "manifest.json").write_text(
        json_text(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest
