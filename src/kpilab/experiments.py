"""Experiment orchestration: scans, diagnostics, config-driven runs.

Experiments are described by a plain-text config with one section per
experiment. A run produces per-experiment CSV tables plus a JSON summary and
a manifest listing every output with its content hash. Outputs are
deterministic given the config and seed; timings live only in the manifest.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, get_args

import numpy as np

from . import __version__
from .dispersion import DispersionParams, frequencies_1d
from .errors import ConfigError, DimensionError, NumericalConsistencyError, ParameterError
from .fourier import (
    TWO_PI,
    DEFAULT_LP_FAMILY,
    SpectralField,
    TorusGrid,
    sobolev_norm,
)
from .hum import ControlTrajectory, _verify_side, synthesize_control, verify_control
from .observe import (
    ControlProfile,
    GramianBlock,
    ProfileKind,
    gramian_from_frequencies,
    make_control_profile,
    observability_constant,
    observability_gramian_blocks,
    spectral_constant_table,
    window_mask,
)
from .packets import DichotomyResult, PacketParams, dichotomy_experiment, packet_grid
from .propagate import _kept_modes
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
) -> SpectralField:
    """Unit-norm complex-Gaussian field on :func:`window_mask`'s windows, mean-zero, no Nyquist."""
    if grid.dimension == 1 and lmax is not None:
        raise ParameterError(f"lmax {lmax} applies to a 2D grid; a 1D grid has no l")
    masks = []
    for a, (freqs, n, size) in enumerate(zip(grid.frequencies, grid.shape, (kmax, lmax))):
        size = size if size is not None else max(1, int(0.4 * (n // 2)))
        masks.append(window_mask(freqs, size, exclude_zero=a == 0))
    draw = rng.standard_normal(tuple(int(m.sum()) for m in masks) + (2,))
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[np.ix_(*masks)] = draw[..., 0] + 1j * draw[..., 1]
    field = SpectralField(grid, coeffs)
    return field * (1.0 / field.norm())


def leakage_fraction(field: SpectralField) -> float:
    """Relative mass in the outer 10 percent of the frequency window."""
    grid = field.grid
    total = float(np.sum(np.abs(field.coeffs) ** 2))
    if total == 0.0:
        return 0.0
    outer = reduce(
        np.logical_or.outer,
        [np.abs(freqs) >= 0.9 * (n // 2) for freqs, n in zip(grid.frequencies, grid.shape)],
    )
    mass = float(np.sum(np.abs(field.coeffs[outer]) ** 2))
    return mass / total


def check_leakage(field: SpectralField) -> None:
    frac = leakage_fraction(field)
    if frac > 1e-10:
        raise NumericalConsistencyError(
            f"initial data carries {frac:.3e} relative mass in the outer "
            "10% of the frequency window (tolerance 1.0e-10)"
        )


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")


def frequency_localized_scan(
    h: float,
    n_values,
    epsilon0: float,
    horizon: float,
    profile: ControlProfile,
    trials: int,
    rng: np.random.Generator,
    alpha: float = 2.0,
) -> list[dict]:
    """Empirical single-block observability bounds across dyadic blocks.

    For each block n, random data supported on the block are evolved under
    the reduced family with ``lam = 1/h**2`` and the worst ratio of initial
    block mass to observed energy is reported (a lower bound for the uniform
    block constant). Blocks with no grid modes are skipped.
    """
    if not 0.0 < h < np.inf:
        raise ParameterError(f"semiclassical parameter h must be positive and finite, got {h}")
    _check_trials(trials)
    n_values = list(n_values)
    if not n_values:
        raise ParameterError("the scan needs at least one block index (n_min <= n_max)")
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
        active = np.nonzero((weights > 0.0) & _kept_modes(grid))[0]
        if active.size == 0:
            continue
        idx = kv[active]
        omega = frequencies_1d(idx, params)
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
        del block  # before the next block is built
    return rows


def weak_observability_diagnostic(
    h: float,
    horizon: float,
    trials: int,
    profile: ControlProfile,
    rng: np.random.Generator,
    alpha: float = 2.0,
) -> list[dict]:
    """Smallest constant closing the two-term weak bound, per random trial.

    Each trial reports ``||u0||^2 / (observed energy + ||u0||_{-1}^2)``; the
    max over trials is the empirical constant for this h. The diagnostic is
    a semiclassical statement, so ``h`` must lie in (0, 1).
    """
    if not 0.0 < h < 1.0:
        raise ParameterError(f"h must lie in (0, 1), got {h}")
    _check_trials(trials)
    grid = profile.grid
    params = DispersionParams.reduced(alpha, 1.0 / h**2)
    active = np.nonzero(_kept_modes(grid))[0]
    idx = grid.k_values[active]
    omega = frequencies_1d(idx, params)
    block = gramian_from_frequencies(horizon, idx, omega, profile, plain_weight=True)
    rows = []
    for trial in range(trials):
        field = random_field(grid, rng)
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
# Experiment keys
# ---------------------------------------------------------------------------

REQUIRED = object()  # default of a key that a section or command line must give


def profile_kind(value: str) -> str:
    """A control-profile shape name; ValueError for an unknown one."""
    if value not in get_args(ProfileKind):
        raise ValueError(value)
    return value


def seed(value: str) -> int:
    """A master seed: the nonnegative integer numpy's SeedSequence takes; ValueError otherwise."""
    number = int(value)
    if number < 0:
        raise ValueError(value)
    return number


def profile_keys(nx: int | None = 1024) -> dict:
    """Keys of the control profile on ``profile_nx = nx`` points, or on the field's axis (None)."""
    keys = {
        "profile": (profile_kind, "smooth-exp"),
        "support_a": (float, float(np.pi / 4)),
        "support_b": (float, float(3 * np.pi / 4)),
    }
    return keys if nx is None else {**keys, "profile_nx": (int, nx)}


def control_profile(values: dict, axis: int | None = None) -> ControlProfile:
    """The profile the profile keys describe, on the field's ``axis`` or on ``profile_nx``."""
    grid = TorusGrid(values["profile_nx"] if axis is None else axis)
    return make_control_profile(values["support_a"], values["support_b"], values["profile"], grid)


# Each experiment's keys as {key: (convert, default)}. Config sections and the
# kpi-lab subcommands read their values from these tables.
DICHOTOMY_KEYS = {
    "alpha": (float, REQUIRED),
    "n_min": (int, 4),
    "n_max": (int, 9),
    "horizon": (float, 1.0),
    "beta": (float, float(np.pi / 4)),
    "cutoff_big": (float, 1.0),
    "cutoff_small": (float, 0.5),
}
FREQUENCY_SCAN_KEYS = {
    "h": (float, REQUIRED),
    "n_min": (int, -2),
    "n_max": (int, 2),
    "epsilon0": (float, 0.5),
    "horizon": (float, 1.0),
    "trials": (int, 16),
    "alpha": (float, 2.0),
    **profile_keys(),
}
WEAK_OBSERVABILITY_KEYS = {
    "h": (float, REQUIRED),
    "horizon": (float, 1.0),
    "trials": (int, 16),
    "alpha": (float, 2.0),
    **profile_keys(256),
}
GRAMIAN_FLOOR_KEYS = {
    "horizon": (float, 1.0),
    "alpha": (float, 2.0),
    "k_window": (int, 32),
    "l_window": (int, 8),
    **profile_keys(),
}
SPECTRAL_CONSTANT_KEYS = {"m_max": (int, 32), **profile_keys()}
STEER_KEYS = {
    "horizon": (float, 1.0),
    "alpha": (float, 2.0),
    "tol": (float, 1e-10),
    "max_iter": (int, 500),
    "verify_steps": (int, 10000),
    **profile_keys(None),
}
HUM_STEER_KEYS = {
    "nx": (int, 64),
    "ny": (int, 16),
    "kmax": (int, 16),
    "lmax": (int, 4),
    **STEER_KEYS,
}
RUN_KEYS = {"seed": (seed, 0), "output": (str, ".")}


# ---------------------------------------------------------------------------
# Computations shared by config sections and subcommands
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """The label and ascending eigenvalues of a Gramian block whose matrix is not kept."""

    fixed_freq: int
    eigenvalues: np.ndarray


def gramian_floor(
    values: dict, each: Callable[[GramianBlock], object] = lambda block: None
) -> tuple[list[BlockSpectrum], float, float | None]:
    """Spectra of the blocks ``l = -l_window .. l_window``, lambda_min and the constant or None.

    The blocks ``l = 0 .. l_window`` are built one at a time over one static Gram; omega is even
    in l, so the block at -l is the block at l relabelled. ``each`` sees every block as it is
    built, and then its twin at -l; only the eigenvalues are kept.
    """
    profile = control_profile(values)
    params = DispersionParams.kp1(values["alpha"])
    l_window = values["l_window"]

    def spectrum(block: GramianBlock) -> np.ndarray:
        each(block)
        if block.fixed_freq:
            each(block.at_fixed_freq(-block.fixed_freq))
        return block.eigenvalues

    labels = range(l_window + 1)
    blocks = observability_gramian_blocks(
        values["horizon"], values["k_window"], labels, profile, params
    )
    # map lets go of each block before it asks for the next
    found = list(map(spectrum, blocks))
    spectra = [BlockSpectrum(l, found[abs(l)]) for l in range(-l_window, l_window + 1)]
    estimate = observability_constant(spectra)
    constant = estimate.constant if estimate.lambda_min > 0 else None
    return spectra, estimate.lambda_min, constant


def dichotomy(values: dict) -> DichotomyResult:
    """The packet dichotomy for ``n = n_min .. n_max``."""
    packet = PacketParams(
        alpha=values["alpha"],
        big_cutoff=values["cutoff_big"],
        small_cutoff=values["cutoff_small"],
        beta=values["beta"],
    )
    # the grids grow with n: the two ends bound the range before it is listed
    for n in (values["n_min"], values["n_max"]):
        packet_grid(packet, n)
    n_values = range(values["n_min"], values["n_max"] + 1)
    return dichotomy_experiment(packet, values["horizon"], n_values)


def steer(u0: SpectralField, u1: SpectralField, values: dict) -> tuple[ControlTrajectory, dict]:
    """HUM control from ``u0`` to ``u1`` and its report, checked by the Duhamel verifier."""
    params = DispersionParams.kp1(values["alpha"])
    profile = control_profile(values, u0.grid.nx)
    horizon, tol, max_iter = values["horizon"], values["tol"], values["max_iter"]
    if u0.grid != u1.grid:
        raise DimensionError("initial and target fields live on different grids")
    # phi lies on the lines that hold u0 or u1, so their rule bounds the verifier's
    for u in (u0, u1):
        _verify_side(u, horizon, profile, params, "vertical", values["verify_steps"])
    traj = synthesize_control(u0, u1, horizon, profile, params, tol=tol, max_iter=max_iter)
    terminal = verify_control(u0, traj, steps=values["verify_steps"])
    return traj, {
        "iterations": traj.diagnostics["iterations"],
        "relative_residual": traj.diagnostics["relative_residual"],
        "terminal_error": (terminal - u1).norm(),
    }


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
            # the name is the stem of the section's CSV in the output directory
            if name in (".", "..") or any(c in name for c in "/\\\0"):
                raise ConfigError(f"section name {name!r} is not one path component", line=lineno)
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


def _first_line(entries: dict[str, ConfigEntry]) -> int | None:
    return min((e.line for e in entries.values()), default=None)


def read_section(name: str, entries: dict[str, ConfigEntry], keys: dict) -> dict:
    """Values of one section converted through its key table.

    The first entry, in file order, whose key is unknown or whose value its
    converter rejects with ValueError is a ConfigError at that entry's line;
    a missing required key then points at the section's first entry.
    """
    values = {}
    for key, entry in entries.items():
        if key not in keys:
            known = ", ".join(sorted(keys))
            raise ConfigError(f"[{name}] unknown key {key!r} (known: {known})", line=entry.line)
        try:
            values[key] = keys[key][0](entry.value)
        except ValueError:
            raise ConfigError(
                f"[{name}] bad value for {key!r}: {entry.value!r}", line=entry.line
            ) from None
    for key, (_, default) in keys.items():
        if default is REQUIRED and key not in values:
            raise ConfigError(f"[{name}] missing required key {key!r}", line=_first_line(entries))
        values.setdefault(key, default)
    return values


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _run_dichotomy(values: dict, rng: np.random.Generator):
    result = dichotomy(values)
    header, rows = result.table()
    return header, rows, {**result.summary(), "horizon": values["horizon"]}


def _run_frequency_scan(values: dict, rng: np.random.Generator):
    h, n_values = values["h"], range(values["n_min"], values["n_max"] + 1)
    found = frequency_localized_scan(
        h, n_values, values["epsilon0"], values["horizon"], control_profile(values),
        values["trials"], rng, values["alpha"],
    )
    header = ["n", "modes", "scale", "empirical_constant", "exact_constant"]
    max_constant = max((d["exact_constant"] for d in found), default=0.0)
    return header, [[d[c] for c in header] for d in found], {"h": h, "max_constant": max_constant}


def _run_weak_observability(values: dict, rng: np.random.Generator):
    h = values["h"]
    found = weak_observability_diagnostic(
        h, values["horizon"], values["trials"], control_profile(values), rng, values["alpha"]
    )
    header = ["trial", "mass", "observed_energy", "weak_remainder", "constant"]
    max_constant = max(d["constant"] for d in found)
    return header, [[d[c] for c in header] for d in found], {"h": h, "max_constant": max_constant}


def _run_gramian_floor(values: dict, rng: np.random.Generator):
    spectra, lambda_min, constant = gramian_floor(values)
    rows = [[int(b.fixed_freq), float(b.eigenvalues[0])] for b in spectra]
    summary = {
        "lambda_min": lambda_min,
        "observability_constant": constant,
        "k_window": values["k_window"],
        "l_window": values["l_window"],
        "horizon": values["horizon"],
    }
    return ["l", "lambda_min"], rows, summary


def _run_spectral_constant(values: dict, rng: np.random.Generator):
    table = spectral_constant_table(control_profile(values), values["m_max"])
    rows = [[m, kappa] for m, kappa in enumerate(table)]
    summary = {"m_max": values["m_max"], "kappa_max": rows[-1][1]}
    return ["m0", "kappa"], rows, summary


def _run_hum_steer(values: dict, rng: np.random.Generator):
    grid = TorusGrid(values["nx"], values["ny"])
    u0 = random_field(grid, rng, kmax=values["kmax"], lmax=values["lmax"])
    check_leakage(u0)
    traj, report = steer(u0, u0 * 0.0, values)
    rows = [
        [int(t_idx), float(t), SpectralField(grid, sample).norm()]
        for t_idx, (t, sample) in enumerate(zip(traj.times, traj.samples))
    ]
    return ["node", "time", "control_norm"], rows, {**report, "horizon": values["horizon"]}


# experiment type -> (engine, key table); an engine maps the section's values
# and its seeded generator to (CSV header, CSV rows, summary)
ENGINES = {
    "dichotomy": (_run_dichotomy, DICHOTOMY_KEYS),
    "frequency-scan": (_run_frequency_scan, FREQUENCY_SCAN_KEYS),
    "weak-observability": (_run_weak_observability, WEAK_OBSERVABILITY_KEYS),
    "gramian-floor": (_run_gramian_floor, GRAMIAN_FLOOR_KEYS),
    "spectral-constant": (_run_spectral_constant, SPECTRAL_CONSTANT_KEYS),
    "hum-steer": (_run_hum_steer, HUM_STEER_KEYS),
}


def read_config(text: str) -> tuple[dict, list[tuple[str, Callable, dict]]]:
    """The ``[run]`` values and each experiment's ``(name, engine, values)``.

    Every key of every section is checked before any experiment runs.
    """
    sections = parse_config(text)
    run = read_section("run", sections.pop("run", {}), RUN_KEYS)
    experiments = []
    for name, entries in sections.items():
        etype = entries.get("type", ConfigEntry("", _first_line(entries)))
        if etype.value not in ENGINES:
            known = ", ".join(sorted(ENGINES))
            message = f"[{name}] type must be one of {known}; got {etype.value!r}"
            raise ConfigError(message, line=etype.line)
        engine, keys = ENGINES[etype.value]
        values = read_section(name, entries, {"type": (str, REQUIRED), **keys})
        experiments.append((name, engine, values))
    return run, experiments


def _blas_build() -> dict | None:
    """Name and version of numpy's BLAS build; None where numpy cannot report them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode argument
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_experiment(
    config_path: str | Path,
    output_root: str | Path | None = None,
    seed_override: int | None = None,
) -> dict:
    """Execute every experiment section of a config file.

    Writes one CSV per experiment, a JSON summary, and ``manifest.json``: each output's
    sha256, wall times, the BLAS build and thread variables and scipy's version (null if
    unknown or unused). Returns it.
    """
    config_path = Path(config_path)
    try:
        text = config_path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    run, experiments = read_config(text)
    seed = seed_override if seed_override is not None else run["seed"]
    out_dir = Path(output_root or run["output"]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    manifest = {
        "config": config_path.name,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "seed": seed,
        # the last digits of the Gramian eigenvalues depend on the BLAS build and thread count
        "blas": _blas_build(),
        "blas_threads": {name: os.environ.get(name) for name in blas},
        "outputs": [],
        "timings": {},
    }

    def record(path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest["outputs"].append({"file": path.name, "sha256": digest})

    summaries = {}
    for name, engine, values in experiments:
        started = time.perf_counter()
        header, rows, summaries[name] = engine(values, seeded_rng(seed, name))
        manifest["timings"][name] = time.perf_counter() - started
        rows_to_csv(header, rows, out_dir / f"{name}.csv")
        record(out_dir / f"{name}.csv")
    (out_dir / "summary.json").write_text(json_text(summaries, indent=2, sort_keys=True) + "\n")
    record(out_dir / "summary.json")
    # the dichotomy coefficients come from scipy's QUADPACK build; null if no section loaded it
    manifest["scipy_version"] = getattr(sys.modules.get("scipy"), "__version__", None)
    (out_dir / "manifest.json").write_text(json_text(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
