"""kpi-lab command line interface.

Exit codes: 0 success, 2 config error (a config file that cannot be read
too), 3 numerical-consistency error, 1 for any other package error, for
a file that cannot be read or written and for a request that does not fit
in memory. Output root defaults to the
``KPI_LAB_OUTPUT_ROOT`` environment variable, then the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dispersion import DispersionParams, dispersion_relation, group_velocity
from .errors import ConfigError, KPILabError, NumericalConsistencyError, ParameterError
from .experiments import (
    DICHOTOMY_KEYS,
    GRAMIAN_FLOOR_KEYS,
    REQUIRED,
    SPECTRAL_CONSTANT_KEYS,
    STEER_KEYS,
    control_profile,
    dichotomy,
    gramian_floor,
    profile_keys,
    random_field,
    run_experiment,
    seed,
    seeded_rng,
    steer,
)
from .fourier import TorusGrid
from .observe import observability_ratio, spectral_constant_table
from .propagate import evolve_many
from .storage import (
    eigenvalues_to_csv,
    field_to_csv,
    field_to_json,
    json_text,
    read_field,
    rows_to_csv,
    write_field,
    write_gramian,
    write_trajectory,
)


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("KPI_LAB_OUTPUT_ROOT") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _field_params(field, args) -> DispersionParams:
    """KP-I on a 2D field, the reduced family at ``--lam`` (default 0) on a 1D one."""
    if field.grid.dimension == 1:
        return DispersionParams.reduced(args.alpha, 0.0 if args.lam is None else args.lam)
    if args.lam is not None:
        raise ParameterError(f"--lam {args.lam} applies to a 1D field; a 2D field has its own l")
    return DispersionParams.kp1(args.alpha)


def _cmd_run(args) -> int:
    """Run every experiment in a config file."""
    manifest = run_experiment(
        args.config,
        output_root=args.out or os.environ.get("KPI_LAB_OUTPUT_ROOT"),
        seed_override=args.seed,
    )
    print(json_text({"outputs": manifest["outputs"]}, indent=2))
    return 0


MAX_DISPERSION_COUNT = 10**6


def _cmd_dispersion(args) -> int:
    """Tabulate the multiplier and group velocity."""
    params = DispersionParams.reduced(args.alpha, args.lam)
    if not 0 <= args.count <= MAX_DISPERSION_COUNT:
        raise ParameterError(f"count must be 0 to {MAX_DISPERSION_COUNT}, got {args.count}")
    if not np.isfinite([args.xi_min, args.xi_max]).all():
        raise ParameterError(f"xi-min and xi-max must be finite, got {args.xi_min}, {args.xi_max}")
    xi = np.linspace(args.xi_min, args.xi_max, args.count)
    try:
        rows = [
            [x, dispersion_relation(x, 0, params), group_velocity(x, params)]
            for x in xi[xi != 0.0].tolist()
        ]
    except (OverflowError, ZeroDivisionError):  # a power past float64, or xi**2 down to 0
        rows = None
    # a quotient past float64 comes back infinite instead of raising
    if rows is None or not np.isfinite(rows).all():
        raise NumericalConsistencyError(
            f"the dispersion table leaves the float64 range at alpha {args.alpha}, lam {args.lam}"
        )
    path = _out_dir(args) / "dispersion.csv"
    rows_to_csv(["xi", "multiplier", "group_velocity"], rows, path)
    print(path)
    return 0


def _cmd_evolve(args) -> int:
    """Propagate a stored field to given times."""
    field = read_field(args.input)
    params = _field_params(field, args)
    # every time is checked, and evolved, before the first snapshot is written
    stack = evolve_many(field, args.times, params)
    names = [f"snapshot_t{t:g}.{args.format}" for t in args.times]
    if len(set(names)) < len(names):
        raise ParameterError(f"two evolution times would write one snapshot: {', '.join(names)}")
    out = _out_dir(args)
    write = {"csv": field_to_csv, "json": field_to_json, "bin": write_field}[args.format]
    for coeffs, name in zip(stack, names):
        write(field.with_coeffs(coeffs), out / name)
    print(out)
    return 0


def _cmd_observe(args) -> int:
    """Observed-energy ratio of a stored field."""
    field = read_field(args.input)
    params = _field_params(field, args)
    # a 1D field has one axis; horizontal control rejects it downstream
    axis = field.grid.shape[0 if args.control == "vertical" else -1]
    ratio = observability_ratio(
        field,
        args.horizon,
        control_profile(vars(args), axis),
        params,
        orientation=args.control,
        method=args.method,
    )
    print(json_text({"ratio": ratio, "horizon": args.horizon, "control": args.control}))
    return 0


def _cmd_gramian(args) -> int:
    """Assemble observability blocks, export eigenvalues."""

    def write(block) -> None:  # each container as soon as its block is built
        write_gramian(block, _out_dir(args) / f"gramian_l{block.fixed_freq}.bin")

    spectra, lambda_min, constant = gramian_floor(vars(args), write)
    eigenvalues_to_csv(spectra, _out_dir(args) / "gramian_eigenvalues.csv")
    print(json_text({"lambda_min": lambda_min, "constant": constant}))
    return 0


def _cmd_control(args) -> int:
    """Synthesize and verify a steering control."""
    u0 = read_field(args.initial)
    u1 = read_field(args.target) if args.target else u0 * 0.0
    traj, report = steer(u0, u1, vars(args))
    out = _out_dir(args)
    write_trajectory(traj, out / "trajectory.bin")
    (out / "control_report.json").write_text(json_text(report, indent=2) + "\n")
    print(json_text(report))
    return 0


def _cmd_dichotomy(args) -> int:
    """Packet observability scan across scales."""
    result = dichotomy(vars(args))
    out = _out_dir(args)
    rows_to_csv(*result.table(), out / "dichotomy.csv")
    summary = result.summary()
    (out / "dichotomy.json").write_text(json_text(summary, indent=2) + "\n")
    print(json_text(summary))
    return 0


def _cmd_spectral_constant(args) -> int:
    """Concentration constants per degree."""
    table = spectral_constant_table(control_profile(vars(args)), args.m_max)
    rows = [[m, k] for m, k in enumerate(table)]
    path = _out_dir(args) / "spectral_constant.csv"
    rows_to_csv(["m0", "kappa"], rows, path)
    print(path)
    return 0


def _cmd_random_field(args) -> int:
    """Write a seeded random field container."""
    grid = TorusGrid(args.nx) if args.ny is None else TorusGrid(args.nx, args.ny)
    rng = seeded_rng(args.seed, "random-field")
    field = random_field(grid, rng, kmax=args.kmax, lmax=args.lmax)
    path = _out_dir(args) / "field.bin"
    write_field(field, path)
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kpi-lab")
    parser.add_argument("--out", default=None, help="output directory")
    # --out is accepted after the subcommand too; SUPPRESS keeps the subparser
    # from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, keys=None):
        """Subcommand ``name`` running ``fn``, one flag ``--key-name`` per key."""
        p = sub.add_parser(name, parents=[common], help=fn.__doc__)
        p.set_defaults(fn=fn)
        for key, (convert, default) in (keys or {}).items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=convert, default=default, required=default is REQUIRED)
        return p

    p = command("run", _cmd_run)
    p.add_argument("config")
    p.add_argument("--seed", type=seed, default=None, help="overrides the config's seed")

    p = command("dispersion", _cmd_dispersion)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--xi-min", type=float, default=0.05)
    p.add_argument("--xi-max", type=float, default=4.0)
    p.add_argument("--count", type=int, default=200)

    p = command("evolve", _cmd_evolve)
    p.add_argument("--input", required=True)
    p.add_argument("--times", type=lambda s: [float(x) for x in s.split(",")], required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--format", default="csv", choices=["csv", "json", "bin"])

    p = command("observe", _cmd_observe, profile_keys(None))
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--control", default="vertical", choices=["vertical", "horizontal"])
    p.add_argument("--method", default="gramian", choices=["gramian", "quadrature"])

    # the twins of the config experiment types share their key tables
    command("gramian", _cmd_gramian, GRAMIAN_FLOOR_KEYS)
    p = command("control", _cmd_control, STEER_KEYS)
    p.add_argument("--initial", required=True)
    p.add_argument("--target", default=None)
    command("dichotomy", _cmd_dichotomy, DICHOTOMY_KEYS)
    command("spectral-constant", _cmd_spectral_constant, SPECTRAL_CONSTANT_KEYS)

    p = command("random-field", _cmd_random_field)
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--lmax", type=int, default=None)
    p.add_argument("--seed", type=seed, default=0)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each parse gives a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalConsistencyError as exc:
        print(f"numerical consistency error: {exc}", file=sys.stderr)
        return 3
    except (KPILabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
