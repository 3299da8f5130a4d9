"""kpi-lab command line interface.

Exit codes: 0 success, 2 config error, 3 numerical-consistency error,
1 for any other package error. Output root defaults to the
``KPI_LAB_OUTPUT_ROOT`` environment variable, then the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .dispersion import DispersionParams, group_velocity
from .errors import ConfigError, KPILabError, NumericalConsistencyError
from .experiments import random_field, run_experiment, seeded_rng
from .fourier import TorusGrid
from .hum import synthesize_control, verify_control
from .observe import (
    assemble_observability_gramian,
    make_control_profile,
    observability_constant,
    observability_ratio,
    spectral_constant_table,
)
from .packets import PacketParams, dichotomy_experiment
from .propagate import evolve
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


def _profile(args, nx: int | None = None):
    grid = TorusGrid(nx or args.profile_nx)
    return make_control_profile(args.support_a, args.support_b, args.profile, grid)


def _add_profile_args(p: argparse.ArgumentParser):
    p.add_argument("--profile", default="smooth-exp", choices=["smooth-exp", "hann-squared"])
    p.add_argument("--support-a", type=float, default=float(np.pi / 4))
    p.add_argument("--support-b", type=float, default=float(3 * np.pi / 4))
    p.add_argument("--profile-nx", type=int, default=1024)


def _cmd_run(args) -> int:
    manifest = run_experiment(
        args.config,
        output_root=args.out or os.environ.get("KPI_LAB_OUTPUT_ROOT"),
        seed_override=args.seed,
    )
    print(json_text({"outputs": manifest["outputs"]}, indent=2))
    return 0


def _cmd_dispersion(args) -> int:
    params = DispersionParams.reduced(args.alpha, args.lam)
    xi = np.linspace(args.xi_min, args.xi_max, args.count)
    xi = xi[xi != 0.0]
    rows = [
        [float(x), float(abs(x) ** args.alpha * x + args.lam**2 / x), group_velocity(float(x), params)]
        for x in xi
    ]
    path = _out_dir(args) / "dispersion.csv"
    rows_to_csv(["xi", "multiplier", "group_velocity"], rows, path)
    print(path)
    return 0


def _cmd_evolve(args) -> int:
    field = read_field(args.input)
    params = (
        DispersionParams.kp1(args.alpha)
        if field.grid.dimension == 2
        else DispersionParams.reduced(args.alpha, args.lam)
    )
    out = _out_dir(args)
    for t in args.times:
        snap = evolve(field, t, params)
        stem = f"snapshot_t{t:g}"
        if args.format == "csv":
            field_to_csv(snap, out / f"{stem}.csv")
        elif args.format == "json":
            field_to_json(snap, out / f"{stem}.json")
        else:
            write_field(snap, out / f"{stem}.bin")
    print(out)
    return 0


def _cmd_observe(args) -> int:
    field = read_field(args.input)
    params = (
        DispersionParams.kp1(args.alpha)
        if field.grid.dimension == 2
        else DispersionParams.reduced(args.alpha, args.lam)
    )
    nx = field.grid.nx if args.control == "vertical" else field.grid.ny
    profile = _profile(args, nx=nx)
    ratio = observability_ratio(
        field,
        args.horizon,
        profile,
        params,
        orientation=args.control,
        method=args.method,
    )
    print(json_text({"ratio": ratio, "horizon": args.horizon, "control": args.control}))
    return 0


def _cmd_gramian(args) -> int:
    params = DispersionParams.kp1(args.alpha)
    profile = _profile(args)
    blocks = [
        assemble_observability_gramian(args.horizon, args.k_window, l, profile, params)
        for l in range(-args.l_window, args.l_window + 1)
    ]
    out = _out_dir(args)
    for block in blocks:
        write_gramian(block, out / f"gramian_l{block.fixed_freq}.bin")
    eigenvalues_to_csv(blocks, out / "gramian_eigenvalues.csv")
    estimate = observability_constant(blocks)
    # no finite constant when lambda_min <= 0; JSON null
    constant = estimate.constant if estimate.lambda_min > 0 else None
    print(json_text({"lambda_min": estimate.lambda_min, "constant": constant}))
    return 0


def _cmd_control(args) -> int:
    u0 = read_field(args.initial)
    u1 = read_field(args.target) if args.target else u0 * 0.0
    params = DispersionParams.kp1(args.alpha)
    profile = _profile(args, nx=u0.grid.nx)
    traj = synthesize_control(
        u0, u1, args.horizon, profile, params, tol=args.tol, max_iter=args.max_iter
    )
    out = _out_dir(args)
    write_trajectory(traj, out / "trajectory.bin")
    terminal = verify_control(u0, traj, params, steps=args.verify_steps)
    report = {
        "iterations": traj.diagnostics["iterations"],
        "relative_residual": traj.diagnostics["relative_residual"],
        "terminal_error": (terminal - u1).norm(),
    }
    (out / "control_report.json").write_text(json_text(report, indent=2) + "\n")
    print(json_text(report))
    return 0


def _cmd_dichotomy(args) -> int:
    packet = PacketParams(
        alpha=args.alpha,
        big_cutoff=args.cutoff_big,
        small_cutoff=args.cutoff_small,
        beta=args.beta,
    )
    result = dichotomy_experiment(packet, args.horizon, range(args.n_min, args.n_max + 1))
    out = _out_dir(args)
    rows = [[r.n, r.h, r.eps, r.ratio, r.grid_nx] for r in result.rows]
    rows_to_csv(["n", "h", "eps", "ratio", "grid_nx"], rows, out / "dichotomy.csv")
    summary = result.summary()
    (out / "dichotomy.json").write_text(json_text(summary, indent=2) + "\n")
    print(json_text(summary))
    return 0


def _cmd_spectral_constant(args) -> int:
    profile = _profile(args)
    rows = [[m, k] for m, k in enumerate(spectral_constant_table(profile, args.m_max))]
    path = _out_dir(args) / "spectral_constant.csv"
    rows_to_csv(["m0", "kappa"], rows, path)
    print(path)
    return 0


def _cmd_random_field(args) -> int:
    grid = TorusGrid(args.nx, args.ny) if args.ny else TorusGrid(args.nx)
    rng = seeded_rng(args.seed if args.seed is not None else 0, "random-field")
    field = random_field(grid, rng, kmax=args.kmax, lmax=args.lmax)
    path = _out_dir(args) / "field.bin"
    write_field(field, path)
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kpi-lab")
    parser.add_argument("--seed", type=int, default=None)
    # kept so existing command lines still parse
    parser.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", default="csv", choices=["csv", "json", "bin"])
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["csv", "json", "bin"], default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run",
        parents=[common], help="run every experiment in a config file")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "dispersion",
        parents=[common], help="tabulate the multiplier and group velocity")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--xi-min", type=float, default=0.05)
    p.add_argument("--xi-max", type=float, default=4.0)
    p.add_argument("--count", type=int, default=200)
    p.set_defaults(fn=_cmd_dispersion)

    p = sub.add_parser(
        "evolve",
        parents=[common], help="propagate a stored field to given times")
    p.add_argument("--input", required=True)
    p.add_argument("--times", type=lambda s: [float(x) for x in s.split(",")], required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--lam", type=float, default=0.0)
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser(
        "observe",
        parents=[common], help="observed-energy ratio of a stored field")
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--control", default="vertical", choices=["vertical", "horizontal"])
    p.add_argument("--method", default="gramian", choices=["gramian", "quadrature"])
    _add_profile_args(p)
    p.set_defaults(fn=_cmd_observe)

    p = sub.add_parser(
        "gramian",
        parents=[common], help="assemble observability blocks, export eigenvalues")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--k-window", type=int, default=32)
    p.add_argument("--l-window", type=int, default=8)
    _add_profile_args(p)
    p.set_defaults(fn=_cmd_gramian)

    p = sub.add_parser(
        "control",
        parents=[common], help="synthesize and verify a steering control")
    p.add_argument("--initial", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--verify-steps", type=int, default=10000)
    _add_profile_args(p)
    p.set_defaults(fn=_cmd_control)

    p = sub.add_parser(
        "dichotomy",
        parents=[common], help="packet observability scan across scales")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=float(np.pi / 4))
    p.add_argument("--cutoff-big", type=float, default=1.0)
    p.add_argument("--cutoff-small", type=float, default=0.5)
    p.set_defaults(fn=_cmd_dichotomy)

    p = sub.add_parser(
        "spectral-constant",
        parents=[common], help="concentration constants per degree")
    p.add_argument("--m-max", type=int, default=32)
    _add_profile_args(p)
    p.set_defaults(fn=_cmd_spectral_constant)

    p = sub.add_parser(
        "random-field",
        parents=[common], help="write a seeded random field container")
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--lmax", type=int, default=None)
    p.set_defaults(fn=_cmd_random_field)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalConsistencyError as exc:
        print(f"numerical consistency error: {exc}", file=sys.stderr)
        return 3
    except KPILabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
