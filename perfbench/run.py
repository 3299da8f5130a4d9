"""kpilab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kpilab checkout. For ``S`` seconds (at least a few
repetitions) it starts one fresh interpreter per repetition, each in a fresh
directory under ``.perfbench_tmp/``, which calls ``kpilab.cli.main`` with
the workload's ``kpi-lab`` commands on inputs made from ``(N, repetition)``.
Outputs are checked against independent references; a repetition with a
failed check or a non-zero exit code counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics (medians
over the repetitions); with ``--trace 1`` repetitions alternate untraced and
traced on the same inputs, and the last line reports the per-layer metrics
of the traced ones plus the tracing overhead. The lines before it print
every metric by name and unit, ``fail_frac`` and the machine.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import layers  # noqa: E402
import machine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_REPS = 4
REP_TIMEOUT_S = 150.0
DIGITS_CAP = 12.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "accuracy_digits": "digits",
}


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with ``wait4`` for its resource usage; kill it on timeout."""
    box = {}
    waiter = threading.Thread(target=lambda: box.update(done=os.wait4(proc.pid, 0)))
    waiter.start()
    try:
        waiter.join(timeout)
    finally:  # on timeout, and when the benchmark itself is stopped
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    _, status, usage = box["done"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_rep(root: Path, scratch: Path, workload: str, seed: int, rep: int, traced: bool) -> dict:
    """One repetition on input ``(seed, rep)``; returns its measurements and verdict."""
    out = Path(tempfile.mkdtemp(prefix=f"rep{rep}-", dir=scratch))
    result_path = out / "rep.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    spawn = time.monotonic()
    with open(out / "stderr.txt", "wb") as stderr:
        proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "rep.py"), workload, str(seed), str(rep),
                repr(spawn), "1" if traced else "0", str(result_path),
            ],
            cwd=out, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        code, usage = _wait(proc, REP_TIMEOUT_S)
    record = {
        "traced": traced,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "problems": [],
        "rel_err": None,
    }
    if code != 0 or not result_path.exists():
        tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        record["problems"].append(f"repetition exited with code {code}: {' '.join(tail)}")
    else:
        run = json.loads(result_path.read_text())
        record.update(setup_s=run["setup_s"], wall_s=run["wall_s"], layers=run["layers"])
        if run["codes"] != [0] * run["commands"]:
            record["problems"].append(f"kpi-lab exit codes {run['codes']}")
        else:
            reference = _reference().get(workload, {})
            try:
                problems, rel_err = WORKLOADS[workload].check(out, run, reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems, rel_err = [f"outputs unreadable: {exc!r}"], None
            record["problems"].extend(problems)
            record["rel_err"] = rel_err
    shutil.rmtree(out)
    return record


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def accuracy_digits(rel_err: float | None) -> float:
    if rel_err is None:
        return 0.0
    if rel_err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(records: list[dict]) -> dict[str, list[float]]:
    samples = {name: [] for name in END_TO_END_UNITS}
    for r in records:
        if "wall_s" in r:
            samples["wall_s"].append(r["wall_s"])
            samples["setup_s"].append(r["setup_s"])
        samples["cpu_s"].append(r["cpu_s"])
        samples["peak_rss_mib"].append(r["peak_rss_mib"])
        samples["accuracy_digits"].append(accuracy_digits(r["rel_err"]))
    return samples


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, list[float]]:
    units = layers.per_layer_metrics()
    samples = {name: [] for name in units}
    for r in traced:
        for name, value in (r.get("layers") or {}).items():
            samples[name].append(value)
    wall_traced = _median(r.get("wall_s") for r in traced)
    wall_plain = _median(r.get("wall_s") for r in untraced)
    if wall_traced is not None and wall_plain:
        samples["trace.overhead"].append(wall_traced / wall_plain)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kpilab" / "cli.py").is_file():
        print(f"run.py: {root} is not a kpilab checkout (no src/kpilab/cli.py)", file=sys.stderr)
        return 2

    # a terminated benchmark still kills and reaps its repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    machine_info = machine.describe(root)
    # inside the checkout, because the benchmark writes nowhere else
    scratch_root = root / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    records = []
    try:
        started = time.monotonic()
        rep = 0
        # with tracing, repetitions come in (untraced, traced) pairs on one input
        while (
            rep < MIN_REPS
            or (args.trace and rep % 2)
            or time.monotonic() - started < args.seconds
        ):
            traced = bool(args.trace) and rep % 2 == 1
            input_index = rep // 2 if args.trace else rep
            record = run_rep(root, scratch, args.workload, args.seed, input_index, traced)
            records.append(record | {"rep": rep})
            rep += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:  # another run is still using it
            pass

    failed = sum(1 for r in records if r["problems"])
    untraced = [r for r in records if not r["traced"]]
    if args.trace:
        samples = per_layer([r for r in records if r["traced"]], untraced)
        units = layers.per_layer_metrics()
    else:
        samples = end_to_end(untraced)
        units = END_TO_END_UNITS

    for r in records:
        for problem in r["problems"]:
            print(f"rep {r['rep']}: FAILED {problem}")
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(records)}")
    print(f"  {'fail_frac':<48} {failed / len(records):>14.6g} fraction")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        value = _median(values)
        metrics[name] = {"value": value, "unit": unit}
        spread = f"[{min(values):.6g} .. {max(values):.6g}] n={len(values)}" if values else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit:<8} {spread}")
    print("machine " + json.dumps(machine_info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
