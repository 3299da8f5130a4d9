"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run the benchmark from the repository root, as its users do; the whole
file takes about a minute on a 2-core box.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(script: Path, workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_bench(dest: Path) -> Path:
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest / "perfbench"


def test_benchmark_json_lists_what_the_code_defines():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.per_layer_metrics()
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_per_layer_metric_has_a_predicted_movement():
    patterns = [p for row in layers.MOVES for p in row["metrics"]]
    for name in layers.per_layer_metrics():
        if name == "trace.overhead":
            continue
        prefix = name.rsplit(".", 1)[0] + ".*"
        assert patterns.count(name) + patterns.count(prefix) == 1, name


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_name_is_emitted(trace, section):
    result = last_json(run_bench(HERE / "run.py", "spectral-table", trace))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] is not None for v in result["metrics"].values())


def test_corrupted_reference_fails_every_repetition(tmp_path):
    bench = copy_bench(tmp_path)
    reference = json.loads((bench / "reference.json").read_text())
    reference["spectral-table"]["kappa"][3] *= 1.0 + 1e-9
    (bench / "reference.json").write_text(json.dumps(reference))
    proc = run_bench(bench / "run.py", "spectral-table", 0)
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1  # fail_frac = 1
    assert "table is off the reference" in proc.stdout


def test_traced_lab_run_writes_identical_bytes(tmp_path):
    outputs = {}
    for trace in ("0", "1"):
        work = tmp_path / f"trace{trace}"
        work.mkdir()
        subprocess.run(
            [sys.executable, str(HERE / "rep.py"), "lab-run", "5", "0", "0", trace, "rep.json"],
            cwd=work, env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            check=True, timeout=170,
        )
        assert json.loads((work / "rep.json").read_text())["codes"] == [0]
        files = sorted((work / "lab").glob("*.csv")) + [work / "lab" / "summary.json"]
        outputs[trace] = {f.name: f.read_bytes() for f in files}
    assert len(outputs["0"]) == 7
    assert outputs["1"] == outputs["0"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench = copy_bench(tmp_path)
    proc = run_bench(bench / "run.py", "lab-run", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
