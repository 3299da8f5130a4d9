"""The machine a benchmark result was measured on, as found at run time."""

from __future__ import annotations

import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


def _caches() -> dict[str, str]:
    """Cache sizes of cpu0 by level and type, e.g. ``{"L2": "2048K"}``."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _blas() -> dict[str, str | None]:
    import numpy
    import scipy

    def describe(module):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    return {"numpy": describe(numpy), "scipy": describe(scipy)}


def _git(root: Path) -> dict | None:
    """Commit and dirty flag, only when the root itself is a git checkout."""
    if not (root / ".git").exists():
        return None

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30
        )

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def describe(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "versions": {pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "blas": _blas(),
        "blas_threads_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "git": _git(root),
    }
