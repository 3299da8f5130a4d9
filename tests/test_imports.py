"""Loading kpilab costs numpy and the standard library only.

scipy serves one function, the packet coefficient quadrature, and is
imported where it is called, so a ``kpi-lab`` process that does not need it
never pays for it. The quadrature loads scipy's compiled QUADPACK module
alone, never the ``scipy.integrate`` package with ``scipy.special`` behind
it. No command loads mpmath: the spectral constant runs on Python ints, its
moments from powers of a root of unity, every complex inner product three
exact integer sums, and each constant the correctly rounded float of an
integer quotient; mpmath serves the tests as an independent oracle. The Gauss-Legendre rule of the
quadrature and of the Duhamel verifier comes from the package's own Newton
iteration, so neither command loads ``numpy.polynomial``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpilab as kl
from kpilab.storage import write_field

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import numpy as np
import kpilab, kpilab.cli

def lazy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))

at_load = lazy()
values = kpilab.gaussian_packet_coefficients(0.05, np.array([0, 7, -21, 56]))
print(json.dumps({"at_load": at_load, "values": [v.hex() for v in values.tolist()],
                  "after": lazy()}))
"""

# the values of the packet quadrature, frozen while scipy was still imported at load
FROZEN_VALUES = [
    "0x1.6d637c88b470cp-4",
    "0x1.57ae1fd9e260ep-4",
    "0x1.a51857e08f46bp-5",
    "0x1.cffb40860e588p-10",
]


def test_import_loads_neither_scipy_nor_mpmath():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(run.stdout)
    assert report["at_load"] == []
    assert report["values"] == FROZEN_VALUES
    assert "scipy.integrate._quadpack" in report["after"]
    assert "scipy.integrate" not in report["after"]
    assert "scipy.special" not in report["after"]
    assert "mpmath" not in report["after"]


def test_spectral_constant_does_not_load_mpmath(tmp_path):
    argv = ["--out", str(tmp_path), "spectral-constant", "--m-max", "4"]
    script = (
        "import sys\nfrom kpilab.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines()[-1] == "[]"


COMMANDS = {
    "control": ["control", "--verify-steps", "3000"],
    "quadrature": ["observe", "--method", "quadrature"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_do_not_load_numpy_polynomial(tmp_path, command):
    grid, field = kl.TorusGrid(32, 8), tmp_path / "field.bin"
    write_field(kl.mode_field(grid, 1, 1) + kl.mode_field(grid, 2, -1), field)
    flag = "--initial" if command == "control" else "--input"
    argv = ["--out", str(tmp_path / "out"), *COMMANDS[command], flag, str(field)]
    script = (
        "import sys\nfrom kpilab.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines()[-1] == "[]"
