"""One benchmark repetition, in its own interpreter and working directory.

    python3 rep.py WORKLOAD SEED REP SPAWN_MONOTONIC TRACE RESULT_JSON

Imports kpilab, writes the seeded inputs into the working directory (the
set-up), then calls ``kpilab.cli.main`` once per command of the workload
(the workload). ``SPAWN_MONOTONIC`` is the parent's ``time.monotonic()``
just before it started this interpreter; the clock is system-wide, so
``setup_s`` covers interpreter start-up too. With ``TRACE`` = 1 the calls
run under the layer tracer. The timings, exit codes, captured standard
output and layer metrics go to ``RESULT_JSON``.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, rep, spawn, trace, result_path = argv
    import kpilab.cli

    from workloads import WORKLOADS

    commands = WORKLOADS[workload].prepare(int(seed), int(rep), Path.cwd())
    tracer = contextlib.nullcontext()
    if trace == "1":
        from tracer import LayerTracer

        tracer = LayerTracer()
    codes, stdout = [], []
    with tracer:
        start = time.monotonic()
        for command in commands:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = kpilab.cli.main(command)
            codes.append(code)
            stdout.append(captured.getvalue())
            if code != 0:
                break
        wall_s = time.monotonic() - start
    result = {
        "setup_s": start - float(spawn),
        "wall_s": wall_s,
        "commands": len(commands),
        "codes": codes,
        "stdout": stdout,
        "layers": tracer.metrics() if trace == "1" else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
