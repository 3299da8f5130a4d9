"""Outside-in layer tracer for kpilab.

Wraps the functions listed in ``layers.TRACED`` without touching the
package: each wrapper replaces every ``kpilab.*`` module attribute that holds
the original object, so names bound at import (``hum.evolve``,
``cli.evolve``) and names looked up at call time (``observe`` imports
``evolve`` inside functions) are all covered. Classes are traced through
their ``__init__``. Spans nest, which gives each function its self time.
Everything is restored on exit.
"""

from __future__ import annotations

import functools
import os
import sys
import time

from layers import TRACED

# position of the output path among the writers' positional arguments
_PATH_ARG = {"write_field": 1, "write_trajectory": 1, "rows_to_csv": 2}


class LayerTracer:
    """Context manager that traces kpilab's layers while it is open."""

    def __init__(self):
        # per traced name: [calls, busy seconds, self seconds]
        self.stats = {f"{module}.{fn}": [0, 0.0, 0.0] for module, fn, _ in TRACED}
        self.coeffs = 0
        self.cli_ok = 0
        self.cr_iterations = 0
        self.cr_matvecs = 0
        self.bytes_written = 0
        self._open: list[float] = []  # per open span: time covered by nested spans
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn, after=None):
        stat = self.stats[name]
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                nested = open_spans.pop()
                if open_spans:
                    open_spans[-1] += busy
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - nested
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # counters read from what the traced calls return or write

    def _after_evolve(self, result, args, kwargs):
        self.coeffs += result.coeffs.size

    def _after_synthesis(self, result, args, kwargs):
        diagnostics = result.diagnostics
        self.cr_iterations = max(self.cr_iterations, int(diagnostics["iterations"]))
        self.cr_matvecs += sum(
            len(history) - 1 for history in diagnostics["residual_histories"].values()
        )

    def _after_main(self, result, args, kwargs):
        self.cli_ok += result == 0

    def _after_writer(self, fn):
        def after(result, args, kwargs):
            path = args[_PATH_ARG[fn]] if len(args) > _PATH_ARG[fn] else kwargs["path"]
            self.bytes_written += os.path.getsize(path)

        return after

    def __enter__(self) -> "LayerTracer":
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "kpilab" or name.startswith("kpilab.")
        ]
        hooks = {
            "evolve": self._after_evolve,
            "synthesize_control": self._after_synthesis,
            "main": self._after_main,
        }
        hooks.update({fn: self._after_writer(fn) for fn in _PATH_ARG})
        for module_name, fn, _ in TRACED:
            name = f"{module_name}.{fn}"
            original = getattr(sys.modules[f"kpilab.{module_name}"], fn)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                original.__init__ = self._span(name, init)
                self._restore.append((original, "__init__", init))
                continue
            wrapper = self._span(name, original, hooks.get(fn))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (no overhead ratio)."""
        out: dict[str, float] = {}
        for module_name, fn, stats in TRACED:
            calls, busy, own = self.stats[f"{module_name}.{fn}"]
            values = {
                "calls": calls,
                "busy_s": busy,
                "self_s": own,
                "coeffs": self.coeffs,
                "failed": calls - self.cli_ok,
            }
            for stat in stats:
                out[f"{module_name}.{fn}.{stat}"] = values[stat]
        out["hum.cr_iterations"] = self.cr_iterations
        out["hum.cr_matvecs"] = self.cr_matvecs
        out["storage.bytes_written"] = self.bytes_written
        return out
