"""The layers of kpilab the benchmark traces, and what each should move.

``TRACED`` names every public function (or class, whose construction is
timed) that the tracer wraps, with the statistics it reports for it. A
per-layer metric is named ``<module>.<function>.<stat>``:

- ``calls``: completed calls (constructions, for a class);
- ``busy_s``: seconds inside the call, nested calls included;
- ``self_s``: ``busy_s`` minus the time covered by nested traced calls;
- ``coeffs``: coefficients multiplied by ``evolve`` (computed from sizes);
- ``failed``: ``cli.main`` calls that returned a non-zero exit code.

``COUNTERS`` are read from the program's public outputs instead of timed.
``MOVES`` records, before any optimisation is measured, which end-to-end
metric each group of per-layer metrics should move and on which workloads
it should move little or nothing.
"""

TRACED = (
    ("propagate", "evolve", ("calls", "busy_s", "self_s", "coeffs")),
    ("dispersion", "unit_phases", ("calls", "busy_s")),
    ("fourier", "forward_transform", ("calls", "busy_s")),
    ("fourier", "inverse_transform", ("calls", "busy_s")),
    ("observe", "apply_vertical_control", ("calls", "busy_s", "self_s")),
    ("observe", "quadrature_observed_energy", ("calls", "busy_s", "self_s")),
    ("observe", "time_factor", ("calls", "busy_s")),
    ("observe", "control_gram_matrix", ("calls", "busy_s")),
    ("observe", "GramianBlock", ("calls", "busy_s")),
    ("observe", "assemble_observability_gramian", ("calls", "busy_s", "self_s")),
    ("observe", "gramian_from_frequencies", ("calls", "busy_s")),
    ("observe", "spectral_constant_table", ("calls", "busy_s")),
    ("hum", "ControlGramian", ("calls", "busy_s")),
    ("hum", "synthesize_control", ("busy_s", "self_s")),
    ("hum", "verify_control", ("busy_s", "self_s")),
    ("packets", "gaussian_packet_coefficients", ("calls", "busy_s")),
    ("packets", "dichotomy_experiment", ("calls", "busy_s")),
    ("experiments", "random_field", ("calls", "busy_s")),
    ("experiments", "frequency_localized_scan", ("calls", "busy_s")),
    ("experiments", "weak_observability_diagnostic", ("calls", "busy_s")),
    ("experiments", "run_experiment", ("calls", "busy_s", "self_s")),
    ("storage", "write_field", ("calls", "busy_s")),
    ("storage", "read_field", ("calls", "busy_s")),
    ("storage", "write_trajectory", ("calls", "busy_s")),
    ("storage", "rows_to_csv", ("calls", "busy_s")),
    ("cli", "main", ("calls", "busy_s", "failed")),
)

COUNTERS = {
    # max over blocks of the conjugate-residual iterations of a synthesis
    "hum.cr_iterations": "count",
    # sum over blocks of (residual history length - 1)
    "hum.cr_matvecs": "count",
    # size of every file the traced storage writers produced
    "storage.bytes_written": "bytes",
    # traced wall_s over untraced wall_s, medians of the same run
    "trace.overhead": "ratio",
}

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "coeffs": "count", "failed": "count"}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    names = {
        f"{module}.{fn}.{stat}": _UNITS[stat]
        for module, fn, stats in TRACED
        for stat in stats
    }
    names.update(COUNTERS)
    return names


MOVES = (
    {
        "metrics": (
            "propagate.evolve.*",
            "dispersion.unit_phases.*",
            "fourier.forward_transform.*",
            "fourier.inverse_transform.*",
            "observe.apply_vertical_control.*",
            "hum.verify_control.*",
        ),
        "moves": ("wall_s", "cpu_s", "peak_rss_mib on large-field"),
        "on": ("hum-steer", "large-field"),
        "little_or_none_on": ("lab-run", "spectral-table"),
    },
    {
        "metrics": ("observe.quadrature_observed_energy.*",),
        "moves": ("wall_s", "peak_rss_mib"),
        "on": ("large-field",),
        "little_or_none_on": ("hum-steer",),
    },
    {
        "metrics": (
            "observe.time_factor.*",
            "observe.control_gram_matrix.*",
            "observe.GramianBlock.*",
            "observe.assemble_observability_gramian.*",
            "observe.gramian_from_frequencies.*",
        ),
        "moves": ("wall_s", "cpu_s"),
        "on": ("lab-run",),
        "little_or_none_on": ("hum-steer", "spectral-table"),
    },
    {
        "metrics": ("observe.spectral_constant_table.*",),
        "moves": ("wall_s",),
        "on": ("spectral-table",),
        "little_or_none_on": ("hum-steer", "large-field", "lab-run"),
    },
    {
        "metrics": (
            "hum.ControlGramian.*",
            "hum.synthesize_control.*",
            "hum.cr_iterations",
            "hum.cr_matvecs",
        ),
        "moves": ("wall_s, about 1% of it",),
        "on": ("hum-steer",),
        "little_or_none_on": ("large-field", "lab-run", "spectral-table"),
    },
    {
        "metrics": (
            "packets.gaussian_packet_coefficients.*",
            "packets.dichotomy_experiment.*",
            "experiments.random_field.*",
            "experiments.frequency_localized_scan.*",
            "experiments.weak_observability_diagnostic.*",
            "experiments.run_experiment.*",
        ),
        "moves": ("wall_s",),
        "on": ("lab-run",),
        "little_or_none_on": ("spectral-table",),
    },
    {
        "metrics": (
            "storage.write_field.*",
            "storage.read_field.*",
            "storage.write_trajectory.*",
            "storage.rows_to_csv.*",
            "storage.bytes_written",
            "cli.main.*",
        ),
        "moves": ("wall_s", "setup_s", "fail_frac; bytes_written must never change"),
        "on": ("hum-steer", "large-field", "lab-run", "spectral-table"),
        "little_or_none_on": (),
    },
)
