"""Names and units of every metric the benchmark reports.

Kept free of numpy and of the library, so that run.py and the self-tests can
read it without importing either.  BENCHMARK.json lists the same names.
"""

from __future__ import annotations

WORKLOADS = ("threshold", "spectral", "sample", "cli")

# Reported by a run with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer statistics of the traced section, by workload.  Each entry names
# a traced function `<layer>.<function>` and the statistics reported for it.
LAYER_STATS = {
    "threshold": [
        ("bases.intermediate_family", ("calls",)),
        ("functional.build_functional", ("calls",)),
        ("functional.build_layout", ("calls",)),
        ("functional.joint_click_table", ("calls", "self_ms", "peak_mb")),
        ("functional.quantum_value", ("calls", "self_ms")),
        ("noise.mixed_state", ("calls", "self_ms")),
        ("noise.threshold_numeric", ("self_ms",)),
        ("linalg.validate_density_matrix", ("calls", "self_ms")),
    ],
    "spectral": [
        ("bases.intermediate_family", ("calls",)),
        ("functional.bell_operator", ("calls", "self_ms")),
        ("linalg.projector", ("calls", "self_ms")),
        ("linalg.hermitian_eigensystem", ("calls", "self_ms")),
        ("spectral.analyze", ("self_ms",)),
        ("spectral.verify_max_entangled_optimality", ("self_ms",)),
    ],
    "sample": [
        ("montecarlo.run", ("calls", "self_ms", "cpu_ms")),
        ("functional.joint_click_table", ("calls", "self_ms", "peak_mb")),
        ("linalg.validate_density_matrix", ("calls", "self_ms")),
        ("parallel.worker_count", ("calls",)),
    ],
    "cli": [
        ("lhv.bruteforce_bound_with_witness", ("calls", "self_ms")),
        ("cli.load_state_file", ("calls", "self_ms")),
        ("linalg.validate_density_matrix", ("calls", "self_ms")),
        ("parallel.worker_count", ("calls",)),
    ],
}
STAT_SUFFIX = {
    "calls": ("calls_per_op", "calls/op"),
    "self_ms": ("self_ms_per_op", "ms/op"),
    "cpu_ms": ("cpu_ms_per_op", "ms/op"),
    "peak_mb": ("peak_alloc_mb", "MB"),
}
CLI_COMMANDS = ("quantum-value", "construct", "lhv", "noise", "scan", "sample")
SCALE_DIMS = (2, 3, 6, 10, 16)
SCALE_LAYERS = (
    "bases.intermediate_family",
    "functional.joint_click_table",
    "functional.bell_operator",
    "linalg.hermitian_eigensystem",
    "montecarlo.run",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in output order."""
    out = []
    for workload, entries in LAYER_STATS.items():
        for function, stats in entries:
            out += [(f"{workload}.{function}.{STAT_SUFFIX[s][0]}", STAT_SUFFIX[s][1]) for s in stats]
        if workload == "threshold":
            out.append(("threshold.noise.evals_per_op", "evals/op"))
    out += [(f"cli.{command}.ms", "ms") for command in CLI_COMMANDS]
    out.append(("cli.startup_ms", "ms"))
    out += [(f"scale.{layer}.n{N}_ms", "ms") for layer in SCALE_LAYERS for N in SCALE_DIMS]
    out += [(f"trace.{workload}.overhead_pct", "%") for workload in WORKLOADS]
    return out
