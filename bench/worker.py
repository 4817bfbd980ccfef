"""One fresh benchmark process: set up a workload, run it, print one JSON line.

Started by run.py, never by hand.  Modes:

    setup    import, make inputs, run one warm-up op, report set-up time
    measure  setup, then the untraced timed section (end-to-end metrics)
    trace    for every workload: an untraced and a traced section of equal
             length (per-layer metrics and tracing overhead), then the
             single-call scale probes and the CLI start-up probe
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qunit_bell as qb
from metrics import CLI_COMMANDS, LAYER_STATS, SCALE_DIMS, SCALE_LAYERS, STAT_SUFFIX, WORKLOADS
from tracer import Tracer
from workloads import make, noisy_entangled_state

ROOT = Path(__file__).resolve().parent.parent
SCALE_SHOTS = 10**6
STARTUP_RUNS = 3


@dataclass
class Section:
    """Outcome of a run of whole rounds."""

    ops: list[tuple[int, float]] = field(default_factory=list)  # (i, latency s)
    wall_s: float = 0.0
    cpu_s: float = 0.0  # of the whole section, between-op work and helper threads included
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record_error(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def ops_per_s(self) -> float:
        return len(self.ops) / self.wall_s


def cpu_s(workload) -> float:
    """CPU seconds of this process, plus those of waited-for children when the program runs there."""
    own = time.process_time()
    if not workload.runs_children:
        return own
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + usage.ru_utime + usage.ru_stime


def attempt(workload, i: int, section: Section, check: bool = True, tracer: Tracer | None = None):
    """Run op i once, time it, check it; a raise or a miss counts as failed."""
    args = workload.inputs(i)
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        out = workload.op(args)
        error = None
    except Exception as exc:  # any failure of the program counts, the run goes on
        out, error = None, f"op {i} raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = -1
    if error is None and check:
        error = check_output(workload, i, args, out)
    if error is not None:
        section.record_error(error)
    section.ops.append((i, latency))
    return out


def check_output(workload, i: int, args, out) -> str | None:
    try:
        return workload.check(args, out)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return f"op {i} check raised {type(exc).__name__}: {exc}"


def timed_section(workload, seconds: float, tracer: Tracer | None = None) -> Section:
    """Whole rounds of ops until `seconds` have passed (at least one round)."""
    section = Section()
    cpu0 = cpu_s(workload)
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(workload.round_size):
            attempt(workload, i, section, tracer=tracer)
            i += 1
        if time.perf_counter() - start >= seconds:
            break
    section.wall_s = time.perf_counter() - start
    section.cpu_s = cpu_s(workload) - cpu0
    return section


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    With ten samples or fewer no percentile qualifies, and the maximum is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.runs_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        from qunit_bell.parallel import worker_count
    except ImportError:
        workers = "absent"
    else:
        workers = worker_count()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "library_workers": workers,
        "git_sha": git_sha(),
        "src_sha256": tree_digest(ROOT / "src"),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tree_digest(top: Path) -> str:
    """SHA-256 over the relative paths and bytes of the library sources."""
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def setup(args):
    """Make the workload and run the warm-up op; return it with the set-up time."""
    workload = make(args.workload, args.seed, ROOT)
    warm = Section()
    out = attempt(workload, 0, warm, check=False)
    setup_s = time.monotonic() - args.spawned_at
    return workload, warm, out, setup_s


def measure(args) -> dict:
    workload, warm, out, setup_s = setup(args)
    try:
        workload.references()
        if not warm.failed:
            error = check_output(workload, 0, workload.inputs(0), out)
            if error:
                warm.record_error(error)
        timed = timed_section(workload, args.seconds)
    finally:
        workload.close()
    latencies = [lat for _, lat in timed.ops]
    tail_s, tail_pct, beyond = tail(latencies)
    # Round position p always runs the same kind of op.  A plain median of a
    # mix such as the CLI's six commands falls on the edge between two of
    # them and jumps from run to run, so take the median of each kind first.
    by_kind = [latencies[p :: workload.round_size] for p in range(workload.round_size)]
    return {
        "setup_s": setup_s,
        "attempted": 1 + len(timed.ops),
        "failed": warm.failed + timed.failed,
        "errors": warm.errors + timed.errors,
        "ops": len(timed.ops),
        "wall_s": timed.wall_s,
        "ops_per_s": timed.ops_per_s,
        "op_p50_ms": statistics.median(statistics.median(k) for k in by_kind) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        # CPU adds up, so take the section's total: a per-op median misses
        # the CPU a helper thread burns after its op has returned.
        "cpu_ms_per_op": timed.cpu_s / len(timed.ops) * 1e3,
        "peak_rss_mb": peak_rss_mb(workload),
        "facts": machine_facts(args.seed),
    }


def layer_values(name: str, tracer: Tracer, memory: Tracer, ops: int) -> dict[str, float]:
    """Per-op statistics of the traced section; peaks from the memory round."""
    totals = tracer.totals()
    peaks = memory.totals()
    values = {}
    for function, stats in LAYER_STATS[name]:
        t = totals.get(function)
        for stat in stats:
            metric = f"{name}.{function}.{STAT_SUFFIX[stat][0]}"
            if t is None:
                values[metric] = 0.0
            elif stat == "calls":
                values[metric] = t.calls / ops
            elif stat == "self_ms":
                values[metric] = t.self_s * 1e3 / ops
            elif stat == "cpu_ms":
                values[metric] = t.cpu_s * 1e3 / ops
            else:
                values[metric] = peaks[function].peak_bytes / 1e6 if function in peaks else 0.0
    if name == "threshold":
        values["threshold.noise.evals_per_op"] = (
            tracer.calls_from_layer("functional.quantum_value", "noise") / ops
        )
    return values


def trace(args) -> dict:
    """Untraced and traced sections of every workload, then the probes."""
    phase_s = args.seconds / (2 * len(WORKLOADS))
    values: dict[str, float] = {}
    attempted = failed = 0
    errors: list[str] = []
    absent: set[str] = set()
    for name in WORKLOADS:
        workload = make(name, args.seed, ROOT, in_process=True)
        try:
            warm = Section()
            workload.references()
            attempt(workload, 0, warm)
            plain = timed_section(workload, phase_s)
            tracer = Tracer()
            with tracer:
                traced = timed_section(workload, phase_s, tracer)
            # tracemalloc slows every allocation, so the peaks come from one
            # more round that wraps only the functions whose peak is reported.
            memory = Tracer(memory=True, only={f for f, stats in LAYER_STATS[name] if "peak_mb" in stats})
            with memory:
                peaks = Section()
                for i in range(workload.round_size):
                    attempt(workload, i, peaks)
        finally:
            workload.close()
        for section in (warm, plain, traced, peaks):
            attempted += len(section.ops)
            failed += section.failed
            errors += section.errors
        values.update(layer_values(name, tracer, memory, len(traced.ops)))
        absent.update(tracer.absent(function for function, _ in LAYER_STATS[name]))
        values[f"trace.{name}.overhead_pct"] = (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0
        if name == "cli":
            for command in CLI_COMMANDS:
                times = [lat for i, lat in plain.ops if workload.inputs(i)[0] == command]
                values[f"cli.{command}.ms"] = statistics.median(times) * 1e3
    scale, scale_absent = scale_probes(args.seed)
    values.update(scale)
    absent.update(scale_absent)
    values["cli.startup_ms"] = startup_ms()
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "absent": sorted(absent),
        "values": values,
        "facts": machine_facts(args.seed),
    }


def scale_probes(seed: int) -> tuple[dict[str, float], set[str]]:
    """Per-call time of each scale layer inside run(...) and analyze(N), at each N.

    Only the scale layers are wrapped, so their children add no tracing cost.
    Small N repeat three times and report the median.
    """
    values, absent = {}, set()
    for N in SCALE_DIMS:
        rho = noisy_entangled_state(np.random.default_rng([seed, N]), N)
        samples: dict[str, list[float]] = {layer: [] for layer in SCALE_LAYERS}
        for _ in range(3 if N <= 10 else 1):
            tracer = Tracer(only=set(SCALE_LAYERS))
            with tracer:
                qb.run(qb.ExperimentPlan(N, rho, SCALE_SHOTS, seed))
                qb.analyze(N)
            totals = tracer.totals()
            absent.update(tracer.absent(SCALE_LAYERS))
            for layer in SCALE_LAYERS:
                t = totals.get(layer)
                samples[layer].append(t.total_s / t.calls if t else 0.0)
        for layer in SCALE_LAYERS:
            values[f"scale.{layer}.n{N}_ms"] = statistics.median(samples[layer]) * 1e3
    return values, absent


def startup_ms() -> float:
    """Median wall time of a fresh `python -c "import qunit_bell.cli"`."""
    times = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qunit_bell.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args()
    library = Path(qb.__file__).resolve()
    if not library.is_relative_to(ROOT / "src"):
        print(f"error: qunit_bell was imported from {library}, not from this checkout", file=sys.stderr)
        return 2
    if args.mode == "setup":
        workload, _, _, setup_s = setup(args)
        workload.close()
        result = {"setup_s": setup_s}
    elif args.mode == "measure":
        result = measure(args)
    else:
        result = trace(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
