"""Benchmark of qunit-bell: one workload, one seed, one run.

    python3 bench/run.py --workload threshold --seed 1 --seconds 15 --trace 0

The library is imported from the `src/` of the checkout that holds this
file.  With --trace 0 nothing is traced and the run reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics.  Human-readable
lines come first, then one `{"info": ...}` line with the machine facts, and
last one JSON line with the keys `correct`, `attempted`, `failed` and
`metrics`.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, WORKLOADS, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# Set-up time is the median over this many fresh processes, the measuring one included.
SETUP_RUNS = 5
# Every process is stopped by then, so that a run ends within 180 s.
RUN_BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("QUNIT_BELL_THREADS", None)  # measure the worker count users get by default
    return env


def remaining(deadline: float) -> float:
    return max(deadline - time.monotonic(), 1.0)


def build(deadline: float) -> None:
    """Byte-compile the library and the benchmark once, so no measured process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(WORKER.parent.relative_to(ROOT))],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=remaining(deadline),
    )  # fmt: skip


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process to its end and return the JSON it printed last."""
    started = time.monotonic()
    command = [
        sys.executable, str(WORKER), "--mode", mode, "--spawned-at", repr(started),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]  # fmt: skip
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
        proc.communicate()
        raise WorkerFailed(f"the {mode} worker did not finish within {RUN_BUDGET_S:g} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"the {mode} worker exited with status {proc.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerFailed(f"the {mode} worker printed no result") from None


def measure(args, deadline: float) -> tuple[dict, list[tuple[str, float, str, str]]]:
    """End-to-end run: set-up samples from fresh processes, then the timed one."""
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    result = spawn(args, "measure", deadline)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh processes",
        "ops_per_s": f"{result['ops']} ops in {result['wall_s']:.2f} s",
        "op_tail_ms": f"p{result['tail_percentile']:.1f}: "
        f"{result['tail_samples_beyond']} of {result['ops']} samples beyond",
    }
    rows = [(name, result[name], unit, notes.get(name, "")) for name, unit in END_TO_END.items()]
    return result, rows


def trace(args, deadline: float) -> tuple[dict, list[tuple[str, float, str, str]]]:
    result = spawn(args, "trace", deadline)
    rows = [(name, result["values"][name], unit, "") for name, unit in per_layer_metrics()]
    return result, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qunit-bell benchmark; see bench/README.md")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qunit_bell" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        build(deadline)
        result, rows = (trace if args.trace else measure)(args, deadline)
    except (WorkerFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value, unit, note in rows:
        print(f"  {name:<64} {value:>12.4f} {unit:<8} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':<64} {failed / attempted:>12.4f} {'':<8} {failed} of {attempted} ops")
    for error in result["errors"]:
        print(f"  failed: {error}")
    for name in result.get("absent", []):
        print(f"  absent from the library: {name}")
    info = {k: v for k, v in result.items() if k not in ("values", *END_TO_END)}
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
