"""Self-tests of the benchmark (not part of the library's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import make  # noqa: E402


def test_wrong_reference_counts_as_failed():
    workload = make("threshold", 1, ROOT, small=True)
    workload.references()
    workload.closed = {kind: value + 1e-3 for kind, value in workload.closed.items()}
    section = worker.timed_section(workload, 0.0)
    assert len(section.ops) == workload.round_size
    assert section.failed == len(section.ops)
    assert "threshold" in section.errors[0]


def test_raising_op_counts_as_failed_and_the_run_goes_on():
    workload = make("spectral", 1, ROOT, small=True)
    workload.references()
    workload.dim = 1  # the library rejects N < 2
    section = worker.Section()
    worker.attempt(workload, 0, section)
    worker.attempt(workload, 1, section)
    assert section.failed == 2 and len(section.ops) == 2
    assert "raised ValueError" in section.errors[0]


def test_nonzero_exit_counts_as_failed():
    workload = make("cli", 1, ROOT, small=True)
    try:
        workload.references()
        assert workload.check(["lhv"], (1, "", "error: boom")) is not None
    finally:
        workload.close()


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_every_workload_passes_at_a_small_size(name):
    for in_process in (False, True) if name == "cli" else (False,):
        workload = make(name, 7, ROOT, in_process=in_process, small=True)
        try:
            workload.references()
            section = worker.timed_section(workload, 0.0)
        finally:
            workload.close()
        assert section.errors == []
        assert len(section.ops) == workload.round_size
        if name == "cli":
            assert not workload.workdir.exists()


def test_tail_has_ten_samples_beyond():
    assert worker.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert worker.tail([1.0, 2.0]) == (2.0, 100.0, 0)


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .inner import leaf\nfrom .outer import caller\n")
    (package / "inner.py").write_text(
        textwrap.dedent(
            """
            import time

            def leaf():
                time.sleep(0.01)
                return 1
            """
        )
    )
    (package / "outer.py").write_text(
        textwrap.dedent(
            """
            import time
            from .inner import leaf

            def caller():
                time.sleep(0.02)
                return leaf() + leaf()
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "toypkg"
    for name in [m for m in sys.modules if m == "toypkg" or m.startswith("toypkg.")]:
        del sys.modules[name]


def test_tracer_wraps_every_binding_and_restores_them(toy_package):
    import toypkg
    import toypkg.outer

    original = toypkg.leaf
    tracer = Tracer(memory=True, package_name=toy_package)
    with tracer:
        assert toypkg.outer.leaf is not original and toypkg.leaf is not original
        assert toypkg.caller() == 2
    assert toypkg.leaf is original and toypkg.outer.leaf is original

    totals = tracer.totals()
    assert totals["inner.leaf"].calls == 2 and totals["outer.caller"].calls == 1
    assert tracer.calls_from_layer("inner.leaf", "outer") == 2
    caller = totals["outer.caller"]
    assert caller.self_s == pytest.approx(caller.total_s - totals["inner.leaf"].total_s)
    assert 0.015 < caller.self_s < caller.total_s
    assert tracer.absent(["inner.leaf", "inner.removed_by_a_refactor"]) == ["inner.removed_by_a_refactor"]


def test_tracer_only_wraps_the_requested_names(toy_package):
    import toypkg

    tracer = Tracer(only={"outer.caller"}, package_name=toy_package)
    with tracer:
        toypkg.caller()
    assert set(tracer.totals()) == {"outer.caller"}


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(metrics.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.per_layer_metrics()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def run_bench(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_run_prints_the_end_to_end_metrics():
    proc = run_bench(ROOT, "--workload", "sample", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "threshold", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
