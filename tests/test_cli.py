import io
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import qunit_bell.cli as cli
import qunit_bell.functional as functional
import qunit_bell.linalg as linalg
from qunit_bell.bases import (
    computational_basis,
    fourier_basis,
    intermediate_family,
    normalization_constant,
    overlap_phases,
)
from qunit_bell.cli import main
from qunit_bell.functional import build_layout, max_entangled_state
from qunit_bell.linalg import projector
from qunit_bell.montecarlo import ExperimentPlan, run

from test_functional import loop_layout


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_in_process(*argv):
    """main(argv) -> (exit code, stdout, stderr lines), numpy's warnings included.

    A warning would reach a real process's stderr, so each one counts as a
    line there.  Needs no pytest fixture, so hypothesis tests can call it.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    lines = err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue(), lines


def decode(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def write_state(path, local_dim, kind, data):
    path.write_text(json.dumps({"local_dim": local_dim, "kind": kind, "data": data}))
    return str(path)


def ket_payload(vec):
    return [[z.real, z.imag] for z in vec]


def density_payload(mat):
    return [[[z.real, z.imag] for z in row] for row in mat]


def test_construct_writes_family(tmp_path, capsys):
    out = tmp_path / "family.json"
    code, stdout, stderr = run_cli(capsys, "construct", "--dim", "3", "--out", str(out))
    assert code == 0
    assert stderr == ""
    summary = json.loads(stdout)
    assert summary["intermediate_states"] == 9
    doc = json.loads(out.read_text())
    assert doc["local_dim"] == 3
    assert abs(doc["normalization"] - 2 * (1 + 1 / np.sqrt(3))) < 1e-12
    states = decode(doc["intermediate_states"])
    assert states.shape == (3, 3, 3)
    assert doc["value_assignment"] == loop_layout(3).tolist()
    assert len(doc["computational_basis"]) == 3
    assert len(doc["fourier_basis"]) == 3
    assert np.asarray(doc["phases"]).shape == (3, 3)


def test_construct_round_trip_bit_for_bit(tmp_path, capsys):
    out = tmp_path / "family.json"
    code, _, _ = run_cli(capsys, "construct", "--dim", "4", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.array_equal(decode(doc["intermediate_states"]), intermediate_family(4))
    assert np.array_equal(np.asarray(doc["phases"]), overlap_phases(4))


@pytest.mark.parametrize("N", (2, 5, 8))
def test_construct_value_assignment_matches_loops(tmp_path, capsys, N):
    out = tmp_path / "family.json"
    code, _, _ = run_cli(capsys, "construct", "--dim", str(N), "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["value_assignment"] == loop_layout(N).tolist()


def test_construct_n2_orthonormal_pairs(tmp_path, capsys):
    out = tmp_path / "family.json"
    code, _, _ = run_cli(capsys, "construct", "--dim", "2", "--out", str(out))
    assert code == 0
    states = decode(json.loads(out.read_text())["intermediate_states"])
    for pair in ((states[0, 0], states[1, 1]), (states[0, 1], states[1, 0])):
        basis = np.stack(pair)
        assert np.abs(basis @ basis.conj().T - np.eye(2)).max() < 1e-10


def test_construct_rejects_dim_one(tmp_path, capsys):
    code, stdout, stderr = run_cli(
        capsys, "construct", "--dim", "1", "--out", str(tmp_path / "x.json")
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:")
    assert stderr.strip().count("\n") == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--out", "never-written.json"),
        ("quantum-value",),
        ("lhv", "--brute-force"),
        ("noise", "--kind", "uncolored"),
        ("sample", "--shots", "10", "--seed", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_oversized_dim_rejected_before_allocation(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(capsys, argv[0], "--dim", "100000", *argv[1:])
    assert code == 1
    assert stdout == ""
    assert stderr == "error: --dim must be at most 64, got 100000\n"
    assert list(tmp_path.iterdir()) == []


def test_construct_unwritable_path(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "construct", "--dim", "2", "--out", str(tmp_path / "no" / "dir" / "x.json")
    )
    assert code == 1
    assert stderr.startswith("error:")


def test_quantum_value_default_state(capsys):
    code, stdout, _ = run_cli(capsys, "quantum-value", "--dim", "3")
    assert code == 0
    report = json.loads(stdout)
    assert abs(report["value"] - 3.4641016151377544) < 1e-9
    assert abs(report["max_quantum"] - 2 * np.sqrt(3)) < 1e-12
    assert report["classical_bound"] == 2


def test_quantum_value_chsh(capsys):
    code, stdout, _ = run_cli(capsys, "quantum-value", "--dim", "2")
    assert code == 0
    assert abs(json.loads(stdout)["value"] - 2.8284271247461903) < 1e-9


def test_quantum_value_maximally_mixed_file(tmp_path, capsys):
    state = write_state(
        tmp_path / "mixed.json", 3, "density", density_payload(np.eye(9) / 9)
    )
    code, stdout, _ = run_cli(capsys, "quantum-value", "--dim", "3", "--state", state)
    assert code == 0
    assert abs(json.loads(stdout)["value"] - (-2.0)) < 1e-10


def test_quantum_value_ket_file(tmp_path, capsys):
    state = write_state(
        tmp_path / "psi.json", 3, "ket", ket_payload(max_entangled_state(3))
    )
    code, stdout, _ = run_cli(capsys, "quantum-value", "--dim", "3", "--state", state)
    assert code == 0
    assert abs(json.loads(stdout)["value"] - 2 * np.sqrt(3)) < 1e-9


@pytest.mark.parametrize(
    "mutate,needle",
    (
        (lambda p: p.write_text("{not json"), "not valid JSON"),
        (lambda p: p.write_text("[1, 2]"), "JSON object"),
        (lambda p: p.write_text(json.dumps({"kind": "ket", "data": []})), "local_dim"),
        (
            lambda p: p.write_text(
                json.dumps({"local_dim": 2, "kind": "ket", "data": [[1, 0]] * 4})
            ),
            "does not match",
        ),
        (
            lambda p: p.write_text(
                json.dumps({"local_dim": 3, "kind": "ket", "data": [[1, 0]] * 4})
            ),
            "length-9",
        ),
        (
            lambda p: p.write_text(
                json.dumps(
                    {"local_dim": 3, "kind": "ket", "data": [[1, 0]] + [[1, 0]] * 8}
                )
            ),
            "norm deviates",
        ),
        (
            lambda p: p.write_text(
                json.dumps(
                    {
                        "local_dim": 3,
                        "kind": "density",
                        "data": density_payload(np.eye(9)),
                    }
                )
            ),
            "trace",
        ),
        (
            lambda p: p.write_text(
                json.dumps({"local_dim": 3, "kind": "vector", "data": []})
            ),
            "unknown state kind",
        ),
        (
            lambda p: p.write_text(
                json.dumps({"local_dim": 3, "kind": "ket", "data": "xyz"})
            ),
            "not numeric",
        ),
        pytest.param(
            lambda p: p.write_text("[" * 100000 + "]" * 100000),
            "not valid JSON",
            id="deeply-nested-json",
        ),
        pytest.param(
            lambda p: write_state(p, 3.0, "ket", ket_payload(max_entangled_state(3))),
            "must be an integer",
            id="float-local-dim",
        ),
        pytest.param(
            lambda p: write_state(p, True, "ket", ket_payload(max_entangled_state(3))),
            "must be an integer",
            id="bool-local-dim",
        ),
        pytest.param(
            lambda p: write_state(p, 3, "ket", [[True, False]] + [[0, 0]] * 8),
            "booleans",
            id="bool-in-ket-data",
        ),
        pytest.param(
            lambda p: write_state(
                p, 3, "density", [[[True, 0]] + [[0, 0]] * 8] + density_payload(np.zeros((8, 9)))
            ),
            "booleans",
            id="bool-in-density-data",
        ),
        pytest.param(
            lambda p: write_state(
                p, 3, "ket", [[str(z.real), "0"] for z in max_entangled_state(3)]
            ),
            "not numeric: it contains strings",
            id="string-in-ket-data",
        ),
        pytest.param(
            lambda p: write_state(
                p, 3, "density", [[[str(1 / 9), 0]] + [[0, 0]] * 8] + density_payload(np.eye(9)[1:] / 9)
            ),
            "not numeric: it contains strings",
            id="string-in-density-data",
        ),
        pytest.param(
            lambda p: write_state(p, 3, "ket", [[None, 0]] + [[0, 0]] * 8),
            "not numeric: it contains nulls",
            id="null-in-ket-data",
        ),
        pytest.param(
            lambda p: p.write_text(
                '{"local_dim": 3, "kind": "ket", "data": [[1' + "0" * 400 + ', 0]' + ", [0, 0]" * 8 + "]}"
            ),
            "not numeric: int too large",
            id="huge-int-in-ket-data",
        ),
    ),
)
def test_state_file_diagnostics(tmp_path, capsys, mutate, needle):
    path = tmp_path / "state.json"
    mutate(path)
    code, stdout, stderr = run_cli(
        capsys, "quantum-value", "--dim", "3", "--state", str(path)
    )
    assert code == 1
    assert stdout == ""
    assert needle in stderr
    assert stderr.strip().count("\n") == 0


def test_missing_state_file(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "quantum-value", "--dim", "3", "--state", str(tmp_path / "absent.json")
    )
    assert code == 1
    assert stderr.startswith("error:")


def test_lhv_closed_form(capsys):
    code, stdout, _ = run_cli(capsys, "lhv", "--dim", "3")
    assert code == 0
    report = json.loads(stdout)
    assert report["bound"] == 2
    assert report["method"] == "closed-form"
    assert report["strategy"] == {"alpha": 0, "alpha_prime": 0, "clicks": "0x1"}


def test_lhv_brute_force_agrees(capsys):
    code, stdout, _ = run_cli(capsys, "lhv", "--dim", "3", "--brute-force")
    assert code == 0
    report = json.loads(stdout)
    assert report["bound"] == 2
    assert report["method"] == "brute-force"
    assert report["strategy"] == {"alpha": 2, "alpha_prime": 2, "clicks": "0x100"}


def test_lhv_closed_form_dim8(capsys):
    code, stdout, _ = run_cli(capsys, "lhv", "--dim", "8")
    assert code == 0
    assert json.loads(stdout)["bound"] == 2


def test_lhv_brute_force_range(capsys):
    # N = 5 needs no flag; --allow-slow is still accepted and changes nothing
    plain = run_cli(capsys, "lhv", "--dim", "5", "--brute-force")
    assert plain[0] == 0
    assert json.loads(plain[1])["bound"] == 2
    assert run_cli(capsys, "lhv", "--dim", "5", "--brute-force", "--allow-slow") == plain
    code, _, stderr = run_cli(capsys, "lhv", "--dim", "6", "--brute-force")
    assert code == 1
    assert stderr == "error: brute force supports 2 <= N <= 5, got 6\n"


def test_noise_reports(capsys):
    code, stdout, _ = run_cli(capsys, "noise", "--dim", "3", "--kind", "uncolored")
    assert code == 0
    report = json.loads(stdout)
    assert abs(report["closed_form"] - 0.7320508075688773) < 1e-12
    assert report["difference"] < 1e-9

    code, stdout, _ = run_cli(capsys, "noise", "--dim", "3", "--kind", "separable")
    assert code == 0
    report = json.loads(stdout)
    assert abs(report["closed_form"] - 0.46410161513775466) < 1e-12
    assert report["difference"] < 1e-9

    code, stdout, _ = run_cli(capsys, "noise", "--dim", "2", "--kind", "uncolored")
    assert code == 0
    assert abs(json.loads(stdout)["closed_form"] - 0.7071067811865475) < 1e-12


def test_noise_unknown_kind(capsys):
    # argparse owns the kinds, through choices=_NOISE_KINDS; its message stays on the one error: line
    code, _, stderr = run_cli(capsys, "noise", "--dim", "3", "--kind", "pink")
    assert code == 1
    assert stderr.startswith("error: argument --kind: invalid choice: 'pink'")
    assert stderr.count("\n") == 1


def test_scan_json(capsys):
    code, stdout, _ = run_cli(capsys, "scan", "--dims", "2..5")
    assert code == 0
    rows = json.loads(stdout)
    assert [row["dim"] for row in rows] == [2, 3, 4, 5]
    row4 = rows[2]
    assert abs(row4["quantum_max"] - 4.0) < 1e-9
    assert row4["lhv_bound"] == 2


def test_scan_csv(capsys):
    code, stdout, _ = run_cli(capsys, "scan", "--dims", "2..3", "--format", "csv")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "dim,quantum_max,lhv_bound,lambda_mix,lambda_sep"
    assert len(lines) == 3
    assert lines[1].startswith("2,")
    assert lines[2].startswith("3,")


def test_scan_lambda_mix_n9(capsys):
    code, stdout, _ = run_cli(capsys, "scan", "--dims", "9..9")
    assert code == 0
    assert json.loads(stdout)[0]["lambda_mix"] == 0.8


def test_scan_range_errors(capsys):
    for dims in ("2..11", "3..2", "1..3", "4", "a..b", "2..1_0", " 2.. 3", "+2..3", "2..３", "..3", "2..3.."):
        code, _, stderr = run_cli(capsys, "scan", "--dims", dims)
        assert code == 1
        assert "--dims" in stderr


def test_sample_report(capsys):
    code, stdout, _ = run_cli(
        capsys, "sample", "--dim", "3", "--shots", "200000", "--seed", "42"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["generator"] == "philox4x64"
    assert report["shots_per_combination"] == 200000
    assert report["counts_axes"] == "setting,alice_outcome,value,group,click_bit"
    assert abs(report["b_estimate"] - 2 * np.sqrt(3)) < 4 * report["std_error"]
    counts = np.asarray(report["counts"])
    assert counts.shape == (2, 3, 3, 3, 2)
    assert np.all(counts.sum(axis=(1, 4)) == 200000)


def test_sample_matches_library_run(capsys):
    code, stdout, _ = run_cli(capsys, "sample", "--dim", "3", "--shots", "5000", "--seed", "11")
    assert code == 0
    report = json.loads(stdout)
    result = run(ExperimentPlan(3, projector(max_entangled_state(3)), 5000, 11))
    assert np.array_equal(np.asarray(report["counts"]), result.counts)
    assert report["b_estimate"] == result.b_estimate
    assert report["std_error"] == result.std_error


def test_sample_rejects_bad_flags(capsys):
    code, _, stderr = run_cli(capsys, "sample", "--dim", "3", "--shots", "0", "--seed", "1")
    assert code == 1
    assert "--shots" in stderr
    code, _, stderr = run_cli(capsys, "sample", "--dim", "3", "--shots", "10", "--seed", "-1")
    assert code == 1
    assert "--seed" in stderr


def test_sample_refuses_shots_beyond_c_long(capsys):
    code, stdout, stderr = run_cli(
        capsys, "sample", "--dim", "2", "--shots", str(2**63), "--seed", "1"
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: --shots")
    assert stderr.strip().count("\n") == 0


def test_sample_repeated_invocations_identical_bytes():
    argv = [
        sys.executable,
        "-m",
        "qunit_bell",
        "sample",
        "--dim",
        "2",
        "--shots",
        "5000",
        "--seed",
        "7",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_entry_point_exit_status():
    ok = subprocess.run(
        [sys.executable, "-m", "qunit_bell", "lhv", "--dim", "2"], capture_output=True
    )
    assert ok.returncode == 0
    bad = subprocess.run(
        [sys.executable, "-m", "qunit_bell", "quantum-value", "--dim", "1"],
        capture_output=True,
    )
    assert bad.returncode == 1
    assert bad.stdout == b""
    assert bad.stderr.decode().startswith("error:")


def test_closed_stdout_pipe_exits_quietly():
    # `qunit-bell sample --dim 12 ... | head -1`: the 193 kB of JSON outgrow the
    # pipe buffer, so the write is still under way when the reader leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "qunit_bell", "sample", "--dim", "12", "--shots", "10", "--seed", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 141  # 128 + SIGPIPE
    assert stderr == b""


OPENBLAS_VARIABLES = ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
OPENBLAS_PROBE = """
import json, os, sys, time
seen = []  # OPENBLAS_THREAD_TIMEOUT as numpy loads
sys.addaudithook(lambda event, args: event == "import" and args[0] == "numpy"
                 and seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT")))
import {imports}
time.sleep(0.3)
ticks = 0
for task in os.listdir("/proc/self/task"):
    if task != str(os.getpid()):
        with open(f"/proc/self/task/{{task}}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime + stime
print(json.dumps([seen, {{k: os.environ.get(k) for k in {variables!r}}}, ticks]))
"""


def openblas_after(imports, **user_env):
    """What a fresh child saw after `import <imports>` and a 0.3 s rest.

    Returns the OPENBLAS_THREAD_TIMEOUT that numpy loaded under ([] if numpy
    did not load), the OpenBLAS variables afterwards, and the CPU clock ticks
    of every thread but the main one (OpenBLAS's pool).  The child starts with
    none of the variables but those in user_env.
    """
    env = {k: v for k, v in os.environ.items() if k not in OPENBLAS_VARIABLES}
    code = OPENBLAS_PROBE.format(imports=imports, variables=OPENBLAS_VARIABLES)
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**env, **user_env}, capture_output=True, check=True, timeout=60
    )
    return json.loads(proc.stdout)


NEEDS_PROC_TASKS = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")


@NEEDS_PROC_TASKS
def test_cli_loads_numpy_with_a_pool_that_sleeps():
    seen, env, pool_ticks = openblas_after("qunit_bell.cli")
    assert seen == ["4"]
    assert env == dict.fromkeys(OPENBLAS_VARIABLES)  # set for numpy's load only
    assert pool_ticks <= 2  # the default pool spins ~0.1 s per thread here


@NEEDS_PROC_TASKS
def test_package_import_does_not_load_numpy():
    seen, env, _ = openblas_after("qunit_bell")
    assert seen == []
    assert env == dict.fromkeys(OPENBLAS_VARIABLES)


@NEEDS_PROC_TASKS
@pytest.mark.parametrize("variable", OPENBLAS_VARIABLES)
def test_cli_keeps_the_users_openblas_variables(variable):
    seen, env, _ = openblas_after("qunit_bell.cli", **{variable: "2"})
    assert seen == ["2" if variable == "OPENBLAS_THREAD_TIMEOUT" else "4"]
    assert env == {k: "2" if k == variable else None for k in OPENBLAS_VARIABLES}


@NEEDS_PROC_TASKS
def test_cli_after_numpy_leaves_the_pool_alone():
    seen, env, _ = openblas_after("numpy, qunit_bell.cli")
    assert seen == [None]
    assert env == dict.fromkeys(OPENBLAS_VARIABLES)


@pytest.mark.parametrize("part", (0, 1), ids=("real", "imaginary"))
def test_non_finite_density_file_gives_one_error_line(tmp_path, part):
    data = density_payload(np.eye(4) / 4)
    data[0][1][part] = data[1][0][part] = float("inf")  # JSON's Infinity
    state = write_state(tmp_path / "inf.json", 2, "density", data)
    result = subprocess.run(
        [sys.executable, "-m", "qunit_bell", "quantum-value", "--dim", "2", "--state", state],
        capture_output=True,
    )
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr.decode() == "error: non-finite entries (NaN/Inf) are not admitted\n"


COMMANDS = pytest.mark.parametrize(
    "command", (("quantum-value",), ("sample", "--shots", "10", "--seed", "1")), ids=lambda c: c[0]
)


@COMMANDS
@pytest.mark.parametrize(
    "i,j,part",
    ((0, 0, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1)),
    ids=("diagonal-real", "diagonal-imaginary", "off-diagonal-real", "off-diagonal-imaginary"),
)
@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")), ids=str)
def test_non_finite_density_entries_give_one_error_line(tmp_path, value, i, j, part, command):
    data = density_payload(np.eye(4) / 4)
    data[i][j][part] = data[j][i][part] = value  # JSON's NaN, Infinity, -Infinity
    state = write_state(tmp_path / "state.json", 2, "density", data)
    code, stdout, stderr = run_cli_in_process(*command, "--dim", "2", "--state", state)
    assert (code, stdout) == (1, "")
    assert stderr == ["error: non-finite entries (NaN/Inf) are not admitted"]


@COMMANDS
def test_density_entries_near_float_max_give_one_error_line(tmp_path, command):
    # at N = 2 the file refuses magnitudes from float max / 8 up, where the
    # validator's rho - rho^dagger or Tr rho could overflow; below, the library decides
    limit = np.finfo(float).max / 8
    for value, message in (
        (limit, f"error: density data entries must be smaller than {limit:.3e} in magnitude, got {limit:.3e}"),
        (limit / 2, f"error: density matrix trace deviates from 1 by {limit:.3e}"),
    ):
        data = density_payload(projector(max_entangled_state(2)))
        data[0][0][0] = data[1][1][0] = value
        state = write_state(tmp_path / "state.json", 2, "density", data)
        code, stdout, stderr = run_cli_in_process(*command, "--dim", "2", "--state", state)
        assert (code, stdout, stderr) == (1, "", [message])


@COMMANDS
@pytest.mark.parametrize("part", (0, 1), ids=("real", "imaginary"))
@pytest.mark.parametrize(
    "value,message",
    (
        (float("inf"), "error: ket norm deviates from 1 by inf"),
        (float("-inf"), "error: ket norm deviates from 1 by inf"),
        (float("nan"), "error: non-finite entries (NaN/Inf) are not admitted"),
    ),
    ids=("inf", "-inf", "nan"),
)
def test_non_finite_ket_entries_give_one_error_line(tmp_path, value, message, part, command):
    data = ket_payload(max_entangled_state(2))
    data[1][part] = value
    state = write_state(tmp_path / "state.json", 2, "ket", data)
    code, stdout, stderr = run_cli_in_process(*command, "--dim", "2", "--state", state)
    assert (code, stdout, stderr) == (1, "", [message])


@COMMANDS
@pytest.mark.parametrize("deviation", (2e-10, -2e-10, 2e-9, 1e-8), ids=str)
def test_ket_file_norm_rule_is_the_trace_rule(tmp_path, deviation, command):
    # <psi|psi> - 1 = deviation; the file's ket meets the 1e-10 of a density trace
    psi = max_entangled_state(2) * np.sqrt(1.0 + deviation)
    state = write_state(tmp_path / "state.json", 2, "ket", ket_payload(psi))
    code, stdout, stderr = run_cli_in_process(*command, "--dim", "2", "--state", state)
    assert (code, stdout, stderr) == (1, "", [f"error: ket norm deviates from 1 by {abs(deviation):.3e}"])


@COMMANDS
def test_ket_file_within_trace_rule_is_accepted(tmp_path, command):
    psi = max_entangled_state(2) * np.sqrt(1.0 + 1e-11)
    state = write_state(tmp_path / "state.json", 2, "ket", ket_payload(psi))
    code, stdout, stderr = run_cli_in_process(*command, "--dim", "2", "--state", state)
    assert (code, stderr) == (0, [])
    json.loads(stdout)


@pytest.mark.parametrize("command", (None, "construct", "quantum-value", "lhv", "noise", "scan", "sample"))
def test_help_exits_zero_on_stdout(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 0
    assert captured.out.startswith(f"usage: qunit-bell {command or ''}".rstrip())
    assert captured.err == ""
    if command not in (None, "scan"):
        assert "--dim DIM" in captured.out


@COMMANDS
@pytest.mark.parametrize("kind", ("ket", "density"))
def test_state_file_is_validated_once(tmp_path, monkeypatch, kind, command):
    validate = linalg.validate_density_matrix
    calls = []

    def counting(rho):
        calls.append(rho.shape)
        return validate(rho)

    # every module-level binding, so a check in the command line would count too
    for module in (linalg, functional, cli):
        if hasattr(module, "validate_density_matrix"):
            monkeypatch.setattr(module, "validate_density_matrix", counting)
    psi = max_entangled_state(2)
    data = ket_payload(psi) if kind == "ket" else density_payload(projector(psi))
    state = write_state(tmp_path / "state.json", 2, kind, data)
    code, stdout, stderr = run_cli_in_process(*command, "--dim", "2", "--state", state)
    assert (code, stderr) == (0, [])
    json.loads(stdout)
    assert calls == [(4, 4)]


def state_file_budget(N):
    return cli.STATE_FILE_BYTES_PER_NUMBER * 2 * N**4 + cli.STATE_FILE_BASE_BYTES


@pytest.mark.parametrize("N", (2, 3))
def test_state_file_over_budget_is_refused_unread(tmp_path, N):
    # a sparse file: truncate() sets the size without writing the bytes, and
    # the message is fstat's, not the bounded read's
    path = tmp_path / "huge.json"
    path.touch()
    os.truncate(path, state_file_budget(N) + 1)
    code, stdout, stderr = run_cli_in_process("quantum-value", "--dim", str(N), "--state", str(path))
    assert (code, stdout) == (1, "")
    assert stderr == [
        f"error: state file {path} has {state_file_budget(N) + 1} bytes, "
        f"over the {state_file_budget(N)}-byte budget for --dim {N}"
    ]


def test_state_stream_over_budget_is_refused(tmp_path):
    # a pipe reports size 0, so only a bounded read can refuse it
    fifo = tmp_path / "state.fifo"
    os.mkfifo(fifo)
    budget = state_file_budget(2)

    def feed():
        with open(fifo, "w") as pipe:
            pipe.write(" " * (budget + 1))

    writer = threading.Thread(target=feed, daemon=True)  # never blocks the exit
    writer.start()
    code, stdout, stderr = run_cli_in_process("quantum-value", "--dim", "2", "--state", str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (code, stdout) == (1, "")
    assert stderr == [f"error: state file {fifo} has more than {budget} bytes, the budget for --dim 2"]


def test_state_file_at_budget_is_read(tmp_path):
    # JSON admits trailing whitespace, so padding keeps the file valid
    path = tmp_path / "padded.json"
    text = json.dumps({"local_dim": 2, "kind": "ket", "data": ket_payload(max_entangled_state(2))})
    path.write_text(text.ljust(state_file_budget(2)))
    code, stdout, stderr = run_cli_in_process("quantum-value", "--dim", "2", "--state", str(path))
    assert (code, stderr) == (0, [])
    path.write_text(text.ljust(state_file_budget(2) + 1))
    code, stdout, stderr = run_cli_in_process("quantum-value", "--dim", "2", "--state", str(path))
    assert code == 1
    assert len(stderr) == 1 and "budget" in stderr[0]


@pytest.mark.parametrize("N", (2, 3, 6))
def test_budget_admits_indent_4_files(tmp_path, N):
    rng = np.random.default_rng(N)
    g = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"local_dim": N, "kind": "density", "data": density_payload(rho)}, indent=4))
    # the per-number allowance alone covers the file, without the fixed one
    assert path.stat().st_size <= cli.STATE_FILE_BYTES_PER_NUMBER * 2 * N**4
    code, stdout, stderr = run_cli_in_process("quantum-value", "--dim", str(N), "--state", str(path))
    assert (code, stderr) == (0, [])


def reference_encode_complex(array):
    """The recursive [re, im] encoder that numpy's stack-and-tolist replaced."""
    if array.ndim == 1:
        return [[z.real, z.imag] for z in array]
    return [reference_encode_complex(row) for row in array]


@pytest.mark.parametrize("N", range(2, 9))
def test_construct_file_matches_reference_encoder_bytes(tmp_path, N):
    out = tmp_path / "family.json"
    code, _, stderr = run_cli_in_process("construct", "--dim", str(N), "--out", str(out))
    assert (code, stderr) == (0, [])
    document = {
        "local_dim": N,
        "normalization": normalization_constant(N),
        "computational_basis": reference_encode_complex(computational_basis(N)),
        "fourier_basis": reference_encode_complex(fourier_basis(N)),
        "phases": overlap_phases(N).tolist(),
        "intermediate_states": reference_encode_complex(intermediate_family(N)),
        "value_assignment": build_layout(N).tolist(),
    }
    assert out.read_bytes() == (json.dumps(document, indent=2) + "\n").encode()


@pytest.mark.parametrize("shape", ((6,), (3, 4), (2, 3, 4)), ids=str)
@pytest.mark.parametrize("dtype", (complex, float))
def test_encoders_agree_on_signed_zeros_subnormals_and_huge_values(shape, dtype):
    rng = np.random.default_rng(len(shape))
    values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1])
    array = np.empty(shape, dtype)
    array.real = rng.choice(values, size=shape)
    if dtype is complex:
        array.imag = rng.choice(values, size=shape)  # set in place: z + 1j*y would drop -0.0
    encoded = json.dumps(cli._encode_complex(array))
    assert encoded == json.dumps(reference_encode_complex(array))
    assert "-0.0" in encoded and "5e-324" in encoded and "1e+308" in encoded


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
