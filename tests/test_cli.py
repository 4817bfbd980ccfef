import json
import subprocess
import sys

import numpy as np
import pytest

from qunit_bell.bases import intermediate_family
from qunit_bell.cli import main
from qunit_bell.functional import max_entangled_state
from qunit_bell.linalg import projector
from qunit_bell.montecarlo import ExperimentPlan, run


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert doc["value_assignment"][2][1] == [2, 0]
    assert len(doc["computational_basis"]) == 3
    assert len(doc["fourier_basis"]) == 3
    assert np.asarray(doc["phases"]).shape == (3, 3)


def test_construct_round_trip_bit_for_bit(tmp_path, capsys):
    out = tmp_path / "family.json"
    code, _, _ = run_cli(capsys, "construct", "--dim", "4", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.array_equal(decode(doc["intermediate_states"]), intermediate_family(4).states)
    assert np.array_equal(np.asarray(doc["phases"]), intermediate_family(4).phases)


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


def test_lhv_greedy(capsys):
    code, stdout, _ = run_cli(capsys, "lhv", "--dim", "3")
    assert code == 0
    report = json.loads(stdout)
    assert report["bound"] == 2
    assert report["method"] == "greedy"
    assert 0 <= report["strategy"]["alpha"] < 3
    assert report["strategy"]["clicks"].startswith("0x")


def test_lhv_brute_force_agrees(capsys):
    code, stdout, _ = run_cli(capsys, "lhv", "--dim", "3", "--brute-force")
    assert code == 0
    report = json.loads(stdout)
    assert report["bound"] == 2
    assert report["method"] == "brute-force"


def test_lhv_greedy_dim8(capsys):
    code, stdout, _ = run_cli(capsys, "lhv", "--dim", "8")
    assert code == 0
    assert json.loads(stdout)["bound"] == 2


def test_lhv_brute_force_range(capsys):
    code, _, stderr = run_cli(capsys, "lhv", "--dim", "5", "--brute-force")
    assert code == 1
    assert "allow_slow" in stderr
    code, stdout, _ = run_cli(
        capsys, "lhv", "--dim", "5", "--brute-force", "--allow-slow"
    )
    assert code == 0
    assert json.loads(stdout)["bound"] == 2


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
    code, _, stderr = run_cli(capsys, "noise", "--dim", "3", "--kind", "pink")
    assert code == 1
    assert "unknown noise kind" in stderr


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
