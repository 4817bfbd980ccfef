"""Golden CLI corpus: what `qunit-bell` prints for a fixed matrix of argument vectors.

Each argument vector runs through `qunit_bell.cli.main` in-process, in a
temporary directory that holds the corpus's state files, with COLUMNS=80 so
that argparse wraps `--help` the same way everywhere.  A case records the
exit code, stdout and stderr (each as a list of lines) and any file the
command wrote there (`construct --out`).  The corpus is tests/golden/cli.json;
tests/test_golden.py replays it to a float tolerance.

    python tools/golden.py --check    # unified diff against the corpus; exit 1 if it differs
    python tools/golden.py --update   # rewrite the corpus

Run it from anywhere with the package importable (`pip install -e .`, or
PYTHONPATH=src from the repository root).  It needs only the standard
library, the package and numpy.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from qunit_bell.cli import _encode_complex, main
from qunit_bell.functional import max_entangled_state

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli.json"
DIMS = (2, 3, 6)
SUBCOMMANDS = ("construct", "quantum-value", "lhv", "noise", "scan", "sample")
SAMPLE = ("--shots", "1000", "--seed", "7")


def _state(N: int, kind: str, data) -> str:
    return json.dumps({"local_dim": N, "kind": kind, "data": data})


def _random_density(rng: np.random.Generator, d: int, real: bool) -> np.ndarray:
    g = rng.normal(size=(d, d)) if real else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return (rho + rho.conj().T) / (2 * np.trace(rho).real)


def build_inputs() -> dict[str, str]:
    """State files by name: |psi> as a ket and as a density matrix, a random complex and a
    random real density matrix (N = 2, 3), and one broken file for each refusal."""
    rng = np.random.default_rng(2002)
    inputs = {}
    for N in (2, 3):
        psi = max_entangled_state(N)
        inputs[f"psi-{N}-ket.json"] = _state(N, "ket", _encode_complex(psi))
        inputs[f"psi-{N}-density.json"] = _state(N, "density", _encode_complex(np.outer(psi, psi.conj())))
        inputs[f"complex-{N}.json"] = _state(N, "density", _encode_complex(_random_density(rng, N * N, real=False)))
        inputs[f"real-{N}.json"] = _state(N, "density", _encode_complex(_random_density(rng, N * N, real=True)))
    ket = _encode_complex(max_entangled_state(3))
    eye = _encode_complex(np.eye(9))
    near_max = _encode_complex(np.outer(max_entangled_state(2), max_entangled_state(2)))
    near_max[0][0][0] = near_max[3][3][0] = np.finfo(float).max / 8
    nan_density = _encode_complex(np.eye(4) / 4)
    nan_density[0][1][0] = nan_density[1][0][0] = float("nan")
    inf_ket = _encode_complex(max_entangled_state(2))
    inf_ket[1][0] = float("inf")
    inputs.update(
        {
            "not-json.json": "{not json",
            "bad\nname.json": "not json",  # a newline in the path, which the message quotes
            "array.json": "[1, 2]",
            "no-local-dim.json": json.dumps({"kind": "ket", "data": []}),
            "float-local-dim.json": _state(3.0, "ket", ket),
            "bool-local-dim.json": _state(True, "ket", ket),
            "other-dim.json": _state(2, "ket", [[1, 0]] * 4),
            "short-ket.json": _state(3, "ket", [[1, 0]] * 4),
            "long-ket.json": _state(3, "ket", [[1, 0]] * 9),
            "trace-9.json": _state(3, "density", eye),
            "vector.json": _state(3, "vector", []),
            "text-data.json": _state(3, "ket", "xyz"),
            "bool-leaf.json": _state(3, "ket", [[True, False]] + [[0, 0]] * 8),
            "string-leaf.json": _state(3, "ket", [[str(z[0]), "0"] for z in ket]),
            "null-leaf.json": _state(3, "ket", [[None, 0]] + [[0, 0]] * 8),
            "huge-int.json": '{"local_dim": 3, "kind": "ket", "data": [[1' + "0" * 400 + ", 0]" + ", [0, 0]" * 8 + "]}",
            "nan-density.json": _state(2, "density", nan_density),
            "inf-ket.json": _state(2, "ket", inf_ket),
            "near-max.json": _state(2, "density", near_max),
        }
    )
    return inputs


def build_matrix() -> list[list[str]]:
    """The argument vectors, in corpus order."""
    matrix = [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]
    for N in DIMS:
        dim = ["--dim", str(N)]
        matrix += [
            ["construct", *dim, "--out", "family.json"],
            ["quantum-value", *dim],
            ["lhv", *dim],
            ["lhv", *dim, "--brute-force"],  # refused at N = 6
            ["noise", *dim, "--kind", "uncolored"],
            ["noise", *dim, "--kind", "separable"],
            ["sample", *dim, *SAMPLE],
        ]
    matrix += [["lhv", "--dim", "5", "--brute-force"], ["lhv", "--dim", "5", "--brute-force", "--allow-slow"]]
    matrix += [["scan", "--dims", "2..6"], ["scan", "--dims", "2..6", "--format", "csv"]]
    for N in (2, 3):
        for name in (f"psi-{N}-ket.json", f"psi-{N}-density.json", f"complex-{N}.json", f"real-{N}.json"):
            matrix += [
                ["quantum-value", "--dim", str(N), "--state", name],
                ["sample", "--dim", str(N), *SAMPLE, "--state", name],
            ]
    matrix += [
        ["quantum-value", "--dim", "3", "--state", name]
        for name in (
            "not-json.json", "bad\nname.json", "array.json", "no-local-dim.json", "float-local-dim.json",
            "bool-local-dim.json", "other-dim.json", "short-ket.json", "long-ket.json", "trace-9.json",
            "vector.json", "text-data.json", "bool-leaf.json", "string-leaf.json", "null-leaf.json",
            "huge-int.json", "absent.json",
        )
    ]
    matrix += [
        ["quantum-value", "--dim", "2", "--state", "nan-density.json"],
        ["quantum-value", "--dim", "2", "--state", "inf-ket.json"],
        ["sample", "--dim", "2", *SAMPLE, "--state", "near-max.json"],
        ["construct", "--dim", "1", "--out", "never-written.json"],
        ["construct", "--dim", "2", "--out", "no/dir/family.json"],
        ["quantum-value", "--dim", "100000"],
        ["quantum-value", "--dim", "abc"],
        ["quantum-value", "--dim", "2", "--bogus"],
        ["quantum-value", "--dim", "2", "--a\nb"],  # an unknown token holding a newline
        ["quantum-value"],
        [],
        ["noise", "--dim", "3", "--kind", "pink"],
        ["scan", "--dims", "2..11"],
        ["scan", "--dims", "a..b"],
        ["sample", "--dim", "3", "--shots", "0", "--seed", "1"],
        ["sample", "--dim", "3", "--shots", "10", "--seed", "-1"],
        ["sample", "--dim", "2", "--shots", str(2**63), "--seed", "1"],
    ]
    return matrix


@contextmanager
def scratch_dir(inputs: dict[str, str]):
    """Work in a new temporary directory holding the input files, with COLUMNS=80."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            yield
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


def run_case(argv: list[str]) -> dict:
    """Run main(argv) in the current directory; files it writes there are recorded and removed."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    files = {}
    for name in sorted(set(os.listdir()) - before):
        files[name] = Path(name).read_text(encoding="utf-8").split("\n")
        os.remove(name)
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
        "files": files,
    }


def record() -> dict:
    inputs = build_inputs()
    with scratch_dir(inputs):
        cases = [run_case(argv) for argv in build_matrix()]
    return {"inputs": inputs, "cases": cases}


def dumps(corpus: dict) -> str:
    return json.dumps(corpus, indent=1) + "\n"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record or check the golden CLI corpus.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="print a unified diff against the corpus")
    mode.add_argument("--update", action="store_true", help="rewrite the corpus")
    args = parser.parse_args(argv)
    text = dumps(record())
    if args.update:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        CORPUS.write_text(text, encoding="utf-8")
        return 0
    old = CORPUS.read_text(encoding="utf-8") if CORPUS.exists() else ""
    diff = list(difflib.unified_diff(old.splitlines(True), text.splitlines(True), "tests/golden/cli.json", "recorded now"))
    sys.stdout.writelines(diff)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(run())
