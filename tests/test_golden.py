"""Replay the golden CLI corpus, tests/golden/cli.json, that tools/golden.py records.

Exit codes, stderr, JSON keys, strings and integers must match exactly; floats
to 1e-12 relative, so the corpus holds on BLAS and numpy builds other than the
recording one.  `python tools/golden.py --check` shows the exact diff.
`sample`'s counts are left to the sha256 pins in test_montecarlo.py.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CORPUS = json.loads(golden.CORPUS.read_text(encoding="utf-8"))
UNCOMPARED_KEYS = {"counts"}


def parse(lines):
    """JSON text as its value; any other text (CSV, --help) as lines of comma-separated JSON scalars or strings."""
    text = "\n".join(lines)
    try:
        return json.loads(text)
    except ValueError:
        return [[scalar(field) for field in line.split(",")] for line in lines]


def scalar(field):
    try:
        return json.loads(field)
    except ValueError:
        return field


def assert_same(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            if key not in UNCOMPARED_KEYS:
                assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def corpus_dir():
    with golden.scratch_dir(CORPUS["inputs"]):
        yield


@pytest.mark.parametrize("case", CORPUS["cases"], ids=[" ".join(case["argv"]) or "no-arguments" for case in CORPUS["cases"]])
def test_cli_output_matches_corpus(corpus_dir, case):
    got = golden.run_case(case["argv"])
    assert got["exit"] == case["exit"]
    assert got["stderr"] == case["stderr"]
    assert_same(parse(got["stdout"]), parse(case["stdout"]))
    assert list(got["files"]) == list(case["files"])
    for name, lines in case["files"].items():
        assert_same(parse(got["files"][name]), parse(lines), name)

