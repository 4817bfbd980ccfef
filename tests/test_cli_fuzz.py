"""Hostile input through the command line: every run succeeds or fails in one line.

`quantum-value` and `sample` run in-process at N = 2 on state documents that
hypothesis draws: arbitrary JSON, and schema-shaped objects whose data mixes
numbers, booleans, null, numeric and other strings, 10**400 and
NaN/±Infinity, in the right shape or in ragged and mis-shaped lists.  The
integer flags --dim, --shots and --seed range over ±2**65, and malformed
argument vectors (a required flag dropped, an integer flag given a token int()
refuses, an unknown flag, no subcommand) reach every subcommand.  Argument
tokens and state file names may hold newlines and carriage returns.  Each run
must end in one of two ways:

- exit 0, nothing on stderr, and stdout that parses as JSON;
- exit 1, nothing on stdout, and exactly one stderr line starting `error:`.

numpy's RuntimeWarnings count as stderr lines, as they would in a process.
"""

import copy
import json
import os
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qunit_bell.cli import MAX_DIM
from qunit_bell.functional import max_entangled_state
from qunit_bell.linalg import projector

from test_cli import density_payload, ket_payload, run_cli_in_process

HUGE = 10**400  # json writes it as 401 digits, too large for a float

NUMBERS = st.one_of(
    st.floats(),  # NaN and ±Infinity included, written as JSON's NaN/Infinity
    st.floats(-1.0, 1.0),
    st.integers(-(2**70), 2**70),
)
# Values that have broken the contract before, or sit at a float's edges.
EDGES = st.sampled_from(
    [-0.0, 5e-324, 1e200, 1e308, -1e308, float("nan"), float("inf"), float("-inf"), HUGE, -HUGE, True, None, "0.5"]
)
# A fixed alphabet: JSON's own punctuation, number parts, a line separator and a
# lone surrogate.  (st.text's default one builds a Unicode table on first use,
# about 3 s without a warm .hypothesis directory.)
TEXT = st.text("0123456789.eE+-INafy \"\\\n\u2028\ud800é", max_size=8)
LEAVES = st.one_of(
    EDGES,
    NUMBERS,
    st.booleans(),
    st.none(),
    NUMBERS.map(str),  # numeric strings
    TEXT,
)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=10,
)
KET = ket_payload(max_entangled_state(2))
DENSITY = density_payload(projector(max_entangled_state(2)))


@st.composite
def hostile_states(draw):
    """|psi><psi| at N = 2, as a ket or a density file, with up to 3 leaves replaced.

    In a density file a replaced leaf may be mirrored across the diagonal, so
    that the file can stay Hermitian and reach the trace and positivity checks.
    """
    kind = draw(st.sampled_from(["ket", "density"]))
    data = copy.deepcopy(KET if kind == "ket" else DENSITY)
    for _ in range(draw(st.integers(0, 3))):
        i, j, part, leaf = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 1)), draw(LEAVES)
        if kind == "ket":
            data[i][part] = leaf
            continue
        data[i][j][part] = leaf
        if draw(st.booleans()):
            data[j][i][part] = leaf
    return {"local_dim": 2, "kind": kind, "data": data}


# A bare leaf, or lists of leaves nested to any depth, ragged or not, up to 5 long.
MISSHAPEN = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=5), max_leaves=40)
SCHEMA_SHAPED = st.fixed_dictionaries(
    {
        "local_dim": st.one_of(st.just(2), JSON),
        "kind": st.one_of(st.sampled_from(["ket", "density"]), JSON),
        "data": st.one_of(MISSHAPEN, st.just(KET), st.just(DENSITY)),
    }
)
DOCUMENTS = st.one_of(hostile_states(), SCHEMA_SHAPED, JSON)


def edited(kind, *edits):
    """|psi><psi| at N = 2 as a state document, with each (*index, leaf) edit applied."""
    data = copy.deepcopy(KET if kind == "ket" else DENSITY)
    for *index, leaf in edits:
        target = data
        for k in index[:-1]:
            target = target[k]
        target[index[-1]] = leaf
    return {"local_dim": 2, "kind": kind, "data": data}


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "state.json"


def assert_one_of_two_outcomes(argv):
    code, stdout, stderr = run_cli_in_process(*argv)
    if code == 0:
        assert stderr == []
        json.loads(stdout)
    else:
        assert code == 1
        assert stdout == ""
        assert len(stderr) == 1
        assert stderr[0].startswith("error:")


@settings(max_examples=60, deadline=None)
@given(document=DOCUMENTS)
@example(document=edited("density", (0, 0, 0, float("inf")))).via("Infinity on the diagonal")
@example(document=edited("density", (0, 0, 0, True))).via("true on the diagonal")
@example(document=edited("density", (0, 0, 0, "0.5"))).via('"0.5" on the diagonal')
@example(document=edited("ket")).via("the entangled ket")
@example(document=edited("ket", (1, 1, float("-inf")))).via("-Infinity in a ket's imaginary part")
# numpy warned on stderr before the error line for these three
@example(document=edited("ket", (1, 0, 1e200))).via("a ket whose norm overflows")
@example(document=edited("density", (0, 1, 0, 1e308), (1, 0, 0, -1e308))).via("rho - rho^dagger overflows")
@example(document=edited("density", (0, 0, 0, 1e308), (1, 1, 0, 1e308))).via("Tr rho overflows")
def test_state_documents_succeed_or_fail_in_one_line(state_path, document):
    state_path.write_text(json.dumps(document))
    assert_one_of_two_outcomes(["quantum-value", "--dim", "2", "--state", str(state_path)])
    assert_one_of_two_outcomes(["sample", "--dim", "2", "--shots", "10", "--seed", "1", "--state", str(state_path)])


# Every valid --dim up to 10 runs; 11..64 are valid too, but cost grows as N^4 to
# N^5 (seconds and 700 MB at N = 64) and the library tests cover them.
DIMS = st.integers(-(2**65), 10) | st.integers(MAX_DIM + 1, 2**65)
FLAGS = st.integers(-(2**65), 2**65)


@settings(max_examples=40, deadline=None)
@given(dim=DIMS, shots=FLAGS, seed=FLAGS)
@example(dim=2, shots=2**63, seed=1).via("--shots 2**63")
@example(dim=2, shots=10, seed=2**64).via("--seed 2**64")
@example(dim=2, shots=2**63 - 1, seed=2**64 - 1).via("largest --shots and --seed")
def test_integer_flags_succeed_or_fail_in_one_line(dim, shots, seed):
    assert_one_of_two_outcomes(["quantum-value", f"--dim={dim}"])
    assert_one_of_two_outcomes(["sample", f"--dim={dim}", f"--shots={shots}", f"--seed={seed}"])


# A valid argv for each subcommand, as its required flags; a malformed copy
# never gets past the parser, so construct's --out is never opened.
REQUIRED = {
    "construct": {"--dim": "2", "--out": os.devnull},
    "quantum-value": {"--dim": "2"},
    "lhv": {"--dim": "2"},
    "noise": {"--dim": "2", "--kind": "uncolored"},
    "scan": {"--dims": "2..3"},
    "sample": {"--dim": "2", "--shots": "10", "--seed": "1"},
}
INTEGER_FLAGS = ("--dim", "--shots", "--seed")
KNOWN_FLAGS = ("--help", "--dim", "--dims", "--out", "--state", "--brute-force", "--allow-slow", "--kind", "--format", "--shots", "--seed")


def refused_by_int(token):
    try:
        int(token)
    except ValueError:
        return True
    return False


# Printable ASCII and line breaks: argparse quotes a bad int value with repr(),
# but writes an unknown flag as it is, so only main's escaping keeps a raw
# newline there from splitting the error line.
NOT_INTS = st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\n\r"), max_size=6).filter(
    refused_by_int
)
# argparse takes any unambiguous prefix of a known flag, so none may be one
UNKNOWN_FLAGS = st.from_regex(r"--[a-z][a-z0-9\n\r-]{0,8}", fullmatch=True).filter(
    lambda flag: not any(known.startswith(flag) for known in KNOWN_FLAGS)
)


@st.composite
def malformed_argv(draw):
    fault = draw(st.sampled_from(["drop", "not-int", "unknown", "no-subcommand"]))
    commands = [c for c, flags in REQUIRED.items() if fault != "not-int" or set(flags) & set(INTEGER_FLAGS)]
    command = draw(st.sampled_from(commands))
    flags = dict(REQUIRED[command])
    if fault == "drop":
        del flags[draw(st.sampled_from(sorted(flags)))]
    if fault == "not-int":
        flags[draw(st.sampled_from([f for f in INTEGER_FLAGS if f in flags]))] = draw(NOT_INTS)
    pairs = [[flag, value] for flag, value in draw(st.permutations(list(flags.items())))]
    if fault == "unknown":
        pairs.insert(draw(st.integers(0, len(pairs))), [draw(UNKNOWN_FLAGS)])
    head = [] if fault == "no-subcommand" else [command]
    return head + list(chain.from_iterable(pairs))


@settings(max_examples=60, deadline=None)
@given(argv=malformed_argv())
@example(argv=["quantum-value", "--dim", "abc"]).via("--dim abc")
@example(argv=["quantum-value", "--dim", "2", "--bogus"]).via("an unknown flag")
@example(argv=["quantum-value"]).via("--dim missing")
@example(argv=[]).via("no subcommand")
@example(argv=["quantum-value", "--dim", "2", "--a\nb"]).via("a newline in an unknown flag")
def test_malformed_argv_fails_in_one_line(argv):
    code, stdout, stderr = run_cli_in_process(*argv)
    assert (code, stdout) == (1, "")
    assert len(stderr) == 1
    assert stderr[0].startswith("error:")


# load_state_file quotes the path as given in its messages.
FILE_NAMES = st.text("ab.\n\r", min_size=1, max_size=6).filter(lambda name: name not in (".", ".."))


@settings(max_examples=20, deadline=None)
@given(name=FILE_NAMES, text=st.sampled_from(["not json", "[1, 2]", "{}"]))
@example(name="bad\nname.json", text="not json").via("a newline in a state file's name")
def test_state_file_names_fail_in_one_line(state_path, name, text):
    path = state_path.parent / name
    path.write_text(text)
    try:
        code, stdout, stderr = run_cli_in_process("quantum-value", "--dim", "2", "--state", str(path))
    finally:
        path.unlink()
    assert (code, stdout, len(stderr)) == (1, "", 1)
    assert stderr[0].startswith("error: state file ")
