"""Command-line front end.

Every subcommand prints machine-readable output (JSON, or CSV for `scan
--format csv`) on stdout and exits 0; failures, malformed arguments included,
print a single-line diagnostic on stderr and exit 1.  If the reader closes
stdout early, the command exits 141 (128 + SIGPIPE) and prints nothing more.
Complex numbers are serialized as [re, im] pairs.  State files follow the schema

    {"local_dim": N, "kind": "ket" | "density", "data": ...}

with ket data a flat length-N^2 array of [re, im] pairs and density data an
N^2 x N^2 row-major matrix of such pairs.  load_state_file refuses a file over
its size budget unread and checks only what a file can get wrong; the library
call that takes the state validates it once.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain

# OpenBLAS reads this once, as numpy loads: at 4, its least, an idle pool thread
# sleeps at once instead of spinning ~2**28 cycles.  Never over the user's value.
_QUIET_POOL = "numpy" not in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ
if _QUIET_POOL:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
import numpy as np  # noqa: E402
if _QUIET_POOL:
    del os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .bases import computational_basis, fourier_basis, intermediate_family, normalization_constant, overlap_phases
from .functional import build_layout, max_entangled_state, quantum_value
from .lhv import bruteforce_bound_with_witness, classical_bound_with_witness
from .linalg import _check_finite, projector
from .montecarlo import ExperimentPlan, _check_shots_and_seed, run
from .noise import (
    KIND_CLOSEST_SEPARABLE,
    KIND_UNCOLORED,
    threshold_closed_form,
    threshold_numeric,
)

MAX_SCAN_DIM = 10
# Largest --dim: the dense state rho alone takes 16 * N^4 bytes, 268 MB at N=64.
MAX_DIM = 64

_NOISE_KINDS = {"uncolored": KIND_UNCOLORED, "separable": KIND_CLOSEST_SEPARABLE}
_JSON_NAMES = {bool: "booleans", str: "strings", type(None): "nulls"}
# Budget of a state file for --dim N, per number of an N^2 x N^2 density matrix
# plus a fixed part; json.dump of a random rho takes ~53 bytes per number at indent=4.
STATE_FILE_BYTES_PER_NUMBER = 64
STATE_FILE_BASE_BYTES = 2**20
# C0 control characters and DEL as Python writes them in a repr, so that an
# error stays on one line whatever it quotes (an argv token, a file name).
_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(32), 127)}


def _encode_complex(array: np.ndarray) -> list:
    """Nested lists with each complex entry as an [re, im] pair."""
    return np.stack((array.real, array.imag), axis=-1).tolist()


def _check_dim_flag(N: int) -> None:
    if N < 2:
        raise ValueError(f"--dim must be at least 2, got {N}")
    if N > MAX_DIM:
        raise ValueError(f"--dim must be at most {MAX_DIM}, got {N}")


def load_state_file(path: str, expected_dim: int) -> np.ndarray:
    """Read a state file as an N^2 x N^2 complex matrix that the library has yet to validate."""
    budget = STATE_FILE_BYTES_PER_NUMBER * 2 * expected_dim**4 + STATE_FILE_BASE_BYTES
    with open(path, encoding="utf-8") as handle:
        if (size := os.fstat(handle.fileno()).st_size) > budget:  # refused unread
            raise ValueError(f"state file {path} has {size} bytes, over the {budget}-byte budget for --dim {expected_dim}")
        # a pipe or a device reports size 0, so the read is bounded as well
        if len(text := handle.read(budget + 1)) > budget:
            raise ValueError(f"state file {path} has more than {budget} bytes, the budget for --dim {expected_dim}")
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"state file {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValueError(f"state file {path} must contain a JSON object")
    for field in ("local_dim", "kind", "data"):
        if field not in document:
            raise ValueError(f"state file {path} is missing the {field!r} field")
    local_dim = document["local_dim"]
    if type(local_dim) is not int:  # 3.0 == 3, and bool is an int subclass
        raise ValueError(f"state file local_dim must be an integer, got {local_dim!r}")
    if local_dim != expected_dim:
        raise ValueError(
            f"state file local_dim {local_dim} does not match --dim {expected_dim}"
        )
    kind = document["kind"]
    d = expected_dim * expected_dim
    try:
        data = np.asarray(document["data"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"state file data is not numeric: {exc}") from exc
    # float() also takes numeric strings, booleans and null (as NaN); data.ndim is the lists' depth
    leaves = [document["data"]]
    for _ in range(data.ndim):
        leaves = list(chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {int, float}:
        leaf = next(x for x in leaves if type(x) not in (int, float))
        raise ValueError(f"state file data is not numeric: it contains {_JSON_NAMES[type(leaf)]}, e.g. {leaf!r}")
    if kind == "ket":
        if data.shape != (d, 2):
            raise ValueError(
                f"ket data must be a flat length-{d} array of [re, im] pairs, got shape {tuple(data.shape)}"
            )
        return projector(data.view(complex)[:, 0])  # each [re, im] pair read in place as one complex128
    if kind == "density":
        if data.shape != (d, d, 2):
            raise ValueError(
                f"density data must be a {d}x{d} row-major matrix of [re, im] pairs, got shape {tuple(data.shape)}"
            )
        # Refused before any arithmetic, so that numpy prints no warning: NaN/Inf,
        # and entries so large that the library's rho - rho^dagger or Tr rho overflows.
        limit = np.finfo(float).max / (2 * d)
        if (peak := max(_check_finite(data).max(), -data.min())) >= limit:
            raise ValueError(f"density data entries must be smaller than {limit:.3e} in magnitude, got {peak:.3e}")
        return data.view(complex)[..., 0]
    raise ValueError(f"unknown state kind {kind!r}, expected 'ket' or 'density'")


def _resolve_state(args) -> np.ndarray:
    if args.state is not None:
        return load_state_file(args.state, args.dim)
    return projector(max_entangled_state(args.dim))


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_construct(args) -> None:
    N = args.dim
    document = {
        "local_dim": N,
        "normalization": normalization_constant(N),
        "computational_basis": _encode_complex(computational_basis(N)),
        "fourier_basis": _encode_complex(fourier_basis(N)),
        "phases": overlap_phases(N).tolist(),
        "intermediate_states": _encode_complex(intermediate_family(N)),
        "value_assignment": build_layout(N).tolist(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    _print_json({"local_dim": N, "out": args.out, "intermediate_states": N * N})


def cmd_quantum_value(args) -> None:
    N = args.dim
    rho = _resolve_state(args)
    _print_json(
        {
            "dim": N,
            "value": quantum_value(rho, N),
            "max_quantum": 2.0 * np.sqrt(N),
            "classical_bound": 2,
        }
    )


def cmd_lhv(args) -> None:
    N = args.dim
    if args.brute_force:
        bound, witness = bruteforce_bound_with_witness(N)
        method = "brute-force"
    else:
        bound, witness = classical_bound_with_witness(N)
        method = "closed-form"
    _print_json(
        {
            "dim": N,
            "bound": bound,
            "method": method,
            "strategy": {
                "alpha": witness.alpha,
                "alpha_prime": witness.alpha_prime,
                "clicks": f"0x{witness.clicks:x}",
            },
        }
    )


def cmd_noise(args) -> None:
    N = args.dim
    kind = _NOISE_KINDS[args.kind]
    closed = threshold_closed_form(kind, N)
    numeric = threshold_numeric(kind, N)
    _print_json(
        {
            "dim": N,
            "kind": args.kind,
            "closed_form": closed,
            "numeric": numeric,
            "difference": abs(closed - numeric),
        }
    )


def _parse_dims(text: str) -> range:
    parts = text.split("..")
    # int() would also take "1_0", " 3" and "+2"
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"--dims must look like 2..K, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo < 2 or hi > MAX_SCAN_DIM or lo > hi:
        raise ValueError(
            f"--dims range must satisfy 2 <= lo <= hi <= {MAX_SCAN_DIM}, got {text!r}"
        )
    return range(lo, hi + 1)


def cmd_scan(args) -> None:
    dims = _parse_dims(args.dims)
    rows = []
    for N in dims:
        rows.append(
            {
                "dim": N,
                "quantum_max": quantum_value(projector(max_entangled_state(N)), N),
                "lhv_bound": classical_bound_with_witness(N)[0],
                "lambda_mix": threshold_closed_form(KIND_UNCOLORED, N),
                "lambda_sep": threshold_closed_form(KIND_CLOSEST_SEPARABLE, N),
            }
        )
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        _print_json(rows)


def cmd_sample(args) -> None:
    N = args.dim
    _check_shots_and_seed(args.shots, args.seed, ("--shots", "--seed"))
    rho = _resolve_state(args)
    result = run(ExperimentPlan(N, rho, args.shots, args.seed))
    _print_json(
        {
            "dim": N,
            "seed": result.seed,
            "generator": result.generator,
            "shots_per_combination": result.shots_per_combination,
            "b_estimate": result.b_estimate,
            "std_error": result.std_error,
            "counts_axes": "setting,alice_outcome,value,group,click_bit",
            "counts": result.counts.tolist(),
        }
    )


class _Parser(argparse.ArgumentParser):
    """A parser whose errors leave through main's one `error:` line, not argparse's usage and exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qunit-bell",
        description="Bell inequality B_N for two N-dimensional systems with binary intermediate-state measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too
    dim = argparse.ArgumentParser(add_help=False)
    dim.add_argument("--dim", type=int, required=True)

    p = sub.add_parser("construct", parents=[dim], help="write bases, intermediate states and value table to a JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("quantum-value", parents=[dim], help="evaluate B_N for a state (default: maximally entangled)")
    p.add_argument("--state", default=None)
    p.set_defaults(handler=cmd_quantum_value)

    p = sub.add_parser("lhv", parents=[dim], help="local-hidden-variable bound with a witnessing strategy")
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--allow-slow", action="store_true", help="no effect: brute force takes N = 2..5 without it")
    p.set_defaults(handler=cmd_lhv)

    p = sub.add_parser("noise", parents=[dim], help="noise threshold where B_N drops to the classical limit")
    p.add_argument("--kind", required=True, choices=tuple(_NOISE_KINDS))
    p.set_defaults(handler=cmd_noise)

    p = sub.add_parser("scan", help="quantum max, LHV bound and noise thresholds over a dimension range")
    p.add_argument("--dims", required=True, help="dimension range, e.g. 2..5")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("sample", parents=[dim], help="finite-shot simulation of the experiment")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--state", default=None)
    p.set_defaults(handler=cmd_sample)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "dim" in args:  # every subcommand but scan
            _check_dim_flag(args.dim)
        args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's final flush
    except BrokenPipeError:
        # The reader left (`| head -1`): exit as SIGPIPE would, silently, with
        # stdout on devnull so the buffered rest cannot raise again at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {str(exc).translate(_ESCAPES)}", file=sys.stderr)
        return 1
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
