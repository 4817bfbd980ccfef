"""Command-line front end.

Every subcommand prints machine-readable output (JSON, or CSV for `scan
--format csv`) on stdout and exits 0; failures print a single-line diagnostic
on stderr and exit nonzero.  Complex numbers are serialized as [re, im]
pairs.  State files follow the schema

    {"local_dim": N, "kind": "ket" | "density", "data": ...}

with ket data a flat length-N^2 array of [re, im] pairs and density data an
N^2 x N^2 row-major matrix of such pairs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .bases import (
    computational_basis,
    fourier_basis,
    intermediate_family,
    normalization_constant,
)
from .functional import build_layout, max_entangled_state, quantum_value
from .lhv import bruteforce_bound_with_witness, greedy_bound_with_witness
from .linalg import NORM_REJECT, projector, validate_density_matrix
from .montecarlo import ExperimentPlan, run
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


def _encode_complex(array: np.ndarray) -> list:
    """Nested lists with each complex entry as an [re, im] pair."""
    if array.ndim == 1:
        return [[z.real, z.imag] for z in array]
    return [_encode_complex(row) for row in array]


def _check_dim_flag(N: int) -> int:
    if N < 2:
        raise ValueError(f"--dim must be at least 2, got {N}")
    if N > MAX_DIM:
        raise ValueError(f"--dim must be at most {MAX_DIM}, got {N}")
    return N


def load_state_file(path: str, expected_dim: int) -> np.ndarray:
    """Read a state file and return it as a validated density matrix."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
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
    # float() also takes numeric strings, booleans and null (as NaN)
    for leaf in np.asarray(document["data"], dtype=object).flat:
        if type(leaf) not in (int, float):
            name = _JSON_NAMES.get(type(leaf), "non-numbers")
            raise ValueError(f"state file data is not numeric: it contains {name}, e.g. {leaf!r}")
    if kind == "ket":
        if data.shape != (d, 2):
            raise ValueError(
                f"ket data must be a flat length-{d} array of [re, im] pairs, got shape {tuple(data.shape)}"
            )
        ket = data[:, 0] + 1j * data[:, 1]
        norm_dev = abs(float(np.linalg.norm(ket)) - 1.0)
        if norm_dev > NORM_REJECT:
            raise ValueError(f"ket norm deviates from 1 by {norm_dev:.3e}")
        return projector(ket)
    if kind == "density":
        if data.shape != (d, d, 2):
            raise ValueError(
                f"density data must be a {d}x{d} row-major matrix of [re, im] pairs, got shape {tuple(data.shape)}"
            )
        return validate_density_matrix(data[..., 0] + 1j * data[..., 1])
    raise ValueError(f"unknown state kind {kind!r}, expected 'ket' or 'density'")


def _resolve_state(args, N: int) -> np.ndarray:
    if args.state is not None:
        return load_state_file(args.state, N)
    return projector(max_entangled_state(N))


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_construct(args) -> None:
    N = _check_dim_flag(args.dim)
    family = intermediate_family(N)
    layout = build_layout(N)
    document = {
        "local_dim": N,
        "normalization": family.normalization,
        "computational_basis": _encode_complex(computational_basis(N)),
        "fourier_basis": _encode_complex(fourier_basis(N)),
        "phases": family.phases.tolist(),
        "intermediate_states": _encode_complex(family.states),
        "value_assignment": layout.assignment.tolist(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    _print_json({"local_dim": N, "out": args.out, "intermediate_states": N * N})


def cmd_quantum_value(args) -> None:
    N = _check_dim_flag(args.dim)
    rho = _resolve_state(args, N)
    _print_json(
        {
            "dim": N,
            "value": quantum_value(rho, N),
            "max_quantum": 2.0 * np.sqrt(N),
            "classical_bound": 2,
        }
    )


def cmd_lhv(args) -> None:
    N = _check_dim_flag(args.dim)
    if args.brute_force:
        bound, witness = bruteforce_bound_with_witness(N, allow_slow=args.allow_slow)
        method = "brute-force"
    else:
        bound, witness = greedy_bound_with_witness(N)
        method = "greedy"
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
    N = _check_dim_flag(args.dim)
    if args.kind not in _NOISE_KINDS:
        raise ValueError(
            f"unknown noise kind {args.kind!r}, expected 'uncolored' or 'separable'"
        )
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
                "lhv_bound": greedy_bound_with_witness(N)[0],
                "lambda_mix": threshold_closed_form(KIND_UNCOLORED, N),
                "lambda_sep": threshold_closed_form(KIND_CLOSEST_SEPARABLE, N),
            }
        )
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["dim", "quantum_max", "lhv_bound", "lambda_mix", "lambda_sep"])
        for row in rows:
            writer.writerow(
                [row["dim"], row["quantum_max"], row["lhv_bound"], row["lambda_mix"], row["lambda_sep"]]
            )
    else:
        _print_json(rows)


def cmd_sample(args) -> None:
    N = _check_dim_flag(args.dim)
    if args.shots < 1:
        raise ValueError(f"--shots must be at least 1, got {args.shots}")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must fit in 64 unsigned bits, got {args.seed}")
    rho = _resolve_state(args, N)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qunit-bell",
        description="Bell inequality B_N for two N-dimensional systems with binary intermediate-state measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write bases, intermediate states and value table to a JSON file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("quantum-value", help="evaluate B_N for a state (default: maximally entangled)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--state", default=None)
    p.set_defaults(handler=cmd_quantum_value)

    p = sub.add_parser("lhv", help="local-hidden-variable bound with a witnessing strategy")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--allow-slow", action="store_true")
    p.set_defaults(handler=cmd_lhv)

    p = sub.add_parser("noise", help="noise threshold where B_N drops to the classical limit")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", required=True)
    p.set_defaults(handler=cmd_noise)

    p = sub.add_parser("scan", help="quantum max, LHV bound and noise thresholds over a dimension range")
    p.add_argument("--dims", required=True, help="dimension range, e.g. 2..5")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("sample", help="finite-shot simulation of the experiment")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--state", default=None)
    p.set_defaults(handler=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
