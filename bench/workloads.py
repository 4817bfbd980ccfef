"""The four benchmark workloads.

Each workload is a closed loop with one client: the next op starts only
after the previous one finished and was checked.  A workload builds its
inputs from the seed it is given and calls only the stable top-level API of
`qunit_bell` (or its command line).  The protocol is

    inputs(i)       -> the arguments of op i (made outside the op's timer)
    op(args)        -> the program's output (the timed call)
    references()    -> compute reference values (untimed, after set-up)
    check(args, out) -> None, or a one-line message naming the miss

`round_size` ops make one round; runs stop only at round boundaries so that
every run sees the same mix of ops.  See README.md for why each was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import qunit_bell as qb
from metrics import WORKLOADS

CHILD_TIMEOUT_S = 60


def noisy_entangled_state(rng: np.random.Generator, N: int) -> np.ndarray:
    """lam |psi><psi| + (1 - lam) G G^dag / Tr(G G^dag), lam uniform in [0.6, 1]."""
    d = N * N
    lam = rng.uniform(0.6, 1.0)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    noise = g @ g.conj().T
    noise /= np.trace(noise).real
    rho = lam * qb.projector(qb.max_entangled_state(N)) + (1.0 - lam) * noise
    return (rho + rho.conj().T) / 2.0


def _miss(label: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:  # also false for NaN
        return None
    return f"{label}: got {got!r}, want {want!r} within {tol:g}"


class Workload:
    """Defaults shared by the workloads."""

    round_size = 1
    runs_children = False  # True when the program runs in child processes

    def close(self) -> None:
        pass


class Threshold(Workload):
    """threshold_numeric(kind, N), alternating the two noise kinds."""

    name = "threshold"
    round_size = 2

    def __init__(self, seed: int, dim: int = 6):
        self.dim = dim
        kinds = ("uncolored", "closest_separable")
        self.kinds = kinds if seed % 2 == 0 else kinds[::-1]

    def inputs(self, i: int) -> str:
        return self.kinds[i % 2]

    def op(self, kind: str) -> float:
        return qb.threshold_numeric(kind, self.dim)

    def references(self) -> None:
        self.closed = {kind: qb.threshold_closed_form(kind, self.dim) for kind in self.kinds}

    def check(self, kind: str, out: float) -> str | None:
        return _miss(f"threshold {kind}", out, self.closed[kind], 1e-9)


class Spectral(Workload):
    """analyze(N) plus verify_max_entangled_optimality(N)."""

    name = "spectral"

    def __init__(self, seed: int, dim: int = 12):
        self.dim = dim

    def inputs(self, i: int) -> int:
        return self.dim

    def op(self, N: int):
        return qb.analyze(N), qb.verify_max_entangled_optimality(N)

    def references(self) -> None:
        self.top = 2.0 * math.sqrt(self.dim)
        self.entropy = math.log(self.dim)

    def check(self, N: int, out) -> str | None:
        report, (achieved, optimal) = out
        if not optimal:
            return "verify_max_entangled_optimality returned False"
        miss = _miss("max eigenvalue", report.max_eigenvalue, self.top, 1e-8) or _miss(
            "B_N of the entangled state", achieved, self.top, 1e-8
        )
        if miss is None and report.gap > 1e-8:
            miss = _miss("entropy of the top state", report.entropy, self.entropy, 1e-8)
        return miss


class Sample(Workload):
    """run(ExperimentPlan(N, rho, shots, seed_k)) on a fresh noisy state per op."""

    name = "sample"

    def __init__(self, seed: int, dim: int = 6, shots: int = 10**6):
        self.seed = seed
        self.dim = dim
        self.shots = shots

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        return noisy_entangled_state(rng, self.dim), int(rng.integers(2**63))

    def op(self, args):
        rho, plan_seed = args
        return qb.run(qb.ExperimentPlan(self.dim, rho, self.shots, plan_seed))

    def references(self) -> None:
        # B_N(rho) = Tr(rho W); one operator serves every op.  It is tied to
        # quantum_value on the first state so both paths must agree.
        self.operator = qb.bell_operator(self.dim)
        rho = self.inputs(0)[0]
        via_operator = float(np.vdot(self.operator, rho).real)
        self.tie_miss = _miss("Tr(rho W) vs quantum_value", via_operator, qb.quantum_value(rho, self.dim), 1e-10)

    def check(self, args, result) -> str | None:
        if self.tie_miss:
            return self.tie_miss
        rho = args[0]
        if not np.all(result.counts.sum(axis=(1, 4)) == self.shots):
            return "a combination's counts do not sum to the shot count"
        want = float(np.vdot(self.operator, rho).real)
        return _miss("b_estimate", result.b_estimate, want, 5.0 * result.std_error)


class Cli(Workload):
    """One `python -m qunit_bell` child per op, cycling through six commands.

    With in_process=True the same commands run through `cli.main(argv)` with
    stdout captured; the traced run uses that form.
    """

    name = "cli"
    round_size = 6

    def __init__(self, seed: int, root: Path, in_process: bool = False, small: bool = False):
        self.root = root
        self.in_process = in_process
        if in_process:
            self.cli = importlib.import_module("qunit_bell.cli")
        self.runs_children = not in_process
        self.dims = (
            dict(qv=3, construct=3, lhv=3, noise=3, scan="2..3", sample=3, shots=1000)
            if small
            else dict(qv=6, construct=8, lhv=5, noise=6, scan="2..10", sample=6, shots=10**6)
        )
        self.workdir = root / ".bench_tmp" / f"cli-{os.getpid()}-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 2**32])
        self.state = noisy_entangled_state(rng, self.dims["qv"])
        self.state_path = self.workdir / "state.json"
        pairs = np.stack([self.state.real, self.state.imag], axis=-1).tolist()
        self.state_path.write_text(
            json.dumps({"local_dim": self.dims["qv"], "kind": "density", "data": pairs})
        )
        self.family_path = self.workdir / "family.json"
        self.sample_seeds = [int(s) for s in rng.integers(2**63, size=4)]

    def inputs(self, i: int) -> list[str]:
        d = self.dims
        which = i % 6
        if which == 0:
            return ["quantum-value", "--dim", str(d["qv"]), "--state", str(self.state_path)]
        if which == 1:
            return ["construct", "--dim", str(d["construct"]), "--out", str(self.family_path)]
        if which == 2:
            return ["lhv", "--dim", str(d["lhv"]), "--brute-force", "--allow-slow"]
        if which == 3:
            return ["noise", "--dim", str(d["noise"]), "--kind", "separable"]
        if which == 4:
            return ["scan", "--dims", d["scan"], "--format", "csv"]
        seed = self.sample_seeds[(i // 6) % len(self.sample_seeds)]
        return ["sample", "--dim", str(d["sample"]), "--shots", str(d["shots"]), "--seed", str(seed)]

    def op(self, argv: list[str]) -> tuple[int, str, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad flags this way
                    code = exc.code if isinstance(exc.code, int) else 1
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "qunit_bell", *argv],
            capture_output=True,
            text=True,
            cwd=self.root,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def references(self) -> None:
        d = self.dims
        self.qv = qb.quantum_value(self.state, d["qv"])
        self.noise_closed = qb.threshold_closed_form("closest_separable", d["noise"])
        lo, hi = (int(x) for x in d["scan"].split(".."))
        self.scan = {
            N: (
                2.0 * math.sqrt(N),
                qb.threshold_closed_form("uncolored", N),
                qb.threshold_closed_form("closest_separable", N),
            )
            for N in range(lo, hi + 1)
        }
        rho = qb.projector(qb.max_entangled_state(d["sample"]))
        self.samples = {
            s: qb.run(qb.ExperimentPlan(d["sample"], rho, d["shots"], s)) for s in self.sample_seeds
        }

    def check(self, argv: list[str], out: tuple[int, str, str]) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"{argv[0]} exited {code}: {stderr.strip()[:200]}"
        return getattr(self, "_check_" + argv[0].replace("-", "_"))(argv, stdout)

    def _check_quantum_value(self, argv, stdout):
        return _miss("quantum-value", json.loads(stdout)["value"], self.qv, 1e-9)

    def _check_construct(self, argv, stdout):
        N = self.dims["construct"]
        if json.loads(stdout)["intermediate_states"] != N * N:
            return "construct reported the wrong number of states"
        doc = json.loads(self.family_path.read_text())

        def decode(pairs):
            a = np.asarray(pairs, dtype=float)
            return a[..., 0] + 1j * a[..., 1]

        a, a_prime, m = (decode(doc[k]) for k in ("computational_basis", "fourier_basis", "intermediate_states"))
        # Paper property: m_ij identifies a_i and a'_j with equal probability
        # 1/2 + 1/(2 sqrt N), and the (1/N)|m_ij><m_ij| sum to the identity.
        want = 0.5 + 0.5 / math.sqrt(N)
        p_a = np.abs(np.einsum("ik,ijk->ij", a.conj(), m)) ** 2
        p_ap = np.abs(np.einsum("jk,ijk->ij", a_prime.conj(), m)) ** 2
        povm = np.einsum("ijk,ijl->kl", m, m.conj()) / N
        worst = max(np.abs(p_a - want).max(), np.abs(p_ap - want).max(), np.abs(povm - np.eye(N)).max())
        return _miss("construct identification/POVM defect", float(worst), 0.0, 1e-10)

    def _check_lhv(self, argv, stdout):
        doc = json.loads(stdout)
        if doc["bound"] != 2 or doc["method"] != "brute-force":
            return f"lhv: got bound {doc['bound']} by {doc['method']}, want 2 by brute-force"
        return None

    def _check_noise(self, argv, stdout):
        doc = json.loads(stdout)
        return _miss("noise closed form", doc["closed_form"], self.noise_closed, 1e-12) or _miss(
            "noise numeric", doc["numeric"], self.noise_closed, 1e-9
        )

    def _check_scan(self, argv, stdout):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if [int(r["dim"]) for r in rows] != list(self.scan):
            return "scan returned the wrong dimensions"
        for r in rows:
            top, mix, sep = self.scan[int(r["dim"])]
            miss = (
                _miss(f"scan quantum_max N={r['dim']}", float(r["quantum_max"]), top, 1e-9)
                or _miss(f"scan lambda_mix N={r['dim']}", float(r["lambda_mix"]), mix, 1e-12)
                or _miss(f"scan lambda_sep N={r['dim']}", float(r["lambda_sep"]), sep, 1e-12)
                or (None if int(r["lhv_bound"]) == 2 else f"scan lhv_bound N={r['dim']} is {r['lhv_bound']}")
            )
            if miss:
                return miss
        return None

    def _check_sample(self, argv, stdout):
        doc = json.loads(stdout)
        ref = self.samples[int(argv[-1])]
        if not np.array_equal(np.asarray(doc["counts"]), ref.counts):
            return "sample counts differ from the library run with the same seed"
        return _miss("sample b_estimate", doc["b_estimate"], ref.b_estimate, 1e-12)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()  # only once no other run uses it


def make(name: str, seed: int, root: Path, in_process: bool = False, small: bool = False):
    """Build a workload; `small` shrinks every size for the self-tests."""
    if name == "threshold":
        return Threshold(seed, dim=3 if small else 6)
    if name == "spectral":
        return Spectral(seed, dim=3 if small else 12)
    if name == "sample":
        return Sample(seed, dim=3 if small else 6, shots=1000 if small else 10**6)
    if name == "cli":
        return Cli(seed, root, in_process=in_process, small=small)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
