"""Acceptance gate: the eight headline guarantees, each printing a verdict line.

Run with `pytest -v tests/test_acceptance.py`; every criterion reports
[PASS]/[FAIL] with its worst observed deviation and, where capped, runtime.
"""

import time

import numpy as np

from qunit_bell import analyze, verify_max_entangled_optimality
from qunit_bell.bases import computational_basis, fourier_basis, intermediate_family, povm_defect
from qunit_bell.functional import (
    SETTING_A_PRIME,
    bell_setup,
    joint_click_table,
    max_entangled_state,
    quantum_value,
)
from qunit_bell.lhv import bruteforce_bound_with_witness, classical_bound_with_witness
from qunit_bell.linalg import projector
from qunit_bell.montecarlo import ExperimentPlan, run
from qunit_bell.noise import (
    KIND_CLOSEST_SEPARABLE,
    KIND_UNCOLORED,
    threshold_closed_form,
    threshold_numeric,
)


def report(capsys, num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_quantum_maximum(capsys):
    t0 = time.perf_counter()
    dev = max(
        abs(quantum_value(projector(max_entangled_state(N)), N) - 2 * np.sqrt(N))
        for N in range(2, 9)
    )
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-9 and elapsed < 1.0
    report(
        capsys,
        1,
        "quantum maximum 2*sqrt(N), N=2..8",
        ok,
        f"max deviation {dev:.3e} (tol 1e-9), runtime {elapsed:.2f}s (cap 1s)",
    )


def test_criterion_2_lhv_bound(capsys):
    closed = [classical_bound_with_witness(N)[0] for N in range(2, 11)]
    t0 = time.perf_counter()
    brute = [bruteforce_bound_with_witness(N)[0] for N in range(2, 5)]
    elapsed = time.perf_counter() - t0
    ok = all(b == 2 for b in closed) and brute == closed[:3] == [2, 2, 2] and elapsed < 60.0
    report(
        capsys,
        2,
        "LHV bound 2: closed form N=2..10, brute force N=2..4",
        ok,
        f"closed form {sorted(set(closed))}, brute {brute}, brute runtime {elapsed:.2f}s (cap 60s)",
    )


def test_criterion_3_identification_probabilities(capsys):
    dev = 0.0
    for N in range(2, 11):
        correct = 0.5 + 0.5 / np.sqrt(N)
        wrong = (0.5 - 0.5 / np.sqrt(N)) / (N - 1)
        a = computational_basis(N)
        ap = fourier_basis(N)
        states = intermediate_family(N)
        for i in range(N):
            for j in range(N):
                p_a = np.abs(a @ states[i, j].conj()) ** 2
                p_ap = np.abs(ap.conj() @ states[i, j]) ** 2
                dev = max(dev, abs(p_a[i] - correct), abs(p_ap[j] - correct))
                dev = max(dev, np.abs(np.delete(p_a, i) - wrong).max())
                dev = max(dev, np.abs(np.delete(p_ap, j) - wrong).max())
    ok = dev < 1e-10
    report(
        capsys,
        3,
        "identification/error probabilities, N=2..10",
        ok,
        f"max deviation {dev:.3e} (tol 1e-10)",
    )


def test_criterion_4_povm_completeness(capsys):
    defect = max(povm_defect(intermediate_family(N)) for N in range(2, 11))
    ok = defect < 1e-10
    report(
        capsys,
        4,
        "POVM completeness, N=2..10",
        ok,
        f"max defect {defect:.3e} (tol 1e-10)",
    )


def test_criterion_5_noise_thresholds(capsys):
    dev = max(
        abs(threshold_numeric(kind, N) - threshold_closed_form(kind, N))
        for N in range(2, 11)
        for kind in (KIND_UNCOLORED, KIND_CLOSEST_SEPARABLE)
    )
    mix3 = threshold_closed_form(KIND_UNCOLORED, 3)
    sep3 = threshold_closed_form(KIND_CLOSEST_SEPARABLE, 3)
    # leading digits 0.732050... and 0.464101..., consistent with ~0.73 / ~0.46
    pinned = int(mix3 * 1e6) == 732050 and int(sep3 * 1e6) == 464101
    ok = dev < 1e-9 and pinned
    report(
        capsys,
        5,
        "noise thresholds vs closed form, N=2..10",
        ok,
        f"max |numeric-closed| {dev:.3e} (tol 1e-9), N=3 values {mix3:.7f}/{sep3:.7f}",
    )


def test_criterion_6_spectral_certification(capsys):
    dev_eig = 0.0
    dev_state = 0.0
    dev_schmidt = 0.0
    for N in range(2, 7):
        rep = analyze(N)
        achieved, is_optimal = verify_max_entangled_optimality(N)
        dev_eig = max(dev_eig, abs(rep.max_eigenvalue - 2 * np.sqrt(N)))
        dev_state = max(dev_state, abs(achieved - rep.max_eigenvalue))
        assert is_optimal
        if rep.gap > 1e-8:
            dev_schmidt = max(dev_schmidt, np.abs(rep.schmidt - 1 / N).max())
    ok = dev_eig < 1e-8 and dev_state < 1e-8 and dev_schmidt < 1e-6
    report(
        capsys,
        6,
        "spectral certification, N=2..6",
        ok,
        f"eigenvalue dev {dev_eig:.3e} (tol 1e-8), state dev {dev_state:.3e} (tol 1e-8), "
        f"Schmidt dev {dev_schmidt:.3e} (tol 1e-6)",
    )


def test_criterion_7_monte_carlo(capsys):
    exact = 2 * np.sqrt(3)
    rho = projector(max_entangled_state(3))
    t0 = time.perf_counter()
    hits = 0
    for seed in range(20):
        result = run(ExperimentPlan(3, rho, 1_000_000, seed))
        if abs(result.b_estimate - exact) < 4 * result.std_error:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 19 and elapsed < 60.0
    report(
        capsys,
        7,
        "Monte-Carlo consistency, 1e6 shots, N=3",
        ok,
        f"{hits}/20 seeds within 4 std errors (need >= 19), runtime {elapsed:.2f}s (cap 60s)",
    )


def test_criterion_8_term_list_regression(capsys):
    N = 3
    table = joint_click_table(projector(max_entangled_state(N)), N)
    c = bell_setup(N).coefficients
    correct_mass = np.sum(np.where(c == 1, table, 0.0), axis=(1, 2))  # per (x, j)
    wrong_mass = np.sum(np.where(c == -1, table, 0.0), axis=(1, 2))
    want_hi = 0.5 + 0.5 / np.sqrt(3)
    want_lo = 0.5 - 0.5 / np.sqrt(3)
    dev = max(
        np.abs(correct_mass - want_hi).max(),
        np.abs(wrong_mass - want_lo).max(),
    )
    # the three group-1 A'-side joint terms: (alice outcome, value) pairs
    # (0, 2) -> m_20 with a'_0, (2, 0) -> m_01 with a'_1, (1, 1) -> m_12 with a'_2
    for u, v in ((0, 2), (2, 0), (1, 1)):
        dev = max(dev, abs(table[SETTING_A_PRIME, u, v, 1] - want_hi / 3))
    ok = dev < 1e-10
    report(
        capsys,
        8,
        "N=3 term-list regression, all six (setting, group) sums",
        ok,
        f"max deviation {dev:.3e} (tol 1e-10)",
    )
