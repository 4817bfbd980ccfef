import numpy as np
import pytest

from qunit_bell import analyze, verify_max_entangled_optimality

from test_functional import entanglement_entropy


@pytest.mark.parametrize("N,want", ((2, 2 * np.sqrt(2)), (3, 2 * np.sqrt(3)), (4, 4.0)))
def test_max_eigenvalue(N, want):
    assert abs(analyze(N).max_eigenvalue - want) < 1e-8


@pytest.mark.parametrize("N", (2, 3, 6))
def test_max_entangled_state_is_optimal(N):
    achieved, is_optimal = verify_max_entangled_optimality(N)
    assert is_optimal
    assert abs(achieved - 2 * np.sqrt(N)) < 1e-8


@pytest.mark.parametrize("N", range(2, 7))
def test_report_invariants(N):
    report = analyze(N)
    assert report.dim == N
    assert abs(report.max_eigenvalue - 2 * np.sqrt(N)) < 1e-8
    assert np.all(np.diff(report.schmidt) <= 1e-12)
    assert abs(report.schmidt.sum() - 1.0) < 1e-10
    assert 0.0 <= report.entropy <= np.log(N) + 1e-12
    assert abs(np.linalg.norm(report.top_state) - 1.0) < 1e-10
    # eigenvector-dependent claims only when the top eigenvalue is isolated
    if report.gap > 1e-8:
        assert np.abs(report.schmidt - 1 / N).max() < 1e-6
        assert abs(report.entropy - np.log(N)) < 1e-6


def test_entropy_helper():
    assert entanglement_entropy(np.array([1.0, 0.0])) == 0.0
    assert abs(entanglement_entropy(np.full(4, 0.25)) - np.log(4)) < 1e-12
