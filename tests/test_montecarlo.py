import numpy as np
import pytest

from qunit_bell.functional import (
    build_layout,
    joint_click_table,
    max_entangled_state,
    quantum_value,
)
from qunit_bell.linalg import projector
from qunit_bell.montecarlo import GENERATOR_NAME, ExperimentPlan, ExperimentResult, run


def make_plan(N=3, shots=1000, seed=0, rho=None):
    if rho is None:
        rho = projector(max_entangled_state(N))
    return ExperimentPlan(N, rho, shots, seed)


def test_plan_validation():
    rho = projector(max_entangled_state(2))
    with pytest.raises(ValueError, match="at least 1"):
        ExperimentPlan(2, rho, 0, 0)
    with pytest.raises(ValueError, match="64"):
        ExperimentPlan(2, rho, 10, -1)
    with pytest.raises(ValueError, match="64"):
        ExperimentPlan(2, rho, 10, 2**64)


def test_run_rejects_invalid_density():
    with pytest.raises(ValueError, match="trace"):
        run(ExperimentPlan(2, np.eye(4), 10, 0))


def test_determinism():
    a = run(make_plan(seed=123))
    b = run(make_plan(seed=123))
    assert np.array_equal(a.counts, b.counts)
    assert a.b_estimate == b.b_estimate
    assert a.std_error == b.std_error
    assert a.generator == GENERATOR_NAME


def test_different_seeds_differ():
    a = run(make_plan(seed=1))
    b = run(make_plan(seed=2))
    assert not np.array_equal(a.counts, b.counts)


def test_counts_shape_and_totals():
    N, shots = 3, 250
    result = run(make_plan(N=N, shots=shots))
    assert result.counts.shape == (2, N, N, N, 2)
    assert result.counts.dtype == np.int64
    # each (setting, measurement) combination used its full shot budget,
    # so the empirical Alice marginal sums to exactly 1
    totals = result.counts.sum(axis=(1, 4))
    assert np.all(totals == shots)
    assert np.all(totals / shots == 1.0)


def test_single_shot_one_hot():
    result = run(make_plan(N=2, shots=1, seed=9))
    totals = result.counts.sum(axis=(1, 4))
    assert np.all(totals == 1)
    assert set(np.unique(result.counts)) <= {0, 1}


def test_estimate_within_four_sigma():
    exact = 2 * np.sqrt(3)
    for seed in range(5):
        result = run(make_plan(shots=100000, seed=seed))
        assert abs(result.b_estimate - exact) < 4 * result.std_error


def test_error_shrinks_with_shots():
    exact = 2 * np.sqrt(3)
    errs = [abs(run(make_plan(shots=s, seed=2)).b_estimate - exact) for s in (100, 10000, 1000000)]
    assert errs[0] > errs[1] > errs[2]


def test_estimate_tracks_arbitrary_state():
    # mixed, non-maximally-entangled input: estimator stays consistent
    N = 2
    rho = 0.6 * projector(max_entangled_state(N)) + 0.4 * np.eye(4) / 4
    exact = quantum_value(rho, N)
    result = run(make_plan(N=N, shots=200000, seed=5, rho=rho))
    assert abs(result.b_estimate - exact) < 4 * result.std_error
    assert result.std_error < 0.01


def test_result_fields_round_trip():
    plan = make_plan(shots=42, seed=7)
    result = run(plan)
    assert isinstance(result, ExperimentResult)
    assert result.dim == 3
    assert result.shots_per_combination == 42
    assert result.seed == 7
    assert np.isfinite(result.b_estimate)
    assert result.std_error >= 0.0


def ginibre_mixture(N, seed):
    """lam |psi><psi| + (1 - lam) G G^dag / Tr(G G^dag), G complex Gaussian, lam uniform."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
    noise = g @ g.conj().T
    lam = rng.uniform()
    return lam * projector(max_entangled_state(N)) + (1 - lam) * noise / np.trace(noise).real


@pytest.mark.parametrize("N", range(2, 7))
def test_estimate_within_five_sigma_on_random_mixtures(N):
    for seed in range(3):
        rho = ginibre_mixture(N, 1000 * N + seed)
        result = run(ExperimentPlan(N, rho, 20000, seed))
        assert abs(result.b_estimate - quantum_value(rho, N)) <= 5 * result.std_error
        # _outcome_distributions clips the no-click probability marginal - click
        # at 0: on a valid state only float dust may be removed
        click = joint_click_table(rho, build_layout(N)).probabilities
        no_click = click.sum(axis=(2, 3))[:, :, None, None] / N - click
        assert np.clip(-no_click, 0.0, None).sum() <= 1e-12
