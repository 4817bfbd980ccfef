import hashlib

import numpy as np
import pytest

from qunit_bell.functional import (
    build_functional,
    build_layout,
    joint_click_table,
    max_entangled_state,
    quantum_value,
)
from qunit_bell.linalg import projector
from qunit_bell.montecarlo import (
    GENERATOR_NAME,
    ExperimentPlan,
    ExperimentResult,
    _outcome_distributions,
    run,
)


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
    # a fractional shot budget or seed is refused, never truncated
    with pytest.raises(ValueError, match="shots_per_combination must be an integer, got 10.7"):
        ExperimentPlan(2, rho, 10.7, 0)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        ExperimentPlan(2, rho, 10, 1.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ExperimentPlan(2, rho, 10, np.float64(1.0))
    ExperimentPlan(2, rho, np.int64(10), np.uint64(2**64 - 1))


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


@pytest.mark.parametrize(
    "N, seed, state_seed, digest",
    (
        (2, 7, None, "c080ea331697f434934e575a46bfe11c0f088e8da566bdce2b3d9615238335eb"),
        (3, 2024, 5, "c46c1cfa5ee329f6d0d12ad715a0bf1b590c796f0240584717e64120342cf636"),
    ),
)
def test_seed_pins_counts(N, seed, state_seed, digest):
    # state_seed None is the maximally entangled state, else ginibre_mixture(N, state_seed)
    rho = None if state_seed is None else ginibre_mixture(N, state_seed)
    counts = run(make_plan(N=N, shots=1000, seed=seed, rho=rho)).counts
    assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("N", (2, 3, 5))
def test_each_combination_draws_its_own_stream(N, monkeypatch):
    keys = []
    philox = np.random.Philox

    def recording(key):
        keys.append(tuple(int(k) for k in key))
        return philox(key=key)

    monkeypatch.setattr(np.random, "Philox", recording)
    run(make_plan(N=N, shots=1, seed=11))
    assert len(keys) == len(set(keys)) == 2 * N * N


@pytest.mark.parametrize("N", (2, 3))
def test_std_error_matches_exact_multinomial_sd(N):
    # b_estimate = sum over combinations of w . n / shots, with n multinomial
    # over the 2N outcomes (u, click bit) and w = c[x, u, v, j] on clicks, 0 else.
    # A pure state: near the maximally mixed state, summing a combination's
    # signed clicks over v instead of u moves sigma by under 0.1 %.
    rng = np.random.default_rng([N, 0])
    ket = rng.normal(size=N * N) + 1j * rng.normal(size=N * N)
    rho = projector(ket / np.linalg.norm(ket))
    shots = 10**6
    dist = _outcome_distributions(rho, N)
    c = build_functional(N).coefficients
    variance = 0.0
    for x in range(2):
        for v in range(N):
            for j in range(N):
                p = dist[x, :, v, j, :].reshape(-1)
                w = np.stack([np.zeros(N), c[x, :, v, j]], axis=-1).reshape(-1)
                variance += w @ (np.diag(p) - np.outer(p, p)) @ w / shots
    result = run(ExperimentPlan(N, rho, shots, 3))
    assert abs(result.std_error - np.sqrt(variance)) < 2e-3 * np.sqrt(variance)
