"""Finite-shot simulation of the B_N experiment.

Each of the 2*N^2 (Alice setting, Bob measurement) combinations is sampled
independently from its exact Born-rule outcome distribution over pairs
(Alice outcome, click bit).  Every combination draws from its own Philox
(counter-based, 4x64) stream keyed by (seed, combination index), so results
are bit-identical for a given seed.  Each draw is cheaper than a thread hand-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import _check_dim, _check_int
from .functional import bell_setup, joint_click_table

GENERATOR_NAME = "philox4x64"


def _check_shots_and_seed(shots, seed, names=("shots_per_combination", "seed")) -> None:
    """Refuse shots outside 1 <= shots < 2**63 or a seed outside 0 <= seed < 2**64, by the given names."""
    # Generator.multinomial takes a C long: 2**63 would raise OverflowError
    if not 1 <= _check_int(shots, names[0]) < 2**63:
        raise ValueError(f"{names[0]} must be at least 1 and below 2**63, got {shots}")
    if not 0 <= _check_int(seed, names[1]) < 2**64:
        raise ValueError(f"{names[1]} must fit in 64 unsigned bits, got {seed}")


@dataclass(frozen=True)
class ExperimentPlan:
    """State, per-combination shot budget and RNG seed for one simulated run."""

    dim: int
    rho: np.ndarray
    shots_per_combination: int
    seed: int

    def __post_init__(self):
        _check_dim(self.dim)
        _check_shots_and_seed(self.shots_per_combination, self.seed)


@dataclass(frozen=True)
class ExperimentResult:
    """Tallies and the Bell estimate they imply.

    counts[x, u, v, j, b] counts shots of combination (setting x, measurement
    slot (v, j)) that produced Alice outcome u and click bit b (1 = click).
    """

    dim: int
    counts: np.ndarray
    b_estimate: float
    std_error: float
    shots_per_combination: int
    seed: int
    generator: str = GENERATOR_NAME


def _outcome_distributions(rho: np.ndarray, N: int) -> np.ndarray:
    """Exact per-combination outcome probabilities, shape (2, N, N, N, 2).

    Index order matches ExperimentResult.counts; clipping of float dust and
    renormalization keep each combination's 2N-outcome vector an exact
    probability vector.
    """
    click = joint_click_table(rho, N)
    # The (1/N)|m_vj><m_vj| sum to the identity, so Alice's marginal is the
    # click mass over all N^2 of Bob's measurements, divided by N.
    marginal = click.sum(axis=(2, 3)) / N
    dist = np.empty((2, N, N, N, 2))
    dist[..., 1] = click
    dist[..., 0] = marginal[:, :, None, None] - click
    np.clip(dist, 0.0, None, out=dist)
    dist /= dist.sum(axis=(1, 4), keepdims=True)
    return dist


def run(plan: ExperimentPlan) -> ExperimentResult:
    """Sample the experiment and estimate B_N with its statistical error."""
    N = plan.dim
    shots = plan.shots_per_combination
    dist = _outcome_distributions(plan.rho, N)

    counts = np.zeros((2, N, N, N, 2), dtype=np.int64)
    for x in range(2):
        for v in range(N):
            for j in range(N):
                key = np.array([plan.seed, (x * N + v) * N + j], dtype=np.uint64)
                rng = np.random.Generator(np.random.Philox(key=key))
                pvals = dist[x, :, v, j, :].reshape(-1)
                counts[x, :, v, j, :] = rng.multinomial(shots, pvals).reshape(N, 2)

    click_freq = counts[..., 1] / shots
    c = bell_setup(N).coefficients
    b_estimate = float(np.sum(c * click_freq))

    # Multinomial variance of each combination's signed click sum, plugged in
    # with empirical frequencies; combinations are independent.
    signed = np.sum(c * click_freq, axis=1)  # (x, v, j)
    variance = float(np.sum(np.sum(click_freq, axis=1) - signed**2) / shots)
    return ExperimentResult(
        dim=N,
        counts=counts,
        b_estimate=b_estimate,
        std_error=float(np.sqrt(max(variance, 0.0))),
        shots_per_combination=shots,
        seed=plan.seed,
    )
