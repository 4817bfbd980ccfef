"""Local-hidden-variable maximum of B_N over deterministic strategies.

A deterministic strategy fixes Alice's outcome for each basis and one click
bit per Bob measurement.  Alice's two outcomes can only make one of Bob's N^2
measurements doubly correct (click gain +2); every other measurement gains 0
or -2, so the maximum is 2 in every dimension.  Both searches read one table
of click gains: the brute-force path scores every click mask of every row,
and the greedy path applies the per-measurement decomposition directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import _check_dim, _check_int
from .functional import SETTING_A, SETTING_A_PRIME, bell_setup

# N = 6 would score 36 * 2^36 masks, about 3000 times the work at N = 5.
BRUTE_FORCE_MAX_DIM = 5

# The exhaustive search splits a click mask into its low LOW_BITS bits and the
# rest, and scores the masks HIGH_BLOCK high rows at a time: 1 MiB of int8.
LOW_BITS = 14
HIGH_BLOCK = 64


@dataclass(frozen=True)
class DeterministicStrategy:
    """Alice outcomes for A and A', plus a click mask over Bob's measurements.

    Bit v*N + j of `clicks` is set iff the measurement at slot (value v,
    group j) clicks.
    """

    dim: int
    alpha: int
    alpha_prime: int
    clicks: int

    def __post_init__(self):
        for name in ("alpha", "alpha_prime", "clicks"):
            _check_int(getattr(self, name), name)
        N = _check_dim(self.dim)
        if not (0 <= self.alpha < N and 0 <= self.alpha_prime < N):
            raise ValueError("Alice outcomes out of range")
        if not 0 <= self.clicks < (1 << (N * N)):
            raise ValueError(f"click mask needs exactly {N * N} bits")


def click_gains(N: int) -> np.ndarray:
    """(N, N, N^2) int8 table of click gains c_A + c_A', one row per pair of Alice outcomes.

    gains[alpha, alpha', v*N + j] is the gain of clicking the measurement at
    slot (v, j) given outcomes alpha and alpha'; it is +2, 0 or -2.
    """
    c = bell_setup(N).coefficients
    return (c[SETTING_A, :, None] + c[SETTING_A_PRIME, None, :]).reshape(N, N, N * N)


def strategy_value(strategy: DeterministicStrategy) -> int:
    """Exact B_N value of a deterministic strategy (an even integer)."""
    N = strategy.dim
    clicked = [b for b in range(N * N) if strategy.clicks >> b & 1]
    return int(click_gains(N)[strategy.alpha, strategy.alpha_prime, clicked].sum(dtype=np.int64))


def _subset_sums(gains: np.ndarray) -> np.ndarray:
    """Value of every mask over `gains` in binary order: mask m is worth m
    without its top bit, plus that bit's gain."""
    values = np.zeros(1 << gains.shape[0], dtype=np.int8)
    for b, gain in enumerate(gains):
        values[1 << b : 2 << b] = values[: 1 << b] + np.int8(gain)
    return values


def _best_mask_exhaustive(gains: np.ndarray) -> tuple[int, int]:
    """Value and smallest mask of the best click pattern, by scoring all of them.

    Mask (h << LOW_BITS) | l is worth high[h] + low[l]; every such sum is
    formed, one cache-sized block of high rows at a time, in one reused buffer.
    """
    low_bits = min(gains.shape[0], LOW_BITS)
    low = _subset_sums(gains[:low_bits])
    high = _subset_sums(gains[low_bits:])
    rows = min(HIGH_BLOCK, high.shape[0])  # both powers of two, so blocks tile high
    block = np.empty((rows, low.shape[0]), dtype=np.int8)
    best_value, best_mask = None, 0
    for start in range(0, high.shape[0], rows):
        np.add(high[start : start + rows, None], low, out=block)
        flat = int(np.argmax(block))  # row-major, so this is the mask's offset
        if best_value is None or block.flat[flat] > best_value:
            best_value, best_mask = int(block.flat[flat]), (start << low_bits) + flat
    return best_value, best_mask


def bruteforce_bound_with_witness(N: int) -> tuple[int, DeterministicStrategy]:
    """Exact LHV maximum by exhaustive enumeration, with a maximizing strategy.

    Among equal values the largest (alpha, alpha') wins, with the smallest mask.
    """
    N = _check_dim(N)
    if N > BRUTE_FORCE_MAX_DIM:
        raise ValueError(f"brute force supports 2 <= N <= {BRUTE_FORCE_MAX_DIM}, got {N}")
    gains = click_gains(N)
    value, alpha, alpha_prime, mask = max(
        (value, a, b, mask)
        for a, b in np.ndindex(N, N)
        for value, mask in [_best_mask_exhaustive(gains[a, b])]
    )
    return value, DeterministicStrategy(N, alpha, alpha_prime, mask)


def greedy_bound_with_witness(N: int) -> tuple[int, DeterministicStrategy]:
    """LHV maximum via the per-measurement decomposition, with a witness.

    Each click bit appears in exactly two terms of B_N, so for fixed Alice
    outcomes the best pattern clicks exactly the positive-gain measurements;
    zero-gain measurements are left silent to keep the witness minimal, and
    the first Alice pair in row-major order wins ties.
    """
    N = _check_dim(N)
    gains = click_gains(N)
    np.maximum(gains, 0, out=gains)  # in place, so the peak stays one table
    values = gains.sum(axis=2, dtype=np.int64)
    alpha, alpha_prime = divmod(int(np.argmax(values)), N)
    mask = sum(1 << int(b) for b in np.flatnonzero(gains[alpha, alpha_prime]))
    return int(values[alpha, alpha_prime]), DeterministicStrategy(N, alpha, alpha_prime, mask)
