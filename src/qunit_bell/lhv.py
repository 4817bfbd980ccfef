"""Local-hidden-variable maximum of B_N over deterministic strategies.

A deterministic strategy fixes Alice's outcome for each basis and one click
bit per Bob measurement.  Alice's two outcomes can only make one of Bob's N^2
measurements doubly correct (click gain +2); every other measurement gains 0
or -2, so the maximum is 2 in every dimension.  classical_bound_with_witness
states that bound; the brute-force search checks it by scoring every click
mask of every row of the click-gains table.
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
        names = ("alpha", "alpha_prime", "clicks")
        alpha, alpha_prime, clicks = map(_check_int, (self.alpha, self.alpha_prime, self.clicks), names)
        N = _check_dim(self.dim)
        if not (0 <= alpha < N and 0 <= alpha_prime < N):
            raise ValueError("Alice outcomes out of range")
        # bit_length, not a comparison with 1 << N^2, which alone takes N^2/8 bytes
        if clicks < 0 or clicks.bit_length() > N * N:
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


def classical_bound_with_witness(N: int) -> tuple[int, DeterministicStrategy]:
    """LHV maximum 2 in closed form, with the strategy that clicks only m_00.

    For Alice outcomes (alpha, alpha'), the click bit of slot (v, j) enters B_N
    with gain c[A, alpha, v, j] + c[A', alpha', v, j]: +2 only at slot
    (alpha, (-alpha - alpha') mod N), 0 at 2(N - 1) slots, -2 at the other
    (N - 1)^2.  So each pair's best is 2, by clicking its one +2 slot; the
    witness takes the first pair (0, 0), whose +2 slot is bit 0.
    """
    N = _check_dim(N)
    return 2, DeterministicStrategy(N, 0, 0, 0x1)
