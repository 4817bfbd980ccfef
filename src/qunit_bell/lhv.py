"""Local-hidden-variable maximum of B_N over deterministic strategies.

A deterministic strategy fixes Alice's outcome for each basis and one click
bit per Bob measurement.  Alice's two outcomes can only make one of Bob's N^2
measurements doubly correct (click gain +2); every other measurement gains 0
or -2, so the maximum is 2 in every dimension.  The brute-force path verifies
this by computing the value of every strategy; the greedy path applies the
per-measurement decomposition directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import _check_dim, _check_int
from .functional import SETTING_A, SETTING_A_PRIME, bell_setup

# Default brute-force cap; N=5 (25 * 2^25 strategies) only behind allow_slow.
BRUTE_FORCE_MAX_DIM = 4
BRUTE_FORCE_SLOW_DIM = 5

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


def click_gains(alpha: int, alpha_prime: int, N: int) -> np.ndarray:
    """Per-measurement click gain c_A + c_A' for fixed Alice outcomes.

    Entry v*N + j corresponds to the measurement at slot (v, j); values
    are in {+2, 0, -2}.
    """
    c = bell_setup(N).coefficients
    gains = c[SETTING_A, alpha].astype(np.int64) + c[SETTING_A_PRIME, alpha_prime]
    return gains.reshape(N * N)


def strategy_value(strategy: DeterministicStrategy) -> int:
    """Exact B_N value of a deterministic strategy (an even integer)."""
    gains = click_gains(strategy.alpha, strategy.alpha_prime, strategy.dim)
    total = 0
    mask = strategy.clicks
    while mask:
        bit = mask & -mask
        total += int(gains[bit.bit_length() - 1])
        mask ^= bit
    return total


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


def bruteforce_bound_with_witness(
    N: int, allow_slow: bool = False
) -> tuple[int, DeterministicStrategy]:
    """Exact LHV maximum by exhaustive enumeration, with a maximizing strategy."""
    limit = BRUTE_FORCE_SLOW_DIM if allow_slow else BRUTE_FORCE_MAX_DIM
    if not 2 <= N <= limit:
        raise ValueError(
            f"brute force supports 2 <= N <= {limit}"
            f"{'' if allow_slow else ' (N=5 requires allow_slow)'}, got {N}"
        )
    N = _check_dim(N)  # refuses 2.5 before range() sees it

    def scan(alpha: int, alpha_prime: int) -> tuple[int, int, int, int]:
        value, mask = _best_mask_exhaustive(click_gains(alpha, alpha_prime, N))
        return value, alpha, alpha_prime, mask

    value, alpha, alpha_prime, mask = max(scan(a, ap) for a in range(N) for ap in range(N))
    return value, DeterministicStrategy(N, alpha, alpha_prime, mask)


def greedy_bound_with_witness(N: int) -> tuple[int, DeterministicStrategy]:
    """LHV maximum via the per-measurement decomposition, with a witness.

    Each click bit appears in exactly two terms of B_N, so for fixed Alice
    outcomes the best pattern clicks exactly the positive-gain measurements;
    zero-gain measurements are left silent to keep the witness minimal.
    """
    N = _check_dim(N)
    best_value = None
    best = None
    for alpha in range(N):
        for alpha_prime in range(N):
            gains = click_gains(alpha, alpha_prime, N)
            value = int(np.maximum(gains, 0).sum())
            if best_value is None or value > best_value:
                mask = 0
                for b in np.flatnonzero(gains > 0):
                    mask |= 1 << int(b)
                best_value = value
                best = DeterministicStrategy(N, alpha, alpha_prime, mask)
    return best_value, best

