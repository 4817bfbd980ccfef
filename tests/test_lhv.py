import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qunit_bell.functional import SETTING_A, SETTING_A_PRIME, quantum_value
from qunit_bell.lhv import (
    LOW_BITS,
    DeterministicStrategy,
    _best_mask_exhaustive,
    bruteforce_bound_with_witness,
    classical_bound_with_witness,
    click_gains,
    strategy_value,
)
from qunit_bell.linalg import projector

from test_functional import loop_coefficients


def reference_best_mask(gains):
    """Reference search: one array of all 2^bits mask values, then argmax."""
    bits = gains.shape[0]
    values = np.zeros(1 << bits, dtype=np.int8)
    for b in range(bits):
        values[1 << b : 2 << b] = values[: 1 << b] + np.int8(gains[b])
    best = int(np.argmax(values))
    return int(values[best]), best


def greedy_bound_with_witness(N):
    """Oracle: the LHV maximum via the per-measurement decomposition, with a witness.

    Each click bit appears in exactly two terms of B_N, so for fixed Alice
    outcomes the best pattern clicks exactly the positive-gain measurements;
    zero-gain measurements are left silent to keep the witness minimal, and
    the first Alice pair in row-major order wins ties.
    """
    gains = np.maximum(click_gains(N), 0)
    values = gains.sum(axis=2, dtype=np.int64)
    alpha, alpha_prime = divmod(int(np.argmax(values)), N)
    mask = sum(1 << int(b) for b in np.flatnonzero(gains[alpha, alpha_prime]))
    return int(values[alpha, alpha_prime]), DeterministicStrategy(N, alpha, alpha_prime, mask)


def test_strategy_validation():
    DeterministicStrategy(3, 0, 2, (1 << 9) - 1)
    with pytest.raises(ValueError, match="out of range"):
        DeterministicStrategy(3, 3, 0, 0)
    for clicks in (1 << 9, -1, np.int64(-1)):
        with pytest.raises(ValueError, match="^click mask needs exactly 9 bits$"):
            DeterministicStrategy(3, 0, 0, clicks)
    assert DeterministicStrategy(3, 0, 0, np.int64(511)).clicks == 511
    # a fractional field fails here, not later as an IndexError
    for field in ("alpha", "alpha_prime", "clicks"):
        fields = {"dim": 3, "alpha": 0, "alpha_prime": 2, "clicks": 5, field: 0.5}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 0.5"):
            DeterministicStrategy(**fields)
    with pytest.raises(ValueError, match="local dimension must be an integer, got 2.5"):
        DeterministicStrategy(2.5, 0, 0, 0)


def test_all_clicks_off_scores_zero():
    assert strategy_value(DeterministicStrategy(3, 1, 2, 0)) == 0


def test_single_click_contributions_n3():
    # slot (0,0) holds m_00: correct for both alpha=0 and alpha_prime=0
    assert strategy_value(DeterministicStrategy(3, 0, 0, 1 << 0)) == 2
    # slot (1,0) holds m_11: wrong on both sides
    assert strategy_value(DeterministicStrategy(3, 0, 0, 1 << 3)) == -2


def test_gain_trichotomy():
    # the counting argument of classical_bound_with_witness: per Alice pair,
    # one gain of +2, 2(N - 1) of 0 and the other (N - 1)^2 of -2
    for N in range(2, 33):
        table = click_gains(N)
        assert table.shape == (N, N, N * N) and table.dtype == np.int8
        for gain, count in ((2, 1), (0, 2 * (N - 1)), (-2, N * N - 2 * N + 1)):
            assert np.array_equal(np.count_nonzero(table == gain, axis=2), np.full((N, N), count))
        # the doubly-correct slot sits in group (-alpha-alpha') mod N
        alpha, alpha_prime = np.indices((N, N))
        assert np.array_equal(np.argmax(table, axis=2), alpha * N + (-alpha - alpha_prime) % N)
        if N < 8:
            c = loop_coefficients(N).astype(int)
            for alpha in range(N):
                for alpha_prime in range(N):
                    gains = table[alpha, alpha_prime]
                    assert np.array_equal(gains, (c[SETTING_A, alpha] + c[SETTING_A_PRIME, alpha_prime]).ravel())


@pytest.mark.parametrize("N", (2, 3, 4, 5))
def test_bruteforce_bound(N):
    bound, witness = bruteforce_bound_with_witness(N)
    assert bound == 2
    assert strategy_value(witness) == 2


@pytest.mark.parametrize(
    "N, alpha, alpha_prime, clicks",
    [(2, 1, 1, 0x4), (3, 2, 2, 0x100), (4, 3, 3, 0x4000), (5, 4, 4, 0x400000)],
)
def test_bruteforce_witness_pinned(N, alpha, alpha_prime, clicks):
    # the largest Alice pair wins, and its one +2 slot is (N - 1, 2 mod N)
    assert (alpha, alpha_prime, clicks) == (N - 1, N - 1, 1 << ((N - 1) * N + 2 % N))
    assert bruteforce_bound_with_witness(N) == (
        2,
        DeterministicStrategy(N, alpha, alpha_prime, clicks),
    )


def test_closed_form_matches_greedy_oracle():
    for N in range(2, 65):
        assert classical_bound_with_witness(N) == greedy_bound_with_witness(N)


def test_strategy_check_allocates_no_mask_bound():
    # 1 << N^2 alone would take N^2/8 bytes, 12.5 MB at N = 10 000
    DeterministicStrategy(3, 0, 0, 1)
    tracemalloc.start()
    try:
        strategy = DeterministicStrategy(10_000, 0, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024
    assert classical_bound_with_witness(10_000) == (2, strategy)


@pytest.mark.parametrize("N", range(2, 9))
def test_greedy_witness_pinned(N):
    # the first Alice pair wins ties, and only slot (0, 0), m_00, clicks
    assert greedy_bound_with_witness(N) == (2, DeterministicStrategy(N, 0, 0, 0x1))


@settings(max_examples=60, deadline=None)
@given(
    gains=st.integers(1, 22).flatmap(
        lambda bits: st.lists(st.sampled_from((-2, 0, 2)), min_size=bits, max_size=bits)
    )
)
@example(gains=[0])
@example(gains=[0] * LOW_BITS)
@example(gains=[0] * (LOW_BITS + 1))
@example(gains=[0] * 22)
@example(gains=[-2] * 20 + [2, 2])
def test_blocked_search_matches_reference(gains):
    gains = np.asarray(gains, dtype=np.int64)
    assert _best_mask_exhaustive(gains) == reference_best_mask(gains)


@pytest.mark.parametrize("N", range(2, 11))
def test_greedy_bound(N):
    bound, witness = greedy_bound_with_witness(N)
    assert bound == 2
    assert strategy_value(witness) == 2


def test_methods_agree():
    for N in (2, 3, 4, 5):
        assert bruteforce_bound_with_witness(N)[0] == greedy_bound_with_witness(N)[0] == 2
        # pair by pair, the exhaustive best is the sum of the positive gains
        for gains in click_gains(N).reshape(N * N, N * N):
            assert _best_mask_exhaustive(gains)[0] == np.maximum(gains, 0).sum()


def test_bruteforce_range_errors():
    with pytest.raises(ValueError, match=r"^brute force supports 2 <= N <= 5, got 6$"):
        bruteforce_bound_with_witness(6)


# the greedy oracle validates N through click_gains
@pytest.mark.parametrize(
    "search", (bruteforce_bound_with_witness, greedy_bound_with_witness, classical_bound_with_witness)
)
@pytest.mark.parametrize(
    "N, message",
    [
        (1, "at least 2, got 1"),
        (0, "at least 2, got 0"),
        (-3, "at least 2, got -3"),
        (2.5, "an integer, got 2.5"),
        ("3", "an integer, got 3"),
        (None, "an integer, got None"),
        (True, "at least 2, got True"),
    ],
)
def test_searches_validate_dim_first(search, N, message):
    with pytest.raises(ValueError, match=f"^local dimension must be {message}$"):
        search(N)


def test_greedy_witness_clicks_only_positive_gains():
    for N in (3, 6):
        bound, witness = greedy_bound_with_witness(N)
        gains = click_gains(N)[witness.alpha, witness.alpha_prime]
        for b in range(N * N):
            clicked = bool(witness.clicks >> b & 1)
            assert clicked == (gains[b] > 0)


def test_random_strategy_values_even_and_bounded():
    rng = np.random.default_rng(61)
    for N in range(2, 11):
        for _ in range(50):
            # 2^(N*N) overflows int64 from N=8 on, so draw the mask bit by bit
            bits = rng.integers(2, size=N * N)
            s = DeterministicStrategy(
                N,
                int(rng.integers(N)),
                int(rng.integers(N)),
                sum(int(bit) << b for b, bit in enumerate(bits)),
            )
            value = strategy_value(s)
            assert value % 2 == 0
            assert -2 * N * N <= value <= 2


def test_bound_dominates_product_states():
    rng = np.random.default_rng(71)
    for N in (2, 3, 4):
        bound = classical_bound_with_witness(N)[0]
        for _ in range(20):
            a = rng.normal(size=N) + 1j * rng.normal(size=N)
            b = rng.normal(size=N) + 1j * rng.normal(size=N)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert quantum_value(projector(psi), N) <= bound + 1e-9

