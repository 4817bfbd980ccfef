import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qunit_bell.functional import SETTING_A, SETTING_A_PRIME, bell_setup, quantum_value
from qunit_bell.lhv import (
    LOW_BITS,
    DeterministicStrategy,
    _best_mask_exhaustive,
    bruteforce_bound_with_witness,
    click_gains,
    greedy_bound_with_witness,
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


def test_strategy_validation():
    DeterministicStrategy(3, 0, 2, (1 << 9) - 1)
    with pytest.raises(ValueError, match="out of range"):
        DeterministicStrategy(3, 3, 0, 0)
    with pytest.raises(ValueError, match="bits"):
        DeterministicStrategy(3, 0, 0, 1 << 9)
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
    # per-measurement gains are in {+2, 0, -2} with exactly one +2 per Alice pair
    for N in range(2, 8):
        table = click_gains(N)
        assert table.shape == (N, N, N * N) and table.dtype == np.int8
        c = loop_coefficients(N).astype(int)
        for alpha in range(N):
            for alpha_prime in range(N):
                gains = table[alpha, alpha_prime]
                assert np.array_equal(gains, (c[SETTING_A, alpha] + c[SETTING_A_PRIME, alpha_prime]).ravel())
                assert set(np.unique(gains)) <= {-2, 0, 2}
                assert np.sum(gains == 2) == 1
                # the doubly-correct slot sits in group (-alpha-alpha') mod N
                slot = int(np.flatnonzero(gains == 2)[0])
                assert slot == alpha * N + (-alpha - alpha_prime) % N


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
    assert bruteforce_bound_with_witness(N) == (
        2,
        DeterministicStrategy(N, alpha, alpha_prime, clicks),
    )


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


@pytest.mark.parametrize("search", (bruteforce_bound_with_witness, greedy_bound_with_witness))
@pytest.mark.parametrize(
    "N, message",
    [
        (1, "at least 2, got 1"),
        (0, "at least 2, got 0"),
        (-3, "at least 2, got -3"),
        (2.5, "an integer, got 2.5"),
        ("3", "an integer, got 3"),
        (None, "an integer, got None"),
        (True, "at least 2, got 1"),
    ],
)
def test_searches_validate_dim_first(search, N, message):
    with pytest.raises(ValueError, match=f"^local dimension must be {message}$"):
        search(N)


def test_greedy_peak_is_one_table():
    N = 32
    bell_setup(N)  # cached, so only the search itself is traced
    tracemalloc.start()
    try:
        assert greedy_bound_with_witness(N)[0] == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the N^4 int8 table, plus the row sums and the reduction's buffer
    assert peak < N**4 + (1 << 17)


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
        bound = greedy_bound_with_witness(N)[0]
        for _ in range(20):
            a = rng.normal(size=N) + 1j * rng.normal(size=N)
            b = rng.normal(size=N) + 1j * rng.normal(size=N)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert quantum_value(projector(psi), N) <= bound + 1e-9

