import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qunit_bell.functional import build_functional, quantum_value
from qunit_bell.lhv import (
    LOW_BITS,
    DeterministicStrategy,
    _best_mask_exhaustive,
    bruteforce_bound_with_witness,
    click_gains,
    greedy_bound_with_witness,
    lhv_bound_bruteforce,
    lhv_bound_greedy,
    strategy_value,
)
from qunit_bell.linalg import projector


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
    f = build_functional(3)
    assert strategy_value(DeterministicStrategy(3, 1, 2, 0), f) == 0


def test_single_click_contributions_n3():
    f = build_functional(3)
    # slot (0,0) holds m_00: correct for both alpha=0 and alpha_prime=0
    assert strategy_value(DeterministicStrategy(3, 0, 0, 1 << 0), f) == 2
    # slot (1,0) holds m_11: wrong on both sides
    assert strategy_value(DeterministicStrategy(3, 0, 0, 1 << 3), f) == -2


def test_strategy_value_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        strategy_value(DeterministicStrategy(2, 0, 0, 0), build_functional(3))


def test_gain_trichotomy():
    # per-measurement gains are in {+2, 0, -2} with exactly one +2
    for N in range(2, 8):
        f = build_functional(N)
        for alpha in range(N):
            for alpha_prime in range(N):
                gains = click_gains(alpha, alpha_prime, f)
                assert set(np.unique(gains)) <= {-2, 0, 2}
                assert np.sum(gains == 2) == 1
                # the doubly-correct slot sits in group (-alpha-alpha') mod N
                slot = int(np.flatnonzero(gains == 2)[0])
                assert slot == alpha * N + (-alpha - alpha_prime) % N


@pytest.mark.parametrize("N", (2, 3, 4))
def test_bruteforce_bound(N):
    bound, witness = bruteforce_bound_with_witness(N)
    assert bound == 2
    assert strategy_value(witness, build_functional(N)) == 2


@pytest.mark.parametrize(
    "N, alpha, alpha_prime, clicks",
    [(2, 1, 1, 0x4), (3, 2, 2, 0x100), (4, 3, 3, 0x4000), (5, 4, 4, 0x400000)],
)
def test_bruteforce_witness_pinned(N, alpha, alpha_prime, clicks):
    assert bruteforce_bound_with_witness(N, allow_slow=True) == (
        2,
        DeterministicStrategy(N, alpha, alpha_prime, clicks),
    )


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
    assert strategy_value(witness, build_functional(N)) == 2


def test_methods_agree():
    for N in (2, 3, 4):
        assert lhv_bound_bruteforce(N) == lhv_bound_greedy(N) == 2


def test_bruteforce_range_errors():
    with pytest.raises(ValueError, match="brute force"):
        lhv_bound_bruteforce(1)
    with pytest.raises(ValueError, match="allow_slow"):
        lhv_bound_bruteforce(5)
    with pytest.raises(ValueError, match="brute force"):
        lhv_bound_bruteforce(6, allow_slow=True)


def test_bruteforce_allow_slow_n5():
    assert lhv_bound_bruteforce(5, allow_slow=True) == 2


def test_greedy_witness_clicks_only_positive_gains():
    for N in (3, 6):
        bound, witness = greedy_bound_with_witness(N)
        gains = click_gains(witness.alpha, witness.alpha_prime, build_functional(N))
        for b in range(N * N):
            clicked = bool(witness.clicks >> b & 1)
            assert clicked == (gains[b] > 0)


def test_random_strategy_values_even_and_bounded():
    rng = np.random.default_rng(61)
    for N in range(2, 11):
        f = build_functional(N)
        for _ in range(50):
            # 2^(N*N) overflows int64 from N=8 on, so draw the mask bit by bit
            bits = rng.integers(2, size=N * N)
            s = DeterministicStrategy(
                N,
                int(rng.integers(N)),
                int(rng.integers(N)),
                sum(int(bit) << b for b, bit in enumerate(bits)),
            )
            value = strategy_value(s, f)
            assert value % 2 == 0
            assert -2 * N * N <= value <= 2


def test_bound_dominates_product_states():
    rng = np.random.default_rng(71)
    for N in (2, 3, 4):
        bound = lhv_bound_greedy(N)
        for _ in range(20):
            a = rng.normal(size=N) + 1j * rng.normal(size=N)
            b = rng.normal(size=N) + 1j * rng.normal(size=N)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert quantum_value(projector(psi), N) <= bound + 1e-9

