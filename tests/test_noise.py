import tracemalloc

import numpy as np
import pytest

import qunit_bell.noise as noise
from qunit_bell.functional import joint_click_table, max_entangled_state, quantum_value
from qunit_bell.linalg import projector, validate_density_matrix
from qunit_bell.montecarlo import ExperimentPlan, run
from qunit_bell.noise import (
    KIND_CLOSEST_SEPARABLE,
    KIND_UNCOLORED,
    mixed_state,
    threshold_closed_form,
    threshold_numeric,
)

KINDS = (KIND_UNCOLORED, KIND_CLOSEST_SEPARABLE)


def test_mixed_state_validation():
    mixed_state(KIND_UNCOLORED, 3, 0.5)
    with pytest.raises(ValueError, match="unknown noise kind"):
        mixed_state("pink", 3, 0.5)
    with pytest.raises(ValueError, match="at least 2, got 1$"):
        mixed_state(KIND_UNCOLORED, 1, 0.5)
    with pytest.raises(ValueError, match="at least 2, got True$"):
        mixed_state(KIND_UNCOLORED, True, 0.5)
    with pytest.raises(ValueError, match="must be an integer, got 2.7"):
        mixed_state(KIND_UNCOLORED, 2.7, 0.5)
    # kind is checked before N, and N before lam
    with pytest.raises(ValueError, match="unknown noise kind"):
        mixed_state("pink", 1, 1.5)
    with pytest.raises(ValueError, match="at least 2"):
        mixed_state(KIND_UNCOLORED, 1, 1.5)
    for lam in (1.5, -0.1, float("nan"), "0.5", None, 1j, [0.5], np.array([0.2, 0.5])):
        with pytest.raises(ValueError, match=r"mixing weight must lie in \[0, 1\], got"):
            mixed_state(KIND_UNCOLORED, 3, lam)
    for lam in (0, 1, False, True, 0.0, 0.5, 1.0, np.float16(0.5), np.float32(0.5), np.int64(1), np.True_):
        for kind in KINDS:
            assert mixed_state(kind, 3, lam).tobytes() == mixed_state(kind, 3, float(lam)).tobytes(), (kind, lam)


def test_lambda_one_recovers_pure_state():
    pure = projector(max_entangled_state(3))
    for kind in KINDS:
        assert np.abs(mixed_state(kind, 3, 1.0) - pure).max() < 1e-12


def test_lambda_zero_uncolored():
    rho = mixed_state(KIND_UNCOLORED, 3, 0.0)
    assert np.abs(rho - np.eye(9) / 9).max() < 1e-12
    assert abs(quantum_value(rho, 3) - 2 * (2 - 3)) < 1e-10


def test_lambda_zero_separable_n3():
    rho = mixed_state(KIND_CLOSEST_SEPARABLE, 3, 0.0)
    want = np.zeros((9, 9))
    want[[0, 4, 8], [0, 4, 8]] = 1 / 3
    assert np.abs(rho - want).max() < 1e-12
    assert abs(quantum_value(rho, 3) - (np.sqrt(3) - 1)) < 1e-10


def test_mixed_states_are_valid_densities():
    for N in (2, 3):
        for kind in KINDS:
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                validate_density_matrix(mixed_state(kind, N, lam))


def test_closed_forms():
    assert abs(threshold_closed_form(KIND_UNCOLORED, 3) - 2 / (1 + np.sqrt(3))) < 1e-12
    assert (
        abs(threshold_closed_form(KIND_CLOSEST_SEPARABLE, 3) - (3 - np.sqrt(3)) / (1 + np.sqrt(3)))
        < 1e-12
    )
    assert abs(threshold_closed_form(KIND_UNCOLORED, 2) - 1 / np.sqrt(2)) < 1e-12
    with pytest.raises(ValueError, match="unknown noise kind"):
        threshold_closed_form("pink", 3)


def test_closed_form_frozen_values_n3():
    assert abs(threshold_closed_form(KIND_UNCOLORED, 3) - 0.7320508075688772) < 1e-12
    assert abs(threshold_closed_form(KIND_CLOSEST_SEPARABLE, 3) - 0.46410161513775466) < 1e-12


@pytest.mark.parametrize("N", (2, 3, 5))
@pytest.mark.parametrize("kind", KINDS)
def test_numeric_matches_closed_form(N, kind):
    assert abs(threshold_numeric(kind, N) - threshold_closed_form(kind, N)) < 1e-9


def test_value_is_affine_in_lambda():
    for kind in KINDS:
        base = quantum_value(mixed_state(kind, 3, 0.0), 3)
        top = 2 * np.sqrt(3)
        for lam in np.linspace(0.0, 1.0, 10):
            got = quantum_value(mixed_state(kind, 3, float(lam)), 3)
            assert abs(got - (lam * top + (1 - lam) * base)) < 1e-10


def test_threshold_ordering():
    # separable noise is the milder one: its threshold sits strictly lower
    for N in range(3, 11):
        assert threshold_closed_form(KIND_CLOSEST_SEPARABLE, N) < threshold_closed_form(
            KIND_UNCOLORED, N
        )
    # N=2 checked numerically rather than assumed: ordering holds there too
    sep2 = threshold_numeric(KIND_CLOSEST_SEPARABLE, 2)
    mix2 = threshold_numeric(KIND_UNCOLORED, 2)
    assert sep2 < mix2
    assert abs(sep2 - (2 - np.sqrt(2)) / np.sqrt(2)) < 1e-9
    assert abs(mix2 - 1 / np.sqrt(2)) < 1e-9


@pytest.mark.parametrize(
    "kind, N, message",
    (
        ("pink", 3, "unknown noise kind 'pink'"),
        (KIND_UNCOLORED, 1, "local dimension must be at least 2, got 1$"),
        (KIND_UNCOLORED, 2.7, "local dimension must be an integer, got 2.7$"),
        (KIND_UNCOLORED, True, "local dimension must be at least 2, got True$"),
    ),
    ids=("pink", "1", "2.7", "True"),
)
def test_threshold_numeric_refuses_bad_input_before_evaluating(monkeypatch, kind, N, message):
    calls = []
    monkeypatch.setattr(noise, "quantum_value", lambda rho, N: calls.append(N) or 0.0)
    with pytest.raises(ValueError, match=f"^{message}"):
        threshold_numeric(kind, N)
    assert calls == []


def test_bisection_reports_missing_sign_change(monkeypatch):
    monkeypatch.setattr(noise, "quantum_value", lambda rho, N: 0.0)
    with pytest.raises(ValueError, match="no sign change"):
        threshold_numeric(KIND_UNCOLORED, 3)


def reference_mixed_state(kind, N, lam):
    """The former mixed_state: the full projector of the ket, plus the noise."""
    d = N * N
    pure = projector(max_entangled_state(N))
    if kind == KIND_UNCOLORED:
        sigma = np.eye(d, dtype=complex) / d
    else:
        sigma = np.zeros((d, d), dtype=complex)
        diag = np.arange(N) * (N + 1)
        sigma[diag, diag] = 1.0 / N
    return lam * pure + (1.0 - lam) * sigma


@pytest.mark.parametrize("N", range(2, 17))
@pytest.mark.parametrize("kind", KINDS)
def test_mixed_state_bit_identical_to_reference(kind, N):
    for lam in (0.0, 0.123456789, 0.3, 1.0, *PINNED_THRESHOLDS[kind]):
        got, want = mixed_state(kind, N, lam), reference_mixed_state(kind, N, lam)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert not want.imag.any()
        assert got.tobytes() == want.real.tobytes()  # also tells -0.0 from 0.0


# threshold_numeric bisects on B_N's sign, so any change in a state entry or in
# the order B_N sums could move the last bits of these.  At N = 4 the roots
# 3/4 and 1/2 are dyadic, so a midpoint lands on the root and its sign is rounding.
PINNED_THRESHOLDS = {
    KIND_UNCOLORED: (
        0.7071067811630201,
        0.7320508075936232,
        0.7500000000291038,
        0.7639320225280244,
        0.7752551285957452,
    ),
    KIND_CLOSEST_SEPARABLE: (
        0.41421356235514395,
        0.4641016151581425,
        0.5000000000291038,
        0.527864045026945,
        0.5505102572205942,
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_threshold_numeric_pinned_floats(kind):
    assert tuple(threshold_numeric(kind, N) for N in range(2, 7)) == PINNED_THRESHOLDS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_mutating_mixed_state_leaves_next_call_intact(kind):
    first = mixed_state(kind, 3, 0.4)
    want = first.tobytes()
    first[:] = 7.0
    reference = reference_mixed_state(kind, 3, 0.4)
    assert not reference.imag.any()
    assert mixed_state(kind, 3, 0.4).tobytes() == want == reference.real.tobytes()


@pytest.mark.parametrize("N", (2, 3, 6))
@pytest.mark.parametrize("kind", KINDS)
def test_float64_states_pass_through_every_caller(kind, N):
    rho = mixed_state(kind, N, 0.37)
    as_complex = rho.astype(complex)
    assert joint_click_table(rho, N).tobytes() == joint_click_table(as_complex, N).tobytes()
    got, want = (run(ExperimentPlan(N, state, 1000, 5)) for state in (rho, as_complex))
    assert got.counts.tobytes() == want.counts.tobytes()
    assert (got.b_estimate, got.std_error) == (want.b_estimate, want.std_error)
    assert quantum_value(rho, N) == quantum_value(as_complex, N)


@pytest.mark.parametrize("kind", KINDS)
def test_value_does_not_depend_on_dtype(kind):
    # the gathered real parts are made contiguous for either dtype, so BLAS
    # sums them in one order; the gap was up to 4.8e-14 when it did not
    for N in range(2, 11):
        for lam in np.linspace(0.0, 1.0, 11):
            rho = mixed_state(kind, N, lam)
            assert quantum_value(rho.astype(complex), N) == quantum_value(rho, N)


@pytest.mark.parametrize("kind", KINDS)
def test_mixed_state_allocates_only_rho(kind):
    # both passes write through views, so no array of length d = 1024 is built
    # beside rho; a d-length temporary such as (1 - lam) * sigma_diag takes 8 d bytes
    N = 32
    d = N * N
    tracemalloc.start()
    try:
        rho = mixed_state(kind, N, 0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - rho.nbytes < 8 * d
