import cmath

import numpy as np
import pytest

from qunit_bell.bases import (
    computational_basis,
    fourier_basis,
    intermediate_family,
    normalization_constant,
    overlap_phases,
    povm_defect,
)
from qunit_bell.functional import max_entangled_state, quantum_value


def overlap_phase(i, j, N):
    """Oracle: the argument phi_ij = 2*pi*i*j/N of the overlap <a_i|a'_j>."""
    return 2.0 * np.pi * i * j / N


def intermediate_state(i, j, N):
    """Oracle for intermediate_family: the midpoint (exp(i*phi_ij)|a_i> + |a'_j>)/sqrt(C), one state at a time."""
    a_i = np.zeros(N, dtype=complex)
    a_i[i] = 1.0
    a_prime_j = fourier_basis(N)[j]
    phase = np.exp(1j * overlap_phase(i, j, N))
    return (phase * a_i + a_prime_j) / np.sqrt(normalization_constant(N))


def test_computational_n2():
    assert np.array_equal(computational_basis(2), [[1, 0], [0, 1]])


def test_computational_pairwise_orthogonal():
    a = computational_basis(3)
    for k in range(3):
        for l in range(k + 1, 3):
            assert np.vdot(a[k], a[l]) == 0


@pytest.mark.parametrize("N", range(2, 11))
def test_computational_gram_identity(N):
    a = computational_basis(N)
    assert np.abs(a @ a.conj().T - np.eye(N)).max() < 1e-12


def test_dimension_rejected():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            computational_basis(bad)
        with pytest.raises(ValueError, match="at least 2"):
            fourier_basis(bad)
    for bad in (2.7, 3.9, 3.0, np.float64(2.0)):
        needle = f"local dimension must be an integer, got {bad}"
        with pytest.raises(ValueError, match=needle):
            computational_basis(bad)
        with pytest.raises(ValueError, match=needle):
            fourier_basis(bad)
        with pytest.raises(ValueError, match=needle):
            max_entangled_state(bad)
        with pytest.raises(ValueError, match=needle):
            quantum_value(np.eye(4) / 4, bad)


@pytest.mark.parametrize("N", (np.int64(3), np.int32(2), np.uint8(4)))
def test_numpy_integer_dimension_accepted(N):
    assert computational_basis(N).shape == (int(N), int(N))
    assert max_entangled_state(N).shape == (int(N) ** 2,)


def test_fourier_n2():
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(fourier_basis(2), want, atol=1e-12)


def test_fourier_unbiased_n3():
    a = computational_basis(3)
    ap = fourier_basis(3)
    for k in range(3):
        for l in range(3):
            assert abs(abs(np.vdot(a[k], ap[l])) - 1 / np.sqrt(3)) < 1e-12


@pytest.mark.parametrize("N", range(2, 11))
def test_fourier_gram_identity(N):
    ap = fourier_basis(N)
    assert np.abs(ap @ ap.conj().T - np.eye(N)).max() < 1e-10


@pytest.mark.parametrize("N", range(2, 11))
def test_mutual_unbiasedness(N):
    overlaps = np.abs(computational_basis(N) @ fourier_basis(N).conj().T)
    assert np.abs(overlaps - 1 / np.sqrt(N)).max() < 1e-10


def test_overlap_phase_zero_row():
    for j in range(5):
        assert overlap_phase(0, j, 5) == 0.0


def test_overlap_phase_against_amplitude_argument():
    # oracle: the argument of <a_i|a'_j> read off the Fourier amplitudes
    for N in (2, 3, 5, 7):
        a = computational_basis(N)
        ap = fourier_basis(N)
        for i in range(N):
            for j in range(N):
                want = cmath.phase(np.vdot(a[i], ap[j]))
                got = overlap_phase(i, j, N)
                diff = (got - want) % (2 * np.pi)
                assert min(diff, 2 * np.pi - diff) < 1e-10


def test_overlap_phase_values_n3():
    assert abs(overlap_phase(1, 1, 3) - 2 * np.pi / 3) < 1e-12
    # (2,2) comes out as 8pi/3, equivalent to 2pi/3 mod 2pi
    assert abs(overlap_phase(2, 2, 3) - 8 * np.pi / 3) < 1e-12
    assert abs((overlap_phase(2, 2, 3) - 2 * np.pi / 3) % (2 * np.pi)) < 1e-12


def test_normalization_constant():
    for N in range(2, 11):
        assert abs(normalization_constant(N) - 2 * (1 + 1 / np.sqrt(N))) < 1e-12


def test_intermediate_identification_n3():
    want = 0.5 + 0.5 / np.sqrt(3)
    a = computational_basis(3)
    for i in range(3):
        for j in range(3):
            m = intermediate_state(i, j, 3)
            assert abs(abs(np.vdot(a[i], m)) ** 2 - want) < 1e-10


def test_intermediate_wrong_state_n3():
    want = 0.5 * (0.5 - 0.5 / np.sqrt(3))
    a = computational_basis(3)
    for i in range(3):
        for j in range(3):
            m = intermediate_state(i, j, 3)
            for k in range(3):
                if k != i:
                    assert abs(abs(np.vdot(a[k], m)) ** 2 - want) < 1e-10


@pytest.mark.parametrize("N", range(2, 11))
def test_intermediate_probability_profile(N):
    correct = 0.5 + 0.5 / np.sqrt(N)
    wrong = (0.5 - 0.5 / np.sqrt(N)) / (N - 1)
    a = computational_basis(N)
    ap = fourier_basis(N)
    for i in range(N):
        for j in range(N):
            m = intermediate_state(i, j, N)
            p_a = np.abs(a @ m.conj()) ** 2
            p_ap = np.abs(ap.conj() @ m) ** 2
            assert abs(p_a[i] - correct) < 1e-10
            assert abs(p_ap[j] - correct) < 1e-10
            for k in range(N):
                if k != i:
                    assert abs(p_a[k] - wrong) < 1e-10
                if k != j:
                    assert abs(p_ap[k] - wrong) < 1e-10
            # sum rule per basis
            assert abs(p_a.sum() - 1.0) < 1e-10
            assert abs(p_ap.sum() - 1.0) < 1e-10


def test_intermediate_midpoint_property():
    for N in range(2, 11):
        a = computational_basis(N)
        ap = fourier_basis(N)
        for i in range(N):
            for j in range(N):
                m = intermediate_state(i, j, N)
                assert abs(abs(np.vdot(a[i], m)) - abs(np.vdot(ap[j], m))) < 1e-10


def test_family_fields_and_normalization():
    fam = intermediate_family(3)
    phases = overlap_phases(3)
    assert fam.shape == (3, 3, 3)
    assert phases.shape == (3, 3)
    assert abs(normalization_constant(3) - 2 * (1 + 1 / np.sqrt(3))) < 1e-12
    for i in range(3):
        for j in range(3):
            assert abs(np.linalg.norm(fam[i, j]) - 1.0) < 1e-10
            assert phases[i, j] == overlap_phase(i, j, 3)


@pytest.mark.parametrize("N", range(2, 11))
def test_povm_completeness(N):
    assert povm_defect(intermediate_family(N)) < 1e-10


def test_nonorthogonality_n3():
    # all 36 distinct pairs of the nine states have nonzero overlap
    states = intermediate_family(3).reshape(9, 3)
    count = 0
    for s in range(9):
        for t in range(s + 1, 9):
            assert abs(np.vdot(states[s], states[t])) > 1e-6
            count += 1
    assert count == 36


def test_n2_family_splits_into_orthonormal_pairs():
    # the four N=2 states happen to form two orthonormal bases:
    # {m_00, m_11} and {m_01, m_10}
    fam = intermediate_family(2)
    for pair in ((fam[0, 0], fam[1, 1]), (fam[0, 1], fam[1, 0])):
        basis = np.stack(pair)
        assert np.abs(basis @ basis.conj().T - np.eye(2)).max() < 1e-10
