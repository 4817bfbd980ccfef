"""Covariance of B_N under the local unitaries U_ab = X^a Z^b (x) X^a Z^-b.

X|k> = |k+1> and Z|k> = omega^k |k>, omega = exp(2 pi i / N).  U_ab fixes the
maximally entangled state and commutes with W, so B_N(U rho U^dag) = B_N(rho).
Each factor maps Alice's two bases and Bob's N^2 states onto themselves up to
phases, so the click table and the sampler's outcome distributions are
permuted, not merely preserved.  The permutations are derived here from
overlaps of the states, never read from the library's index arithmetic.
"""

import numpy as np
import pytest

from qunit_bell.bases import computational_basis, fourier_basis, intermediate_family
from qunit_bell.functional import joint_click_table, quantum_value
from qunit_bell.montecarlo import _outcome_distributions

from test_functional import loop_layout, reference_bell_operator, signed_table_sum

DIMS = pytest.mark.parametrize("N", range(2, 8))


def local_unitaries(N, a, b):
    """Alice's and Bob's factors of U_ab."""
    shift = np.roll(np.eye(N), 1, axis=0)  # shift @ e_k = e_(k+1)
    clock = np.exp(2j * np.pi * np.arange(N) / N)
    shift_a = np.linalg.matrix_power(shift, a)
    return shift_a * clock**b, shift_a * clock ** (-b)  # X^a Z^b: column k scaled by omega^(bk)


def rank4_mixture(N, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(N * N, 4)) + 1j * rng.normal(size=(N * N, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def state_permutation(states, unitary):
    """sigma with unitary^dag |states[k]> = phase * |states[sigma[k]]>; fails unless one exists."""
    overlaps = np.abs(states.conj() @ unitary.conj().T @ states.T)  # [i, k] = |<s_i|U^dag|s_k>|
    sigma = overlaps.argmax(axis=0)
    assert np.abs(overlaps[sigma, np.arange(len(states))] - 1.0).max() < 1e-12
    assert sorted(sigma) == list(range(len(states)))
    return sigma


def table_permutations(N, a, b):
    """(sigma_A, sigma_A', tau): U_ab moves outcome u of setting x to sigma_x[u] and slot s = v*N + j to tau[s]."""
    alice_u, bob_u = local_unitaries(N, a, b)
    layout = loop_layout(N)
    bob = intermediate_family(N)[layout[..., 0], layout[..., 1]].reshape(N * N, N)
    sigmas = [state_permutation(basis, alice_u) for basis in (computational_basis(N), fourier_basis(N))]
    return sigmas, state_permutation(bob, bob_u)


def permuted(table, sigmas, tau):
    """table'[x, u, s, ...] = table[x, sigma_x[u], tau[s], ...] over (v, j) flattened to s."""
    N = table.shape[1]
    flat = table.reshape(2, N, N * N, -1)
    return np.stack([flat[x][sigmas[x]][:, tau] for x in range(2)]).reshape(table.shape)


def conjugated(rho, N, a, b):
    u = np.kron(*local_unitaries(N, a, b))
    return u @ rho @ u.conj().T


@DIMS
def test_value_invariant_on_every_path(N):
    rho = rank4_mixture(N, seed=N)
    w = reference_bell_operator(N)
    paths = (
        lambda r: quantum_value(r, N),
        lambda r: signed_table_sum(r, N),
        lambda r: np.einsum("ij,ji->", r, w).real,
    )
    for a in range(N):
        for b in range(N):
            moved = conjugated(rho, N, a, b)
            for path in paths:
                assert abs(path(moved) - path(rho)) <= 1e-12


@DIMS
def test_shift_permutes_outcomes_and_slots_as_derived(N):
    # U = X (x) X: X a_u = a_(u+1), X a'_l = omega^-l a'_l, X m_il ~ m_(i+1),l, and
    # slot (v, j) holds m_v,(v+j), so U^dag sends slot (v, j) to (v-1, j+1)
    (sigma_a, sigma_a_prime), tau = table_permutations(N, 1, 0)
    u, v, j = np.arange(N), *np.divmod(np.arange(N * N), N)
    assert sigma_a.tolist() == ((u - 1) % N).tolist()
    assert sigma_a_prime.tolist() == u.tolist()
    assert tau.tolist() == (((v - 1) % N) * N + (j + 1) % N).tolist()


@DIMS
def test_click_table_is_permuted(N):
    rho = rank4_mixture(N, seed=10 + N)
    table = joint_click_table(rho, N)
    for a in range(N):
        for b in range(N):
            sigmas, tau = table_permutations(N, a, b)
            moved = joint_click_table(conjugated(rho, N, a, b), N)
            assert np.abs(moved - permuted(table, sigmas, tau)).max() <= 1e-14


@DIMS
def test_outcome_distributions_are_permuted(N):
    rho = rank4_mixture(N, seed=20 + N)
    dist = _outcome_distributions(rho, N)
    for a in range(N):
        for b in range(N):
            sigmas, tau = table_permutations(N, a, b)
            moved = _outcome_distributions(conjugated(rho, N, a, b), N)
            assert np.abs(moved - permuted(dist, sigmas, tau)).max() <= 1e-14
