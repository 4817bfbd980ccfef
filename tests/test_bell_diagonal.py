"""The click table of every Bell-diagonal state, in closed form.

Phi_kl = N^(-1/2) sum_a w^(la) |a + k>|a>, w = exp(2 pi i / N), is the Bell
basis (Bennett et al., PRL 70, 1895 (1993)); psi = Phi_00.  A state
sum_kl p_kl |Phi_kl><Phi_kl| reaches the table only through the marginals
q_k = sum_l p_kl and r_l = sum_k p_kl.  With C = 2(1 + 1/sqrt(N)) and
g = 1 + 2/sqrt(N):

    table[A,  u, v, j] = (1/N + g q_((u - v) mod N)) / (N C)
    table[A', u, v, j] = (1/N + g r_((u + v + j) mod N)) / (N C)

so B_N = alpha + beta (q_0 + r_0).  Every noise state is Bell-diagonal:
lam e_00 plus (1 - lam) times 1/N^2 everywhere (white noise) or 1/N on the
row k = 0 (the closest separable state, since P_Z = sum_l |Phi_0l><Phi_0l|).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunit_bell.functional import bell_setup, joint_click_table, max_entangled_state, quantum_value
from qunit_bell.noise import KIND_CLOSEST_SEPARABLE, KIND_UNCOLORED, mixed_state, threshold_closed_form
from test_optimality import closed_form_coefficients, needs_sympy, sp

KINDS = (KIND_UNCOLORED, KIND_CLOSEST_SEPARABLE)


def bell_basis(N):
    """(N^2, N^2) array whose row k N + l is Phi_kl, Alice's factor first."""
    k, l, a = np.ogrid[:N, :N, :N]
    phi = np.zeros((N, N, N, N), dtype=complex)
    phi[k, l, (a + k) % N, a] = np.exp(2j * np.pi * l * a / N) / np.sqrt(N)
    return phi.reshape(N * N, N * N)


def bell_diagonal_state(p):
    """sum_kl p_kl |Phi_kl><Phi_kl| as a dense N^2 x N^2 matrix."""
    phi = bell_basis(p.shape[0])
    return (phi.T * p.ravel()) @ phi.conj()


def noise_weights(kind, N, lam):
    """The Bell weights of mixed_state(kind, N, lam)."""
    p = np.full((N, N), 1.0 / N**2) if kind == KIND_UNCOLORED else np.zeros((N, N))
    if kind == KIND_CLOSEST_SEPARABLE:
        p[0] = 1.0 / N
    p *= 1.0 - lam
    p[0, 0] += lam
    return p


def bell_diagonal_click_table(p):
    """The (2, N, N, N) click table of the Bell-diagonal state with weights p, from q and r alone."""
    N = p.shape[0]
    q, r = p.sum(axis=1), p.sum(axis=0)
    C, g = 2.0 * (1.0 + 1.0 / np.sqrt(N)), 1.0 + 2.0 / np.sqrt(N)
    u, v, j = np.ogrid[:N, :N, :N]
    table = np.empty((2, N, N, N))
    table[0] = (1.0 / N + g * q[(u - v) % N]) / (N * C)
    table[1] = (1.0 / N + g * r[(u + v + j) % N]) / (N * C)
    return table


def closed_form_value(p):
    """alpha + beta (q_0 + r_0), with alpha and beta as bell_setup writes them."""
    setup = bell_setup(p.shape[0])
    return setup.alpha + setup.beta * (p[0].sum() + p[:, 0].sum())


@pytest.mark.parametrize("N", range(2, 9))
def test_bell_basis_is_orthonormal_and_starts_at_psi(N):
    phi = bell_basis(N)
    assert np.abs(phi @ phi.conj().T - np.eye(N * N)).max() < 1e-14
    assert np.abs(phi[0] - max_entangled_state(N)).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(N=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 1.0))
def test_table_of_random_bell_diagonal_state(N, seed, lam):
    # lam pulls the weights toward psi, so that near-pure states are drawn too
    p = (1.0 - lam) * np.random.default_rng(seed).dirichlet(np.ones(N * N)).reshape(N, N)
    p[0, 0] += lam
    rho = bell_diagonal_state(p)
    table = bell_diagonal_click_table(p)
    assert np.abs(table - joint_click_table(rho, N)).max() < 1e-12
    assert abs(quantum_value(rho, N) - closed_form_value(p)) < 1e-12
    assert abs(float(np.sum(bell_setup(N).coefficients * table)) - closed_form_value(p)) < 1e-12


@pytest.mark.parametrize("N", range(2, 17))
@pytest.mark.parametrize("kind", KINDS)
def test_table_of_every_noise_state(kind, N):
    for lam in (0.0, 0.3, threshold_closed_form(kind, N), 1.0):
        rho, p = mixed_state(kind, N, lam), noise_weights(kind, N, lam)
        assert np.abs(bell_diagonal_state(p) - rho).max() < 1e-14
        assert np.abs(bell_diagonal_click_table(p) - joint_click_table(rho, N)).max() < 1e-12
        assert abs(quantum_value(rho, N) - closed_form_value(p)) < 1e-12


@pytest.mark.parametrize("N", (2, 3, 6))
def test_correlated_slot_and_row_sum(N):
    # the two numbers the symbolic identity below is built from
    p = np.random.default_rng(N).dirichlet(np.ones(N * N)).reshape(N, N)
    table = bell_diagonal_click_table(p)
    C, g = 2.0 * (1.0 + 1.0 / np.sqrt(N)), 1.0 + 2.0 / np.sqrt(N)
    correlated = bell_setup(N).coefficients == 1
    assert correlated.sum(axis=2).min() == correlated.sum(axis=2).max() == 1
    assert np.allclose(table[0][correlated[0]], (1.0 / N + g * p[0].sum()) / (N * C), rtol=0, atol=1e-15)
    assert np.allclose(table[1][correlated[1]], (1.0 / N + g * p[:, 0].sum()) / (N * C), rtol=0, atol=1e-15)
    assert np.allclose(table.sum(axis=2), (1.0 + g) / (N * C), rtol=0, atol=1e-15)


@needs_sympy
def test_table_side_sum_is_alpha_plus_beta_q0_r0():
    # per (setting, u, j): +1 on the correlated slot, -1 on the N - 1 others,
    # so 2 (1/N + g m) - (1 + g), over N C, with m = q_0 for A and r_0 for A'
    N, q0, r0 = sp.symbols("N q_0 r_0", positive=True)
    root = sp.sqrt(N)
    C, g = 2 * (1 + 1 / root), 1 + 2 / root
    table_side = N * (4 / N + 2 * g * (q0 + r0) - 2 - 2 * g) / C
    assert sp.simplify(table_side - sum(N**2 * (2 * (1 / N + g * m) - 1 - g) / (N * C) for m in (q0, r0))) == 0
    alpha, beta = closed_form_coefficients(N)
    assert sp.simplify(table_side - (alpha + beta * (q0 + r0))) == 0
