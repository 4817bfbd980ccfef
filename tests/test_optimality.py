"""Exact checks of the Bell operator, in rational and radical arithmetic.

W is built term by term from the paper's definitions, as exact sympy
matrices, and compared with the closed form alpha 1 + beta (P_Z + P_X) that
bell_setup evaluates in floats.  Writing the roots of unity in Cartesian form
(expand_complex) makes every residual entry expand to an exact 0; a general
simplify would take seconds per entry at N = 3.  The noise thresholds follow
from the same alpha and beta; radsimp then expand settles all eight exactly
in about 0.1 s.
"""

import pytest

from qunit_bell.functional import quantum_value
from qunit_bell.noise import NoiseFamily, mixed_state, threshold_closed_form
from test_functional import loop_coefficients, loop_layout

sp = pytest.importorskip("sympy")


def outer(k):
    return k * k.H


def closed_form_coefficients(N):
    """alpha and beta of W = alpha 1 + beta (P_Z + P_X), exactly."""
    root = sp.sqrt(N)
    return sp.radsimp(2 * root / (root + 1) - 2 * N), sp.radsimp(N * (root + 2) / (root + 1))


@pytest.mark.parametrize("N", (2, 3, 4))
def test_bell_operator_is_exactly_the_closed_form(N):
    root = sp.sqrt(N)
    omega = sp.exp(2 * sp.pi * sp.I / N)
    a = [sp.Matrix([int(n == u) for n in range(N)]) for u in range(N)]
    a_prime = [sp.Matrix([omega ** (k * n) / root for n in range(N)]) for k in range(N)]
    # m_ij = (exp(i phi_ij) |a_i> + |a'_j>) / sqrt(C), phi_ij = 2 pi i j / N; 1/C is applied to |m><m|
    inverse_C = sp.radsimp(1 / (2 * (1 + 1 / root)))
    m = [[omega ** (i * j) * a[i] + a_prime[j] for j in range(N)] for i in range(N)]
    layout, c = loop_layout(N), loop_coefficients(N)

    W = sp.zeros(N * N, N * N)
    for x, alice in enumerate((a, a_prime)):
        for u in range(N):
            bob = sp.zeros(N, N)
            for v in range(N):
                for j in range(N):
                    bob += int(c[x, u, v, j]) * inverse_C * outer(m[layout[v, j, 0]][layout[v, j, 1]])
            W += sp.kronecker_product(outer(alice[u]), bob)

    alpha, beta = closed_form_coefficients(N)
    P_Z = sum((outer(sp.kronecker_product(k, k)) for k in a), sp.zeros(N * N, N * N))
    P_X = sum((outer(sp.kronecker_product(a_prime[u], a_prime[-u % N])) for u in range(N)), sp.zeros(N * N, N * N))
    residual = W - alpha * sp.eye(N * N) - beta * (P_Z + P_X)
    assert residual.applyfunc(lambda z: sp.expand(sp.expand_complex(z))) == sp.zeros(N * N, N * N)


@pytest.mark.parametrize("N", (2, 3, 4, 5))
def test_threshold_closed_forms_are_exact(N):
    alpha, beta = closed_form_coefficients(N)
    root = sp.sqrt(N)
    # B_sigma = Tr(W sigma).  White noise 1/N^2 sees Tr P_Z = Tr P_X = N; each
    # |kk> of the closest separable state has weight 1 in P_Z and 1/N in P_X.
    noise_value = {
        "uncolored": alpha + 2 * beta / N,
        "closest_separable": alpha + beta * (1 + sp.Rational(1, N)),
    }
    closed_form = {
        "uncolored": (N - 1) / (N + root - 2),
        "closest_separable": (N - root) / (N + root - 2),
    }
    for kind, b_sigma in noise_value.items():
        assert quantum_value(mixed_state(NoiseFamily(kind, N, 0.0)), N) == pytest.approx(float(b_sigma), abs=1e-12)
        # lam |psi><psi| + (1 - lam) sigma reaches B_N = 2 at lam* = (2 - B_sigma) / (2 sqrt(N) - B_sigma)
        threshold = (2 - b_sigma) / (2 * root - b_sigma)
        assert sp.expand(sp.radsimp(threshold - closed_form[kind])) == 0
        assert threshold_closed_form(kind, N) == pytest.approx(float(closed_form[kind]), rel=1e-15)
