"""Exact checks of the Bell operator, in rational and radical arithmetic.

W is built term by term from the paper's definitions, as exact sympy
matrices, and compared with the closed form alpha 1 + beta (P_Z + P_X) that
bell_setup evaluates in floats.  Writing the roots of unity in Cartesian form
(expand_complex) makes every residual entry expand to an exact 0; a general
simplify would take seconds per entry at N = 3.
"""

import pytest

from test_functional import loop_coefficients, loop_layout

sp = pytest.importorskip("sympy")


def outer(k):
    return k * k.H


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

    alpha = sp.radsimp(2 * root / (root + 1) - 2 * N)
    beta = sp.radsimp(N * (root + 2) / (root + 1))
    P_Z = sum((outer(sp.kronecker_product(k, k)) for k in a), sp.zeros(N * N, N * N))
    P_X = sum((outer(sp.kronecker_product(a_prime[u], a_prime[-u % N])) for u in range(N)), sp.zeros(N * N, N * N))
    residual = W - alpha * sp.eye(N * N) - beta * (P_Z + P_X)
    assert residual.applyfunc(lambda z: sp.expand(sp.expand_complex(z))) == sp.zeros(N * N, N * N)
