"""Exact checks of the Bell operator, in rational and radical arithmetic.

W is built term by term from the paper's definitions, as exact sympy
matrices, and compared with the closed form alpha 1 + beta (P_Z + P_X) that
bell_setup evaluates in floats.  Writing the roots of unity in Cartesian form
(expand_complex) makes every residual entry expand to an exact 0; a general
simplify would take seconds per entry at N = 3.  The noise thresholds follow
from the same alpha and beta; radsimp then expand settles all eight exactly
in about 0.1 s.
"""

import numpy as np
import pytest

from qunit_bell.bases import computational_basis, fourier_basis
from qunit_bell.functional import quantum_value
from qunit_bell.noise import mixed_state, threshold_closed_form
from test_functional import loop_coefficients, loop_layout

try:
    import sympy as sp
except ImportError:  # only the exact tests need it; the LP and the seesaw run without it
    sp = None
needs_sympy = pytest.mark.skipif(sp is None, reason="sympy is not installed")


def outer(k):
    return k * k.H


def closed_form_coefficients(N):
    """alpha and beta of W = alpha 1 + beta (P_Z + P_X), exactly."""
    root = sp.sqrt(N)
    return sp.radsimp(2 * root / (root + 1) - 2 * N), sp.radsimp(N * (root + 2) / (root + 1))


@needs_sympy
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


@needs_sympy
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
        assert quantum_value(mixed_state(kind, N, 0.0), N) == pytest.approx(float(b_sigma), abs=1e-12)
        # lam |psi><psi| + (1 - lam) sigma reaches B_N = 2 at lam* = (2 - B_sigma) / (2 sqrt(N) - B_sigma)
        threshold = (2 - b_sigma) / (2 * root - b_sigma)
        assert sp.expand(sp.radsimp(threshold - closed_form[kind])) == 0
        assert threshold_closed_form(kind, N) == pytest.approx(float(closed_form[kind]), rel=1e-15)


def no_signalling_value(N):
    """Largest B_N over no-signalling boxes P(a, b | x, y), by a linear program.

    Alice has 2 settings with N outcomes, Bob N^2 binary settings y = (v, j) in
    slot order; b = 1 is Bob's click.  Each box is normalized, Alice's marginal
    does not depend on y and Bob's does not depend on x.
    """
    optimize = pytest.importorskip("scipy.optimize")
    Y = N * N
    var = np.arange(2 * N * Y * 2).reshape(2, N, Y, 2)  # P(a, b | x, y) at var[x, a, y, b]
    rows, rhs = [], []

    def equation(plus, minus=None, value=0.0):
        row = np.zeros(var.size)
        row[np.ravel(plus)] = 1.0
        if minus is not None:
            row[np.ravel(minus)] = -1.0
        rows.append(row)
        rhs.append(value)

    for x in range(2):
        for y in range(Y):
            equation(var[x, :, y, :], value=1.0)
    for x in range(2):
        for a in range(N):
            for y in range(1, Y):
                equation(var[x, a, y, :], var[x, a, 0, :])
    for y in range(Y):
        for b in range(2):
            equation(var[0, :, y, b], var[1, :, y, b])
    objective = np.zeros(var.shape)
    objective[..., 1] = loop_coefficients(N).reshape(2, N, Y)
    result = optimize.linprog(
        -objective.ravel(), A_eq=np.array(rows), b_eq=rhs, bounds=(0, None), method="highs"
    )
    assert result.status == 0, result.message
    return -result.fun


@pytest.mark.parametrize("N", range(2, 9))
def test_no_signalling_value_is_2n(N):
    # LHV 2 <= quantum 2 sqrt(N) <= no-signalling 2N; at N = 2 this is the PR box's 4
    assert abs(no_signalling_value(N) - 2 * N) < 1e-9


def seesaw(N, rng, steps=200):
    """Values of a seesaw over the state and Bob's N^2 projectors, Alice's bases fixed.

    Each step is exact (Werner and Wolf, PRA 64, 032112 (2001)): the state
    becomes the top eigenvector of W(Pi) = sum c[x,u,v,j] P^x_u (x) Pi_vj, then
    each Pi_vj becomes the projector onto the positive part of
    R_vj = sum_xu c[x,u,v,j] Tr_A[(P^x_u (x) 1) rho].  Neither can lower B_N.
    """
    alice = np.stack([computational_basis(N), fourier_basis(N)])
    c = loop_coefficients(N)
    alice_proj = np.einsum("xua,xuc->xuac", alice, alice.conj())

    def positive_part(R):
        w, vec = np.linalg.eigh(R)
        return (vec * (w > 0)[..., None, :]) @ vec.conj().swapaxes(-1, -2)

    g = rng.normal(size=(N, N, N, N)) + 1j * rng.normal(size=(N, N, N, N))
    Pi = positive_part(g + g.conj().swapaxes(-1, -2))
    values = []
    for _ in range(steps):
        bob = np.einsum("xuvj,vjbd->xubd", c, Pi)
        W = np.einsum("xuac,xubd->abcd", alice_proj, bob).reshape(N * N, N * N)
        w, vec = np.linalg.eigh(W)
        values.append(w[-1])
        phi = np.einsum("xua,ab->xub", alice.conj(), vec[:, -1].reshape(N, N))
        R = np.einsum("xuvj,xub,xud->vjbd", c, phi, phi.conj())
        Pi = positive_part(R)
        values.append(np.einsum("vjbd,vjdb->", R, Pi).real)
        if len(values) > 2 and values[-1] - values[-3] < 1e-15:
            break
    return np.array(values)


@pytest.mark.parametrize("N", range(2, 6))
def test_seesaw_with_alice_fixed_reaches_exactly_2_sqrt_n(N):
    rng = np.random.default_rng(N)
    best = -np.inf
    for _ in range(20):
        values = seesaw(N, rng)
        assert np.diff(values).min() > -1e-12
        assert values.max() <= 2 * np.sqrt(N) + 1e-9
        best = max(best, values.max())
    assert abs(best - 2 * np.sqrt(N)) < 1e-8
