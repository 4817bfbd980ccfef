"""The Bell functional B_N over two von Neumann settings and N^2 binary clicks.

Alice measures one of two mutually unbiased bases, A (computational) or A'
(Fourier).  Bob measures one of N^2 binary projectors onto the intermediate
states m_ij.  The states are organized into N groups M_0..M_{N-1} of N states
each: group j holds, at value v, the state m_{v,(v+j) mod N}.  Every group
therefore contains each first index and each second index exactly once.

B_N sums the joint "click" probabilities over all 2N (Alice setting, group)
combinations, counting a click as +1 when it identifies Bob's correlated state
and -1 otherwise:

  - Setting A, Alice outcome u: the correct group-j state is the one with
    first index u, i.e. value v = u.
  - Setting A', Alice outcome u: the shared state correlates Bob with the
    Fourier state of label (N-u) mod N, so the correct group-j state is the
    one with second index (N-u) mod N, i.e. value v = (-u-j) mod N.
    Equivalently, within group j the clicking value reads N-j higher
    (mod N) than the value of Bob's correlated state.

For the maximally entangled state each combination contributes exactly
1/sqrt(N), giving the quantum value 2*sqrt(N); local deterministic models
cannot exceed 2.  At N=2 this is the CHSH inequality.

W in closed form.  B_N(rho) = Tr(rho W), W = sum_xu |a^x_u><a^x_u| x B^x_u.
The (1/N)|m_vj><m_vj| are a POVM, so B^x_u = sum_vj c[x,u,v,j] |m_vj><m_vj|
= 2 Q^x_u - N 1, where Q^x_u sums the N slots with c = +1.  Those of A are
m_ul, l = 0..N-1, and sum_l exp(i phi_ul) <a'_l| = sqrt(N) <a_u| gives
Q^A_u = [(N + 2 sqrt(N)) |a_u><a_u| + 1]/C, C = 2(1 + 1/sqrt(N)); Q^A'_u
has the same form with a'_{-u}.  So W = alpha 1 + beta (P_Z + P_X) with
alpha = 2 sqrt(N)/(sqrt(N) + 1) - 2N, beta = N (sqrt(N) + 2)/(sqrt(N) + 1),
P_Z = sum_a |aa><aa| and P_X = sum_u |a'_u a'_{-u}><.| = sum_k |Phi_k0><Phi_k0|,
Phi_k0 = (X^k x 1) psi (Bell basis: Bennett et al., PRL 70, 1895 (1993)).
B_N = alpha Tr(rho) + beta (S_Z + S_X) reads N^2 + N + N^3 entries of rho:
S_Z = Tr(rho P_Z) is the probability of equal outcomes in A, S_X = (1/N)
sum_kab rho[(a+k, a), (b+k, b)] that of opposite labels in A'.  P_Z and P_X
span the Phi_0l and the Phi_k0, so W has eigenvalues alpha + 2 beta = 2 sqrt(N)
(on psi = Phi_00 alone), alpha + beta (2(N-1) times) and alpha ((N-1)^2 times).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bases import _check_dim, computational_basis, fourier_basis, intermediate_family
from .linalg import validate_density_matrix

SETTING_A = 0
SETTING_A_PRIME = 1


@dataclass(frozen=True)
class ValueLayout:
    """Assignment of intermediate states to (value, group) slots.

    assignment[v, j] holds the index pair (i, l) of the state m_il sitting
    at value v of group M_j, namely (v, (v+j) mod N).
    """

    dim: int
    assignment: np.ndarray

    def state_index(self, value: int, group: int) -> tuple[int, int]:
        i, l = self.assignment[value, group]
        return int(i), int(l)


@dataclass(frozen=True)
class BellFunctional:
    """Signed coefficients c[x, u, v, j] in {+1, -1}.

    x is Alice's setting (0 = A, 1 = A'), u her outcome, and (v, j) names
    Bob's binary measurement by its slot in the value layout.  Coefficients
    are stored as integers so deterministic-strategy values stay exact.
    """

    dim: int
    coefficients: np.ndarray


@dataclass(frozen=True)
class JointClickTable:
    """Joint probabilities p[x, u, v, j] of Alice outcome u and a Bob click."""

    dim: int
    probabilities: np.ndarray


@dataclass(frozen=True)
class BellSetup:
    """What B_N needs at one N, built once by bell_setup; every array is read-only.

    alice[x, u] is Alice's ket u of setting x, bob[v, j] the state in slot
    (v, j), i.e. m_{v,(v+j) mod N}.  B_N = Tr(rho W) = weights . rho.flat[index]
    over the N^2 diagonal entries (weight alpha), the N entries S_Z reads (beta)
    and the N^3 S_X reads (beta/N).
    """

    dim: int
    alice: np.ndarray
    bob: np.ndarray
    coefficients: np.ndarray
    alpha: float
    beta: float
    index: np.ndarray
    weights: np.ndarray


def build_layout(N: int) -> ValueLayout:
    """Map slot (value v, group j) to the state index pair (v, (v+j) mod N)."""
    N = _check_dim(N)
    v, j = np.ogrid[:N, :N]
    return ValueLayout(N, np.stack(np.broadcast_arrays(v, (v + j) % N), axis=-1))


def build_functional(N: int) -> BellFunctional:
    """Coefficients +1 on the correlated slot of each (setting, outcome, group)."""
    N = _check_dim(N)
    u, v, j = np.ogrid[:N, :N, :N]
    correlated = np.stack(np.broadcast_arrays(v == u, v == (-u - j) % N))
    return BellFunctional(N, correlated.astype(np.int8) * 2 - 1)


def max_entangled_state(N: int) -> np.ndarray:
    """(1/sqrt(N)) sum_k |a_k> x |a_k>; in the A' bases it pairs label l with (N-l) mod N."""
    N = _check_dim(N)
    psi = np.zeros(N * N, dtype=complex)
    psi[np.arange(N) * (N + 1)] = 1.0 / np.sqrt(N)
    return psi


@lru_cache(maxsize=8)
def bell_setup(N: int) -> BellSetup:
    """Setup for N, with W = alpha 1 + beta (P_Z + P_X) kept as alpha, beta and a gather."""
    N = _check_dim(N)
    alice = np.stack([computational_basis(N), fourier_basis(N)])
    assignment = build_layout(N).assignment
    bob = intermediate_family(N).states[assignment[..., 0], assignment[..., 1]]
    c = build_functional(N).coefficients
    root = np.sqrt(N)
    alpha = 2.0 * root / (root + 1.0) - 2.0 * N
    beta = N * (root + 2.0) / (root + 1.0)
    d = N * N
    k, a, b = np.ogrid[:N, :N, :N]
    s_x = (((a + k) % N) * N + a) * d + ((b + k) % N) * N + b  # rho[(a+k, a), (b+k, b)]
    diagonal = np.arange(d) * (d + 1)
    index = np.concatenate([diagonal, diagonal[:: N + 1], s_x.ravel()])
    weights = np.repeat([alpha, beta, beta / N], [d, N, N**3])
    for array in (alice, bob, c, index, weights):
        array.flags.writeable = False
    return BellSetup(N, alice, bob, c, float(alpha), float(beta), index, weights)


def _validated_state(rho: np.ndarray, N: int) -> np.ndarray:
    rho = validate_density_matrix(rho)
    if rho.shape != (N * N, N * N):
        raise ValueError(
            f"state has dimension {rho.shape[0]}, expected {N * N} for local dimension {N}"
        )
    return rho


def joint_click_table(rho: np.ndarray, layout: ValueLayout) -> JointClickTable:
    """Born-rule table p[x, u, v, j] = Tr(rho (P_u^x  x  P_m)), Alice's factor first.

    Slots follow build_layout.  Contracting Alice's kets into rho's (N, N, N, N)
    blocks first, then Bob's, takes O(N^5) work.
    """
    N = layout.dim
    setup = bell_setup(N)
    rho = _validated_state(rho, N)
    bob = setup.bob.reshape(N * N, N)  # row s = v*N + j
    # rows[x, u, b, c, d] = sum_a conj(alice[x, u, a]) rho[(a, b), (c, d)]
    rows = (setup.alice.conj() @ rho.reshape(N, N**3)).reshape(2, N, N, N, N)
    conditional = np.einsum("xubcd,xuc->xubd", rows, setup.alice)  # Bob's state given (x, u)
    probs = np.einsum("sb,xubs->xus", bob.conj(), conditional @ bob.T).real
    return JointClickTable(N, probs.reshape(2, N, N, N))


def evaluate(functional: BellFunctional, table: JointClickTable) -> float:
    """Signed sum of joint click probabilities."""
    if functional.dim != table.dim:
        raise ValueError(
            f"dimension mismatch: functional {functional.dim} vs table {table.dim}"
        )
    return float(np.sum(functional.coefficients * table.probabilities))


def quantum_value(rho: np.ndarray, N: int) -> float:
    """B_N = Tr(rho W) = alpha Tr(rho) + beta (S_Z + S_X) of a (possibly mixed) state."""
    N = _check_dim(N)
    rho = _validated_state(rho, N)
    setup = bell_setup(N)
    return float(setup.weights @ rho.ravel()[setup.index].real)


def bell_operator(N: int) -> np.ndarray:
    """W = alpha 1 + beta (P_Z + P_X) as a new dense array: B_N(rho) = Tr(rho W)."""
    setup = bell_setup(_check_dim(N))
    d = setup.dim**2
    return np.bincount(setup.index, setup.weights, minlength=d * d).astype(complex).reshape(d, d)
