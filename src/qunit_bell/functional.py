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
from .linalg import ATOL_EIGEN, projector, validate_density_matrix

SETTING_A = 0
SETTING_A_PRIME = 1


@dataclass(frozen=True)
class BellSetup:
    """What B_N needs at one N, built once by bell_setup; every array is read-only.

    alice[x, u] is Alice's ket u of setting x, bob[v, j] the state in slot
    (v, j), i.e. m_{v,(v+j) mod N}.  coefficients[x, u, v, j] in {+1, -1} weighs
    the click of slot (v, j) given Alice's outcome u in setting x; they are int8
    so deterministic-strategy values stay exact.  B_N = Tr(rho W) = weights . rho.flat[index]
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

    @property
    def max_eigenvalue(self) -> float:
        """W's top eigenvalue alpha + 2 beta = 2 sqrt(N), on psi alone, with gap beta."""
        return self.alpha + 2.0 * self.beta


def build_layout(N: int) -> np.ndarray:
    """(N, N, 2) array mapping slot (value v, group j) to the state index pair (v, (v+j) mod N)."""
    N = _check_dim(N)
    v, j = np.ogrid[:N, :N]
    return np.stack(np.broadcast_arrays(v, (v + j) % N), axis=-1)


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
    assignment = build_layout(N)
    bob = intermediate_family(N).states[assignment[..., 0], assignment[..., 1]]
    u, v, j = np.ogrid[:N, :N, :N]  # +1 on the correlated slot of each (setting, outcome, group)
    correlated = np.stack(np.broadcast_arrays(v == u, v == (-u - j) % N))
    c = correlated.astype(np.int8) * 2 - 1
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


def joint_click_table(rho: np.ndarray, N: int) -> np.ndarray:
    """Born-rule table p[x, u, v, j] = Tr(rho (P_u^x  x  P_m)), Alice's factor first.

    Slots follow build_layout.  Contracting Alice's kets into rho's (N, N, N, N)
    blocks first, then Bob's, takes O(N^5) work.
    """
    setup = bell_setup(N)
    rho = _validated_state(rho, N)
    bob = setup.bob.reshape(N * N, N)  # row s = v*N + j
    # rows[x, u, b, c, d] = sum_a conj(alice[x, u, a]) rho[(a, b), (c, d)]
    rows = (setup.alice.conj() @ rho.reshape(N, N**3)).reshape(2, N, N, N, N)
    conditional = np.einsum("xubcd,xuc->xubd", rows, setup.alice)  # Bob's state given (x, u)
    probs = np.einsum("sb,xubs->xus", bob.conj(), conditional @ bob.T).real
    return probs.reshape(2, N, N, N)


def quantum_value(rho: np.ndarray, N: int) -> float:
    """B_N = Tr(rho W) = alpha Tr(rho) + beta (S_Z + S_X) of a (possibly mixed) state."""
    N = _check_dim(N)
    rho = _validated_state(rho, N)
    setup = bell_setup(N)
    # contiguous for either dtype, so float64 and complex128 rho sum in the same order
    return float(setup.weights @ np.ascontiguousarray(rho.ravel()[setup.index].real))


def bell_operator(N: int) -> np.ndarray:
    """W = alpha 1 + beta (P_Z + P_X) as a new dense array: B_N(rho) = Tr(rho W)."""
    setup = bell_setup(_check_dim(N))
    d = setup.dim**2
    return np.bincount(setup.index, setup.weights, minlength=d * d).astype(complex).reshape(d, d)


@dataclass(frozen=True)
class SpectralReport:
    """Top of W's spectrum and the entanglement of its eigenvector psi."""

    dim: int
    max_eigenvalue: float
    gap: float
    top_state: np.ndarray
    schmidt: np.ndarray
    entropy: float


def analyze(N: int) -> SpectralReport:
    """The top of W's spectrum in closed form; psi's squared Schmidt coefficients are all 1/N.

    No eigensolve runs here: the tests diagonalize a W built term by term.
    """
    setup = bell_setup(N)
    return SpectralReport(
        dim=setup.dim,
        max_eigenvalue=setup.max_eigenvalue,
        gap=setup.beta,
        top_state=max_entangled_state(N),
        schmidt=np.full(N, 1.0 / N),
        entropy=float(np.log(N)),
    )


def verify_max_entangled_optimality(N: int) -> tuple[float, bool]:
    """B_N of the maximally entangled state, and whether it meets W's top eigenvalue."""
    setup = bell_setup(N)
    achieved = quantum_value(projector(max_entangled_state(N)), N)
    return achieved, abs(achieved - setup.max_eigenvalue) < ATOL_EIGEN
