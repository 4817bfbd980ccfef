"""The two mutually unbiased bases and their intermediate states.

The A basis is the computational basis, the A' basis its discrete Fourier
transform.  For every pair (a_i, a'_j) there is one intermediate (Breidbart)
state m_ij lying exactly between the two: it identifies either with the same
probability 1/2 + 1/(2*sqrt(N)).  The N^2 scaled projectors (1/N)|m_ij><m_ij|
sum to the identity, so the family is a POVM.
"""

from __future__ import annotations

import operator

import numpy as np


def _check_int(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None


def _check_dim(N: int) -> int:
    n = _check_int(N, "local dimension")
    if n < 2:  # quote N itself, so a bool reads True rather than 1
        raise ValueError(f"local dimension must be at least 2, got {N}")
    return n


def computational_basis(N: int) -> np.ndarray:
    """The N standard unit vectors, as rows."""
    N = _check_dim(N)
    return np.eye(N, dtype=complex)


def fourier_basis(N: int) -> np.ndarray:
    """Rows a'_k with amplitudes exp(2*pi*i*k*n/N)/sqrt(N) at position n."""
    N = _check_dim(N)
    k = np.arange(N)
    return np.exp(2j * np.pi * np.outer(k, k) / N) / np.sqrt(N)


def normalization_constant(N: int) -> float:
    """Squared norm C = 2*(1 + 1/sqrt(N)) of exp(i*phi_ij)|a_i> + |a'_j>."""
    N = _check_dim(N)
    return 2.0 * (1.0 + 1.0 / np.sqrt(N))


def overlap_phases(N: int) -> np.ndarray:
    """(N, N) array of phi_ij = 2*pi*i*j/N, the argument of the overlap <a_i|a'_j>."""
    N = _check_dim(N)
    k = np.arange(N)
    return 2.0 * np.pi * k[:, None] * k[None, :] / N


def intermediate_family(N: int) -> np.ndarray:
    """(N, N, N) array of all N^2 states: entry [i, j] is m_ij = (exp(i*phi_ij)|a_i> + |a'_j>)/sqrt(C).

    The first index refers to the A basis, the second to the A' basis.
    """
    phased = np.exp(1j * overlap_phases(N))[:, :, None] * computational_basis(N)[:, None, :]
    return (phased + fourier_basis(N)[None, :, :]) / np.sqrt(normalization_constant(N))


def povm_defect(states: np.ndarray) -> float:
    """Max-entry deviation of sum_ij (1/N)|m_ij><m_ij| from the identity, for intermediate_family's array."""
    N = states.shape[-1]
    total = np.einsum("ija,ijb->ab", states, states.conj()) / N
    return float(np.abs(total - np.eye(N)).max())
