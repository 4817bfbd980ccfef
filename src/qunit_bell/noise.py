"""Noise robustness: how much mixing the maximally entangled state tolerates.

Two one-parameter families are supported: admixture of white noise (the
maximally mixed state on the joint space) and admixture of the closest
separable state (1/N) sum_i |a_i a_i><a_i a_i|.  The threshold is the mixing
weight at which B_N falls to the classical limit 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bases import _check_dim
from .functional import max_entangled_state, quantum_value

CLASSICAL_BOUND = 2.0

KIND_UNCOLORED = "uncolored"
KIND_CLOSEST_SEPARABLE = "closest_separable"
_KINDS = (KIND_UNCOLORED, KIND_CLOSEST_SEPARABLE)

BISECTION_TOL = 1e-10


@dataclass(frozen=True)
class NoiseFamily:
    """lam * |psi><psi| + (1 - lam) * sigma with sigma picked by `kind`."""

    kind: str
    dim: int
    lam: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {_KINDS}")
        _check_dim(self.dim)
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.lam}")


@lru_cache(maxsize=8)
def _noise_parts(kind: str, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only O(N^2) float64 pieces of the noisy state for (kind, N).

    sigma is diagonal for both kinds, so this holds its diagonal, the flat
    positions in rho.reshape(-1) of the |kk> block where |psi> = (1/sqrt(N))
    sum_k |kk> is nonzero, and |psi><psi| on that block.  No d x d array is
    cached: at N = 64 one takes 134 MB.
    """
    d = N * N
    diag = np.arange(N) * (N + 1)
    if kind == KIND_UNCOLORED:
        sigma_diag = np.full(d, 1.0 / d)
    else:
        sigma_diag = np.zeros(d)
        sigma_diag[diag] = 1.0 / N
    amplitudes = max_entangled_state(N)[diag].real
    positions = diag[:, None] * d + diag
    block = np.outer(amplitudes, amplitudes)
    for array in (sigma_diag, positions, block):
        array.flags.writeable = False
    return sigma_diag, positions, block


def mixed_state(family: NoiseFamily) -> np.ndarray:
    """Density matrix of the noisy state on the N^2-dimensional joint space.

    Both families are real in the computational basis, so rho is float64.
    """
    sigma_diag, positions, block = _noise_parts(family.kind, family.dim)
    d = sigma_diag.shape[0]
    rho = np.zeros((d, d))
    flat = rho.reshape(-1)
    flat[:: d + 1] = (1.0 - family.lam) * sigma_diag
    # |psi><psi| vanishes outside the |kk> block, so adding it there alone
    # gives lam * |psi><psi| + (1 - lam) * sigma bit for bit.
    flat[positions] += family.lam * block
    return rho


def threshold_closed_form(kind: str, N: int) -> float:
    """Mixing weight where B_N = 2, in closed form."""
    N = _check_dim(N)
    if kind == KIND_UNCOLORED:
        return (N - 1) / (N + np.sqrt(N) - 2)
    if kind == KIND_CLOSEST_SEPARABLE:
        return (N - np.sqrt(N)) / (N + np.sqrt(N) - 2)
    raise ValueError(f"unknown noise kind {kind!r}, expected one of {_KINDS}")


def threshold_numeric(kind: str, N: int) -> float:
    """Mixing weight where B_N = 2, by bisection through the full pipeline.

    B_N is affine in the mixing weight, so the root is unique whenever the
    pure state violates the bound and the pure noise does not.
    """
    N = _check_dim(N)

    def excess(lam: float) -> float:
        return quantum_value(mixed_state(NoiseFamily(kind, N, lam)), N) - CLASSICAL_BOUND

    lo, hi = 0.0, 1.0
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise ValueError(
            f"no sign change on [0, 1]: B_N(0) - 2 = {f_lo:.3e}, B_N(1) - 2 = {f_hi:.3e}"
        )
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
