"""Noise robustness: how much mixing the maximally entangled state tolerates.

The noisy state is lam |psi><psi| + (1 - lam) sigma, with sigma white noise
(the maximally mixed state on the joint space) or the closest separable state
(1/N) sum_i |a_i a_i><a_i a_i|.  The threshold is the mixing weight at which
B_N falls to the classical limit 2.  Every function takes (kind, N[, lam]):
kind is KIND_UNCOLORED or KIND_CLOSEST_SEPARABLE, N an integer of at least 2,
and lam a real scalar in [0, 1]; every function checks kind, then N, then lam.

|kk> is basis vector k(N + 1), so |psi><psi| is 1/N on the sub-grid
rho[::N+1, ::N+1] and 0 elsewhere, and both kinds of sigma are diagonal.
"""

from __future__ import annotations

import math

import numpy as np

from .bases import _check_dim
from .functional import quantum_value

CLASSICAL_BOUND = 2.0

KIND_UNCOLORED = "uncolored"
KIND_CLOSEST_SEPARABLE = "closest_separable"
_KINDS = (KIND_UNCOLORED, KIND_CLOSEST_SEPARABLE)

BISECTION_TOL = 1e-10


def _check_kind_and_dim(kind: str, N: int) -> int:
    if kind not in _KINDS:
        raise ValueError(f"unknown noise kind {kind!r}, expected one of {_KINDS}")
    return _check_dim(N)


def mixed_state(kind: str, N: int, lam: float) -> np.ndarray:
    """Noisy state on the N^2-dimensional joint space; lam may be any Python or numpy real, bool included.

    Both kinds are real in the computational basis, so rho is float64, written in two
    strided passes: lam/N onto the |kk> sub-grid, then (1 - lam) sigma onto the diagonal.
    """
    N = _check_kind_and_dim(kind, N)
    real = isinstance(lam, (int, float, np.integer, np.floating, np.bool_))
    if not (real and 0.0 <= lam <= 1.0):
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    d = N * N
    a = np.float64(1.0 / math.sqrt(N))  # float64 scalars promote a float32 lam as before
    rho = np.zeros((d, d))
    rho[:: N + 1, :: N + 1] = lam * (a * a)
    if kind == KIND_UNCOLORED:
        step, weight = d + 1, np.float64(1.0 / d)
    else:
        step, weight = (N + 1) * (d + 1), np.float64(1.0 / N)
    rho.reshape(-1)[::step] += (1.0 - lam) * weight
    return rho


def threshold_closed_form(kind: str, N: int) -> float:
    """Mixing weight where B_N = 2, in closed form."""
    N = _check_kind_and_dim(kind, N)
    numerator = N - 1 if kind == KIND_UNCOLORED else N - np.sqrt(N)
    return numerator / (N + np.sqrt(N) - 2)


def threshold_numeric(kind: str, N: int) -> float:
    """Mixing weight where B_N = 2, by bisection through the full pipeline.

    B_N is affine in the mixing weight, so the root is unique whenever the
    pure state violates the bound and the pure noise does not.
    """
    def excess(lam: float) -> float:
        return quantum_value(mixed_state(kind, N, lam), N) - CLASSICAL_BOUND

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
