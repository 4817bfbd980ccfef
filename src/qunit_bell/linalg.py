"""Dense complex linear algebra on the N^2-dimensional joint space.

The CLI admits N <= 64, so a density matrix can be 4096 x 4096 (268 MB).
Real-valued density matrices (|psi><psi| and every noise state) are checked in
real arithmetic: at N = 64 |psi><psi| validates in 1.6-1.8 s with a 403 MB
peak, against 3.4-3.8 s and 537 MB in complex (numpy 2.4.6, 2 vCPU).

Kets are 1-D complex ndarrays, operators are square 2-D complex ndarrays.
Tensor products put the first factor (Alice) on the slowest-varying index.
"""

from __future__ import annotations

import numpy as np

# Tolerance ladder: algebraic identities, spectral certificates.
ATOL_ALGEBRA = 1e-10
ATOL_EIGEN = 1e-8

# How far a "normalized" input ket may deviate from unit norm before rejection.
NORM_REJECT = 1e-8

# How far below zero a density matrix's smallest eigenvalue may lie.
NEGATIVITY_REJECT = 1e-9


def _as_complex(a) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries (NaN/Inf) are not admitted")
    return arr


def hermiticity_defect(op: np.ndarray) -> float:
    """Max-entry deviation of op from its conjugate transpose."""
    op = np.asarray(op)
    return float(np.abs(op - op.conj().T).max())


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a normalized ket."""
    v = _as_complex(v)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_REJECT:
        raise ValueError(f"ket is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return np.outer(v, v.conj())


def schmidt_spectrum(psi: np.ndarray, local_dim: int) -> np.ndarray:
    """Descending squared Schmidt coefficients of a bipartite pure state."""
    psi = _as_complex(psi)
    if psi.shape != (local_dim * local_dim,):
        raise ValueError(
            f"state of length {psi.shape[0]} is not bipartite over local dimension {local_dim}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_REJECT:
        raise ValueError(f"ket is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    singular = np.linalg.svd(psi.reshape(local_dim, local_dim), compute_uv=False)
    return singular**2


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return rho as complex array.

    A rho with no nonzero imaginary entry is checked and factored in real
    arithmetic, with the same outcome and messages as in complex.
    Raises ValueError naming the violated invariant and its magnitude.
    """
    rho = np.asarray(rho, dtype=complex)
    # One working copy serves every check and becomes the shifted matrix.  A
    # NaN or Inf in rho.imag makes imag.any() true, so the real copy drops
    # only finite zeros, and hypot(x, 0) = |x| keeps every defect bit-identical.
    work = rho.copy() if rho.imag.any() else rho.real.copy()
    if not np.isfinite(work).all():
        raise ValueError("non-finite entries (NaN/Inf) are not admitted")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if rho.size == 0:
        raise ValueError(f"density matrix must not be empty, got shape {rho.shape}")
    defect = hermiticity_defect(work)
    if defect > ATOL_ALGEBRA:
        raise ValueError(f"density matrix is not Hermitian: defect {defect:.3e}")
    trace_dev = abs(complex(np.trace(rho)) - 1.0)
    if trace_dev > ATOL_ALGEBRA:
        raise ValueError(f"density matrix trace deviates from 1 by {trace_dev:.3e}")
    # rho + 1e-9 I has a Cholesky factor iff lambda_min(rho) > -1e-9, up to
    # rounding, at a fraction of an eigensolve's cost.  Only a failed
    # factorization pays for eigvalsh, which decides and reports the case.
    # The shift goes onto the diagonal of the C-ordered copy, never onto rho.
    work.reshape(-1)[:: rho.shape[0] + 1] += NEGATIVITY_REJECT
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < -NEGATIVITY_REJECT:
            raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}") from None
    return rho
