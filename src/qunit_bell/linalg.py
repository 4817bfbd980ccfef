"""Dense linear algebra on the N^2-dimensional joint space.

The CLI admits N <= 64, so a density matrix can be 4096 x 4096 (268 MB in
complex128, 134 MB in float64).  validate_density_matrix keeps real input
float64 (every noise state is) and returns complex input as complex128; a
density matrix with no nonzero imaginary entry (|psi><psi| and every noise
state) is checked in real arithmetic on one float64 copy plus one temporary.
At N = 64 |psi><psi| validates in 1.4-1.5 s with a 269 MB tracemalloc peak
(numpy 2.4.6, 2 vCPU).

Kets are 1-D complex ndarrays, operators are square 2-D complex ndarrays.
Tensor products put the first factor (Alice) on the slowest-varying index.
Since Tr |psi><psi| = <psi|psi>, a ket obeys a density matrix's trace rule:
projector refuses |<psi|psi> - 1| > ATOL_ALGEBRA.
"""

from __future__ import annotations

import numpy as np

# Tolerance ladder: algebraic identities, spectral certificates.
ATOL_ALGEBRA = 1e-10
ATOL_EIGEN = 1e-8

# How far below zero a density matrix's smallest eigenvalue may lie.
NEGATIVITY_REJECT = 1e-9


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries (NaN/Inf) are not admitted")
    return arr


def hermiticity_defect(op: np.ndarray) -> float:
    """Max-entry deviation of op from its conjugate transpose, with one d x d temporary.

    A NaN or Inf anywhere in op makes the defect NaN or Inf (Inf - Inf is NaN).
    """
    op = np.asarray(op)
    if np.iscomplexobj(op):
        diff = op.conj().T  # the one temporary; the difference overwrites it
        np.subtract(op, diff, out=diff)
    else:
        diff = op - op.T
    return float(np.abs(diff, out=diff).real.max())


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of v flattened, as complex128.

    ValueError if |<v|v> - 1| > ATOL_ALGEBRA, then if v is not finite.  Summed
    over real and imaginary parts, <v|v> of an Inf entry is inf (np.vdot gives NaN).
    """
    v = np.asarray(v, dtype=complex).ravel()
    with np.errstate(over="ignore"):
        deviation = abs(float(v.real @ v.real + v.imag @ v.imag) - 1.0)
    if deviation > ATOL_ALGEBRA:
        raise ValueError(f"ket norm deviates from 1 by {deviation:.3e}")
    v = _check_finite(v)
    return np.outer(v, v.conj())


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return rho as float64 or complex128.

    Real input (bool, integer or floating) comes back as float64 and any other
    as complex128; an array that already has that dtype comes back as itself.
    A rho with no nonzero imaginary entry is checked and factored in real
    arithmetic, with the same outcome and messages as in complex.
    Raises ValueError naming the violated invariant and its magnitude.
    """
    rho = np.asarray(rho)
    rho = np.asarray(rho, dtype=float if rho.dtype.kind in "biuf" else complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        _check_finite(rho)
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if rho.size == 0:
        raise ValueError(f"density matrix must not be empty, got shape {rho.shape}")
    # One working copy serves the Hermiticity check and becomes the shifted
    # matrix.  A NaN or Inf in rho.imag makes imag.any() true, so the real copy
    # drops only finite zeros, and hypot(x, 0) = |x| keeps every defect
    # bit-identical.
    work = rho.copy() if rho.dtype == complex and rho.imag.any() else rho.real.copy()
    # A non-finite entry makes the defect non-finite, which fails `<=`; only
    # then does isfinite run, to tell the two messages apart.
    defect = hermiticity_defect(work)
    if not defect <= ATOL_ALGEBRA:
        _check_finite(rho)
        raise ValueError(f"density matrix is not Hermitian: defect {defect:.3e}")
    trace_dev = abs(complex(rho.trace()) - 1.0)
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
