"""Spectral certification of the quantum maximum, in closed form.

For fixed settings the largest quantum value over all states is the top
eigenvalue of W = alpha 1 + beta (P_Z + P_X), which functional derives: it is
alpha + 2 beta = 2*sqrt(N), on the maximally entangled state psi alone, with
gap beta.  So no eigensolve runs here; the tests check this spectrum against
eigh of a W built independently from the coefficients and Bob's states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functional import bell_setup, max_entangled_state, quantum_value
from .linalg import ATOL_EIGEN, projector, schmidt_spectrum


@dataclass(frozen=True)
class SpectralReport:
    """Top of the Bell-operator spectrum and the entanglement of its eigenvector."""

    dim: int
    max_eigenvalue: float
    gap: float
    top_state: np.ndarray
    schmidt: np.ndarray
    entropy: float


def entanglement_entropy(schmidt: np.ndarray) -> float:
    """Von Neumann entropy -sum s ln s of a squared-Schmidt spectrum."""
    s = schmidt[schmidt > 1e-15]
    return float(-np.sum(s * np.log(s)))


def analyze(N: int) -> SpectralReport:
    """Closed-form top of the Bell-operator spectrum for dimension N."""
    setup = bell_setup(N)
    top_state = max_entangled_state(N)
    schmidt = schmidt_spectrum(top_state, N)
    return SpectralReport(
        dim=setup.dim,
        max_eigenvalue=setup.alpha + 2.0 * setup.beta,
        gap=setup.beta,
        top_state=top_state,
        schmidt=schmidt,
        entropy=entanglement_entropy(schmidt),
    )


def verify_max_entangled_optimality(N: int) -> tuple[float, bool]:
    """B_N of the maximally entangled state, and whether it meets the spectral maximum."""
    setup = bell_setup(N)
    achieved = quantum_value(projector(max_entangled_state(N)), N)
    return achieved, abs(achieved - (setup.alpha + 2.0 * setup.beta)) < ATOL_EIGEN
