"""Bell inequality B_N for two quNits with N^2 binary intermediate-state measurements."""

from .bases import (
    IntermediateFamily,
    computational_basis,
    fourier_basis,
    intermediate_family,
    intermediate_state,
    normalization_constant,
    overlap_phase,
    povm_defect,
)
from .functional import (
    BellSetup,
    bell_operator,
    bell_setup,
    build_layout,
    joint_click_table,
    max_entangled_state,
    quantum_value,
)
from .lhv import (
    DeterministicStrategy,
    bruteforce_bound_with_witness,
    greedy_bound_with_witness,
    strategy_value,
)
from .linalg import (
    projector,
    schmidt_spectrum,
    validate_density_matrix,
)
from .montecarlo import ExperimentPlan, ExperimentResult, run
from .noise import NoiseFamily, mixed_state, threshold_closed_form, threshold_numeric
from .spectral import SpectralReport, analyze, verify_max_entangled_optimality

__version__ = "0.1.0"
