"""Bell inequality B_N for two quNits with N^2 binary intermediate-state measurements.

Each name below is loaded from its module on first use, so importing the
package alone does not load numpy; the command line sets OpenBLAS up first.
"""

import importlib

_EXPORTS = {
    "bases": ("computational_basis", "fourier_basis", "intermediate_family", "normalization_constant",
              "overlap_phases", "povm_defect"),
    "functional": ("BellSetup", "SpectralReport", "analyze", "bell_operator", "bell_setup", "build_layout",
                   "joint_click_table", "max_entangled_state", "quantum_value", "verify_max_entangled_optimality"),
    "lhv": ("DeterministicStrategy", "bruteforce_bound_with_witness", "classical_bound_with_witness", "strategy_value"),
    "linalg": ("projector", "validate_density_matrix"),
    "montecarlo": ("ExperimentPlan", "ExperimentResult", "run"),
    "noise": ("mixed_state", "threshold_closed_form", "threshold_numeric"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, so `import qunit_bell; qunit_bell.noise` works
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
