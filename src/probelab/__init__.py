"""probelab: quantum-limited single-parameter estimation with a fixed readout.

A numerical laboratory for probes built from qubits: constructs symmetric
logarithmic derivative operators, computes classical and quantum Fisher
information, solves for probe states that attain the quantum uncertainty
bound under a fixed per-qubit projective readout, and verifies the resulting
uncertainty scaling by Monte Carlo simulation.

The names below are re-exported lazily (PEP 562): ``probelab.<name>`` imports
its submodule on first use and reads the name there on every access, so
importing the package loads no submodule, and a patched submodule attribute
is what the package returns.
"""

import importlib

__version__ = "0.1.0"

#: The public names of each submodule, re-exported by the package.
_EXPORTS = {
    "dynamics": (
        "ENTANGLING", "NONENTANGLING", "Generator", "ReadoutBasis", "entangling_generator",
        "evolve", "nonentangling_generator", "product_pm_readout", "state_derivative",
    ),
    "errors": (
        "ConfigError", "DegenerateModelError", "DimensionError", "ProbeLabError",
        "PSDViolationError", "SingularOutcomeError", "SLDInconsistencyError",
        "UndefinedLambdaError", "UnsupportedClosedFormError", "ValidationError",
    ),
    "fisher": (
        "Analysis", "LambdaSpectrum", "SaturationReport", "SLDResult", "analyze",
        "check_saturation", "classical_fisher", "cramer_rao_bound", "lambda_spectrum",
        "quantum_fisher", "sld_from_spectrum", "sld_from_state",
    ),
    "montecarlo": (
        "EstimationResult", "MeasurementModel", "log_likelihood", "mle_estimate",
        "sample_readout", "scaling_experiment", "uncertainty_run",
    ),
    "operators": (
        "HermitianEigen", "MAX_QUBITS", "Tolerances", "anticommutator", "commutator",
        "hermitian_eigen", "inverse_pauli_transform", "pauli_dense", "pauli_expand",
        "pauli_labels", "pauli_matrix", "pauli_terms_dense", "pauli_transform",
    ),
    "solver": (
        "SearchConfig", "SearchResult", "Solution", "search_optimal_state",
        "solve_lambdas_given_state",
    ),
    "states": (
        "BlochCoefficients", "DensityMatrix", "cat_state", "density_matrix", "from_bloch",
        "optimal_single_qubit", "pure_state", "random_mixed_state", "random_pure_state",
        "tensor_power", "two_qubit_entangling_candidate",
    ),
    "verify": (
        "CheckResult", "CoefficientSystem", "ParityReport", "closed_form_solution",
        "dense_two_qubit_residuals", "evaluate_two_qubit_system", "k_values_from_inv_lambdas",
        "run_golden_suite", "sol1_residual", "two_qubit_system", "verify_parity_obstruction",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:  # the submodule itself; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
