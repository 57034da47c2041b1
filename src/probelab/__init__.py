"""probelab: quantum-limited single-parameter estimation with a fixed readout.

A numerical laboratory for probes built from qubits: constructs symmetric
logarithmic derivative operators, computes classical and quantum Fisher
information, solves for probe states that attain the quantum uncertainty
bound under a fixed per-qubit projective readout, and verifies the resulting
uncertainty scaling by Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .dynamics import (
    ENTANGLING,
    NONENTANGLING,
    Generator,
    ReadoutBasis,
    entangling_generator,
    evolve,
    nonentangling_generator,
    product_pm_readout,
    state_derivative,
)
from .errors import (
    ConfigError,
    DegenerateModelError,
    DimensionError,
    ProbeLabError,
    PSDViolationError,
    SingularOutcomeError,
    SLDInconsistencyError,
    UndefinedLambdaError,
    UnsupportedClosedFormError,
    ValidationError,
)
from .fisher import (
    Analysis,
    LambdaSpectrum,
    SaturationReport,
    SLDResult,
    analyze,
    check_saturation,
    classical_fisher,
    cramer_rao_bound,
    lambda_spectrum,
    quantum_fisher,
    sld_from_spectrum,
    sld_from_state,
)
from .montecarlo import (
    EstimationResult,
    MeasurementModel,
    log_likelihood,
    mle_estimate,
    sample_readout,
    scaling_experiment,
    uncertainty_run,
)
from .operators import (
    HermitianEigen,
    MAX_QUBITS,
    Tolerances,
    anticommutator,
    commutator,
    hermitian_eigen,
    inverse_pauli_transform,
    pauli_dense,
    pauli_expand,
    pauli_labels,
    pauli_matrix,
    pauli_terms_dense,
    pauli_transform,
)
from .solver import (
    SearchConfig,
    SearchResult,
    Solution,
    search_optimal_state,
    solve_lambdas_given_state,
)
from .states import (
    BlochCoefficients,
    DensityMatrix,
    cat_state,
    density_matrix,
    from_bloch,
    optimal_single_qubit,
    pure_state,
    random_mixed_state,
    random_pure_state,
    tensor_power,
    two_qubit_entangling_candidate,
)
from .verify import (
    CheckResult,
    CoefficientSystem,
    ParityReport,
    closed_form_solution,
    dense_two_qubit_residuals,
    evaluate_two_qubit_system,
    k_values_from_inv_lambdas,
    run_golden_suite,
    sol1_residual,
    two_qubit_system,
    verify_parity_obstruction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
