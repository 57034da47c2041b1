import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import dynamics, fisher, operators, states
from probelab.errors import DimensionError, ProbeLabError, PSDViolationError, ValidationError

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def test_from_bloch_along_y():
    rho = states.from_bloch([0.0, 1.0, 0.0])
    assert np.allclose(rho.matrix, 0.5 * (np.eye(2) + SY))


def test_from_bloch_origin_is_maximally_mixed():
    rho = states.from_bloch([0.0, 0.0, 0.0])
    assert np.allclose(rho.matrix, 0.5 * np.eye(2))


def test_from_bloch_rejects_vector_outside_ball():
    with pytest.raises(PSDViolationError) as err:
        states.from_bloch([0.0, 1.0, 0.5])
    # offending eigenvalue is (1 - |a|)/2
    expected = 0.5 * (1.0 - np.sqrt(1.25))
    assert abs(err.value.min_eigenvalue - expected) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_from_bloch_single_qubit_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, 3)
    a *= rng.uniform(0.0, 0.999) / np.linalg.norm(a)
    rho = states.from_bloch(a)
    r = np.linalg.norm(a)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(rho.matrix)), [(1 - r) / 2, (1 + r) / 2], atol=1e-12
    )


def test_optimal_single_qubit_states():
    plus = states.optimal_single_qubit(+1)
    minus = states.optimal_single_qubit(-1)
    assert np.allclose(plus.matrix, 0.5 * (np.eye(2) + SY))
    assert np.allclose(minus.matrix, 0.5 * (np.eye(2) - SY))
    assert abs(plus.purity() - 1.0) < 1e-10
    assert abs(minus.purity() - 1.0) < 1e-10
    # eigenvector of the + state is (|0> + i|1>)/sqrt(2)
    values, vectors = np.linalg.eigh(plus.matrix)
    ket_i = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert abs(abs(np.vdot(vectors[:, -1], ket_i)) - 1.0) < 1e-12


def test_purity_and_pauli_coefficients_keep_no_matrix():
    # a report entry reads both from a state built from its ket; the d x d
    # matrix they need is built for the call and not kept on the state
    state = states.tensor_power(states.optimal_single_qubit(1), 3)
    purity, coefficients = state.purity(), state.pauli_coefficients()
    assert "matrix" not in vars(state)
    assert purity == float(np.vdot(state.matrix, state.matrix).real)
    assert coefficients == operators.pauli_expand(state.matrix)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), pure=st.booleans())
def test_purity_is_the_trace_of_the_square(n, seed, pure):
    rng = np.random.default_rng(seed)
    rho = states.random_pure_state(n, rng) if pure else states.random_mixed_state(n, rng)
    purity = rho.purity()
    assert type(purity) is float
    assert abs(purity - np.trace(rho.matrix @ rho.matrix).real) <= 1e-12


def test_optimal_single_qubit_rejects_bad_sign():
    with pytest.raises(ValidationError):
        states.optimal_single_qubit(2)


def test_tensor_power_expansion():
    rho2 = states.tensor_power(states.optimal_single_qubit(+1), 2)
    terms = rho2.pauli_coefficients()
    assert terms == pytest.approx({"II": 0.25, "YI": 0.25, "IY": 0.25, "YY": 0.25})


def test_tensor_power_identity_case():
    rho = states.optimal_single_qubit(+1)
    assert np.array_equal(states.tensor_power(rho, 1).matrix, rho.matrix)


def test_tensor_power_purity_multiplicative():
    rho = states.from_bloch([0.3, 0.2, -0.4])
    squared = states.tensor_power(rho, 2)
    assert abs(squared.purity() - rho.purity() ** 2) < 1e-12


def test_tensor_power_coefficients_factorize():
    rho = states.from_bloch([0.3, 0.2, -0.4])
    single = rho.pauli_coefficients(drop_tol=0.0)
    double = states.tensor_power(rho, 2).pauli_coefficients(drop_tol=0.0)
    for p, cp in single.items():
        for q, cq in single.items():
            assert abs(double[p + q] - cp * cq) < 1e-12


def test_tensor_power_cap():
    with pytest.raises(DimensionError):
        states.tensor_power(states.optimal_single_qubit(+1), 11)


def test_cat_state_matrix_entries():
    cat = states.cat_state(2, +1)
    m = cat.matrix
    for idx in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert abs(m[idx] - 0.5) < 1e-12
    assert abs(cat.purity() - 1.0) < 1e-12


def test_cat_state_pauli_signs_follow_ket():
    # computed from the ket definition; the + superposition has YY = -1
    plus = states.cat_state(2, +1).pauli_coefficients()
    minus = states.cat_state(2, -1).pauli_coefficients()
    assert plus == pytest.approx({"II": 0.25, "XX": 0.25, "YY": -0.25, "ZZ": 0.25})
    assert minus == pytest.approx({"II": 0.25, "XX": -0.25, "YY": 0.25, "ZZ": 0.25})


def test_cat_state_needs_two_qubits():
    with pytest.raises(ValidationError):
        states.cat_state(1)


def test_two_qubit_entangling_candidate():
    pure = states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    assert abs(pure.purity() - 1.0) < 1e-10
    mixed = states.two_qubit_entangling_candidate(0.0, 0.0, 0.0)
    assert np.allclose(mixed.matrix, np.eye(4) / 4.0)
    flipped = states.two_qubit_entangling_candidate(1.0, -1.0, -1.0)
    assert abs(flipped.purity() - 1.0) < 1e-10
    with pytest.raises(PSDViolationError):
        states.two_qubit_entangling_candidate(2.0, 0.0, 0.0)


def test_random_pure_state_deterministic():
    a = states.random_pure_state(2, seed=99)
    b = states.random_pure_state(2, seed=99)
    assert np.array_equal(a.matrix, b.matrix)
    assert abs(np.trace(a.matrix) - 1.0) < 1e-12


def test_random_pure_states_have_unit_bloch_length():
    lengths = []
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        rho = states.random_pure_state(1, rng)
        lengths.append(np.linalg.norm(states.BlochCoefficients.from_state(rho).a))
    assert abs(np.mean(lengths) - 1.0) < 1e-10


def test_bloch_coefficients_round_trip_two_qubits():
    rng = np.random.default_rng(5)
    rho = states.random_mixed_state(2, rng)
    coeffs = states.BlochCoefficients.from_state(rho)
    rebuilt = states.hermitian_from_bloch(coeffs)
    assert np.allclose(rebuilt, rho.matrix, atol=1e-10)


def test_density_matrix_rejects_bad_trace_and_non_hermitian():
    with pytest.raises(ValidationError):
        states.density_matrix(np.eye(2))
    with pytest.raises(ValidationError):
        states.density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]
)
def test_pure_state_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        states.pure_state(np.array([1.0, bad, 0.0, 0.5]))


@pytest.mark.parametrize("size", [1e200, 1e-165, complex(0.0, 1e300)])
def test_pure_state_normalises_finite_entries_whose_squares_leave_the_float_range(size):
    # the plain norm overflows or underflows to 0 here; the ket is rescaled by
    # its largest entry first, with no RuntimeWarning (the suite's filter
    # turns one into an error)
    state = states.pure_state(np.array([size, size, 0.0, 0.0]))
    assert np.array_equal(state.ket, states.pure_state(np.array([1.0, 1.0, 0.0, 0.0])).ket)


def test_pure_state_rejects_zero_and_odd_sized_vectors():
    with pytest.raises(ValidationError, match="zero vector"):
        states.pure_state(np.zeros(4))
    with pytest.raises(DimensionError, match="power of two"):
        states.pure_state(np.ones(3))


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: states.optimal_single_qubit(+1),
        lambda: states.cat_state(3),
        lambda: states.two_qubit_entangling_candidate(1.0, 1.0, 1.0),
        lambda: states.random_pure_state(2, 7),
        lambda: states.random_mixed_state(2, 7),
        lambda: states.tensor_power(states.optimal_single_qubit(-1), 3),
    ],
)
def test_every_constructor_output_is_valid(ctor):
    rho = ctor()
    m = rho.matrix
    assert np.linalg.norm(m - m.conj().T) < 1e-10
    assert abs(np.trace(m) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(m)[0] >= -1e-9


@pytest.mark.parametrize(
    "ctor, pure",
    [
        (lambda: states.optimal_single_qubit(-1), True),
        (lambda: states.tensor_power(states.optimal_single_qubit(+1), 3), True),
        (lambda: states.cat_state(3, -1), True),
        (lambda: states.random_pure_state(3, 7), True),
        (lambda: states.from_bloch([0.0, 1.0, 0.0]), True),
        (lambda: states.tensor_power(states.from_bloch([0.0, 1.0, 0.0]), 2), True),
        (lambda: states.two_qubit_entangling_candidate(1.0, 1.0, 1.0), True),
        (lambda: states.from_bloch([0.0, 0.0, 0.0]), False),
        (lambda: states.tensor_power(states.from_bloch([0.0, 0.0, 0.5]), 2), False),
        (lambda: states.two_qubit_entangling_candidate(0.5, 0.5, 0.5), False),
        (lambda: states.random_mixed_state(2, 7), False),
    ],
)
def test_states_pure_by_construction_carry_their_ket(ctor, pure):
    # a state carries its ket exactly when it is pure, whatever built it
    rho = ctor()
    assert (rho.ket is not None) == pure
    if pure:
        assert np.linalg.norm(rho.matrix - np.outer(rho.ket, rho.ket.conj())) < 1e-14
        assert not rho.ket.flags.writeable


def test_ket_leaves_the_matrix_unchanged():
    for sign in (+1, -1):
        plus = states.optimal_single_qubit(sign)
        assert np.array_equal(plus.matrix, states.from_bloch([0.0, sign, 0.0]).matrix)
        power = states.tensor_power(plus, 4)
        assert np.array_equal(power.matrix, np.kron(np.kron(plus.matrix, plus.matrix),
                                                    np.kron(plus.matrix, plus.matrix)))


def test_density_matrix_rejects_a_ket_that_does_not_match():
    zero = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(states.density_matrix(zero).ket, [1.0, 0.0])
    # the recovered column misses these matrices by far more than KET_ATOL
    assert states.density_matrix(0.5 * np.eye(2)).ket is None
    eps = 1e-9
    nearly_pure = np.diag([1.0 - eps, eps])
    assert states.density_matrix(nearly_pure).ket is None
    # ... and within KET_ATOL a matrix is taken as that pure state
    assert states.density_matrix(np.diag([1.0 - 1e-12, 1e-12])).ket is not None
    with pytest.raises(DimensionError):
        states.density_matrix(np.eye(3) / 3.0)


def test_positive_psd_threshold_rejects_a_ket_state():
    ket = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    matrix = np.outer(ket, ket.conj())
    assert states.density_matrix(matrix, min_eigenvalue=0.0).ket is not None
    with pytest.raises(PSDViolationError) as err:
        states.density_matrix(matrix, min_eigenvalue=1e-3)
    assert err.value.min_eigenvalue == 0.0


def _analysis(generator, state, basis):
    """analyze's numbers, or the error it raises (tiny outcome probabilities
    of a random probe can fail the dense route's cross-checks)."""
    try:
        got = fisher.analyze(generator, state, basis)
    except ProbeLabError as exc:
        return type(exc), str(exc)
    return (got.classical_fisher, got.quantum_fisher, got.spectrum.values.tobytes(),
            got.spectrum.unconstrained, got.saturation)


def _same_state(built, dense):
    """``built`` equals ``density_matrix`` of its matrix, bit for bit, on both
    fisher routes."""
    assert (built.ket is None) == (dense.ket is None)
    if dense.ket is not None:
        assert np.array_equal(built.ket, dense.ket)
    assert np.array_equal(built.matrix, dense.matrix)
    n = dense.n_qubits
    basis = dynamics.product_pm_readout(n)
    for generator in (dynamics.nonentangling_generator(n), dynamics.entangling_generator(n)):
        assert _analysis(generator, built, basis) == _analysis(generator, dense, basis)
        ketless = [dataclasses.replace(state, ket=None) for state in (built, dense)]
        assert _analysis(generator, ketless[0], basis) == _analysis(generator, ketless[1], basis)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    kind=st.sampled_from(["gaussian", "equal magnitudes", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pure_state_is_density_matrix_of_its_outer_product(n, kind, seed):
    rng = np.random.default_rng(seed)
    d = 2**n
    if kind == "equal magnitudes":  # every entry ties for the largest |k_j|
        ket = np.exp(2j * np.pi * rng.random(d))
    else:
        ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        if kind == "sparse":
            ket[rng.random(d) < 0.5] = 0.0
            ket[rng.integers(d)] += 1.0
    unit = ket / np.linalg.norm(ket)
    _same_state(states.pure_state(ket), states.density_matrix(np.outer(unit, unit.conj())))


@settings(max_examples=60, deadline=None)
@given(
    factor=st.sampled_from(["bloch", "entangling candidate"]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_power_is_density_matrix_of_the_kron(factor, n, seed):
    rng = np.random.default_rng(seed)
    if factor == "bloch":
        a = rng.standard_normal(3)
        rho = states.from_bloch(a / np.linalg.norm(a))
    else:
        sign = rng.choice([-1.0, 1.0])
        rho, n = states.two_qubit_entangling_candidate(1.0, sign, sign), (n + 1) // 2
    assert rho.ket is not None
    power = states.tensor_power(rho, n)
    _same_state(power, states.density_matrix(operators.kron_all([rho.matrix] * n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tensor_power_of_a_nearly_pure_factor_decides_as_density_matrix(n):
    # the factor lies 5e-11 from a pure state, inside KET_ATOL; its powers
    # drift past KET_ATOL from n = 3 on, where density_matrix drops the ket
    rho = states.from_bloch([0.0, 1.0 - 5e-11, 0.0])
    assert rho.ket is not None
    power = states.tensor_power(rho, n)
    dense = states.density_matrix(operators.kron_all([rho.matrix] * n))
    assert (power.ket is None) == (dense.ket is None) == (n >= 3)
    _same_state(power, dense)
