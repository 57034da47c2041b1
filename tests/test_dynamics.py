from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import comb

from probelab import dynamics, operators, states
from probelab.errors import DimensionError, ValidationError

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_nonentangling_generator_single_qubit():
    gen = dynamics.nonentangling_generator(1)
    assert np.allclose(gen.matrix, SZ / 2.0)


def test_nonentangling_generator_two_qubits():
    gen = dynamics.nonentangling_generator(2)
    expected = 0.5 * (np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ))
    assert np.allclose(gen.matrix, expected)
    assert np.allclose(np.sort(np.linalg.eigvalsh(gen.matrix)), [-1.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nonentangling_generator_spectrum(n):
    gen = dynamics.nonentangling_generator(n)
    assert abs(np.trace(gen.matrix)) < 1e-12
    values, counts = np.unique(np.round(np.linalg.eigvalsh(gen.matrix), 9), return_counts=True)
    expected = {(n - 2 * k) / 2.0: comb(n, k, exact=True) for k in range(n + 1)}
    assert {float(v): int(c) for v, c in zip(values, counts)} == pytest.approx(expected)


def test_entangling_generator():
    gen1 = dynamics.entangling_generator(1)
    assert np.allclose(gen1.matrix, SZ / 2.0)
    gen2 = dynamics.entangling_generator(2)
    assert np.allclose(gen2.matrix, np.diag([0.5, -0.5, -0.5, 0.5]))
    # involution: squares to a quarter of the identity
    gen4 = dynamics.entangling_generator(4)
    assert np.allclose(gen4.matrix @ gen4.matrix, 0.25 * np.eye(16))
    values, counts = np.unique(np.linalg.eigvalsh(gen4.matrix).round(12), return_counts=True)
    assert list(values) == [-0.5, 0.5] and list(counts) == [8, 8]


@pytest.mark.parametrize("n", range(1, 9))
def test_generators_equal_their_pauli_string_sums(n):
    strings = ["I" * j + "Z" + "I" * (n - 1 - j) for j in range(n)]
    nonentangling = sum(0.5 * operators.pauli_dense(s) for s in strings)
    assert np.array_equal(dynamics.nonentangling_generator(n).matrix, nonentangling)
    entangling = 0.5 * operators.pauli_dense("Z" * n)
    assert np.array_equal(dynamics.entangling_generator(n).matrix, entangling)


def test_state_derivative_golden_single_qubit():
    gen = dynamics.nonentangling_generator(1)
    rho = states.optimal_single_qubit(+1)
    assert np.allclose(dynamics.state_derivative(gen, rho), -SX / 2.0)


def test_state_derivative_of_maximally_mixed_vanishes():
    gen = dynamics.entangling_generator(2)
    rho = states.density_matrix(np.eye(4) / 4.0)
    assert np.allclose(dynamics.state_derivative(gen, rho), 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_state_derivative_bloch_form(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, 3)
    a *= rng.uniform(0.0, 0.99) / np.linalg.norm(a)
    rho = states.from_bloch(a)
    gen = dynamics.nonentangling_generator(1)
    expected = -0.5 * (a[1] * SX - a[0] * SY)
    assert np.allclose(dynamics.state_derivative(gen, rho), expected, atol=1e-12)


def test_state_derivative_hermitian_traceless():
    rng = np.random.default_rng(12)
    for _ in range(5):
        rho = states.random_mixed_state(2, rng)
        d = dynamics.state_derivative(dynamics.entangling_generator(2), rho)
        assert np.linalg.norm(d - d.conj().T) < 1e-12
        assert abs(np.trace(d)) < 1e-12


def test_evolve_at_zero_is_identity():
    rho = states.optimal_single_qubit(+1)
    gen = dynamics.nonentangling_generator(1)
    assert np.allclose(dynamics.evolve(rho, gen, 0.0).matrix, rho.matrix)


@pytest.mark.parametrize(
    "kind", [dynamics.NONENTANGLING, dynamics.ENTANGLING, dynamics.CUSTOM]
)
def test_evolve_matches_expm(kind):
    rng = np.random.default_rng(21)
    if kind == dynamics.CUSTOM:
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (g + g.conj().T) / 4.0
        gen = dynamics.custom_generator(h)
    else:
        build = {dynamics.NONENTANGLING: dynamics.nonentangling_generator,
                 dynamics.ENTANGLING: dynamics.entangling_generator}[kind]
        gen = build(3)
        h = gen.matrix
    rho = states.random_mixed_state(3, rng)
    np.testing.assert_allclose(dynamics.evolve(rho, gen, 0.0).matrix, rho.matrix, atol=1e-13)
    for x in (0.37, -1.21):
        u = expm(-1j * x * h)
        expected = u @ rho.matrix @ u.conj().T
        np.testing.assert_allclose(dynamics.evolve(rho, gen, x).matrix, expected, atol=1e-12)
    two_steps = dynamics.evolve(dynamics.evolve(rho, gen, 0.37), gen, -1.21).matrix
    np.testing.assert_allclose(two_steps, dynamics.evolve(rho, gen, 0.37 - 1.21).matrix, atol=1e-12)
    evolved = dynamics.evolve(rho, gen, 0.9).matrix
    assert abs(np.trace(evolved) - np.trace(rho.matrix)) <= 1e-12
    np.testing.assert_allclose(
        np.linalg.eigvalsh(evolved), np.linalg.eigvalsh(rho.matrix), atol=1e-12
    )


@pytest.mark.parametrize("probe", ["tensor", "cat", "custom"])
def test_evolve_keeps_the_ket_without_an_eigendecomposition(probe, monkeypatch):
    rng = np.random.default_rng(5)
    n = 3
    if probe == "custom":
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        gen = dynamics.custom_generator((g + g.conj().T) / 4.0)
        rho = states.random_pure_state(n, rng)
    else:
        gen = dynamics.nonentangling_generator(n)
        rho = (states.tensor_power(states.optimal_single_qubit(+1), n) if probe == "tensor"
               else states.cat_state(n, +1))
    ketless = replace(rho, ket=None)
    expected_ket = expm(-1j * 0.37 * gen.matrix) @ rho.ket
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(a) or eigvalsh(*a, **k))

    evolved = dynamics.evolve(rho, gen, 0.37)
    from_ketless = dynamics.evolve(ketless, gen, 0.37)

    assert calls == []
    # the recovered ket is U ket up to a global phase
    phase = np.vdot(evolved.ket, expected_ket)
    assert abs(abs(phase) - 1.0) <= 1e-12
    np.testing.assert_allclose(phase * evolved.ket, expected_ket, rtol=0, atol=1e-12)
    # the ket-less state evolves to the same matrix, bit for bit, and ket
    assert np.array_equal(evolved.matrix, from_ketless.matrix)
    assert np.array_equal(evolved.ket, from_ketless.ket)


def test_evolve_rotates_bloch_vector():
    rho = states.optimal_single_qubit(+1)
    gen = dynamics.nonentangling_generator(1)
    for x in (0.2, 1.0, -0.7):
        coeffs = states.BlochCoefficients.from_state(dynamics.evolve(rho, gen, x))
        assert np.allclose(coeffs.a, [-np.sin(x), np.cos(x), 0.0], atol=1e-10)


def test_evolve_derivative_matches_finite_difference():
    rho = states.optimal_single_qubit(+1)
    gen = dynamics.nonentangling_generator(1)
    h = 1e-6
    fd = (dynamics.evolve(rho, gen, h).matrix - dynamics.evolve(rho, gen, -h).matrix) / (2 * h)
    assert np.allclose(fd, dynamics.state_derivative(gen, rho), atol=1e-6)


def test_evolve_preserves_purity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = states.random_mixed_state(2, rng)
        evolved = dynamics.evolve(rho, dynamics.nonentangling_generator(2), 0.9)
        assert abs(evolved.purity() - rho.purity()) < 1e-10


def test_evolve_short_time_expansion_quadratic_decay():
    rho = states.tensor_power(states.optimal_single_qubit(+1), 2)
    gen = dynamics.nonentangling_generator(2)
    d = dynamics.state_derivative(gen, rho)
    errs = []
    for x in (1e-3, 1e-4):
        linear = rho.matrix + x * d
        errs.append(np.linalg.norm(dynamics.evolve(rho, gen, x).matrix - linear))
    ratio = errs[0] / errs[1]
    assert 50.0 < ratio < 200.0  # quadratic decay: factor ~100


def test_evolve_factorizes_for_nonentangling_dynamics():
    rho = states.from_bloch([0.2, 0.5, -0.1])
    pair = states.tensor_power(rho, 2)
    gen1 = dynamics.nonentangling_generator(1)
    gen2 = dynamics.nonentangling_generator(2)
    left = dynamics.evolve(pair, gen2, 0.8).matrix
    single = dynamics.evolve(rho, gen1, 0.8).matrix
    assert np.allclose(left, np.kron(single, single), atol=1e-10)


def test_product_pm_readout_single_qubit():
    basis = dynamics.product_pm_readout(1)
    assert basis.labels == ("+", "-")
    assert np.allclose(basis.projector("+"), 0.5 * (np.eye(2) + SX))
    assert np.allclose(basis.projector("-"), 0.5 * (np.eye(2) - SX))


def test_product_pm_readout_label_order_and_product_structure():
    basis = dynamics.product_pm_readout(2)
    assert basis.labels == ("++", "+-", "-+", "--")
    expected = 0.25 * np.kron(np.eye(2) + SX, np.eye(2) - SX)
    assert np.allclose(basis.projector("+-"), expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_readout_invariants(n):
    basis = dynamics.product_pm_readout(n)
    total = sum(basis.projectors())
    assert np.allclose(total, np.eye(2**n), atol=1e-10)
    for i, p in enumerate(basis.projectors()):
        assert abs(np.trace(p) - 1.0) < 1e-10  # rank one
        for j, q in enumerate(basis.projectors()):
            product = p @ q
            if i == j:
                assert np.allclose(product, p, atol=1e-10)
            else:
                assert np.linalg.norm(product) < 1e-10


def test_readout_from_kets_rejects_non_orthonormal():
    kets = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        dynamics.readout_from_kets(kets)


def test_random_projective_readout_is_valid_and_deterministic():
    a = dynamics.random_projective_readout(2, seed=4)
    b = dynamics.random_projective_readout(2, seed=4)
    assert np.array_equal(a.kets, b.kets)
    assert np.allclose(sum(a.projectors()), np.eye(4), atol=1e-10)


def test_outcome_probabilities_golden():
    basis = dynamics.product_pm_readout(1)
    probs = dynamics.outcome_probabilities(basis, states.optimal_single_qubit(+1))
    assert probs == pytest.approx({"+": 0.5, "-": 0.5})


def test_outcome_probabilities_uniform_for_maximally_mixed():
    basis = dynamics.product_pm_readout(2)
    rho = states.density_matrix(np.eye(4) / 4.0)
    probs = dynamics.outcome_probabilities(basis, rho)
    assert probs == pytest.approx({label: 0.25 for label in basis.labels})


def test_outcome_probabilities_pure_plus_state():
    basis = dynamics.product_pm_readout(1)
    plus = states.pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    probs = dynamics.outcome_probabilities(basis, plus)
    assert probs["+"] == pytest.approx(1.0)
    assert probs["-"] == pytest.approx(0.0, abs=1e-12)


def test_outcome_probabilities_dim_mismatch():
    with pytest.raises(DimensionError):
        dynamics.outcome_probabilities(
            dynamics.product_pm_readout(2), states.optimal_single_qubit(+1)
        )
