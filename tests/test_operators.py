import numpy as np
import pytest

from probelab import operators as ops
from probelab.errors import DimensionError, ValidationError

I2 = np.eye(2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


def test_pauli_dense_single_z():
    assert np.array_equal(ops.pauli_dense("Z"), SZ)


def test_pauli_dense_identity_pair():
    assert np.array_equal(ops.pauli_dense("II"), np.eye(4))


def test_pauli_dense_xy_corner_entry():
    # hand Kronecker product of sigma_1 (x) sigma_2: row 0 is (0, 0, 0, -i)
    assert ops.pauli_dense("XY")[0, 3] == -1j


def test_pauli_dense_ordering_is_first_factor_most_significant():
    zi = ops.pauli_dense("ZI")
    assert np.array_equal(zi, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_pauli_dense_cap():
    with pytest.raises(DimensionError):
        ops.pauli_dense("I" * 11)


def test_pauli_expand_reads_off_mixture():
    matrix = 0.5 * (I2 + SY)
    assert ops.pauli_expand(matrix) == {"I": 0.5, "Y": 0.5}


def test_pauli_expand_zero_matrix_is_empty():
    assert ops.pauli_expand(np.zeros((2, 2))) == {}


def test_pauli_expand_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        ops.pauli_expand(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", range(4))
def test_pauli_expand_round_trip_random_hermitian(seed):
    matrix = random_hermitian(4, seed)
    terms = ops.pauli_expand(matrix)
    assert np.allclose(ops.pauli_terms_dense(terms), matrix, atol=1e-10)


def test_expand_of_dense_is_identity_on_term_maps():
    rng = np.random.default_rng(8)
    labels = ops.pauli_labels(2)
    terms = {label: float(c) for label, c in zip(labels, rng.uniform(-1, 1, len(labels)))}
    recovered = ops.pauli_expand(ops.pauli_terms_dense(terms), drop_tol=0.0)
    for label, coeff in terms.items():
        assert abs(recovered[label] - coeff) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_strings_orthogonal_with_norm_2n(n):
    dim = 2**n
    labels = ops.pauli_labels(n)
    for p in labels:
        for q in labels:
            overlap = np.trace(ops.pauli_dense(p) @ ops.pauli_dense(q))
            if p == q:
                assert abs(overlap - dim) < 1e-12
            else:
                assert abs(overlap) < 1e-12


def test_commutator_pauli_algebra():
    assert np.allclose(ops.commutator(SZ, SY), -2j * SX)
    assert np.allclose(ops.anticommutator(SX, SY), np.zeros((2, 2)))


def test_commutator_of_matrix_with_itself_vanishes():
    a = random_hermitian(4, 3)
    assert np.allclose(ops.commutator(a, a), 0.0)


def test_commutator_dim_mismatch():
    with pytest.raises(DimensionError):
        ops.commutator(SX, np.eye(4))


def test_hermitian_eigen_of_y():
    eig = ops.hermitian_eigen(SY)
    assert np.allclose(eig.values, [1.0, -1.0])
    ket_i = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    ket_ibar = np.array([1.0, -1.0j]) / np.sqrt(2.0)
    assert abs(abs(np.vdot(eig.vectors[:, 0], ket_i)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(eig.vectors[:, 1], ket_ibar)) - 1.0) < 1e-12


def test_hermitian_eigen_identity():
    eig = ops.hermitian_eigen(np.eye(4))
    assert np.allclose(eig.values, 1.0)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_hermitian_eigen_reconstruction(dim):
    a = random_hermitian(dim, dim)
    eig = ops.hermitian_eigen(a)
    scale = np.linalg.norm(a)
    rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert np.linalg.norm(rebuilt - a) <= 1e-10 * scale
    gram = eig.vectors.conj().T @ eig.vectors
    assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10
    assert all(np.diff(eig.values) <= 1e-12)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        ops.hermitian_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))

