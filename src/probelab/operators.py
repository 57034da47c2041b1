"""Dense complex-matrix and Pauli-string algebra for N-qubit Hermitian operators.

Conventions fixed here and relied on everywhere else:

* sigma_1 = [[0,1],[1,0]], sigma_2 = [[0,-i],[i,0]], sigma_3 = [[1,0],[0,-1]],
  with |0> = (1, 0).
* Qubit 1 is the leftmost (most significant) tensor factor: the
  computational-basis index of |j1 ... jN> is the binary number j1...jN.
* Pauli strings are written as label strings over {I, X, Y, Z}, e.g. "XY".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, ValidationError

#: Largest probe size handled by dense constructors (2**10 = 1024 dims).
MAX_QUBITS = 10

#: Fixed tolerance of the structural checks on input matrices: Hermiticity
#: (relative to the Frobenius norm), unit trace of a density matrix and
#: orthonormal readout kets.  Not a :class:`Tolerances` field: no report
#: quantity depends on it.
MATRIX_ATOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Every threshold the tool applies, with its default.

    It lives here, below every other module, so that each can import it.
    Functions take the value they need as a keyword defaulting to the class
    attribute; whole-task entry points take the object.

    * ``kernel_tol``: SLD eigenvalue sums p_j + p_k at or below this are the
      kernel of the defining equation.
    * ``sld_residual``: largest accepted residual of the SLD equation.
    * ``saturation``: largest saturation residuals (im-condition, diagonal).
    * ``solution_residual``: largest accepted optimality-equation residual.
    * ``psd_min_eigenvalue``: smallest eigenvalue a state may have.
    * ``probability_floor``: outcome probabilities at or below this are zero.
    """

    kernel_tol: float = 1e-10
    sld_residual: float = 1e-8
    saturation: float = 1e-8
    solution_residual: float = 1e-7
    psd_min_eigenvalue: float = -1e-9
    probability_floor: float = 1e-12


_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _m in _PAULI_MATRICES.values():
    _m.setflags(write=False)

PAULI_LABELS = ("I", "X", "Y", "Z")
_BASE4_DIGITS = str.maketrans("IXYZ", "0123")


def pauli_matrix(label: str) -> np.ndarray:
    """Single-qubit Pauli matrix for one of the labels I, X, Y, Z."""
    try:
        return _PAULI_MATRICES[label]
    except KeyError:
        raise ValidationError(f"unknown Pauli label {label!r}") from None


def pauli_labels(n_qubits: int) -> list[str]:
    """All 4**n Pauli strings of length ``n_qubits`` in lexicographic order."""
    return ["".join(p) for p in product(PAULI_LABELS, repeat=n_qubits)]


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Ordered Kronecker product; the first factor is the most significant."""
    return reduce(np.kron, factors)


def kron_vectors(vectors: Iterable[np.ndarray]) -> np.ndarray:
    """:func:`kron_all` of 1-D arrays, the same products in the same order,
    without the tens of microseconds that each ``np.kron`` call costs."""
    return reduce(lambda a, b: np.multiply.outer(a, b).ravel(), vectors)


def n_qubits_of(matrix: np.ndarray) -> int:
    """Number of qubits for a square matrix of dimension 2**n."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {matrix.shape}")
    return n_qubits_of_dim(matrix.shape[0])


def n_qubits_of_dim(dim: int) -> int:
    """Number of qubits n of a dimension 2**n."""
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def bit_counts(n: int) -> np.ndarray:
    """popcount(k) for every basis index k < 2**n."""
    return sum((np.arange(2**n) >> q) & 1 for q in range(n))


def check_cap(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise DimensionError(f"{n_qubits} qubits exceeds the cap of {MAX_QUBITS}")
    if n_qubits < 1:
        raise DimensionError(f"need at least one qubit, got {n_qubits}")


def pauli_dense(labels: str | Sequence[str]) -> np.ndarray:
    """Dense matrix of a Pauli string, e.g. ``pauli_dense("XY")``."""
    labels = "".join(labels)
    check_cap(len(labels))
    return kron_all(pauli_matrix(c) for c in labels)


def is_hermitian(matrix: np.ndarray) -> bool:
    return bool(
        np.linalg.norm(matrix - matrix.conj().T)
        <= MATRIX_ATOL * max(1.0, np.linalg.norm(matrix))
    )


def _pauli_table() -> np.ndarray:
    """Row l is P_l^T flattened and halved: contracted with one qubit's (row bit,
    column bit) pair it gives tr(P_l A) / 2.  Twice its adjoint is its inverse."""
    return 0.5 * np.array([pauli_matrix(label).T.ravel() for label in PAULI_LABELS])


def _per_qubit(table: np.ndarray, vector: np.ndarray, n: int) -> np.ndarray:
    for _ in range(n):  # transform the leading base-4 digit, rotate it to the back
        vector = (table @ vector.reshape(4, -1)).T
    return vector.reshape(-1)


def pauli_transform(matrix: np.ndarray) -> np.ndarray:
    """All 4**n coefficients tr(P A) / 2**n of A, in ``pauli_labels(n)`` order: one
    4x4 table meets each qubit's interleaved (row bit, column bit) pair, O(n 4**n)
    where a per-string loop costs 4**n dense d x d products."""
    matrix = np.asarray(matrix, dtype=complex)
    n = n_qubits_of(matrix)
    interleaved = matrix.reshape((2,) * 2 * n).transpose([a for q in range(n) for a in (q, n + q)])
    return _per_qubit(_pauli_table(), interleaved.reshape(-1), n)


def inverse_pauli_transform(coefficients: np.ndarray) -> np.ndarray:
    """The matrix sum_i c_i P_i of 4**n coefficients in ``pauli_labels(n)`` order."""
    coefficients = np.asarray(coefficients, dtype=complex).reshape(-1)
    n = (coefficients.size.bit_length() - 1) // 2
    if n < 1 or 4**n != coefficients.size:
        raise DimensionError(f"{coefficients.size} coefficients is not 4**n for n >= 1")
    interleaved = _per_qubit(2.0 * _pauli_table().conj().T, coefficients, n).reshape((2,) * 2 * n)
    return interleaved.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(2**n, 2**n)


def pauli_expand(matrix: np.ndarray, *, drop_tol: float = 1e-12) -> dict[str, float]:
    """Expand a Hermitian matrix over Pauli strings.

    Returns the real coefficients {string: tr(P A) / 2**n}, dropping entries
    with magnitude at most ``drop_tol``.  Raises if the input is not Hermitian
    within ``MATRIX_ATOL`` (relative to its Frobenius norm).
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = n_qubits_of(matrix)
    if not is_hermitian(matrix):
        raise ValidationError("cannot expand a non-Hermitian matrix over Pauli strings")
    coefficients = pauli_transform(matrix).real
    kept = np.flatnonzero(np.abs(coefficients) > drop_tol)
    digits = (kept[:, None] >> np.arange(2 * n - 2, -1, -2)) & 3  # base 4, qubit 1 first
    labels = ("".join(np.take(PAULI_LABELS, row)) for row in digits)
    return {label: float(coefficients[i]) for label, i in zip(labels, kept)}


def pauli_expand_by_type(
    ket: np.ndarray, *, drop_tol: float | None = None
) -> list[dict[str, int | float]]:
    """The Pauli expansion of |psi><psi| for a permutation-symmetric ket psi,
    one row per type of string.

    The strings with a X's, b Y's and c Z's, in any order, share one
    coefficient tr(P |psi><psi|) / 2**n, so the expansion is binom(n + 3, 3)
    rows ``{"x": a, "y": b, "z": c, "coefficient": ..., "strings": ...}``,
    "strings" being their number n! / (a! b! c! (n - a - b - c)!), in the
    order of (a, b, c); with a ``drop_tol``, less the rows whose coefficient
    has magnitude at most that.  Each coefficient is <psi|P|psi> / 2**n of the
    representative X^a Y^b Z^c I^(n-a-b-c): P |k> = i^b (-1)^popcount(k & m)
    |k XOR f>, with f the mask of its X and Y qubits and m that of its Y and
    Z qubits, so all rows are one gather of psi and one sum over k.  Raises
    :class:`ValidationError` unless the amplitudes of psi are a function of
    popcount within ``MATRIX_ATOL`` (relative to its norm).
    """
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    n = n_qubits_of_dim(ket.size)
    weights = bit_counts(n)
    if np.linalg.norm(ket - ket[(1 << weights) - 1]) > MATRIX_ATOL * np.linalg.norm(ket):
        raise ValidationError("the ket is not permutation-symmetric: its Pauli strings have no types")
    types = [(a, b, c) for a in range(n + 1) for b in range(n + 1 - a) for c in range(n + 1 - a - b)]
    a, b, c = np.array(types).T

    def qubits(first, stop):  # the mask of qubits first+1 .. stop, qubit 1 the top bit
        return ((1 << (stop - first)) - 1) << (n - stop)

    k = np.arange(ket.size)
    flips, signs = qubits(0, a + b), qubits(a, a + b + c)
    parity = 1.0 - 2.0 * (weights & 1)
    expectations = (ket.conj()[k ^ flips[:, None]] * parity[k & signs[:, None]]) @ ket
    coefficients = (np.array([1, 1j, -1, -1j])[b % 4] * expectations).real / ket.size
    return [
        {"x": x, "y": y, "z": z, "coefficient": float(value),
         "strings": comb(n, x) * comb(n - x, y) * comb(n - x - y, z)}
        for (x, y, z), value in zip(types, coefficients)
        if drop_tol is None or abs(value) > drop_tol
    ]


def pauli_terms_dense(terms: Mapping[str, float]) -> np.ndarray:
    """Dense matrix of a real-coefficient Pauli-string expansion."""
    if not terms:
        raise ValidationError("cannot build a dense matrix from an empty term map")
    lengths = {len(label) for label in terms}
    if len(lengths) != 1:
        raise DimensionError(f"inconsistent Pauli string lengths: {sorted(lengths)}")
    n = lengths.pop()
    coefficients = np.zeros(4**n, dtype=complex)
    for label, coeff in terms.items():
        if not set(label) <= set(PAULI_LABELS):
            raise ValidationError(f"unknown Pauli label in {label!r}")
        coefficients[int(label.translate(_BASE4_DIGITS), 4)] += coeff
    return inverse_pauli_transform(coefficients)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b - b a."""
    _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b + b a."""
    _check_same_dim(a, b)
    return a @ b + b @ a


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are sorted in descending order; ``vectors[:, k]`` is the
    orthonormal eigenvector for ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigen(matrix: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix (within ``MATRIX_ATOL``),
    eigenvalues descending."""
    matrix = np.asarray(matrix, dtype=complex)
    n_qubits_of(matrix)
    if not is_hermitian(matrix):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return eigen_descending(matrix)


def eigen_descending(matrix: np.ndarray) -> HermitianEigen:
    """:func:`hermitian_eigen` of a complex 2**n x 2**n matrix that is Hermitian
    by construction, without the check (``eigh`` reads one triangle)."""
    values, vectors = np.linalg.eigh(matrix)
    order = np.argsort(values)[::-1]
    values = np.ascontiguousarray(values[order])
    vectors = np.ascontiguousarray(vectors[:, order])
    values.setflags(write=False)
    vectors.setflags(write=False)
    return HermitianEigen(values=values, vectors=vectors)

