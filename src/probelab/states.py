"""Construction and validation of probe density matrices.

All constructors return validated :class:`DensityMatrix` values.  Candidate
states that fail positivity beyond tolerance are rejected, never projected:
silently repairing a state would corrupt downstream saturation checks.

A state built from a ket (:func:`pure_state`, and :func:`tensor_power` of a
state that has one) keeps the ket as its data and is built in O(d): its
d x d ``matrix`` is formed on first use, from what the constructor knew.
:func:`density_matrix` is the one way from a matrix to a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import operators as ops
from .errors import DimensionError, PSDViolationError, ValidationError

#: Largest Frobenius distance accepted between a state's matrix and |ket><ket|.
KET_ATOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on 2**n dims.

    ``ket`` is a vector k with ``matrix`` = |k><k| to within ``KET_ATOL``,
    else ``None``: :func:`density_matrix` finds it for every pure matrix
    whatever built it, and a state built from a ket keeps it.  Analyses of a
    state with a ket work from the ket (see :func:`probelab.fisher.analyze`).
    ``matrix`` is built by ``_build`` on first use and kept, so
    ``dataclasses.replace(state, ket=None)`` is the same matrix without its
    ket; ``purity`` of a state without a ket and ``pauli_coefficients`` use
    it if it is built, else build one they do not keep.  ``eigen``, taken on
    first use and kept, serves the PSD check of any state without a ket, then
    the dense SLD.
    """

    n_qubits: int
    ket: np.ndarray | None
    _build: Callable[[], np.ndarray] = field(repr=False)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = self._build()
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def eigen(self) -> ops.HermitianEigen:
        # Hermitian by construction, or checked by density_matrix (itself or its factors)
        return ops.eigen_descending(self.matrix)

    def _dense(self) -> np.ndarray:
        return self.__dict__["matrix"] if "matrix" in self.__dict__ else self._build()

    def purity(self) -> float:
        """tr(rho^2) = ||rho||_F^2, in O(d^2) as :func:`density_matrix` screens
        it; 1 for a state with a ket, which every analysis takes as the pure
        |ket><ket| of its unit ket."""
        if self.ket is not None:
            return 1.0
        matrix = self._dense()
        return float(np.vdot(matrix, matrix).real)

    def pauli_coefficients(self, drop_tol: float = 1e-12) -> dict[str, float]:
        """Expansion coefficients over Pauli strings (identity term included)."""
        return ops.pauli_expand(self._dense(), drop_tol=drop_tol)


def _check_trace(trace: complex) -> None:
    if abs(trace - 1.0) > ops.MATRIX_ATOL:
        raise ValidationError(f"density matrix trace is {trace:.12g}, expected 1")


def density_matrix(
    matrix: np.ndarray, *, min_eigenvalue: float = ops.Tolerances.psd_min_eigenvalue
) -> DensityMatrix:
    """Validate a matrix as a density matrix and wrap it.

    Raises :class:`ValidationError` for hermiticity/trace failures (beyond
    ``operators.MATRIX_ATOL``) and
    :class:`PSDViolationError` (carrying the offending eigenvalue) if the
    smallest eigenvalue falls below ``min_eigenvalue``.  A matrix that passes
    an O(d^2) purity screen tries k = rho[:, j] / sqrt(rho_jj), j its largest
    diagonal entry: within ``KET_ATOL`` of |k><k| (Frobenius norm) it gets k
    as its ``ket`` and, being rank one, 0 as its smallest eigenvalue; any
    other matrix takes one ``eigh``, kept as the state's ``eigen``.
    """
    matrix = np.array(matrix, dtype=complex)
    n = ops.n_qubits_of(matrix)
    if not ops.is_hermitian(matrix):
        raise ValidationError("density matrix must be Hermitian")
    _check_trace(np.trace(matrix))
    ket = None
    # tr(rho^2) = ||rho||_F^2, read in place; the screen is far looser than the
    # |tr(rho^2) - 1| <= 2 (sqrt(d) + 2) 1e-10 of any matrix that passed the
    # trace check and lies within KET_ATOL of a pure one
    if abs(np.vdot(matrix, matrix).real - 1.0) <= 1e-6:
        j = int(np.argmax(matrix.diagonal().real))
        ket = matrix[:, j] / np.sqrt(matrix[j, j].real)
        ket.setflags(write=False)
        if np.linalg.norm(matrix - np.outer(ket, ket.conj())) > KET_ATOL:
            ket = None
    matrix.setflags(write=False)
    state = DensityMatrix(n, ket, partial(np.asarray, matrix))  # the matrix itself
    smallest = 0.0 if ket is not None else float(state.eigen.values[-1])
    if smallest < min_eigenvalue:
        raise PSDViolationError(smallest)
    return state


def _ket_state(
    n_qubits: int, diagonal: np.ndarray, j: int, column: np.ndarray, build: Callable[[], np.ndarray]
) -> DensityMatrix:
    """The pure state :func:`density_matrix` makes of ``build()``, from that
    matrix's diagonal, its first largest diagonal entry j and its column j:
    the ket is the column over the root of entry (j, j), bit for bit."""
    _check_trace(diagonal.sum())
    ket = column / np.sqrt(diagonal[j].real)
    ket.setflags(write=False)
    return DensityMatrix(n_qubits, ket, build)


def pure_state(ket: np.ndarray) -> DensityMatrix:
    """Density matrix |psi><psi| of a (normalized) state vector, in O(d).

    With k the normalized vector, the state's ``ket`` is k conj(k_j)/|k_j|
    for its first largest |k_j| and its ``matrix``, built on first use, is
    ``np.outer(k, k.conj())``: what :func:`density_matrix` gives that matrix.
    A ket whose plain norm overflows or underflows is first scaled by its
    largest real or imaginary part.
    """
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    if not np.isfinite(ket).all():
        raise ValidationError("state vector has a NaN or infinite entry")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(ket)
    if norm == 0 or not np.isfinite(norm):
        scale = np.maximum(np.abs(ket.real), np.abs(ket.imag)).max(initial=0.0)
        if scale > 0:
            ket = ket / scale
            norm = np.linalg.norm(ket)
    if norm == 0:
        raise ValidationError("cannot normalize the zero vector")
    ket = ket / norm
    bra = ket.conj()
    diagonal = ket * bra
    j = int(np.argmax(diagonal.real))
    n = ops.n_qubits_of_dim(ket.size)
    return _ket_state(n, diagonal, j, ket * bra[j], partial(np.outer, ket, bra))


@dataclass(frozen=True)
class BlochCoefficients:
    """Pauli-expansion coefficients of a one- or two-qubit state.

    For one qubit only ``a`` is set; for two qubits ``a`` and ``b`` hold the
    single-qubit weights and ``c`` the 3x3 correlation block.
    """

    a: np.ndarray
    b: np.ndarray | None = None
    c: np.ndarray | None = None

    @property
    def n_qubits(self) -> int:
        return 1 if self.b is None else 2

    @staticmethod
    def from_state(rho: DensityMatrix) -> "BlochCoefficients":
        # rho = (1/2**n)(1 + a_i s_i + ...), so the conventional coefficients
        # are 2**n times the raw Pauli-expansion weights.
        if rho.n_qubits not in (1, 2):
            raise DimensionError("Bloch coefficients are defined for one or two qubits")
        table = 2**rho.n_qubits * ops.pauli_transform(rho.matrix).real.reshape((4,) * rho.n_qubits)
        if rho.n_qubits == 1:
            return BlochCoefficients(a=table[1:])
        return BlochCoefficients(a=table[1:, 0], b=table[0, 1:], c=table[1:, 1:])


def hermitian_from_bloch(coeffs: BlochCoefficients) -> np.ndarray:
    """Dense Hermitian matrix induced by Bloch coefficients (no PSD check)."""
    a = np.asarray(coeffs.a, dtype=float)
    if a.shape != (3,):
        raise ValidationError(f"a must have three entries, got shape {a.shape}")
    if (coeffs.b is None) != (coeffs.c is None):
        raise ValidationError("two-qubit coefficients need both b and c")
    if coeffs.n_qubits == 1:
        return ops.inverse_pauli_transform(np.concatenate(([1.0], a)) / 2.0)
    b = np.asarray(coeffs.b, dtype=float)
    c = np.asarray(coeffs.c, dtype=float)
    if b.shape != (3,) or c.shape != (3, 3):
        raise ValidationError("two-qubit coefficients need a(3), b(3) and c(3,3)")
    table = np.block([[np.ones((1, 1)), b[None, :]], [a[:, None], c]])  # rows: first qubit
    return ops.inverse_pauli_transform(table / 4.0)


def from_bloch(
    a, b=None, c=None, *, min_eigenvalue: float = ops.Tolerances.psd_min_eigenvalue
) -> DensityMatrix:
    """Build a state from Bloch coefficients; rejects PSD violations."""
    coeffs = BlochCoefficients(
        a=np.asarray(a, dtype=float),
        b=None if b is None else np.asarray(b, dtype=float),
        c=None if c is None else np.asarray(c, dtype=float),
    )
    return density_matrix(hermitian_from_bloch(coeffs), min_eigenvalue=min_eigenvalue)


def optimal_single_qubit(sign: int = +1) -> DensityMatrix:
    """The pure single-qubit probe state (1 +/- sigma_2) / 2.

    These are the two states that saturate the quantum Cramer-Rao bound for
    rotation about the z axis read out along the |+>/|-> basis.
    """
    if sign not in (+1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    return from_bloch([0.0, float(sign), 0.0])


def tensor_power(rho: DensityMatrix, n: int, cap: int = ops.MAX_QUBITS) -> DensityMatrix:
    """n-fold tensor power of a state.

    Its matrix is ``kron_all`` of n copies of ``rho.matrix``.  A factor with a
    ket gives a state with a ket in O(d) that :func:`density_matrix` would
    give that matrix: the diagonal and column j of a Kronecker product are
    Kronecker products of the factors' diagonals and of their columns j_i, the
    base-2**m digits of j for m-qubit factors.
    """
    if n < 1:
        raise ValidationError(f"tensor power needs n >= 1, got {n}")
    total = n * rho.n_qubits
    ops.check_cap(total, cap)
    factor = rho.matrix
    build = partial(ops.kron_all, [factor] * n)
    if rho.ket is None:
        return density_matrix(build())
    pivots = factor.diagonal()
    diagonal = ops.kron_vectors([pivots] * n)
    j = int(np.argmax(diagonal.real))
    digits = [(j >> (rho.n_qubits * (n - 1 - i))) & (rho.dim - 1) for i in range(n)]
    # ||kron_all - |k><k| ||_F <= prod_i (1 + e_i) - 1, with e_i the distance
    # of the factor to |c_i><c_i|, c_i its column j_i over the root of its
    # entry (j_i, j_i): near KET_ATOL, density_matrix decides
    distance = {}
    for i in set(digits):
        c = factor[:, i] / np.sqrt(pivots[i].real)
        distance[i] = np.linalg.norm(factor - np.outer(c, c.conj()))
    if math.prod(1.0 + distance[i] for i in digits) - 1.0 > KET_ATOL / 2:
        return density_matrix(build())
    return _ket_state(total, diagonal, j, ops.kron_vectors(factor[:, digits].T), build)


def cat_state(n: int, sign: int = +1, cap: int = ops.MAX_QUBITS) -> DensityMatrix:
    """The n-qubit state (|0...0> +/- |1...1>) / sqrt(2).

    Note: for the plus sign the Pauli expansion computed from this ket carries
    weights XX = +1, YY = -1, ZZ = +1 at n = 2 (the YY weight flips with the
    sign of the superposition).
    """
    if n < 2:
        raise ValidationError(f"cat states need n >= 2 qubits, got {n}")
    if sign not in (+1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    ops.check_cap(n, cap)
    ket = np.zeros(2**n, dtype=complex)
    ket[0] = 1.0 / np.sqrt(2.0)
    ket[-1] = sign / np.sqrt(2.0)
    return pure_state(ket)


def two_qubit_entangling_candidate(
    c11: float, c23: float, c32: float, *, min_eigenvalue: float = ops.Tolerances.psd_min_eigenvalue
) -> DensityMatrix:
    """Two-qubit state (1x1 + c11 XX + c23 YZ + c32 ZY) / 4.

    Pure exactly when c11 = c23 = c32 = 1 (or the sign-flipped variant with
    c23 = c32 = -1); rejects parameter choices that break positivity.
    """
    c = np.array([[c11, 0.0, 0.0], [0.0, 0.0, c23], [0.0, c32, 0.0]], dtype=float)
    return from_bloch(np.zeros(3), np.zeros(3), c, min_eigenvalue=min_eigenvalue)


def random_pure_state(n_qubits: int, seed: int | np.random.Generator) -> DensityMatrix:
    """Haar-random pure state; deterministic for a given seed.

    Draws independent standard-normal real and imaginary parts and normalizes.
    """
    ops.check_cap(n_qubits)
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return pure_state(ket)


def random_mixed_state(n_qubits: int, seed: int | np.random.Generator) -> DensityMatrix:
    """Full-rank random state G G^dagger / tr(G G^dagger) with Ginibre G."""
    ops.check_cap(n_qubits)
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return density_matrix(w / np.trace(w).real)
