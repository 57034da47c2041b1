"""Generators as spectra, evolved states, and projective readouts.

The estimated parameter x enters through the probe Hamiltonian x * H, where H
is one of the generators built here, stored as its real spectrum h and
eigenframe W (none for the two built-in, diagonal ones).  The derivative
-i [H, rho] and the evolution are one elementwise kernel K in that frame,
W (K o W^dagger A W) W^dagger: K o A, O(d^2), for a diagonal H.  Under the
conventions of :mod:`probelab.operators`, evolving the optimal single-qubit
state gives the Bloch vector (-sin x, cos x, 0), so the "+" outcome of the
per-qubit readout has probability p(+|x) = (1 - sin x) / 2.

The readout quantities of a given state are diagonals <k|A|k> in the readout
basis, computed by :meth:`ReadoutBasis.diagonal`: O(d^2) for the per-qubit
|+>/|-> readout (a gather plus a fast Walsh-Hadamard transform), one d^3 BLAS
product for any other basis (d = 2**n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import operators as ops
from .errors import DimensionError, ValidationError
from .states import DensityMatrix, density_matrix

NONENTANGLING = "nonentangling"
ENTANGLING = "entangling"
CUSTOM = "custom"

#: Most negative readout probability that :func:`outcome_probabilities` clips
#: to 0 as round-off rather than rejecting.  Fixed, not a ``Tolerances`` field.
CLIP_FLOOR = -1e-12


@dataclass(frozen=True)
class Generator:
    """Parameter-independent Hermitian generator H = W diag(spectrum) W^dagger.

    ``frame`` holds W's column eigenvectors; ``None`` means H is diagonal in
    the computational basis.  ``matrix`` builds the dense H on demand.
    """

    kind: str
    n_qubits: int
    spectrum: np.ndarray
    frame: np.ndarray | None = None

    def __post_init__(self):
        self.spectrum.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        if self.frame is None:
            return np.diag(self.spectrum).astype(complex)
        return (self.frame * self.spectrum) @ self.frame.conj().T

    def apply(self, ket: np.ndarray) -> np.ndarray:
        """H ket = W (h o W^dagger ket): O(d) for a diagonal generator, two
        d x d matvecs otherwise."""
        if self.frame is None:
            return self.spectrum * ket
        return self.frame @ (self.spectrum * (self.frame.conj().T @ ket))


def _bit_counts(n: int) -> np.ndarray:
    """popcount(k) for every basis index k < 2**n."""
    return sum((np.arange(2**n) >> q) & 1 for q in range(n))


def nonentangling_generator(n: int, cap: int = ops.MAX_QUBITS) -> Generator:
    """Sum of single-qubit terms, H = (1/2) sum_j Z_j.

    Cannot create entanglement between the probe qubits; eigenvalues are
    (n - 2k)/2 with binomial multiplicities: <k|H|k> = (n - 2 popcount(k))/2.
    """
    ops.check_cap(n, cap)
    return Generator(NONENTANGLING, n, 0.5 * (n - 2 * _bit_counts(n)))


def entangling_generator(n: int, cap: int = ops.MAX_QUBITS) -> Generator:
    """Single n-body string, H = (1/2) Z^(tensor n); <k|H|k> = (-1)^popcount(k) / 2."""
    ops.check_cap(n, cap)
    return Generator(ENTANGLING, n, 0.5 * (-1.0) ** _bit_counts(n))


def custom_generator(matrix: np.ndarray) -> Generator:
    """Any Hermitian H (else :class:`ValidationError`), stored through one
    eigendecomposition."""
    eig = ops.hermitian_eigen(matrix)
    return Generator(CUSTOM, ops.n_qubits_of(eig.vectors), eig.values, eig.vectors)


def _in_frame(generator: Generator, kernel: np.ndarray, a: np.ndarray) -> np.ndarray:
    """W (K o W^dagger A W) W^dagger, just K o A for a diagonal generator."""
    w = generator.frame
    if w is None:
        return kernel * a
    return w @ (kernel * (w.conj().T @ a @ w)) @ w.conj().T


def _derivative(generator: Generator, a: np.ndarray) -> np.ndarray:
    """-i [H, A], the kernel -i (h_j - h_k)."""
    h = generator.spectrum
    return _in_frame(generator, -1j * np.subtract.outer(h, h), a)


def _check_dims(generator: Generator, rho: DensityMatrix) -> None:
    if generator.n_qubits != rho.n_qubits:
        raise DimensionError(
            f"generator acts on {generator.n_qubits} qubits, state on {rho.n_qubits}"
        )


def state_derivative(generator: Generator, rho: DensityMatrix) -> np.ndarray:
    """d(rho)/dx at x = 0: -i [H, rho].  Hermitian and traceless."""
    _check_dims(generator, rho)
    return _derivative(generator, rho.matrix)


def evolve(rho: DensityMatrix, generator: Generator, x: float) -> DensityMatrix:
    """U rho U^dagger with U = exp(-i x H), the kernel e^{-i x h_j} e^{i x h_k};
    the evolved matrix of a pure state is pure, so it gets its ket back from
    :func:`~probelab.states.density_matrix`."""
    _check_dims(generator, rho)
    phases = np.exp(-1j * x * generator.spectrum)
    return density_matrix(_in_frame(generator, np.outer(phases, phases.conj()), rho.matrix))


@dataclass(frozen=True)
class ReadoutBasis:
    """Complete orthonormal family of rank-1 projectors with outcome labels.

    ``kets[:, k]`` is the state projected onto by outcome ``labels[k]``.
    ``hadamard`` records that ``kets`` is the n-fold tensor power of the
    Hadamard matrix (the per-qubit |+>/|-> readout), which :meth:`diagonal`
    exploits.
    """

    labels: tuple[str, ...]
    kets: np.ndarray
    hadamard: bool = False

    @property
    def dim(self) -> int:
        return self.kets.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.kets.shape[1]

    @property
    def n_qubits(self) -> int:
        return ops.n_qubits_of(self.kets)

    def projector(self, label: str) -> np.ndarray:
        k = self.labels.index(label)
        ket = self.kets[:, k]
        return np.outer(ket, ket.conj())

    def projectors(self) -> list[np.ndarray]:
        return [self.projector(label) for label in self.labels]

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def diagonal(self, a: np.ndarray) -> np.ndarray:
        """Complex <k|A|k> for every outcome k, aligned with ``labels``.

        For the Hadamard readout <k|A|k> = (1/d) sum_m (-1)^popcount(k & m)
        s_m with s_m = sum_i A[i, i XOR m]: one O(d^2) gather plus a length-d
        fast Walsh-Hadamard transform.  Any other basis costs one d^3 BLAS
        product.
        """
        a = np.asarray(a)
        if self.hadamard:
            rows = np.arange(self.dim)
            xor_sums = a[rows[:, None], rows[:, None] ^ rows[None, :]].sum(axis=0)
            return _walsh_hadamard(xor_sums) / self.dim
        return np.einsum("ik,ik->k", self.kets.conj(), a @ self.kets)

    def amplitudes(self, kets: np.ndarray) -> np.ndarray:
        """V^dagger applied to a ket or to a (d, m) stack of column kets: the
        amplitude <k|ket> of every outcome k along axis 0, aligned with
        ``labels``.

        For the Hadamard readout V^dagger = H^(x)n / sqrt(d) is real and
        symmetric: a fast Walsh-Hadamard transform, O(m d log d), whose
        butterflies cancel exactly where a product state's amplitudes do.  Any
        other basis costs one d x d by d x m product.
        """
        if self.hadamard:
            return _walsh_hadamard(np.asarray(kets, dtype=complex)) / np.sqrt(self.dim)
        return self.kets.conj().T @ kets


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Unnormalised transform y_k = sum_m (-1)^popcount(k & m) x_m along axis 0."""
    shape, half = x.shape, 1
    while half < shape[0]:
        pairs = x.reshape(-1, 2, half, *shape[1:])
        x = np.concatenate(
            (pairs[:, :1] + pairs[:, 1:], pairs[:, :1] - pairs[:, 1:]), axis=1
        )
        half *= 2
    return x.reshape(shape)


def readout_from_kets(kets: np.ndarray, labels: tuple[str, ...] | None = None) -> ReadoutBasis:
    """Wrap a unitary matrix of column kets as a readout basis.

    Checks completeness (sum of projectors is the identity) and orthogonality,
    each to within ``operators.MATRIX_ATOL`` (Frobenius norm).
    """
    kets = np.array(kets, dtype=complex)
    ops.n_qubits_of(kets)  # validates the square power-of-two shape
    gram = kets.conj().T @ kets
    if np.linalg.norm(gram - np.eye(kets.shape[1])) > ops.MATRIX_ATOL:
        raise ValidationError("readout kets are not orthonormal within tolerance")
    if np.linalg.norm(kets @ kets.conj().T - np.eye(kets.shape[0])) > ops.MATRIX_ATOL:
        raise ValidationError("readout projectors do not sum to the identity")
    if labels is None:
        labels = tuple(str(k) for k in range(kets.shape[1]))
    if len(labels) != kets.shape[1]:
        raise ValidationError("one label per outcome is required")
    kets.setflags(write=False)
    return ReadoutBasis(labels=tuple(labels), kets=kets)


def product_pm_readout(n: int, cap: int = ops.MAX_QUBITS) -> ReadoutBasis:
    """Per-qubit projective readout along |+> and |->.

    |+/-> = (|0> +/- |1>)/sqrt(2); the 2**n outcomes are labeled by strings
    over {+,-} in lexicographic order with '+' < '-' (so "++", "+-", "-+",
    "--" for two qubits), qubit 1 leftmost.
    """
    ops.check_cap(n, cap)
    # Columns |+> and |->: column k of the n-fold power is the ket of the
    # k-th label, '+' being bit 0 and qubit 1 the most significant bit.
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    labels = tuple("".join(s) for s in product("+-", repeat=n))
    kets = np.array(ops.kron_all([hadamard] * n), dtype=complex)
    kets.setflags(write=False)
    return ReadoutBasis(labels=labels, kets=kets, hadamard=True)


def random_projective_readout(
    n: int, seed: int | np.random.Generator, cap: int = ops.MAX_QUBITS
) -> ReadoutBasis:
    """Haar-random complete projective readout (for property sweeps)."""
    ops.check_cap(n, cap)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dim = 2**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return readout_from_kets(q)


def outcome_probabilities(basis: ReadoutBasis, rho: DensityMatrix) -> dict[str, float]:
    """p(outcome) = tr(E rho), clipped to [0, 1].

    Values below ``CLIP_FLOOR`` or a total off from 1 by more than 1e-9 signal
    an invalid state/basis pairing and raise.
    """
    if basis.dim != rho.dim:
        raise DimensionError(
            f"readout dimension {basis.dim} does not match state dimension {rho.dim}"
        )
    raw = np.real(basis.diagonal(rho.matrix))
    if np.min(raw) < CLIP_FLOOR:
        raise ValidationError(
            f"outcome probability {np.min(raw):.3e} below clipping floor"
        )
    if abs(np.sum(raw) - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {np.sum(raw):.12g}")
    clipped = np.clip(raw, 0.0, 1.0)
    return {label: float(p) for label, p in zip(basis.labels, clipped)}


def probability_vector(basis: ReadoutBasis, rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities as an array aligned with ``basis.labels``."""
    probs = outcome_probabilities(basis, rho)
    return np.array([probs[label] for label in basis.labels])
