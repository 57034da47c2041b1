"""Generators as spectra, evolved states, and projective readouts.

The estimated parameter x enters through the probe Hamiltonian x * H, where H
is one of the generators built here, stored as its real spectrum h: both
built-in generators are diagonal in the computational basis.  The derivative
-i [H, rho] and the evolution are one elementwise kernel K o A, O(d^2).  Under
the conventions of :mod:`probelab.operators`, evolving the optimal
single-qubit state gives the Bloch vector (-sin x, cos x, 0), so the "+"
outcome of the per-qubit readout has probability p(+|x) = (1 - sin x) / 2.

The readout quantities of a given state are diagonals <k|A|k> in the readout
basis, computed by :meth:`ReadoutBasis.diagonal`: O(d^2) for the per-qubit
|+>/|-> readout (a gather plus a fast Walsh-Hadamard transform), one d^3 BLAS
product for any other basis (d = 2**n).  :meth:`ReadoutBasis.diagonals` gives
the diagonals of many masked copies of one matrix, in one O(d^2) pass on the
|+>/|-> readout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from . import operators as ops
from .errors import DimensionError, ValidationError
from .states import DensityMatrix, density_matrix

NONENTANGLING = "nonentangling"
ENTANGLING = "entangling"

#: Entries of one block of columns that :meth:`ReadoutBasis.diagonals`
#: transforms at once.
_TRANSFORM_BLOCK = 2**16

#: Most negative readout probability that :func:`probability_vector` clips
#: to 0 as round-off rather than rejecting.  Fixed, not a ``Tolerances`` field.
CLIP_FLOOR = -1e-12


@dataclass(frozen=True)
class Generator:
    """Parameter-independent generator H = diag(spectrum) in the computational basis.

    ``spectrum`` is stored as a read-only array of 2**n_qubits finite floats;
    ``matrix`` builds the dense H on demand.
    """

    n_qubits: int
    spectrum: np.ndarray

    def __post_init__(self):
        spectrum = np.asarray(self.spectrum)
        if spectrum.dtype.kind not in "iuf" or not np.isfinite(spectrum).all():
            raise ValidationError("generator spectrum must be finite real numbers")
        if spectrum.shape != (2**self.n_qubits,):
            raise DimensionError(
                f"generator spectrum of shape {spectrum.shape} on {self.n_qubits} qubits"
            )
        spectrum = spectrum.astype(float)
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.spectrum).astype(complex)

    def apply(self, ket: np.ndarray) -> np.ndarray:
        """H ket = h o ket, O(d)."""
        return self.spectrum * ket


def nonentangling_generator(n: int) -> Generator:
    """Sum of single-qubit terms, H = (1/2) sum_j Z_j.

    Cannot create entanglement between the probe qubits; eigenvalues are
    (n - 2k)/2 with binomial multiplicities: <k|H|k> = (n - 2 popcount(k))/2.
    """
    ops.check_cap(n)
    return Generator(n, 0.5 * (n - 2 * ops.bit_counts(n)))


def entangling_generator(n: int) -> Generator:
    """Single n-body string, H = (1/2) Z^(tensor n); <k|H|k> = (-1)^popcount(k) / 2."""
    ops.check_cap(n)
    return Generator(n, 0.5 * (-1.0) ** ops.bit_counts(n))


def _derivative(generator: Generator, a: np.ndarray) -> np.ndarray:
    """-i [H, A], the kernel -i (h_j - h_k)."""
    h = generator.spectrum
    return -1j * np.subtract.outer(h, h) * a


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
    return density_matrix(np.outer(phases, phases.conj()) * rho.matrix)


@dataclass(frozen=True)
class ReadoutBasis:
    """Complete orthonormal family of rank-1 projectors with outcome labels.

    ``kets[:, k]`` is the state projected onto by outcome ``labels[k]``.  A
    basis built without ``_kets`` is the per-qubit |+>/|-> readout
    (``hadamard``): its kets are the n-fold tensor power of the Hadamard
    matrix, which :meth:`diagonal` and :meth:`amplitudes` exploit without
    reading ``kets``; the d x d ``kets`` are built on first use.
    """

    labels: tuple[str, ...]
    _kets: np.ndarray | None = field(default=None, repr=False)

    @property
    def hadamard(self) -> bool:
        return self._kets is None

    @cached_property
    def kets(self) -> np.ndarray:
        if self._kets is not None:
            return self._kets
        # Columns |+> and |->: column k of the n-fold power is the ket of the
        # k-th label, '+' being bit 0 and qubit 1 the most significant bit.
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        kets = np.array(ops.kron_all([hadamard] * self.n_qubits), dtype=complex)
        kets.setflags(write=False)
        return kets

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def n_qubits(self) -> int:
        return ops.n_qubits_of_dim(len(self.labels))

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

    def diagonals(self, a: np.ndarray, group: np.ndarray, size: int) -> np.ndarray:
        """The diagonal of M_j o A for each mask M_j = (group == j), j < ``size``:
        shape (size, outcomes).

        For the Hadamard readout every row comes from one pass over A: the
        XOR gather of :meth:`diagonal`, then per real and imaginary part one
        ``bincount`` keyed by (XOR offset, j) and one transform per block of
        its columns; the rows equal :meth:`diagonal` of each masked A bit for
        bit.  Any other basis takes one :meth:`diagonal` per mask.
        """
        a = np.asarray(a)
        if not self.hadamard:
            return np.stack([self.diagonal((group == j) * a) for j in range(size)])
        rows = np.arange(self.dim)
        offsets = rows[:, None] ^ rows[None, :]
        keys = (rows * size + group[rows[:, None], offsets]).ravel()
        gathered = a[rows[:, None], offsets].ravel()
        out = np.empty((size, self.dim), dtype=complex)
        for part, values in ((out.real, gathered.real), (out.imag, gathered.imag)):
            _transform_columns(np.bincount(keys, values, out.size).reshape(self.dim, size), part)
        return out

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


def _transform_columns(sums: np.ndarray, out: np.ndarray) -> None:
    """Row j of ``out`` is the transform of column j of ``sums`` over its d
    entries, divided by d: a block of columns at a time, so that the stage
    copies stay small next to ``out`` when there are many columns.  The
    caller passes ``sums`` as a temporary, so that it is freed before the
    next part's sums are built."""
    dim = len(sums)
    step = max(1, _TRANSFORM_BLOCK // dim)
    for j in range(0, sums.shape[1], step):
        out[j : j + step] = _walsh_hadamard(sums[:, j : j + step]).T / dim


def readout_from_kets(kets: np.ndarray) -> ReadoutBasis:
    """Wrap a unitary matrix of column kets as a readout basis whose outcome
    labels are the column indices "0", "1", ...

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
    kets.setflags(write=False)
    return ReadoutBasis(tuple(str(k) for k in range(kets.shape[1])), kets)


def product_pm_readout(n: int) -> ReadoutBasis:
    """Per-qubit projective readout along |+> and |->.

    |+/-> = (|0> +/- |1>)/sqrt(2); the 2**n outcomes are labeled by strings
    over {+,-} in lexicographic order with '+' < '-' (so "++", "+-", "-+",
    "--" for two qubits), qubit 1 leftmost.
    """
    ops.check_cap(n)
    return ReadoutBasis(tuple("".join(s) for s in product("+-", repeat=n)))


def random_projective_readout(n: int, seed: int | np.random.Generator) -> ReadoutBasis:
    """Haar-random complete projective readout (for property sweeps)."""
    ops.check_cap(n)
    rng = np.random.default_rng(seed)
    dim = 2**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return readout_from_kets(q)


def probability_vector(basis: ReadoutBasis, rho: DensityMatrix) -> np.ndarray:
    """p(outcome) = tr(E rho), clipped to [0, 1], aligned with ``basis.labels``.

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
    return np.clip(raw, 0.0, 1.0)
