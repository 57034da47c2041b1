"""Symmetric logarithmic derivative, Fisher information, and saturation checks.

The SLD operator L is defined implicitly by (L rho + rho L)/2 = d(rho)/dx.  It
is constructed here in the eigenbasis of rho as L_jk = 2 (drho)_jk / (p_j +
p_k); matrix elements on eigenvalue pairs with p_j + p_k below threshold are
set to zero (the SLD is non-unique there, and the zero choice keeps tr(L^2
rho) minimal and reproducible).

A fixed projective readout extracts the classical Fisher information

    F = sum_outcomes (d p / dx)^2 / p,

which is bounded by the quantum Fisher information tr(L^2 rho).  The bound is
attained exactly when every outcome ratio <k|rho L|k>/p_k = conj(tr(E L
rho))/tr(E rho) is real and the projectors are compatible with L on the
support of rho, i.e. E (L - Re(ratio)) rho = 0 for every outcome.  Both
conditions are measured by :func:`check_saturation`.

:func:`analyze` computes all of the above for one probe under one
:class:`Tolerances`, by one of two routes:

* dense, for a state without a ket (a mixed one): the SLD in the eigenframe
  (V, lambda) that the state took for its PSD check, in two d^3 products.
  G = V^dagger (h o V) gives the derivative and the SLD there in O(d^2), and
  U M reads that SLD M through the readout amplitudes U = V_readout^dagger V
  of the eigenvectors (:meth:`ReadoutBasis.amplitudes`: a Walsh-Hadamard
  transform for the per-qubit |+>/|-> readout, one more product for any
  other basis); the SLD residual, the QFI, the ratios and the saturation
  rows take O(d^2) from these.  p_k and dp_k/dx are readout diagonals
  <k|A|k> taken by :meth:`ReadoutBasis.diagonal` (O(d^2) for the per-qubit
  |+>/|-> readout, one d^3 product for any other basis);
* closed form, for a pure state rho = |psi><psi|, whose ket its
  constructor kept or :func:`~probelab.states.density_matrix` found: with
  dpsi = -i H psi the SLD is exactly L = 2 rho' (the eigenbasis formula's
  zero-kernel choice) and F_Q = 4 Var_psi(H), so every number follows from
  the readout amplitudes phi = V^dagger psi and chi = V^dagger H psi
  (:meth:`ReadoutBasis.amplitudes`: O(d log d) for the per-qubit |+>/|->
  readout, one d^2 matvec for any other basis) in O(d) more.

:func:`sld_from_state`, :func:`quantum_fisher`, :func:`lambda_spectrum` and
:func:`check_saturation` take any derivative, not only -i[H, rho] with a
diagonal H.  They are the reference of the dense route, and the dense route
that of the closed form: ``verify`` compares each pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Generator, ReadoutBasis, state_derivative
from .errors import (
    DimensionError,
    SingularOutcomeError,
    SLDInconsistencyError,
    UndefinedLambdaError,
    ValidationError,
)
from .operators import Tolerances, is_hermitian
from .states import DensityMatrix

#: At an outcome whose probability is at or below ``probability_floor``, a
#: |dp/dx| (classical Fisher sum) or |tr(E L rho)| (inverse-eigenvalue ratio)
#: above this makes the quantity divergent or undefined.  Fixed, like
#: ``SCORE_ATOL``: neither is a :class:`Tolerances` field.
ZERO_OUTCOME_ATOL = 1e-10
#: Largest accepted |Re tr(E L rho)/p - tr(E rho')/p|, a difference that the
#: SLD equation makes zero.
SCORE_ATOL = 1e-9

@dataclass(frozen=True)
class SLDResult:
    """Hermitian SLD operator, its count of kernel pairs, and rho L."""

    operator: np.ndarray
    kernel_dim: int
    rho_l: np.ndarray


@dataclass(frozen=True)
class LambdaSpectrum:
    """Per-outcome inverse eigenvalues <k|rho L|k>/p_k = conj(tr(E L rho))/tr(E rho).

    Values are recorded as complex numbers: nonzero imaginary parts are data
    (they witness saturation failure), not errors.  Outcomes with vanishing
    probability and vanishing numerator are unconstrained and reported as 0.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    unconstrained: tuple[bool, ...]

    def real_values(self) -> np.ndarray:
        return np.real(self.values)

    def __getitem__(self, label: str) -> complex:
        return complex(self.values[self.labels.index(label)])


@dataclass(frozen=True)
class SaturationReport:
    """Diagnostics for attainment of the quantum bound by a fixed readout.

    ``im_condition_max`` is max over outcomes of |Im tr(rho E L)|;
    ``diagonal_residual`` aggregates || E (L - Re(1/lambda)) rho ||_F over
    outcomes.  ``saturated`` is defined as both residuals <= tolerance.
    """

    im_condition_max: float
    diagonal_residual: float
    saturated: bool


def sld_from_state(
    rho: DensityMatrix,
    rho_prime: np.ndarray,
    tol: float = Tolerances.kernel_tol,
    *,
    residual_tol: float = Tolerances.sld_residual,
) -> SLDResult:
    """Solve (L rho + rho L)/2 = rho_prime for Hermitian L.

    ``tol`` is the kernel threshold on eigenvalue sums p_j + p_k.  Raises
    :class:`ValidationError` if ``tol`` or ``residual_tol`` is not >= 0 (a
    negative kernel threshold divides by zero eigenvalue sums), and
    :class:`SLDInconsistencyError` if the defining equation cannot be met to
    within ``residual_tol`` after kernel handling (the derivative then has
    support where the state has none).
    """
    _check_sld_thresholds(tol, residual_tol)
    rho_prime = np.asarray(rho_prime, dtype=complex)
    if rho_prime.shape != rho.matrix.shape:
        raise DimensionError(
            f"derivative shape {rho_prime.shape} does not match state {rho.matrix.shape}"
        )
    _check_derivative(rho_prime)
    eig = rho.eigen
    drho_eig = eig.vectors.conj().T @ rho_prime @ eig.vectors
    weights, kernel = _sld_weights(eig.values, tol)
    l_op = eig.vectors @ (weights * drho_eig) @ eig.vectors.conj().T
    l_op = 0.5 * (l_op + l_op.conj().T)
    rho_l = rho.matrix @ l_op  # and L rho = (rho L)^dagger
    residual = np.linalg.norm(0.5 * (rho_l + rho_l.conj().T) - rho_prime)
    _check_sld_residual(float(residual), residual_tol)
    return SLDResult(l_op, int(np.sum(kernel)), rho_l)


def _check_sld_thresholds(tol: float, residual_tol: float) -> None:
    for name, value in (("tol", tol), ("residual_tol", residual_tol)):
        if not value >= 0:  # NaN too
            raise ValidationError(f"sld_from_state: {name} must be >= 0, got {value!r}")


def _check_derivative(rho_prime: np.ndarray) -> None:
    if not is_hermitian(rho_prime):
        raise SLDInconsistencyError("state derivative must be Hermitian")


def _sld_weights(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenframe weights 2/(p_j + p_k) of the SLD, p = max(values, 0),
    zero on the kernel p_j + p_k <= ``tol``, and the kernel mask."""
    p = np.clip(values, 0.0, None)
    sums = p[:, None] + p[None, :]
    kernel = sums <= tol
    return np.where(kernel, 0.0, 2.0 / np.where(kernel, 1.0, sums)), kernel


def _check_sld_residual(residual: float, residual_tol: float) -> None:
    if not residual <= residual_tol:  # a NaN residual fails too
        raise SLDInconsistencyError(
            f"defining-equation residual {residual:.3e} exceeds "
            f"{residual_tol:.1e}: derivative has support outside the state"
        )


def pure_sld_residual(phi: np.ndarray, chi: np.ndarray, l_psi: np.ndarray) -> float:
    """||(L rho + rho L)/2 - rho'||_F for rho = |psi><psi| and rho' = -i[H, rho].

    Takes the readout amplitudes phi = V^dagger psi, chi = V^dagger H psi and
    l_psi = V^dagger L psi.  With a = l_psi / 2 + i chi and c = phi^dagger a
    the residual operator is a phi^dagger + phi a^dagger, whose squared norm
    is taken as 4 Re(c)^2 + 2 |a - c phi|^2: both terms are non-negative, so
    no digits cancel near a solution (the equal form 2|a|^2 + 2 Re(c^2) does).
    """
    a = 0.5 * l_psi + 1j * chi
    c = phi.conj() @ a
    perp = a - c * phi
    return math.sqrt(4.0 * c.real * c.real + 2.0 * (perp.conj() @ perp).real)


def sld_from_spectrum(basis: ReadoutBasis, inv_lambdas) -> np.ndarray:
    """Readout-diagonal d x d operator sum_outcomes (1/lambda) E(outcome)."""
    values = _inv_lambda_array(basis, inv_lambdas)
    return (basis.kets * values) @ basis.kets.conj().T


def _inv_lambda_array(basis: ReadoutBasis, inv_lambdas) -> np.ndarray:
    """Accepts a LambdaSpectrum, a label->value mapping, or an aligned array."""
    if isinstance(inv_lambdas, LambdaSpectrum):
        if inv_lambdas.labels != basis.labels:
            raise DimensionError("lambda spectrum labels do not match the basis")
        return np.real(inv_lambdas.values)
    if hasattr(inv_lambdas, "keys"):
        return np.array([float(inv_lambdas[label]) for label in basis.labels])
    values = np.asarray(inv_lambdas, dtype=float)
    if values.shape != (basis.dim,):
        raise DimensionError(
            f"expected {basis.dim} inverse eigenvalues, got shape {values.shape}"
        )
    return values


def lambda_spectrum(
    basis: ReadoutBasis,
    rho: DensityMatrix,
    rho_prime: np.ndarray,
    l_op: np.ndarray,
    *,
    probability_floor: float = Tolerances.probability_floor,
) -> LambdaSpectrum:
    """Per-outcome ratios <k|rho L|k>/p_k = conj(tr(E L rho))/tr(E rho), kept complex.

    Cross-checks that the real parts match tr(E rho')/tr(E rho) (an exact
    consequence of the defining equation).  Outcomes where both numerator and
    probability vanish are unconstrained; a vanishing probability with a
    nonvanishing numerator is an error.
    """
    if basis.dim != rho.dim:
        raise DimensionError("basis and state dimensions differ")
    return _ratio_spectrum(
        basis.labels,
        basis.diagonal(rho.matrix @ l_op),
        np.real(basis.diagonal(rho.matrix)),
        np.real(basis.diagonal(rho_prime)),
        probability_floor,
    )


def _ratio_spectrum(
    labels: tuple[str, ...],
    numerators: np.ndarray,
    probs: np.ndarray,
    dprobs: np.ndarray,
    probability_floor: float,
) -> LambdaSpectrum:
    """The ratios of :func:`lambda_spectrum`, with its rules, from the
    per-outcome numerators <k|rho L|k>, probabilities and dp/dx; the first
    outcome, in label order, that breaks a rule raises."""
    low = probs <= probability_floor
    kept = ~low
    ratios = numerators[kept] / probs[kept]
    broken = low & (np.abs(numerators) > ZERO_OUTCOME_ATOL)
    broken[kept] = np.abs(ratios.real - dprobs[kept] / probs[kept]) > SCORE_ATOL
    if broken.any():
        k = int(np.argmax(broken))
        if low[k]:
            raise UndefinedLambdaError(
                f"outcome {labels[k]!r} has probability {probs[k]:.3e} but "
                f"|tr(E L rho)| = {abs(numerators[k]):.3e}"
            )
        raise SLDInconsistencyError(
            f"outcome {labels[k]!r}: Re tr(E L rho)/p = {(numerators[k] / probs[k]).real:.12g} "
            f"does not match tr(E rho')/p = {dprobs[k] / probs[k]:.12g}"
        )
    values = np.zeros(len(labels), dtype=complex)
    values[kept] = ratios
    values.setflags(write=False)
    return LambdaSpectrum(labels=labels, values=values, unconstrained=tuple(low.tolist()))


def check_saturation(
    basis: ReadoutBasis,
    rho: DensityMatrix,
    rho_prime: np.ndarray,
    *,
    tol: float = Tolerances.saturation,
    sld: SLDResult | None = None,
) -> SaturationReport:
    """Evaluate both saturation conditions for a fixed projective readout.

    Takes L and rho L from ``sld``, or builds them with the default
    thresholds, and the ratios of :func:`lambda_spectrum` from that rho L
    with the default probability floor, then measures (a) the largest
    imaginary part of tr(rho E L) over outcomes and (b) the projector
    compatibility residual
    sqrt(sum_outcomes ||E (L - Re(1/lambda)) rho||_F^2), which vanishes
    exactly when the readout projects onto an eigenbasis of an SLD with real
    eigenvalue ratios on the support of rho.
    """
    if basis.dim != rho.dim:
        raise DimensionError("basis and state dimensions differ")
    if sld is None:
        sld = sld_from_state(rho, rho_prime)
    probs, dprobs = np.real(basis.diagonal(rho.matrix)), np.real(basis.diagonal(rho_prime))
    numerators = basis.diagonal(sld.rho_l)  # <theta| rho L |theta>
    spectrum = _ratio_spectrum(
        basis.labels, numerators, probs, dprobs, Tolerances.probability_floor
    )
    # tr(rho E L) = conj <theta| rho L |theta> by cyclicity.
    im_max = float(np.max(np.abs(np.imag(numerators))))
    # Row vectors <theta| (L - Re(1/lambda)) rho for every outcome, from a
    # contiguous (rho L)^dagger: the transform runs faster on it than on a view.
    u = np.real(spectrum.values)[:, None]
    rows = basis.amplitudes(np.conj(sld.rho_l.T, order="C")) - u * basis.amplitudes(rho.matrix)
    return _saturation(im_max, float(np.linalg.norm(rows)), tol)


def _saturation(im_max: float, diag_residual: float, tol: float) -> SaturationReport:
    return SaturationReport(im_max, diag_residual, bool(im_max <= tol and diag_residual <= tol))


def classical_fisher(
    basis: ReadoutBasis,
    rho: DensityMatrix,
    rho_prime: np.ndarray,
    *,
    probability_floor: float = Tolerances.probability_floor,
) -> float:
    """F = sum over outcomes of (dp/dx)^2 / p with dp/dx = tr(E rho').

    Outcomes with both p and dp/dx below floor contribute nothing; a vanishing
    p with a nonvanishing derivative makes the sum divergent and raises.
    """
    if basis.dim != rho.dim:
        raise DimensionError("basis and state dimensions differ")
    return _fisher_sum(
        basis.labels,
        np.real(basis.diagonal(rho.matrix)),
        np.real(basis.diagonal(rho_prime)),
        probability_floor,
    )


def _fisher_sum(
    labels: tuple[str, ...], probs: np.ndarray, dprobs: np.ndarray, probability_floor: float
) -> float:
    """sum dp^2 / p with the floor rule of :func:`classical_fisher`; the first
    outcome, in label order, that breaks it raises.  The kept terms are added
    left to right from 0.0."""
    low = probs <= probability_floor
    singular = low & (np.abs(dprobs) > ZERO_OUTCOME_ATOL)
    if singular.any():
        k = int(np.argmax(singular))
        raise SingularOutcomeError(
            f"outcome {labels[k]!r} has probability {probs[k]:.3e} but derivative {dprobs[k]:.3e}"
        )
    p, dp = probs[~low], dprobs[~low]
    return float(np.cumsum(np.concatenate(([0.0], dp * dp / p)))[-1])


def quantum_fisher(
    rho: DensityMatrix, rho_prime: np.ndarray, *, sld: SLDResult | None = None
) -> float:
    """tr(L^2 rho): the maximum of the classical Fisher information.

    L is ``sld`` when given, else built with the default kernel threshold.
    """
    if sld is None:
        sld = sld_from_state(rho, rho_prime)
    # sum_jk (rho L)_jk L_kj, with L_kj = conj(L_jk)
    return float(np.vdot(sld.operator, sld.rho_l).real)


def cramer_rao_bound(fisher: float, repetitions: int = 1) -> float:
    """Lower bound 1/sqrt(repetitions * fisher) on the estimate uncertainty.

    A non-positive Fisher information leaves the uncertainty unbounded, which
    is reported as ``inf``.  Raises :class:`ValidationError` for
    ``repetitions < 1``.
    """
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if fisher <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(repetitions * fisher)


@dataclass(frozen=True)
class Analysis:
    """Both Fisher informations, the spectrum and the saturation of one probe."""

    classical_fisher: float
    quantum_fisher: float
    spectrum: LambdaSpectrum
    saturation: SaturationReport


def analyze(
    generator: Generator, state: DensityMatrix, basis: ReadoutBasis, tol: Tolerances = Tolerances()
) -> Analysis:
    """One pass over a probe: one derivative, one SLD and one spectrum.

    A state with a ket takes the closed-form route (O(d log d) on the
    per-qubit readout, O(d^2) on any other); any other state the dense route
    in its eigenframe, two d^3 products on the per-qubit readout (at n=10
    about 0.6 s on one thread of a 2-core Intel Xeon, against 1.3 s for the
    five products of the parts above).  Both raise what the parts raise, in
    this order: a divergent classical Fisher sum, a negative SLD threshold
    (dense route), an inconsistent SLD, then an undefined or inconsistent
    ratio.
    """
    if basis.dim != state.dim or generator.n_qubits != state.n_qubits:
        raise DimensionError("basis, generator and state dimensions differ")
    if state.ket is not None:
        return _analyze_pure(generator, state, basis, tol)
    return _analyze_dense(generator, state, basis, tol)


def _analyze_dense(
    generator: Generator, state: DensityMatrix, basis: ReadoutBasis, tol: Tolerances
) -> Analysis:
    """:func:`analyze` for any state, in the eigenframe (V, lambda) that the
    state keeps from its PSD check, in two d^3 products.

    With H = diag(h) the derivative there is D = V^dagger rho' V =
    -i (G Lambda - Lambda G) from the one product G = V^dagger (h o V), and
    the SLD is M = V^dagger L V = W o D, made Hermitian, with the weights W of
    :func:`sld_from_state`; its residual ||(Lambda M + M Lambda)/2 - D||_F and
    tr(L^2 rho) = sum_jk lambda_j |M_jk|^2 are O(d^2).  With the readout
    amplitudes U = V_readout^dagger V of the eigenvectors
    (:meth:`ReadoutBasis.amplitudes`) and the second product UM, the ratio
    numerators are <k|rho L|k> = conj(sum_j (UM)_kj lambda_j conj(U_kj)) and
    the saturation rows <k|(L - u_k) rho V are the rows of (UM - diag(u) U)
    Lambda.  p_k and dp_k are the readout diagonals of rho and rho', as for
    :func:`classical_fisher`.
    """
    rho_prime = state_derivative(generator, state)
    probs, dprobs = np.real(basis.diagonal(state.matrix)), np.real(basis.diagonal(rho_prime))
    floor = tol.probability_floor
    f_classical = _fisher_sum(basis.labels, probs, dprobs, floor)
    _check_sld_thresholds(tol.kernel_tol, tol.sld_residual)
    _check_derivative(rho_prime)
    lam, v = state.eigen.values, state.eigen.vectors
    drho = v.conj().T @ (generator.spectrum[:, None] * v)
    drho *= 1j * np.subtract.outer(lam, lam)
    weights = _sld_weights(lam, tol.kernel_tol)[0]
    m = weights * drho
    m = 0.5 * (m + m.conj().T)
    residual = np.linalg.norm(0.5 * np.add.outer(lam, lam) * m - drho)
    _check_sld_residual(float(residual), tol.sld_residual)
    f_quantum = float(np.vdot(m, lam[:, None] * m).real)
    amplitudes = basis.amplitudes(v)
    um = amplitudes @ m
    numerators = np.conj((um * amplitudes.conj()) @ lam)
    spectrum = _ratio_spectrum(basis.labels, numerators, probs, dprobs, floor)
    um -= spectrum.values.real[:, None] * amplitudes
    um *= lam
    saturation = _saturation(
        float(np.max(np.abs(numerators.imag))), float(np.linalg.norm(um)), tol.saturation
    )
    return Analysis(f_classical, f_quantum, spectrum, saturation)


def _analyze_pure(
    generator: Generator, state: DensityMatrix, basis: ReadoutBasis, tol: Tolerances
) -> Analysis:
    """:func:`analyze` for rho = |psi><psi| from the readout amplitudes of psi.

    With phi = V^dagger psi, chi = V^dagger H psi, p_k = |phi_k|^2 and
    h = <psi|H|psi>: dp_k = 2 Im(conj(phi_k) chi_k), and L = 2 rho' =
    -2i (|H psi><psi| - |psi><H psi|) has L psi = -2i (H - h) psi.  Every
    psi-kernel eigenvalue pair of rho sums to exactly 1, so ``kernel_tol`` >= 1
    puts them in the kernel and zeroes L, as on the dense route.  Then
    tr(E_k L rho) = phi_k conj(<k|L psi>), tr(L^2 rho) = ||L psi||^2 and each
    saturation row <k|(L - u_k) rho is rank one, of norm |<k|L psi> - u_k phi_k|.
    """
    phi = basis.amplitudes(state.ket)
    chi = basis.amplitudes(generator.apply(state.ket))
    phi_c = phi.conj()
    probs = (phi_c * phi).real
    dprobs = 2.0 * (phi_c * chi).imag
    floor = tol.probability_floor
    f_classical = _fisher_sum(basis.labels, probs, dprobs, floor)
    l_psi = -2j * (chi - (phi_c @ chi).real * phi) if tol.kernel_tol < 1.0 else np.zeros_like(phi)
    _check_sld_residual(pure_sld_residual(phi, chi, l_psi), tol.sld_residual)
    numerators = phi * l_psi.conj()
    spectrum = _ratio_spectrum(basis.labels, numerators, probs, dprobs, floor)
    return Analysis(
        classical_fisher=f_classical,
        quantum_fisher=float(np.vdot(l_psi, l_psi).real),
        spectrum=spectrum,
        saturation=_saturation(
            float(np.max(np.abs(numerators.imag))),
            float(np.linalg.norm(l_psi - spectrum.values.real * phi)),
            tol.saturation,
        ),
    )
