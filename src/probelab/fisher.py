"""Symmetric logarithmic derivative, Fisher information, and saturation checks.

The SLD operator L is defined implicitly by (L rho + rho L)/2 = d(rho)/dx.  It
is constructed here in the eigenbasis of rho as L_jk = 2 (drho)_jk / (p_j +
p_k); matrix elements on eigenvalue pairs with p_j + p_k below threshold are
set to zero (the SLD is non-unique there, and the zero choice keeps tr(L^2
rho) minimal and reproducible).

A fixed projective readout extracts the classical Fisher information

    F = sum_outcomes (d p / dx)^2 / p,

which is bounded by the quantum Fisher information tr(L^2 rho).  The bound is
attained exactly when every outcome ratio tr(E L rho)/tr(E rho) is real and
the projectors are compatible with L on the support of rho, i.e.
E (L - Re(ratio)) rho = 0 for every outcome.  Both conditions are measured by
:func:`check_saturation`.

:func:`analyze` computes all of the above for one probe under one
:class:`Tolerances`, by one of two routes:

* dense, for a state without a ket (a mixed one): one derivative, one SLD
  (a d x d eigendecomposition plus a few d^3 products) and one spectrum, each
  per-outcome number a readout diagonal <k|A|k> taken by
  :meth:`ReadoutBasis.diagonal` (O(d^2) for the per-qubit |+>/|-> readout,
  one d^3 BLAS product for any other basis);
* closed form, for a pure state rho = |psi><psi|, whose ket
  :func:`~probelab.states.density_matrix` finds whatever built it: with
  dpsi = -i H psi the SLD is exactly L = 2 rho' (the eigenbasis formula's
  zero-kernel choice) and F_Q = 4 Var_psi(H), so every number follows from
  the readout amplitudes phi = V^dagger psi and chi = V^dagger H psi
  (:meth:`ReadoutBasis.amplitudes`: O(d log d) for the per-qubit |+>/|->
  readout, one d^2 matvec for any other basis) in O(d) more.

The dense route stays the reference: ``verify`` compares the two.
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
)
from .operators import Tolerances, hermitian_eigen, is_hermitian
from .states import DensityMatrix

EIGENBASIS_FORMULA = "eigenbasis-formula"
READOUT_DIAGONAL = "readout-diagonal"

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
    """Hermitian SLD operator plus bookkeeping about how it was built."""

    operator: np.ndarray
    route: str
    kernel_dim: int


@dataclass(frozen=True)
class LambdaSpectrum:
    """Per-outcome inverse eigenvalues tr(E L rho)/tr(E rho).

    Values are recorded as complex numbers: nonzero imaginary parts are data
    (they witness saturation failure), not errors.  Outcomes with vanishing
    probability and vanishing numerator are unconstrained and reported as 0.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    unconstrained: tuple[bool, ...]

    def real_values(self) -> np.ndarray:
        return np.real(self.values)

    def max_abs_imag(self) -> float:
        return float(np.max(np.abs(np.imag(self.values)))) if len(self.values) else 0.0

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
    :class:`SLDInconsistencyError` if the defining equation cannot be met to
    within ``residual_tol`` after kernel handling (the derivative then has
    support where the state has none).
    """
    rho_prime = np.asarray(rho_prime, dtype=complex)
    if rho_prime.shape != rho.matrix.shape:
        raise DimensionError(
            f"derivative shape {rho_prime.shape} does not match state {rho.matrix.shape}"
        )
    if not is_hermitian(rho_prime):
        raise SLDInconsistencyError("state derivative must be Hermitian")
    eig = hermitian_eigen(rho.matrix)
    p = np.clip(eig.values, 0.0, None)
    drho_eig = eig.vectors.conj().T @ rho_prime @ eig.vectors
    sums = p[:, None] + p[None, :]
    kernel = sums <= tol
    weights = np.where(kernel, 0.0, 2.0 / np.where(kernel, 1.0, sums))
    l_eig = weights * drho_eig
    l_op = eig.vectors @ l_eig @ eig.vectors.conj().T
    l_op = 0.5 * (l_op + l_op.conj().T)
    _check_sld_residual(
        float(np.linalg.norm(0.5 * (l_op @ rho.matrix + rho.matrix @ l_op) - rho_prime)),
        residual_tol,
    )
    return SLDResult(
        operator=l_op, route=EIGENBASIS_FORMULA, kernel_dim=int(np.sum(kernel))
    )


def _check_sld_residual(residual: float, residual_tol: float) -> None:
    if residual > residual_tol:
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


def sld_from_spectrum(basis: ReadoutBasis, inv_lambdas) -> SLDResult:
    """Readout-diagonal operator sum_outcomes (1/lambda) E(outcome)."""
    values = _inv_lambda_array(basis, inv_lambdas)
    l_op = (basis.kets * values) @ basis.kets.conj().T
    return SLDResult(operator=l_op, route=READOUT_DIAGONAL, kernel_dim=0)


def _inv_lambda_array(basis: ReadoutBasis, inv_lambdas) -> np.ndarray:
    """Accepts a LambdaSpectrum, a label->value mapping, or an aligned array."""
    if isinstance(inv_lambdas, LambdaSpectrum):
        if inv_lambdas.labels != basis.labels:
            raise DimensionError("lambda spectrum labels do not match the basis")
        return np.real(inv_lambdas.values)
    if hasattr(inv_lambdas, "keys"):
        return np.array([float(inv_lambdas[label]) for label in basis.labels])
    values = np.asarray(inv_lambdas, dtype=float)
    if values.shape != (basis.n_outcomes,):
        raise DimensionError(
            f"expected {basis.n_outcomes} inverse eigenvalues, got shape {values.shape}"
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
    """Per-outcome ratios tr(E L rho) / tr(E rho), kept complex.

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
    """The ratios tr(E L rho)/p of :func:`lambda_spectrum`, with its rules,
    from the per-outcome numerators, probabilities and dp/dx."""
    values = np.zeros(len(labels), dtype=complex)
    unconstrained = []
    for k, label in enumerate(labels):
        if probs[k] <= probability_floor:
            if abs(numerators[k]) > ZERO_OUTCOME_ATOL:
                raise UndefinedLambdaError(
                    f"outcome {label!r} has probability {probs[k]:.3e} but "
                    f"|tr(E L rho)| = {abs(numerators[k]):.3e}"
                )
            values[k] = 0.0
            unconstrained.append(True)
            continue
        ratio = numerators[k] / probs[k]
        if abs(ratio.real - dprobs[k] / probs[k]) > SCORE_ATOL:
            raise SLDInconsistencyError(
                f"outcome {label!r}: Re tr(E L rho)/p = {ratio.real:.12g} does not "
                f"match tr(E rho')/p = {dprobs[k] / probs[k]:.12g}"
            )
        values[k] = ratio
        unconstrained.append(False)
    values.setflags(write=False)
    return LambdaSpectrum(labels=labels, values=values, unconstrained=tuple(unconstrained))


def check_saturation(
    basis: ReadoutBasis,
    rho: DensityMatrix,
    rho_prime: np.ndarray,
    *,
    tol: float = Tolerances.saturation,
    sld: SLDResult | None = None,
    spectrum: LambdaSpectrum | None = None,
) -> SaturationReport:
    """Evaluate both saturation conditions for a fixed projective readout.

    Takes L from ``sld`` and the ratios from ``spectrum``, or builds them with
    the default thresholds, then measures (a) the largest
    imaginary part of tr(rho E L) over outcomes and (b) the projector
    compatibility residual sqrt(sum_outcomes ||E (L - Re(1/lambda)) rho||_F^2),
    which vanishes exactly when the readout projects onto an eigenbasis of an
    SLD with real eigenvalue ratios on the support of rho.
    """
    if sld is None:
        sld = sld_from_state(rho, rho_prime)
    if spectrum is None:
        spectrum = lambda_spectrum(basis, rho, rho_prime, sld.operator)
    l_rho = sld.operator @ rho.matrix
    # tr(rho E L) = <theta| L rho |theta> by cyclicity.
    traces = basis.diagonal(l_rho)
    im_max = float(np.max(np.abs(np.imag(traces))))
    # Row vectors <theta| (L - Re(1/lambda)) rho for every outcome.
    u = np.real(spectrum.values)[:, None]
    rows = basis.amplitudes(l_rho) - u * basis.amplitudes(rho.matrix)
    diag_residual = float(np.linalg.norm(rows))
    return SaturationReport(
        im_condition_max=im_max,
        diagonal_residual=diag_residual,
        saturated=bool(im_max <= tol and diag_residual <= tol),
    )


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
    """sum dp^2 / p with the floor rule of :func:`classical_fisher`."""
    total = 0.0
    for label, p, dp in zip(labels, probs, dprobs):
        if p <= probability_floor:
            if abs(dp) > ZERO_OUTCOME_ATOL:
                raise SingularOutcomeError(
                    f"outcome {label!r} has probability {p:.3e} but derivative {dp:.3e}"
                )
            continue
        total += dp * dp / p
    return float(total)


def quantum_fisher(
    rho: DensityMatrix, rho_prime: np.ndarray, *, sld: SLDResult | None = None
) -> float:
    """tr(L^2 rho): the maximum of the classical Fisher information.

    L is ``sld`` when given, else built with the default kernel threshold.
    """
    if sld is None:
        sld = sld_from_state(rho, rho_prime)
    l2 = sld.operator @ sld.operator
    return float(np.real(np.trace(l2 @ rho.matrix)))


def cramer_rao_bound(fisher: float, repetitions: int = 1) -> float:
    """Lower bound 1/sqrt(repetitions * fisher) on the estimate uncertainty.

    A non-positive Fisher information leaves the uncertainty unbounded, which
    is reported as ``inf``.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
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
    of the parts above.  Both raise what the parts raise, in
    this order: a divergent classical Fisher sum, an inconsistent SLD, then
    an undefined or inconsistent ratio.
    """
    if state.ket is not None:
        return _analyze_pure(generator, state, basis, tol)
    rho_prime = state_derivative(generator, state)
    floor = tol.probability_floor
    f_classical = classical_fisher(basis, state, rho_prime, probability_floor=floor)
    sld = sld_from_state(state, rho_prime, tol=tol.kernel_tol, residual_tol=tol.sld_residual)
    spectrum = lambda_spectrum(basis, state, rho_prime, sld.operator, probability_floor=floor)
    return Analysis(
        classical_fisher=f_classical,
        quantum_fisher=quantum_fisher(state, rho_prime, sld=sld),
        spectrum=spectrum,
        saturation=check_saturation(
            basis, state, rho_prime, tol=tol.saturation, sld=sld, spectrum=spectrum
        ),
    )


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
    if basis.dim != state.dim or generator.n_qubits != state.n_qubits:
        raise DimensionError("basis, generator and state dimensions differ")
    phi = basis.amplitudes(state.ket)
    chi = basis.amplitudes(generator.apply(state.ket))
    phi_c = phi.conj()
    probs = (phi_c * phi).real
    dprobs = 2.0 * (phi_c * chi).imag
    floor = tol.probability_floor
    f_classical = _fisher_sum(basis.labels, probs, dprobs, floor)
    if tol.kernel_tol < 1.0:
        l_psi = -2j * (chi - (phi_c @ chi).real * phi)
    else:
        l_psi = np.zeros_like(phi)
    _check_sld_residual(pure_sld_residual(phi, chi, l_psi), tol.sld_residual)
    numerators = phi * l_psi.conj()
    spectrum = _ratio_spectrum(basis.labels, numerators, probs, dprobs, floor)
    im_max = float(np.max(np.abs(numerators.imag)))
    diag_residual = float(np.linalg.norm(l_psi - spectrum.values.real * phi))
    return Analysis(
        classical_fisher=f_classical,
        quantum_fisher=float(np.vdot(l_psi, l_psi).real),
        spectrum=spectrum,
        saturation=SaturationReport(
            im_condition_max=im_max,
            diagonal_residual=diag_residual,
            saturated=bool(im_max <= tol.saturation and diag_residual <= tol.saturation),
        ),
    )
