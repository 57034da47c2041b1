"""Solve the optimal-probe-state equation for a fixed readout and generator.

The stationarity condition ties a probe state rho, the readout projectors
E(outcome) and the per-outcome inverse eigenvalues u = 1/lambda together:

    (1/2) { sum_outcomes u E,  rho }  =  -i [H, rho].

For a fixed state the equation is linear in the u, so the inner problem is an
exact least-squares solve; the outer search over pure states is a seeded
multi-start simplex method.

The readout is fixed, so the inner solve (``_fit``, which
``solve_lambdas_given_state``, ``sol1_residual`` and the closed forms view)
takes one route per kind of probe:

* a pure probe psi with its ket: a closed form in the readout amplitudes
  phi = V^dagger psi and chi = V^dagger H psi, u_k = p'_k / p_k, the
  classical score, so the diagonal QFI sum_k u_k^2 p_k is the classical
  Fisher information of the readout.  The amplitudes cost one fast
  Walsh-Hadamard transform each on the per-qubit readout, the rest O(d).
  The pure-state search objective feeds the same kernel from one O(d^2)
  matvec per evaluation.
* any other state: with R = V^dagger rho V and T = V^dagger (-i[H, rho]) V
  the operator sum_k u_k E_k is diag(u) and the equation holds entry by
  entry, (u_j + u_k)/2 R_jk = T_jk: d x d normal equations and O(d^2)
  sums for the residual and the QFI, after forming R and T in
  O(d^2 log d) on the per-qubit readout (two d^3 products on any other).

The closed form is the rank-one case of the frame's normal equations.  The
dense (2 d^2 x d) system of one outer product per outcome is kept only in
:mod:`probelab.verify`, as the reference both routes are checked against.

For two qubits the equation is equivalent to
sixteen bilinear relations between the K combinations of the u and the Pauli
coefficients (a_i, b_j, c_ij) of the state; both the explicit sixteen-equation
systems and the dense operator route are implemented so each can check the
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import optimize

from . import operators as ops
from .dynamics import (
    ENTANGLING,
    NONENTANGLING,
    Generator,
    ReadoutBasis,
    _derivative,
    entangling_generator,
    nonentangling_generator,
    product_pm_readout,
    state_derivative,
)
from .errors import DimensionError, UnsupportedClosedFormError, ValidationError
from .fisher import LambdaSpectrum, _inv_lambda_array, analyze, pure_sld_residual
from .states import (
    BlochCoefficients,
    DensityMatrix,
    density_matrix,
    hermitian_from_bloch,
    optimal_single_qubit,
    tensor_power,
    two_qubit_entangling_candidate,
)

CLOSED_FORM = "closed-form"
NUMERIC_SEARCH = "numeric-search"

#: Decimals of the Pauli coefficients that key duplicate search solutions.
DEDUP_DECIMALS = 6


# ---------------------------------------------------------------------------
# K combinations and the two-qubit coefficient systems
# ---------------------------------------------------------------------------

#: Order of the K combinations: K[0] = u++ + u+- + u-+ + u--,
#: K[1] = u++ + u+- - u-+ - u--, K[2] = u++ - u+- + u-+ - u--,
#: K[3] = u++ - u+- - u-+ + u--.
K_SIGNS = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)

TWO_QUBIT_LABELS = ("++", "+-", "-+", "--")


def k_values_from_inv_lambdas(inv_lambdas) -> np.ndarray:
    """The four K combinations from per-outcome inverse eigenvalues."""
    if isinstance(inv_lambdas, Mapping):
        u = np.array([float(inv_lambdas[label]) for label in TWO_QUBIT_LABELS])
    else:
        u = np.asarray(inv_lambdas, dtype=float)
    if u.shape != (4,):
        raise DimensionError("expected four inverse eigenvalues for two qubits")
    return K_SIGNS @ u


def inv_lambdas_from_k_values(k_values) -> np.ndarray:
    """Inverse map; K_SIGNS is 4x its own inverse."""
    k = np.asarray(k_values, dtype=float)
    return (K_SIGNS.T @ k) / 4.0


@dataclass(frozen=True)
class EquationRow:
    """One bilinear relation: sum of K[m] * coeff terms minus a linear RHS.

    ``operator`` tags the Pauli string sigma_alpha x sigma_beta whose
    coefficient in the dense operator equation this row reproduces (x16).
    """

    operator: tuple[int, int]
    lhs: tuple[tuple[int, str, float], ...]
    rhs: tuple[tuple[float, str], ...]


def _rows(spec: list) -> tuple[EquationRow, ...]:
    out = []
    for op, lhs, rhs in spec:
        lhs_terms = tuple(
            (item[0], item[1], item[2] if len(item) == 3 else 1.0) for item in lhs
        )
        out.append(EquationRow(operator=op, lhs=lhs_terms, rhs=tuple(rhs)))
    return tuple(out)


# Sixteen relations for the sum-of-single-qubit-terms generator, in the same
# order as the corresponding operator coefficients are conventionally listed.
_NONENTANGLING_ROWS = _rows(
    [
        ((0, 0), [(0, "1"), (1, "a1"), (2, "b1"), (3, "c11")], []),
        ((0, 1), [(2, "1"), (3, "a1"), (0, "b1"), (1, "c11")], [(-4.0, "b2")]),
        ((1, 0), [(1, "1"), (0, "a1"), (3, "b1"), (2, "c11")], [(-4.0, "a2")]),
        ((1, 1), [(3, "1"), (2, "a1"), (1, "b1"), (0, "c11")],
         [(-4.0, "c12"), (-4.0, "c21")]),
        ((0, 2), [(0, "b2"), (1, "c12")], [(4.0, "b1")]),
        ((1, 2), [(1, "b2"), (0, "c12")], [(4.0, "c11"), (-4.0, "c22")]),
        ((2, 0), [(0, "a2"), (2, "c21")], [(4.0, "a1")]),
        ((2, 1), [(2, "a2"), (0, "c21")], [(4.0, "c11"), (-4.0, "c22")]),
        ((3, 0), [(0, "a3"), (2, "c31")], []),
        ((3, 1), [(2, "a3"), (0, "c31")], [(-4.0, "c32")]),
        ((0, 3), [(0, "b3"), (1, "c13")], []),
        ((1, 3), [(1, "b3"), (0, "c13")], [(-4.0, "c23")]),
        ((2, 2), [(0, "c22"), (3, "c33", -1.0)], [(4.0, "c12"), (4.0, "c21")]),
        ((2, 3), [(0, "c23"), (3, "c32")], [(4.0, "c13")]),
        ((3, 2), [(3, "c23"), (0, "c32")], [(4.0, "c31")]),
        ((3, 3), [(0, "c33"), (3, "c22", -1.0)], []),
    ]
)

# Sixteen relations for the single N-body string generator.
_ENTANGLING_ROWS = _rows(
    [
        ((0, 0), [(0, "1"), (1, "a1"), (2, "b1"), (3, "c11")], []),
        ((1, 1), [(3, "1"), (2, "a1"), (1, "b1"), (0, "c11")], []),
        ((1, 0), [(1, "1"), (0, "a1"), (3, "b1"), (2, "c11")], [(-4.0, "c23")]),
        ((0, 1), [(2, "1"), (3, "a1"), (0, "b1"), (1, "c11")], [(-4.0, "c32")]),
        ((3, 0), [(0, "a3"), (2, "c31")], []),
        ((2, 2), [(0, "c22"), (3, "c33", -1.0)], []),
        ((0, 2), [(0, "b2"), (1, "c12")], [(4.0, "c31")]),
        ((2, 0), [(0, "a2"), (2, "c21")], [(4.0, "c13")]),
        ((3, 1), [(2, "a3"), (0, "c31")], [(-4.0, "b2")]),
        ((0, 3), [(0, "b3"), (1, "c13")], []),
        ((1, 3), [(1, "b3"), (0, "c13")], [(-4.0, "a2")]),
        ((3, 3), [(0, "c33"), (3, "c22", -1.0)], []),
        ((2, 1), [(0, "c21"), (2, "a2")], []),
        ((1, 2), [(0, "c12"), (1, "b2")], []),
        ((3, 2), [(0, "c32"), (3, "c23")], [(4.0, "b1")]),
        ((2, 3), [(0, "c23"), (3, "c32")], [(4.0, "a1")]),
    ]
)


@dataclass(frozen=True)
class CoefficientSystem:
    """The sixteen bilinear relations for a two-qubit probe."""

    kind: str
    equations: tuple[EquationRow, ...]
    n_qubits: int = 2


def two_qubit_system(kind: str) -> CoefficientSystem:
    if kind == NONENTANGLING:
        return CoefficientSystem(kind=kind, equations=_NONENTANGLING_ROWS)
    if kind == ENTANGLING:
        return CoefficientSystem(kind=kind, equations=_ENTANGLING_ROWS)
    raise ValidationError(f"unknown generator kind {kind!r}")


def _coefficient_table(coeffs: BlochCoefficients) -> dict[str, float]:
    if coeffs.n_qubits != 2:
        raise DimensionError("the sixteen-equation systems are for two qubits")
    table = {"1": 1.0}
    for i in range(3):
        table[f"a{i + 1}"] = float(coeffs.a[i])
        table[f"b{i + 1}"] = float(coeffs.b[i])
        for j in range(3):
            table[f"c{i + 1}{j + 1}"] = float(coeffs.c[i, j])
    return table


def evaluate_two_qubit_system(
    system: CoefficientSystem, coeffs: BlochCoefficients, k_values
) -> np.ndarray:
    """Left-minus-right values of all sixteen relations.

    ``coeffs`` only needs to define a Hermitian operator; positivity is not
    required for evaluation.  ``k_values`` are the four K combinations.
    """
    k = np.asarray(k_values, dtype=float)
    if k.shape != (4,):
        raise DimensionError("expected four K values")
    table = _coefficient_table(coeffs)
    residuals = np.empty(16)
    for m, row in enumerate(system.equations):
        lhs = sum(sign * k[ki] * table[name] for ki, name, sign in row.lhs)
        rhs = sum(factor * table[name] for factor, name in row.rhs)
        residuals[m] = lhs - rhs
    return residuals


def dense_two_qubit_residuals(
    system: CoefficientSystem, coeffs: BlochCoefficients, k_values
) -> np.ndarray:
    """Independent dense-operator route to the same sixteen residuals.

    Builds rho from the coefficients and L from the K values, forms
    (1/2){L, rho} + i[H, rho] densely, and reads off 16x the Pauli
    coefficient tagged on each equation row.
    """
    k = np.asarray(k_values, dtype=float)
    rho = hermitian_from_bloch(coeffs)
    paulis = [ops.pauli_matrix(p) for p in ("I", "X")]
    l_op = 0.25 * (
        k[0] * np.kron(paulis[0], paulis[0])
        + k[1] * np.kron(paulis[1], paulis[0])
        + k[2] * np.kron(paulis[0], paulis[1])
        + k[3] * np.kron(paulis[1], paulis[1])
    )
    build = nonentangling_generator if system.kind == NONENTANGLING else entangling_generator
    h = build(2).matrix
    residual_op = 0.5 * (l_op @ rho + rho @ l_op) + 1j * ops.commutator(h, rho)
    labels = "IXYZ"
    out = np.empty(16)
    for m, row in enumerate(system.equations):
        alpha, beta = row.operator
        p = ops.pauli_dense(labels[alpha] + labels[beta])
        out[m] = 16.0 * float(np.real(np.sum(p.T * residual_op)) / 4.0)
    return out


# ---------------------------------------------------------------------------
# Operator-equation residual and the inner linear solve
# ---------------------------------------------------------------------------


def _readout_frame(
    rho: np.ndarray, basis: ReadoutBasis, generator: Generator
) -> tuple[np.ndarray, np.ndarray]:
    """R = V^dagger rho V and T = V^dagger (-i[H, rho]) V.

    There L = sum_k u_k E_k is diag(u), so the equation holds entry by entry:
    (u_j + u_k)/2 R_jk = T_jk.  Each is V^dagger (V^dagger A^dagger)^dagger,
    two applications of :meth:`ReadoutBasis.amplitudes`: O(d^2 log d) on the
    per-qubit readout, two d^3 products on any other.
    """

    def frame(a: np.ndarray) -> np.ndarray:
        return basis.amplitudes(basis.amplitudes(a.conj().T).conj().T)

    return frame(rho), frame(_derivative(generator, rho))


def sol1_residual(
    state: DensityMatrix, inv_lambdas, basis: ReadoutBasis, generator: Generator
) -> float:
    """Frobenius norm of (1/2){sum u E, rho} + i[H, rho]."""
    return _fit(state, basis, generator, _inv_lambda_array(basis, inv_lambdas))[2]


#: (u, unconstrained mask, residual, diagonal QFI) of one fit; a ``u`` given
#: to a fit is scored, not solved for.
_Fit = tuple[np.ndarray, np.ndarray, float, float]


def _lstsq_lambdas(r: np.ndarray, t: np.ndarray, u: np.ndarray | None = None) -> _Fit:
    """Exact least-squares solve of the equation in the readout frame.

    The normal equations of
    (u_j + u_k)/2 R_jk = T_jk over real u are d x d: with W = |R|^2 the
    matrix is (diag(W 1) + W)/2 and the right-hand side has entries
    sum_k Re(conj(R_jk) T_jk).  The square root of the matrix's diagonal is
    ||(E_j rho + rho E_j)/2||_F; an outcome where it vanishes (its projector
    annihilates the state) is unconstrained and gets u = 0.  The rest are
    solved Jacobi-scaled (unit diagonal) by ``lstsq``.  The residual is
    ||(u_j + u_k)/2 R - T||_F and the QFI tr(L^2 rho) = sum_k u_k^2 R_kk.
    """
    w = (r.conj() * r).real
    row_sums = w.sum(axis=1)
    norms = np.sqrt(0.5 * (row_sums + w.diagonal()))
    unconstrained = norms <= 1e-12 * max(1.0, float(np.max(norms)))
    if u is None:
        kept = ~unconstrained
        u = np.zeros(len(norms))
        if kept.any():
            normal = 0.5 * (np.diag(row_sums) + w)
            rhs = (r.conj() * t).real.sum(axis=1)
            scale = 1.0 / norms[kept]
            scaled = normal[np.ix_(kept, kept)] * np.outer(scale, scale)
            solution, *_ = np.linalg.lstsq(scaled, scale * rhs[kept], rcond=None)
            u[kept] = scale * solution
    residual = float(np.linalg.norm(0.5 * np.add.outer(u, u) * r - t))
    return u, unconstrained, residual, float(u * u @ r.diagonal().real)


def _amplitude_map(basis: ReadoutBasis, generator: Generator) -> np.ndarray:
    """V^dagger stacked over V^dagger H: one matvec gives (phi, chi) of a ket.

    The search objective uses it: at the search's small d one matvec beats
    the readout's own transform, and its bits steer the simplex."""
    kets_h = basis.kets.conj().T
    return np.vstack([kets_h, kets_h @ generator.matrix])


def _pure_fit(phi: np.ndarray, chi: np.ndarray, u: np.ndarray | None = None) -> _Fit:
    """Closed-form least squares of the equation for a pure state psi.

    Takes the readout amplitudes phi = V^dagger psi and chi = V^dagger H psi
    and fits in O(d) without forming rho.  This is the rank-one case of
    ``_lstsq_lambdas``: R = phi phi^dagger, so W = p p^T, the normal matrix
    is (diag(p) + p p^T)/2 and its diagonal gives the same unconstrained rule
    on sqrt((p + p^2)/2).  The equations are solved by the classical score
    u_k = p'_k / p_k = 2 Im(conj(phi_k) chi_k) / |phi_k|^2, so the QFI
    sum_k u_k^2 p_k is the classical Fisher information of the readout.  The
    residual is :func:`~probelab.fisher.pure_sld_residual` of
    L = sum_k u_k E_k, whose L psi has readout amplitudes u phi.
    """
    phi_c = phi.conj()
    p = (phi_c * phi).real
    # ||(E_k rho + rho E_k) / 2||_F, the root of the normal matrix's diagonal
    col_norms = np.sqrt(0.5 * (p + p * p))
    unconstrained = col_norms <= 1e-12 * max(1.0, col_norms.max())
    if u is None:
        u = np.divide(2.0 * (phi_c * chi).imag, p, out=np.zeros(len(p)), where=~unconstrained)
    return u, unconstrained, pure_sld_residual(phi, chi, u * phi), float(u * u @ p)


def _fit(
    state: DensityMatrix, basis: ReadoutBasis, generator: Generator, u: np.ndarray | None = None
) -> _Fit:
    """The equation for a fixed state: in closed form on the readout
    amplitudes for a state with a ket, in the readout frame otherwise."""
    if not basis.dim == generator.spectrum.size == state.dim:
        raise DimensionError("basis, generator and state dimensions differ")
    if state.ket is None:
        return _lstsq_lambdas(*_readout_frame(state.matrix, basis, generator), u)
    phi = basis.amplitudes(state.ket)
    return _pure_fit(phi, basis.amplitudes(generator.apply(state.ket)), u)


def solve_lambdas_given_state(
    state: DensityMatrix, basis: ReadoutBasis, generator: Generator
) -> tuple[LambdaSpectrum, float, float]:
    """Best real inverse eigenvalues for a fixed state, with the residual and
    the diagonal QFI tr(L^2 rho) of L = sum_k u_k E_k."""
    u, unconstrained, residual, qfi = _fit(state, basis, generator)
    return _real_spectrum(basis, u, unconstrained), residual, qfi


def _real_spectrum(basis: ReadoutBasis, u: np.ndarray, unconstrained: np.ndarray) -> LambdaSpectrum:
    values = np.asarray(u, dtype=float).astype(complex)
    values.setflags(write=False)
    return LambdaSpectrum(basis.labels, values, tuple(map(bool, unconstrained)))


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    """A probe state with its inverse-eigenvalue spectrum and diagnostics."""

    state: DensityMatrix
    inv_lambdas: LambdaSpectrum
    residual: float
    qfi: float
    provenance: str


def _solution_from_state(
    state: DensityMatrix,
    basis: ReadoutBasis,
    generator: Generator,
    provenance: str,
    inv_lambdas: np.ndarray | None = None,
) -> Solution:
    u, unconstrained, residual, qfi = _fit(state, basis, generator, inv_lambdas)
    return Solution(state, _real_spectrum(basis, u, unconstrained), residual, qfi, provenance)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def closed_form_solution(
    generator_kind: str, n: int, cap: int = ops.MAX_QUBITS
) -> Solution:
    """Known optimal states for the product |+>/|-> readout.

    * Non-entangling generator, any n: the n-fold tensor power of the optimal
      single-qubit state, with additive inverse eigenvalues (so the diagonal
      operator is minus the sum of single-qubit X terms and tr(L^2 rho) = n).
    * Entangling generator, odd n: the same tensor power; the inverse
      eigenvalues obey a product rule with values +/-1 and tr(L^2 rho) = 1.
    * Entangling generator, n = 2: the pure two-qubit candidate with
      c11 = c23 = c32 = 1; the mixed-outcome eigenvalues are unconstrained.
    * Entangling generator, n = 2 * odd: the tensor power of the two-qubit
      solution.  This combination rests on an unproven composite rule, so its
      eigenvalues are fit by least squares and the returned residual is the
      measured verdict; callers must check it rather than assume success.

    Raises :class:`UnsupportedClosedFormError` for entangling n divisible by 4
    (no stored base solution to build the tensor power from).
    """
    basis = product_pm_readout(n, cap)
    if generator_kind == NONENTANGLING:
        generator = nonentangling_generator(n, cap)
        state = tensor_power(optimal_single_qubit(+1), n, cap)
        u = np.array([label.count("-") - label.count("+") for label in basis.labels], dtype=float)
        solution = _solution_from_state(state, basis, generator, CLOSED_FORM, u)
        _require_verified(solution)
        return solution
    if generator_kind != ENTANGLING:
        raise ValidationError(f"unknown generator kind {generator_kind!r}")
    generator = entangling_generator(n, cap)
    if n % 2 == 1:
        state = tensor_power(optimal_single_qubit(+1), n, cap)
        # Product rule: i**(n+3) times the product of single-qubit values -+1.
        prefactor = float(np.real(1j ** (n + 3)))
        u = np.array(
            [prefactor * (-1.0) ** label.count("+") for label in basis.labels]
        )
        solution = _solution_from_state(state, basis, generator, CLOSED_FORM, u)
        _require_verified(solution)
        return solution
    if n == 2:
        state = two_qubit_entangling_candidate(1.0, 1.0, 1.0)
        u = np.array([-1.0, 0.0, 0.0, 1.0])
        solution = _solution_from_state(state, basis, generator, CLOSED_FORM, u)
        _require_verified(solution)
        return solution
    half = n // 2
    if half % 2 == 1:
        base = two_qubit_entangling_candidate(1.0, 1.0, 1.0)
        state = tensor_power(base, half, cap)
        # Unproven composite rule: eigenvalues fit numerically, residual is
        # the measured verdict and is deliberately not asserted here.
        return _solution_from_state(state, basis, generator, CLOSED_FORM)
    raise UnsupportedClosedFormError(
        f"no closed-form state is known for the entangling generator on {n} qubits "
        f"(n divisible by 4 has no stored base solution)"
    )


def _require_verified(solution: Solution, tol: float = ops.Tolerances.solution_residual) -> None:
    if solution.residual > tol:
        raise ValidationError(
            f"closed-form solution failed verification: residual "
            f"{solution.residual:.3e} > {tol:.1e}"
        )


# ---------------------------------------------------------------------------
# Parity behaviour of tensor-power states under the entangling generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityReport:
    """Reality diagnostics of the inverse eigenvalues of a tensor-power probe."""

    n_qubits: int
    max_abs_real: float
    max_abs_imag: float
    saturated: bool
    spectrum: LambdaSpectrum


def verify_parity_obstruction(n: int, cap: int = ops.MAX_QUBITS) -> ParityReport:
    """Measure the inverse-eigenvalue ratios of the n-fold optimal tensor power
    under the entangling generator.

    For even n the ratios come out pure imaginary (the state cannot attain the
    bound with the product readout); odd n is the real-valued control case.
    Only outcomes with nonzero probability enter the maxima.
    """
    state = tensor_power(optimal_single_qubit(+1), n, cap)
    generator = entangling_generator(n, cap)
    basis = product_pm_readout(n, cap)
    analysis = analyze(generator, state, basis)
    spectrum = analysis.spectrum
    values = spectrum.values[~np.array(spectrum.unconstrained)]
    return ParityReport(
        n_qubits=n,
        max_abs_real=float(np.max(np.abs(np.real(values)))),
        max_abs_imag=float(np.max(np.abs(np.imag(values)))),
        saturated=analysis.saturation.saturated,
        spectrum=spectrum,
    )


# ---------------------------------------------------------------------------
# Numeric search over probe states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the multi-start search: the config's ``solver`` block, plus
    ``residual_tol`` (``tolerances.solution_residual``), ``psd_min_eigenvalue``
    (``tolerances.psd_min_eigenvalue``, applied to each start's end point) and
    the config seed."""

    n_starts: int = 64
    max_evals: int = 5000
    simplex_tol: float = 1e-9
    penalty_weight: float = 1e4
    residual_tol: float = ops.Tolerances.solution_residual
    psd_min_eigenvalue: float = ops.Tolerances.psd_min_eigenvalue
    tie_tol: float = 1e-6
    seed: int = 0


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search: near-optimal solutions sorted best first.

    ``solutions`` is empty when no feasible point was found; ``best_residual``
    then carries the smallest residual seen so the failure is inspectable.
    """

    solutions: tuple[Solution, ...]
    n_starts: int
    best_residual: float

    @property
    def feasible(self) -> bool:
        return bool(self.solutions)

    @property
    def best(self) -> Solution:
        if not self.solutions:
            raise ValidationError("search found no feasible solution")
        return self.solutions[0]


def _state_from_angles(params: np.ndarray, dim: int) -> np.ndarray:
    thetas = params[: dim - 1]
    # amplitude k is cos(theta_k) times the running product of sin(theta_j), j < k
    running = np.cumprod(np.concatenate(([1.0], np.sin(thetas))))
    amps = running * np.concatenate((np.cos(thetas), [1.0]))
    phases = np.exp(1j * np.concatenate(([0.0], params[dim - 1 :])))
    return amps * phases


def _angles_from_state(ket: np.ndarray) -> np.ndarray:
    dim = ket.shape[0]
    # gauge: the leading amplitude is real in this parametrization; when it
    # vanishes its phase is immaterial, so anchor on the largest one instead
    anchor = 0 if abs(ket[0]) > 1e-12 else int(np.argmax(np.abs(ket)))
    ket = ket * np.exp(-1j * np.angle(ket[anchor]))
    r = np.abs(ket)
    thetas = np.zeros(dim - 1)
    running = 1.0
    for k in range(dim - 1):
        if running > 1e-15:
            thetas[k] = np.arccos(np.clip(r[k] / running, -1.0, 1.0))
        running *= np.sin(thetas[k])
    phis = np.angle(ket[1:])
    return np.concatenate([thetas, phis])


def _dedup_key(state: DensityMatrix) -> tuple[float, ...]:
    """All 4**n Pauli coefficients of the state, rounded to DEDUP_DECIMALS."""
    return tuple(round(c, DEDUP_DECIMALS) for c in ops.pauli_transform(state.matrix).real)


def search_optimal_state(
    generator: Generator,
    basis: ReadoutBasis,
    n_qubits: int,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Maximize tr(L^2 rho) over probe states subject to the equation residual.

    Multi-start penalized simplex search over pure states: the outer loop
    walks the ket's angles (2**(n+1) - 2 of them), the inner step solves the
    eigenvalues exactly in closed form on the readout amplitudes.  Mixed
    states are not searched: the QFI is convex and a pure state's is
    4 Var(H), so no state exceeds (h_max - h_min)**2, a ceiling the pure
    search reaches at n = 1 and 2.  Each start's end point is fitted once by
    :func:`solve_lambdas_given_state` from its ket, which keeps the small
    outcome probabilities that a route through rho loses, and must pass
    ``psd_min_eigenvalue`` and ``residual_tol`` to count as a solution; one
    whose ||-i[H, rho]||_F is within ``residual_tol`` carries no information
    (u = 0 solves the equation) and is dropped.  Starts draw seeded random
    states, so results are reproducible and independent of any parallel
    scheduling; every solution within ``tie_tol`` of the best QFI is
    reported, ordered by its rounded Pauli coefficients alone, so digits
    below them never decide the order.  Global optimality is never claimed.
    """
    config = config or SearchConfig()
    if generator.n_qubits != n_qubits or basis.n_qubits != n_qubits:
        raise DimensionError("generator/basis do not act on n_qubits qubits")
    dim = 2**n_qubits
    amplitude_map = _amplitude_map(basis, generator)

    def objective(params: np.ndarray) -> float:
        amplitudes = amplitude_map @ _state_from_angles(params, dim)
        _, _, residual, qfi = _pure_fit(amplitudes[:dim], amplitudes[dim:])
        return -qfi + config.penalty_weight * residual * residual

    rng_root = np.random.SeedSequence(config.seed)
    found: dict[tuple, Solution] = {}
    best_residual = np.inf
    for child in rng_root.spawn(config.n_starts):
        rng = np.random.default_rng(child)
        ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x0 = _angles_from_state(ket / np.linalg.norm(ket))
        result = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": config.max_evals,
                "xatol": config.simplex_tol,
                "fatol": 1e-12,
                "disp": False,
            },
        )
        ket = _state_from_angles(result.x, dim)
        rho = np.outer(ket, ket.conj())
        try:
            state = density_matrix(rho, min_eigenvalue=config.psd_min_eigenvalue)
        except ValidationError:
            continue
        spectrum, residual, qfi = solve_lambdas_given_state(state, basis, generator)
        best_residual = min(best_residual, residual)
        drift = np.linalg.norm(state_derivative(generator, state))
        if residual > config.residual_tol or drift <= config.residual_tol:
            continue
        solution = Solution(state, spectrum, residual, qfi, NUMERIC_SEARCH)
        key = _dedup_key(state)
        existing = found.get(key)
        if existing is None or solution.qfi > existing.qfi:
            found[key] = solution

    if not found:
        return SearchResult(
            solutions=(), n_starts=config.n_starts,
            best_residual=float(best_residual),
        )
    best_qfi = max(sol.qfi for sol in found.values())
    kept = tuple(sol for _, sol in sorted(found.items()) if sol.qfi >= best_qfi - config.tie_tol)
    return SearchResult(
        solutions=kept, n_starts=config.n_starts, best_residual=float(best_residual)
    )

