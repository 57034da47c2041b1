"""Solve the optimal-probe-state equation for a fixed readout and generator.

The stationarity condition ties a probe state rho, the readout projectors
E(outcome) and the per-outcome inverse eigenvalues u = 1/lambda together:

    (1/2) { sum_outcomes u E,  rho }  =  -i [H, rho].

For a fixed state the equation is linear in the u, so the inner problem is an
exact least-squares solve; the outer search over pure states is a seeded
multi-start L-BFGS-B descent with an exact gradient (:func:`_search_frame`).

The readout is fixed, so the inner solve (``_fit``, which
``solve_lambdas_given_state``, ``sol1_residual`` and the closed forms view)
takes one route per kind of probe:

* a pure probe psi with its ket: a closed form in the readout amplitudes
  phi = V^dagger psi and chi = V^dagger H psi, u_k = p'_k / p_k, the
  classical score, so the diagonal QFI sum_k u_k^2 p_k is the classical
  Fisher information of the readout.  The amplitudes cost one fast
  Walsh-Hadamard transform each on the per-qubit readout, the rest O(d).
  The search objective feeds the same kernel with V^dagger psi and
  V^dagger (H psi), two small matvecs in the symmetric sector (two O(d^2)
  ones elsewhere), and its gradient costs two more.
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

import sys
from collections.abc import Callable
from dataclasses import dataclass
from math import comb

import numpy as np

from . import operators as ops
from .dynamics import (
    ENTANGLING,
    NONENTANGLING,
    Generator,
    ReadoutBasis,
    _bit_counts,
    _derivative,
    entangling_generator,
    nonentangling_generator,
    product_pm_readout,
)
from .errors import DimensionError, UnsupportedClosedFormError, ValidationError
from .fisher import LambdaSpectrum, _inv_lambda_array, analyze, pure_sld_residual
from .states import (
    BlochCoefficients,
    DensityMatrix,
    hermitian_from_bloch,
    optimal_single_qubit,
    pure_state,
    tensor_power,
    two_qubit_entangling_candidate,
)


def __getattr__(name: str):
    """``solver.optimize`` is ``scipy.optimize``, imported on first use.

    Only :func:`search_optimal_state` needs scipy, and importing
    ``scipy.optimize`` costs most of a CLI call's start-up, so every task
    that runs no search never loads it (PEP 562).
    """
    if name == "optimize":
        from scipy import optimize

        globals()[name] = optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


CLOSED_FORM = "closed-form"
NUMERIC_SEARCH = "numeric-search"

#: Decimals of the density-matrix entries that key duplicate search solutions.
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


def k_values_from_inv_lambdas(inv_lambdas) -> np.ndarray:
    """The four K combinations from two-qubit inverse eigenvalues, given in
    any form :func:`~probelab.fisher._inv_lambda_array` reads."""
    return K_SIGNS @ _inv_lambda_array(product_pm_readout(2), inv_lambdas)


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


def _pure_score(phi: np.ndarray, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p, the classical score u and the unconstrained mask of :func:`_pure_fit`."""
    phi_c = phi.conj()
    p = (phi_c * phi).real
    # ||(E_k rho + rho E_k) / 2||_F, the root of the normal matrix's diagonal
    col_norms = np.sqrt(0.5 * (p + p * p))
    unconstrained = col_norms <= 1e-12 * max(1.0, col_norms.max())
    u = np.divide(2.0 * (phi_c * chi).imag, p, out=np.zeros(len(p)), where=~unconstrained)
    return p, u, unconstrained


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
    p, score, unconstrained = _pure_score(phi, chi)
    u = score if u is None else u
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
    values = u.astype(complex)
    values.setflags(write=False)
    return LambdaSpectrum(basis.labels, values, tuple(map(bool, unconstrained))), residual, qfi


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


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def closed_form_solution(generator_kind: str, n: int) -> Solution:
    """Known optimal states for the product |+>/|-> readout.

    Each case names a state; its inverse eigenvalues are fitted by
    :func:`solve_lambdas_given_state`, and the returned residual is the
    verdict on every case alike.

    * Non-entangling generator, any n, and entangling generator, odd n: the
      n-fold tensor power of the optimal single-qubit state.
    * Entangling generator, n = 2 * odd: the (n/2)-fold tensor power of the
      pure two-qubit candidate with c11 = c23 = c32 = 1 (the candidate
      itself at n = 2).

    The rules the fitted eigenvalues obey (additive, the odd-n product rule,
    the free mixed outcomes at n = 2) are checked in :mod:`probelab.verify`.
    Raises :class:`UnsupportedClosedFormError` for entangling n divisible by 4
    (no stored base solution to build the tensor power from).
    """
    basis = product_pm_readout(n)
    if generator_kind not in (NONENTANGLING, ENTANGLING):
        raise ValidationError(f"unknown generator kind {generator_kind!r}")
    if generator_kind == NONENTANGLING or n % 2 == 1:
        state = tensor_power(optimal_single_qubit(+1), n)
    elif n % 4 == 2:
        state = tensor_power(two_qubit_entangling_candidate(1.0, 1.0, 1.0), n // 2)
    else:
        raise UnsupportedClosedFormError(
            f"no closed-form state is known for the entangling generator on {n} qubits "
            f"(n divisible by 4 has no stored base solution)"
        )
    build = nonentangling_generator if generator_kind == NONENTANGLING else entangling_generator
    return Solution(state, *solve_lambdas_given_state(state, basis, build(n)), CLOSED_FORM)


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


def verify_parity_obstruction(n: int) -> ParityReport:
    """Measure the inverse-eigenvalue ratios of the n-fold optimal tensor power
    under the entangling generator.

    For even n the ratios come out pure imaginary (the state cannot attain the
    bound with the product readout); odd n is the real-valued control case.
    Only outcomes with nonzero probability enter the maxima.
    """
    state = tensor_power(optimal_single_qubit(+1), n)
    generator = entangling_generator(n)
    basis = product_pm_readout(n)
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
    ``residual_tol`` (``tolerances.solution_residual``) and the config seed.
    ``simplex_tol``, named after the search's first method, is L-BFGS-B's
    ``gtol``; a negative value switches the convergence tests off."""

    n_starts: int = 64
    max_evals: int = 5000
    simplex_tol: float = 1e-9
    residual_tol: float = ops.Tolerances.solution_residual
    seed: int = 0


#: The weight w of the search objective's last stage.
PENALTY_WEIGHT = 1e4
#: The stages of each start, as fractions of ``PENALTY_WEIGHT``.
PENALTY_STAGES = (1e-4, 1e-2, 1.0)
#: Solutions within this of the best QFI are all reported.
TIE_TOL = 1e-6
#: L-BFGS-B's ``ftol``: the relative decrease at which a stage stops.
SEARCH_FTOL = 1e-15


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


def _dedup_key(v: np.ndarray) -> tuple[float, ...]:
    """v v^dagger at unit v, rounded part by part: the state in search coordinates."""
    v = v / np.linalg.norm(v)
    return tuple(np.round(np.outer(v, v.conj()), DEDUP_DECIMALS).view(float).ravel().tolist())


def _search_frame(generator: Generator, basis: ReadoutBasis) -> tuple[tuple, Callable]:
    """The coordinates the search walks: the frame ``(fwd, bwd, h, mult)`` of
    :func:`_search_objective` and the lift of a point to the ket.

    On the per-qubit readout with a spectrum that is a function of popcount
    (both built-in generators) the objective is invariant under qubit
    permutations, so a critical point in the permutation-symmetric sector is
    one of the full search.  The sector's coordinates are the n+1 amplitudes
    c of the Dicke kets, psi = E c with psi_k = c_w / sqrt(binom(n, w)) at
    w = popcount(k).  There H psi = E (h_w o c), and V^dagger psi takes one
    value per outcome weight v, phi_v = (A c)_v with the Krawtchouk matrix
    A[v, w] = K_w(v) / sqrt(2^n binom(n, w)) of H^(x)n on the sector; each
    phi_v stands for binom(n, v) outcomes, and E^T V pulls an amplitude
    vector back as A^T diag(binom(n, v)).  Any other readout or spectrum is
    searched on the 2^n ket, with the frame (V^dagger, V, h, 1).
    """
    n = generator.n_qubits
    weights = _bit_counts(n)
    h_w = generator.spectrum[(1 << np.arange(n + 1)) - 1]
    if not (basis.hadamard and np.array_equal(generator.spectrum, h_w[weights])):
        kets = basis.kets
        return (kets.conj().T, kets, generator.spectrum, 1), lambda psi: psi
    mult = np.array([comb(n, w) for w in range(n + 1)], dtype=float)
    krawtchouk = np.array(
        [[sum((-1) ** j * comb(v, j) * comb(n - v, w - j) for j in range(w + 1))
          for w in range(n + 1)] for v in range(n + 1)],
        dtype=float,
    )
    a, scale = krawtchouk / np.sqrt(2.0**n * mult), np.sqrt(mult)
    return (a, a.T * mult, h_w, mult), lambda c: (c / scale)[weights]


def _search_objective(
    x: np.ndarray, weight: float, fwd: np.ndarray, bwd: np.ndarray, h: np.ndarray, mult
) -> tuple[float, np.ndarray]:
    """-F_C + (weight/2)(F_Q - F_C) at psi = z/||z||, x the real and imaginary
    parts of z interleaved, and its gradient in x: -F_C + weight r^2, since
    r^2 = (F_Q - F_C)/2 at :func:`_pure_fit`, over whose kept outcomes
    F_C = sum_k u_k^2 p_k sums.

    With the frame of :func:`_search_frame`, phi = fwd psi and
    chi = fwd (h o psi), each for ``mult`` outcomes.  With G = d/dRe + i d/dIm:
    G_psi F_C = bwd (-4i u chi - 2 u^2 phi) + h o bwd (4i u phi),
    G_psi F_Q = 8 (h^2 psi - 2 <H> h psi) and
    G_z = (G_psi - Re(psi^dagger G_psi) psi) / ||z||.
    """
    z = x.view(complex)
    norm = np.linalg.norm(z)
    psi = z / norm
    h_psi = h * psi
    phi, chi = fwd @ psi, fwd @ h_psi
    p, u, _ = _pure_score(phi, chi)
    f_c = mult * u * u @ p
    mean = (psi.conj() @ h_psi).real
    f_q = 4.0 * ((h_psi.conj() @ h_psi).real - mean * mean)
    g_c = bwd @ (-4j * u * chi - 2.0 * u * u * phi) + h * (bwd @ (4j * u * phi))
    g_q = 8.0 * (h * h_psi - 2.0 * mean * h_psi)
    g_psi = 0.5 * weight * g_q - (1.0 + 0.5 * weight) * g_c
    g_z = (g_psi - (psi.conj() @ g_psi).real * psi) / norm
    return -f_c + 0.5 * weight * (f_q - f_c), g_z.view(float)


def search_optimal_state(
    generator: Generator,
    basis: ReadoutBasis,
    n_qubits: int,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Maximize tr(L^2 rho) over probe states subject to the equation residual.

    Multi-start penalized search over pure states: L-BFGS-B walks the real
    and imaginary parts of an unnormalised point in the coordinates of
    :func:`_search_frame` on :func:`_search_objective` (its inner least
    squares is exact, in closed form), once per stage of ``PENALTY_STAGES``,
    each stage from the last one's end point, within ``max_evals``
    evaluations per start in all.  Mixed states are not searched: the QFI
    is convex and a pure state's is 4 Var(H), so no state exceeds the ceiling
    (h_max - h_min)**2; a solution within ``TIE_TOL`` of it is a global
    optimum up to ``residual_tol``, and the defaults reach it up to n = 10.
    Each start's end point is lifted to its ket, fitted once by
    :func:`solve_lambdas_given_state` and must pass ``residual_tol`` to
    count as a solution; one whose ||-i[H, rho]||_F is within
    ``residual_tol`` carries no information (u = 0 solves the equation) and
    is dropped; at a pure end point its square is 2 Var(H) =
    qfi/2 + residual^2, read from the fit.  Starts draw seeded random points,
    so results are reproducible and independent of any parallel scheduling;
    every solution within ``TIE_TOL`` of the best QFI is reported, ordered by
    its :func:`_dedup_key` alone, so digits below the key's never decide it.
    """
    config = config or SearchConfig()
    if generator.n_qubits != n_qubits or basis.n_qubits != n_qubits:
        raise DimensionError("generator/basis do not act on n_qubits qubits")
    frame, lift = _search_frame(generator, basis)
    # scipy refuses a negative ftol
    gtol, ftol = (config.simplex_tol, SEARCH_FTOL) if config.simplex_tol >= 0 else (0.0, 0.0)

    # through the module object, so a replaced ``solver.optimize`` is seen
    optimize = sys.modules[__name__].optimize
    rng_root = np.random.SeedSequence(config.seed)
    found: dict[tuple, Solution] = {}
    best_residual = np.inf
    for child in rng_root.spawn(config.n_starts):
        x = np.random.default_rng(child).standard_normal(2 * frame[2].size)
        evals = 0
        for fraction in PENALTY_STAGES:
            if evals >= config.max_evals:
                break
            weight = fraction * PENALTY_WEIGHT
            result = optimize.minimize(
                _search_objective, x, args=(weight, *frame),
                method="L-BFGS-B", jac=True,
                options={"maxfun": config.max_evals - evals, "gtol": gtol, "ftol": ftol},
            )
            x, evals = result.x, evals + result.nfev
        state = pure_state(lift(x.view(complex)))
        spectrum, residual, qfi = solve_lambdas_given_state(state, basis, generator)
        best_residual = min(best_residual, residual)
        drift = np.sqrt(0.5 * qfi + residual * residual)  # ||-i[H, rho]||_F
        if residual > config.residual_tol or drift <= config.residual_tol:
            continue
        solution = Solution(state, spectrum, residual, qfi, NUMERIC_SEARCH)
        key = _dedup_key(x.view(complex))
        existing = found.get(key)
        if existing is None or solution.qfi > existing.qfi:
            found[key] = solution

    best_qfi = max((sol.qfi for sol in found.values()), default=np.inf)
    kept = tuple(sol for _, sol in sorted(found.items()) if sol.qfi >= best_qfi - TIE_TOL)
    return SearchResult(kept, config.n_starts, float(best_residual))
