"""Golden verification suite and the paper's reference routes.

The reference routes are the hand-derived forms the lab is checked against:
the sixteen bilinear two-qubit relations in the K combinations, the dense
optimality-equation residual and least squares, the closed-form tensor-power
states and the entangling parity obstruction.  The lab's tasks never use
them; only the checks here and the tests do.

Every check compares a computed quantity against a frozen expected value
(hand-derived or closed form), so any corruption of the underlying algebra is
caught.  A check is a function decorated with ``@_check(claim)`` that returns
``(passed, measured)``; its name is the function name without the leading
underscore and with ``-`` for ``_``.  ``run_golden_suite`` filters by
substring of that name, so related groups (e.g. every name containing
"parity") can be run in isolation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import dynamics, errors, fisher, montecarlo, operators, solver, states

_SQ2 = 1.0 / math.sqrt(2.0)

# Frozen matrices used as independent expectations (never built from the
# package's own Pauli constants, so sign corruptions are detectable).
_EXPECT_OPTIMAL_PLUS = np.array([[0.5, -0.5j], [0.5j, 0.5]])
_EXPECT_OPTIMAL_MINUS = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
_EXPECT_MINUS_X = np.array([[0.0, -1.0], [-1.0, 0.0]])
_KET_I = np.array([_SQ2, 1.0j * _SQ2])
_KET_IBAR = np.array([_SQ2, -1.0j * _SQ2])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    measured: dict[str, float] = field(default_factory=dict)


#: (name, claim, check) in declaration order; a check returns (passed, measured).
_CHECKS: list[tuple[str, str, Callable[[], tuple[bool, dict]]]] = []


def _check(claim: str):
    def register(func):
        _CHECKS.append((func.__name__.lstrip("_").replace("_", "-"), claim, func))
        return func

    return register


def _close(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# The paper's reference routes: hand-derived forms the lab is checked against
# ---------------------------------------------------------------------------

CLOSED_FORM = "closed-form"

#: The built-in generators, by kind.
_GENERATORS = {
    dynamics.NONENTANGLING: dynamics.nonentangling_generator,
    dynamics.ENTANGLING: dynamics.entangling_generator,
}

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
    return K_SIGNS @ fisher._inv_lambda_array(dynamics.product_pm_readout(2), inv_lambdas)


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
    if kind == dynamics.NONENTANGLING:
        return CoefficientSystem(kind=kind, equations=_NONENTANGLING_ROWS)
    if kind == dynamics.ENTANGLING:
        return CoefficientSystem(kind=kind, equations=_ENTANGLING_ROWS)
    raise errors.ValidationError(f"unknown generator kind {kind!r}")


def _coefficient_table(coeffs: states.BlochCoefficients) -> dict[str, float]:
    if coeffs.n_qubits != 2:
        raise errors.DimensionError("the sixteen-equation systems are for two qubits")
    table = {"1": 1.0}
    for i in range(3):
        table[f"a{i + 1}"] = float(coeffs.a[i])
        table[f"b{i + 1}"] = float(coeffs.b[i])
        for j in range(3):
            table[f"c{i + 1}{j + 1}"] = float(coeffs.c[i, j])
    return table


def evaluate_two_qubit_system(
    system: CoefficientSystem, coeffs: states.BlochCoefficients, k_values
) -> np.ndarray:
    """Left-minus-right values of all sixteen relations.

    ``coeffs`` only needs to define a Hermitian operator; positivity is not
    required for evaluation.  ``k_values`` are the four K combinations.
    """
    k = np.asarray(k_values, dtype=float)
    if k.shape != (4,):
        raise errors.DimensionError("expected four K values")
    table = _coefficient_table(coeffs)
    residuals = np.empty(16)
    for m, row in enumerate(system.equations):
        lhs = sum(sign * k[ki] * table[name] for ki, name, sign in row.lhs)
        rhs = sum(factor * table[name] for factor, name in row.rhs)
        residuals[m] = lhs - rhs
    return residuals


def dense_two_qubit_residuals(
    system: CoefficientSystem, coeffs: states.BlochCoefficients, k_values
) -> np.ndarray:
    """Independent dense-operator route to the same sixteen residuals.

    Builds rho from the coefficients and L from the K values, forms
    (1/2){L, rho} + i[H, rho] densely, and reads off 16x the Pauli
    coefficient tagged on each equation row.
    """
    k = np.asarray(k_values, dtype=float)
    rho = states.hermitian_from_bloch(coeffs)
    paulis = [operators.pauli_matrix(p) for p in ("I", "X")]
    l_op = 0.25 * (
        k[0] * np.kron(paulis[0], paulis[0])
        + k[1] * np.kron(paulis[1], paulis[0])
        + k[2] * np.kron(paulis[0], paulis[1])
        + k[3] * np.kron(paulis[1], paulis[1])
    )
    h = _GENERATORS[system.kind](2).matrix
    residual_op = 0.5 * (l_op @ rho + rho @ l_op) + 1j * operators.commutator(h, rho)
    labels = "IXYZ"
    out = np.empty(16)
    for m, row in enumerate(system.equations):
        alpha, beta = row.operator
        p = operators.pauli_dense(labels[alpha] + labels[beta])
        out[m] = 16.0 * float(np.real(np.sum(p.T * residual_op)) / 4.0)
    return out


def sol1_residual(
    state: states.DensityMatrix, inv_lambdas, basis: dynamics.ReadoutBasis,
    generator: dynamics.Generator,
) -> float:
    """Frobenius norm of (1/2){L, rho} + i[H, rho] at L = sum_k u_k E_k.

    Dense reference for a given ``u`` (any form
    :func:`~probelab.fisher.sld_from_spectrum` reads): L is formed from the
    readout kets, so O(d^3); the checks use it up to n = 5.
    """
    l_op = fisher.sld_from_spectrum(basis, inv_lambdas)
    target = dynamics.state_derivative(generator, state)
    return float(np.linalg.norm(0.5 * operators.anticommutator(l_op, state.matrix) - target))


def dense_lstsq_lambdas(
    rho: np.ndarray, basis: dynamics.ReadoutBasis, generator: dynamics.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """Reference least squares of (1/2){sum_k u_k E_k, rho} = -i[H, rho].

    The dense (2 d^2 x d) real system with one column (E_k rho + rho E_k)/2
    per outcome, built from outer products of the readout kets and the dense
    generator matrix; O(d^4) memory, so for small d only.  Returns
    (u, unconstrained mask, residual) as ``solver._lstsq_lambdas`` does in
    the readout frame: outcomes with a zero column are unconstrained, u = 0.
    """
    kets = basis.kets
    dim = rho.shape[0]
    m = basis.dim
    target = -1j * operators.commutator(generator.matrix, rho)
    columns = np.empty((dim * dim, m), dtype=complex)
    for k in range(m):
        ket = kets[:, k]
        e_rho = np.outer(ket, ket.conj() @ rho)
        columns[:, k] = (0.5 * (e_rho + e_rho.conj().T)).ravel()
    col_norms = np.linalg.norm(columns, axis=0)
    scale = max(1.0, float(np.max(col_norms)))
    unconstrained = col_norms <= 1e-12 * scale
    a_real = np.vstack(
        [np.real(columns[:, ~unconstrained]), np.imag(columns[:, ~unconstrained])]
    )
    b_real = np.concatenate([np.real(target.ravel()), np.imag(target.ravel())])
    u = np.zeros(m)
    if a_real.shape[1]:
        solution, *_ = np.linalg.lstsq(a_real, b_real, rcond=None)
        u[~unconstrained] = solution
    l_op = (kets * u) @ kets.conj().T
    residual = float(np.linalg.norm(0.5 * operators.anticommutator(l_op, rho) - target))
    return u, unconstrained, residual


def pauli_type_error(ket: np.ndarray) -> float:
    """How far ``operators.pauli_expand_by_type(ket)`` is from the dense
    expansion ``pauli_transform(|ket><ket|)``: the largest difference over all
    4**n strings, each given its type's coefficient, or inf if a row's
    "strings" is not the number of strings of its type.  O(n 4**n)."""
    ket = np.asarray(ket, dtype=complex)
    rows = operators.pauli_expand_by_type(ket)
    n = operators.n_qubits_of_dim(ket.size)
    digits = (np.arange(4**n)[:, None] >> (2 * np.arange(n))) & 3  # 1, 2, 3: X, Y, Z
    types = list(zip(*((digits == label).sum(axis=1).tolist() for label in (1, 2, 3))))
    table = {(row["x"], row["y"], row["z"]): row for row in rows}
    if len(table) != len(rows) or Counter(types) != {t: row["strings"] for t, row in table.items()}:
        return math.inf
    spread = np.array([table[t]["coefficient"] for t in types])
    return _close(spread, operators.pauli_transform(np.outer(ket, ket.conj())))


def closed_form_solution(generator_kind: str, n: int) -> solver.Solution:
    """Known optimal states for the product |+>/|-> readout.

    Each case names a state; its inverse eigenvalues are fitted by
    :func:`~probelab.solver.solve_lambdas_given_state`, and the returned
    residual is the verdict on every case alike.

    * Non-entangling generator, any n, and entangling generator, odd n: the
      n-fold tensor power of the optimal single-qubit state.
    * Entangling generator, n = 2 * odd: the (n/2)-fold tensor power of the
      pure two-qubit candidate with c11 = c23 = c32 = 1 (the candidate
      itself at n = 2).

    The rules the fitted eigenvalues obey (additive, the odd-n product rule,
    the free mixed outcomes at n = 2) are checked below.
    Raises :class:`UnsupportedClosedFormError` for entangling n divisible by 4
    (no stored base solution to build the tensor power from).
    """
    basis = dynamics.product_pm_readout(n)
    if generator_kind not in _GENERATORS:
        raise errors.ValidationError(f"unknown generator kind {generator_kind!r}")
    if generator_kind == dynamics.NONENTANGLING or n % 2 == 1:
        state = states.tensor_power(states.optimal_single_qubit(+1), n)
    elif n % 4 == 2:
        candidate = states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
        state = states.tensor_power(candidate, n // 2)
    else:
        raise errors.UnsupportedClosedFormError(
            f"no closed-form state is known for the entangling generator on {n} qubits "
            f"(n divisible by 4 has no stored base solution)"
        )
    fit = solver.solve_lambdas_given_state(state, basis, _GENERATORS[generator_kind](n))
    return solver.Solution(state, *fit, CLOSED_FORM)


@dataclass(frozen=True)
class ParityReport:
    """Reality diagnostics of the inverse eigenvalues of a tensor-power probe."""

    n_qubits: int
    max_abs_real: float
    max_abs_imag: float
    saturated: bool
    spectrum: fisher.LambdaSpectrum


def verify_parity_obstruction(n: int) -> ParityReport:
    """Measure the inverse-eigenvalue ratios of the n-fold optimal tensor power
    under the entangling generator.

    For even n the ratios come out pure imaginary (the state cannot attain the
    bound with the product readout); odd n is the real-valued control case.
    Only outcomes with nonzero probability enter the maxima.
    """
    state = states.tensor_power(states.optimal_single_qubit(+1), n)
    generator = dynamics.entangling_generator(n)
    basis = dynamics.product_pm_readout(n)
    analysis = fisher.analyze(generator, state, basis)
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
# Checks
# ---------------------------------------------------------------------------


@_check("optimal single-qubit states are (1 +/- sigma_2)/2 and pure")
def _single_qubit_optimum_states():
    plus = states.optimal_single_qubit(+1)
    minus = states.optimal_single_qubit(-1)
    err = max(
        _close(plus.matrix, _EXPECT_OPTIMAL_PLUS),
        _close(minus.matrix, _EXPECT_OPTIMAL_MINUS),
        abs(plus.purity() - 1.0),
        abs(minus.purity() - 1.0),
    )
    return err <= 1e-12, {"max_error": err}


@_check("sigma_2 eigenpairs are +/-1 with eigenvectors (|0> +/- i|1>)/sqrt(2)")
def _eigenbasis_of_y():
    eig = operators.hermitian_eigen(operators.pauli_matrix("Y"))
    value_err = _close(eig.values, [1.0, -1.0])
    ov_plus = abs(np.vdot(eig.vectors[:, 0], _KET_I))
    ov_minus = abs(np.vdot(eig.vectors[:, 1], _KET_IBAR))
    err = max(value_err, abs(ov_plus - 1.0), abs(ov_minus - 1.0))
    return err <= 1e-10, {"max_error": err}


@_check("Bloch construction reproduces the optimum and rejects |a| > 1")
def _bloch_construction():
    rho = states.from_bloch([0.0, 1.0, 0.0])
    mixed = states.from_bloch([0.0, 0.0, 0.0])
    err = max(
        _close(rho.matrix, _EXPECT_OPTIMAL_PLUS),
        _close(mixed.matrix, 0.5 * np.eye(2)),
    )
    try:
        states.from_bloch([0.0, 1.0, 0.5])
        rejected = False
    except states.PSDViolationError:
        rejected = True
    return err <= 1e-12 and rejected, {"max_error": err}


@_check("two-fold power of the optimum is (II + YI + IY + YY)/4")
def _tensor_power_expansion():
    rho2 = states.tensor_power(states.optimal_single_qubit(+1), 2)
    terms = rho2.pauli_coefficients()
    expected = {"II": 0.25, "YI": 0.25, "IY": 0.25, "YY": 0.25}
    err = max(abs(terms.get(k, 0.0) - v) for k, v in expected.items())
    extra = set(terms) - set(expected)
    return err <= 1e-12 and not extra, {"max_error": err}


@_check("cat-state Pauli weights match the ket-derived convention")
def _cat_pauli_signs():
    plus = states.cat_state(2, +1).pauli_coefficients()
    minus = states.cat_state(2, -1).pauli_coefficients()
    # Recorded convention, computed from the ket definition: the +
    # superposition carries XX = +1, YY = -1, ZZ = +1 (YY and XX swap roles
    # for the - superposition).
    expect_plus = {"II": 0.25, "XX": 0.25, "YY": -0.25, "ZZ": 0.25}
    expect_minus = {"II": 0.25, "XX": -0.25, "YY": 0.25, "ZZ": 0.25}
    err = max(
        max(abs(plus.get(k, 0.0) - v) for k, v in expect_plus.items()),
        max(abs(minus.get(k, 0.0) - v) for k, v in expect_minus.items()),
    )
    return err <= 1e-12, {"max_error": err}


@_check("two-qubit generators have the expected matrices and spectra")
def _generator_spectra():
    non2 = dynamics.nonentangling_generator(2).matrix
    ent2 = dynamics.entangling_generator(2).matrix
    err = max(
        _close(np.sort(np.linalg.eigvalsh(non2)), [-1.0, 0.0, 0.0, 1.0]),
        _close(ent2, np.diag([0.5, -0.5, -0.5, 0.5])),
        abs(np.trace(non2)),
        _close(ent2 @ ent2, 0.25 * np.eye(4)),
    )
    return err <= 1e-12, {"max_error": err}


@_check("per-qubit |+>/|-> projectors are (1 +/- sigma_1)/2 and complete")
def _readout_projectors():
    plus = dynamics.product_pm_readout(1).kets[:, 0]
    err = _close(np.outer(plus, plus.conj()), np.array([[0.5, 0.5], [0.5, 0.5]]))
    kets = dynamics.product_pm_readout(3).kets
    total = sum(np.outer(ket, ket.conj()) for ket in kets.T)
    err = max(err, _close(total, np.eye(8)))
    return err <= 1e-12, {"max_error": err}


@_check("-i[H, rho] equals -(a_2 sigma_1 - a_1 sigma_2)/2 for single qubits")
def _derivative_bloch_form():
    rng = np.random.default_rng(7)
    gen = dynamics.nonentangling_generator(1)
    worst = 0.0
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, size=3)
        a *= rng.uniform(0.0, 0.99) / max(np.linalg.norm(a), 1e-12)
        rho = states.from_bloch(a)
        got = dynamics.state_derivative(gen, rho)
        expect = -0.5 * (
            a[1] * np.array([[0.0, 1.0], [1.0, 0.0]])
            - a[0] * np.array([[0.0, -1.0j], [1.0j, 0.0]])
        )
        worst = max(worst, _close(got, expect))
    return worst <= 1e-12, {"max_error": worst}


@_check("evolution rotates the Bloch vector to (-sin x, cos x, 0)")
def _bloch_rotation():
    gen = dynamics.nonentangling_generator(1)
    rho0 = states.optimal_single_qubit(+1)
    x = 0.7
    rho_x = dynamics.evolve(rho0, gen, x)
    coeffs = states.BlochCoefficients.from_state(rho_x)
    err = _close(coeffs.a, [-math.sin(x), math.cos(x), 0.0])
    h = 1e-6
    fd = (
        dynamics.evolve(rho0, gen, h).matrix - dynamics.evolve(rho0, gen, -h).matrix
    ) / (2.0 * h)
    err_fd = _close(fd, dynamics.state_derivative(gen, rho0))
    return err <= 1e-10 and err_fd <= 1e-6, {"bloch_error": err, "derivative_error": err_fd}


@_check("the SLD of the optimal single-qubit probe is -/+ sigma_1")
def _single_qubit_sld():
    gen = dynamics.nonentangling_generator(1)
    plus = states.optimal_single_qubit(+1)
    minus = states.optimal_single_qubit(-1)
    l_plus = fisher.sld_from_state(plus, dynamics.state_derivative(gen, plus))
    l_minus = fisher.sld_from_state(minus, dynamics.state_derivative(gen, minus))
    err = max(
        _close(l_plus.operator, _EXPECT_MINUS_X),
        _close(l_minus.operator, -_EXPECT_MINUS_X),
    )
    return err <= 1e-10, {"max_error": err}


@_check("inverse eigenvalues are -/+1 and both Fisher informations equal 1")
def _single_qubit_lambda_and_fisher():
    gen = dynamics.nonentangling_generator(1)
    basis = dynamics.product_pm_readout(1)
    analysis = fisher.analyze(gen, states.optimal_single_qubit(+1), basis)
    spectrum, report = analysis.spectrum, analysis.saturation
    err = max(
        abs(spectrum["+"] - (-1.0)),
        abs(spectrum["-"] - 1.0),
        abs(analysis.classical_fisher - 1.0),
        abs(analysis.quantum_fisher - 1.0),
        report.im_condition_max,
        report.diagonal_residual,
    )
    return err <= 1e-9 and report.saturated, {
        "max_error": err,
        "im_condition_max": report.im_condition_max,
        "diagonal_residual": report.diagonal_residual,
    }


@_check("inverse eigenvalues of tensor-power probes add per qubit")
def _product_state_lambda_additivity():
    worst = 0.0
    for n in range(2, 5):
        gen = dynamics.nonentangling_generator(n)
        basis = dynamics.product_pm_readout(n)
        rho = states.tensor_power(states.optimal_single_qubit(+1), n)
        rho_prime = dynamics.state_derivative(gen, rho)
        l_op = fisher.sld_from_state(rho, rho_prime).operator
        spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, l_op)
        for label in basis.labels:
            expected = sum(-1.0 if c == "+" else 1.0 for c in label)
            worst = max(worst, abs(spectrum[label] - expected))
    return worst <= 1e-9, {"max_error": worst}


@_check("diagonal SLD equals minus the sum of single-qubit X terms, QFI = n")
def _nqubit_sld_closed_form():
    worst_l = 0.0
    worst_qfi = 0.0
    worst_res = 0.0
    for n in range(1, 7):
        sol = closed_form_solution(dynamics.NONENTANGLING, n)
        basis = dynamics.product_pm_readout(n)
        l_dense = fisher.sld_from_spectrum(basis, sol.inv_lambdas)
        x_terms = {"I" * j + "X" + "I" * (n - 1 - j): -1.0 for j in range(n)}
        expect = operators.pauli_terms_dense(x_terms)
        worst_l = max(worst_l, _close(l_dense, expect))
        worst_qfi = max(worst_qfi, abs(sol.qfi - n))
        worst_res = max(worst_res, sol.residual)
    passed = worst_l <= 1e-9 and worst_qfi <= 1e-8 and worst_res <= 1e-7
    return passed, {"l_error": worst_l, "qfi_error": worst_qfi, "residual": worst_res}


@_check("classical and quantum Fisher information both equal n, saturated")
def _fisher_scaling_product_states():
    worst = 0.0
    saturated_all = True
    for n in range(1, 7):
        gen = dynamics.nonentangling_generator(n)
        basis = dynamics.product_pm_readout(n)
        rho = states.tensor_power(states.optimal_single_qubit(+1), n)
        analysis = fisher.analyze(gen, rho, basis)
        worst = max(
            worst, abs(analysis.classical_fisher - n), abs(analysis.quantum_fisher - n)
        )
        saturated_all &= analysis.saturation.saturated
    return worst <= 1e-8 and saturated_all, {"max_error": worst}


@_check("every pure probe carries its ket, and closed-form analysis of tensor, cat and "
        "random pure probes matches the dense route")
def _pure_probe_closed_form_route():
    # analyze takes the closed-form route for a state with a ket; the same
    # matrix without it takes the dense eigenbasis route, the reference here.
    # Every probe, the one built from Bloch numbers too, must carry its ket:
    # a lost ket leaves every number right and only costs the dense route.
    rng = np.random.default_rng(2012)
    worst = 0.0
    flags_agree = True
    missing_kets = 0
    for n in range(1, 7):
        h = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        generators = (
            dynamics.nonentangling_generator(n),
            dynamics.entangling_generator(n),
            dynamics.Generator(n, np.linalg.eigvalsh(h + h.conj().T)),
        )
        readouts = (dynamics.product_pm_readout(n), dynamics.random_projective_readout(n, rng))
        probes = [states.tensor_power(states.optimal_single_qubit(+1), n),
                  states.tensor_power(states.from_bloch([0.6, 0.0, 0.8]), n),
                  states.random_pure_state(n, rng)]
        probes += [states.cat_state(n, +1)] if n > 1 else []
        missing_kets += sum(probe.ket is None for probe in probes)
        for gen in generators:
            for basis in readouts:
                for probe in probes:
                    pure = fisher.analyze(gen, probe, basis)
                    dense = fisher.analyze(gen, replace(probe, ket=None), basis)
                    scale = max(1.0, float(np.max(np.abs(dense.spectrum.values))),
                                dense.quantum_fisher)
                    worst = max(
                        worst,
                        abs(pure.classical_fisher - dense.classical_fisher) / scale,
                        abs(pure.quantum_fisher - dense.quantum_fisher) / scale,
                        _close(pure.spectrum.values, dense.spectrum.values) / scale,
                        abs(pure.saturation.im_condition_max
                            - dense.saturation.im_condition_max) / scale,
                        abs(pure.saturation.diagonal_residual
                            - dense.saturation.diagonal_residual) / scale,
                    )
                    flags_agree &= (
                        pure.spectrum.unconstrained == dense.spectrum.unconstrained
                        and pure.saturation.saturated == dense.saturation.saturated
                    )
    passed = worst <= 1e-9 and flags_agree and not missing_kets
    return passed, {"max_error": worst, "missing_kets": missing_kets}


def _zero_outcome_ket(basis: dynamics.ReadoutBasis, rng: np.random.Generator) -> np.ndarray:
    """A random ket with zero amplitude on a random half of the readout outcomes."""
    phi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    phi[rng.permutation(basis.dim)[: basis.dim // 2]] = 0.0
    return basis.kets @ (phi / np.linalg.norm(phi))


@_check("entrywise least squares in the readout frame matches the dense outer-product system")
def _optimality_equation_readout_frame():
    # solve_lambdas_given_state takes the closed form for a state with a ket
    # and the readout frame otherwise, so each pure probe runs both ways; the
    # dense outer-product system above is the reference
    rng = np.random.default_rng(4581)
    worst_u = worst_res = worst_qfi = 0.0
    flags_agree = True
    for n in range(1, 6):
        h = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        generators = (
            dynamics.nonentangling_generator(n),
            dynamics.entangling_generator(n),
            dynamics.Generator(n, np.linalg.eigvalsh(h + h.conj().T)),
        )
        readouts = (dynamics.product_pm_readout(n), dynamics.random_projective_readout(n, rng))
        for basis in readouts:
            probes = [
                states.random_mixed_state(n, rng),
                states.random_pure_state(n, rng),
                states.pure_state(_zero_outcome_ket(basis, rng)),
                states.tensor_power(states.optimal_single_qubit(+1), n),
            ]
            probes += [states.cat_state(n, +1)] if n > 1 else []
            probes += [replace(probe, ket=None) for probe in probes if probe.ket is not None]
            for gen in generators:
                for probe in probes:
                    spectrum, residual, qfi = solver.solve_lambdas_given_state(probe, basis, gen)
                    u_ref, free_ref, res_ref = dense_lstsq_lambdas(probe.matrix, basis, gen)
                    # tr(L^2 rho) of L = sum_k u_k E_k is sum_k u_k^2 <k|rho|k>
                    probs = np.einsum("jk,jl,lk->k", basis.kets.conj(), probe.matrix, basis.kets)
                    qfi_ref = float(u_ref * u_ref @ probs.real)
                    worst_u = max(worst_u, _close(spectrum.real_values(), u_ref)
                                  / max(1.0, float(np.max(np.abs(u_ref)))))
                    worst_res = max(worst_res, abs(residual - res_ref) / max(1.0, res_ref))
                    worst_qfi = max(worst_qfi, abs(qfi - qfi_ref) / max(1.0, qfi_ref))
                    flags_agree &= spectrum.unconstrained == tuple(map(bool, free_ref))
    passed = max(worst_u, worst_res, worst_qfi) <= 1e-9 and flags_agree
    return passed, {"u_error": worst_u, "residual_error": worst_res, "qfi_error": worst_qfi}


@_check("the cat state solves nothing: best residual stays large, F = 0")
def _cat_state_excluded():
    gen = dynamics.nonentangling_generator(2)
    basis = dynamics.product_pm_readout(2)
    cat = states.cat_state(2, +1)
    rho_prime = dynamics.state_derivative(gen, cat)
    _, residual, _ = solver.solve_lambdas_given_state(cat, basis, gen)
    f_c = fisher.classical_fisher(basis, cat, rho_prime)
    report = fisher.check_saturation(basis, cat, rho_prime)
    passed = residual > 0.1 and abs(f_c) <= 1e-10 and not report.saturated
    return passed, {"residual": residual, "classical_fisher": f_c}


@_check("product-state K values zero all sixteen relations (dense agreement)")
def _two_qubit_system_nonentangling():
    system = two_qubit_system(dynamics.NONENTANGLING)
    coeffs = states.BlochCoefficients.from_state(
        states.tensor_power(states.optimal_single_qubit(+1), 2)
    )
    # K values for inverse eigenvalues (-2, 0, 0, +2).
    k = k_values_from_inv_lambdas([-2.0, 0.0, 0.0, 2.0])
    err_k = _close(k, [0.0, -4.0, -4.0, 0.0])
    residuals = evaluate_two_qubit_system(system, coeffs, k)
    dense = dense_two_qubit_residuals(system, coeffs, k)
    err = max(float(np.max(np.abs(residuals))), _close(residuals, dense), err_k)
    return err <= 1e-9, {"max_error": err}


@_check("the entangling solution zeros all relations for any free value c")
def _two_qubit_system_entangling_family():
    system = two_qubit_system(dynamics.ENTANGLING)
    coeffs = states.BlochCoefficients.from_state(
        states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    )
    worst = 0.0
    for c in (0.0, 0.7, -2.0):
        k = k_values_from_inv_lambdas([-1.0, c, c, 1.0])
        residuals = evaluate_two_qubit_system(system, coeffs, k)
        dense = dense_two_qubit_residuals(system, coeffs, k)
        worst = max(worst, float(np.max(np.abs(residuals))), _close(residuals, dense))
    return worst <= 1e-9, {"max_error": worst}


@_check("pure two-qubit entangling solution with QFI = 1; mixed outcomes free")
def _entangling_two_qubit_solution():
    sol = closed_form_solution(dynamics.ENTANGLING, 2)
    basis = dynamics.product_pm_readout(2)
    gen = dynamics.entangling_generator(2)
    spectrum, lstsq_residual, _ = solver.solve_lambdas_given_state(sol.state, basis, gen)
    flipped = states.two_qubit_entangling_candidate(1.0, -1.0, -1.0)
    flipped_res = sol1_residual(
        flipped, {"++": 1.0, "+-": 0.0, "-+": 0.0, "--": -1.0}, basis, gen
    )
    err = max(
        sol.residual,
        lstsq_residual,
        abs(sol.qfi - 1.0),
        abs(spectrum["++"] - (-1.0)),
        abs(spectrum["--"] - 1.0),
        abs(spectrum["+-"]),
        abs(spectrum["-+"]),
        flipped_res,
        abs(sol.state.purity() - 1.0),
    )
    unconstrained_ok = spectrum.unconstrained[1] and spectrum.unconstrained[2]
    return err <= 1e-8 and unconstrained_ok, {"max_error": err}


@_check("the free eigenvalue on zero-probability outcomes never moves QFI")
def _unconstrained_lambda_invariance():
    basis = dynamics.product_pm_readout(2)
    gen = dynamics.entangling_generator(2)
    state = states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    worst_qfi = 0.0
    worst_res = 0.0
    for c in (0.0, 0.7, -2.0):
        u = {"++": -1.0, "+-": c, "-+": c, "--": 1.0}
        worst_res = max(worst_res, sol1_residual(state, u, basis, gen))
        l_op = fisher.sld_from_spectrum(basis, u)
        qfi = float(np.real(np.trace(l_op @ l_op @ state.matrix)))
        worst_qfi = max(worst_qfi, abs(qfi - 1.0))
    return max(worst_qfi, worst_res) <= 1e-9, {"qfi_error": worst_qfi, "residual": worst_res}


@_check("even tensor powers under entangling dynamics give imaginary ratios")
def _even_parity_imaginary_lambdas():
    ok = True
    worst_re = 0.0
    least_im = np.inf
    for n in (2, 4):
        report = verify_parity_obstruction(n)
        worst_re = max(worst_re, report.max_abs_real)
        least_im = min(least_im, report.max_abs_imag)
        ok &= not report.saturated
    ok &= worst_re <= 1e-9 and least_im >= 0.1
    return ok, {"max_abs_real": worst_re, "min_max_abs_imag": least_im}


@_check("odd tensor powers obey the product rule with values +/-1, QFI = 1")
def _odd_parity_product_rule():
    worst = 0.0
    worst_qfi = 0.0
    for n in (3, 5):
        report = verify_parity_obstruction(n)
        prefactor = float(np.real(1j ** (n + 3)))
        for label in report.spectrum.labels:
            expected = prefactor * (-1.0) ** label.count("+")
            worst = max(worst, abs(report.spectrum[label] - expected))
        sol = closed_form_solution(dynamics.ENTANGLING, n)
        worst_qfi = max(worst_qfi, abs(sol.qfi - 1.0), sol.residual)
    return worst <= 1e-9 and worst_qfi <= 1e-8, {"max_error": worst, "qfi_error": worst_qfi}


@_check("tensor cube of the two-qubit solution solves the six-qubit optimality equation")
def _composite_tensor_rule():
    # Unproven composite construction: measure the residual, record the
    # verdict either way.
    sol = closed_form_solution(dynamics.ENTANGLING, 6)
    return sol.residual <= 1e-7, {"residual": sol.residual, "qfi": sol.qfi}


@_check("no QFI advantage from more qubits under the entangling generator")
def _entangling_qfi_constant():
    worst = 0.0
    for n in (1, 3, 5):
        sol = closed_form_solution(dynamics.ENTANGLING, n)
        worst = max(worst, abs(sol.qfi - 1.0))
    return worst <= 1e-8, {"max_error": worst}


@_check("bound is 1/sqrt(repetitions * F), unbounded at F = 0")
def _shot_noise_bound():
    worst = max(
        abs(fisher.cramer_rao_bound(n, 1) - 1.0 / math.sqrt(n)) for n in range(1, 7)
    )
    worst = max(worst, abs(fisher.cramer_rao_bound(1, 10**4) - 0.01))
    unbounded = math.isinf(fisher.cramer_rao_bound(0.0, 1))
    return worst <= 1e-12 and unbounded, {"max_error": worst}


@_check("search recovers QFI 1 on the Bloch equator (a_3 = 0, |a| = 1)")
def _solver_single_qubit_search():
    result = solver.search_optimal_state(
        dynamics.nonentangling_generator(1),
        dynamics.product_pm_readout(1),
        solver.SearchConfig(n_starts=16, seed=11),
    )
    if not result.feasible:
        return False, {"best_residual": result.best_residual}
    # The feasible set is the whole Bloch equator (every a_3 = 0 pure state
    # attains F = 1); the two states (0, +/-1, 0) are its symmetric members.
    worst = 0.0
    for sol in result.solutions:
        a = states.BlochCoefficients.from_state(sol.state).a
        worst = max(
            worst,
            abs(sol.qfi - 1.0),
            abs(np.linalg.norm(a) - 1.0),
            abs(a[2]),
            sol.residual,
        )
    return worst <= 1e-6, {"max_error": worst, "n_solutions": len(result.solutions)}


@_check("search reaches the QFI ceiling 9 (non-entangling) and 1 (entangling) at n = 3")
def _solver_three_qubit_ceiling():
    # No probe exceeds (h_max - h_min)^2: 9 for the non-entangling generator
    # and 1 for the entangling one at n = 3; the search must reach both.
    worst = 0.0
    for build, ceiling in (
        (dynamics.nonentangling_generator, 9.0), (dynamics.entangling_generator, 1.0)
    ):
        result = solver.search_optimal_state(
            build(3), dynamics.product_pm_readout(3), solver.SearchConfig(n_starts=4, seed=3)
        )
        if not result.feasible:
            return False, {"best_residual": result.best_residual}
        worst = max(worst, *(abs(sol.qfi - ceiling) for sol in result.solutions))
    return worst <= 1e-6, {"max_error": worst}


@_check("the Pauli expansion by type of a sector solution is its full expansion (n <= 6)")
def _pauli_types_of_sector_solutions():
    # every CLI search runs in the permutation-symmetric sector, and its
    # report gives each solution's expansion by type, read from the ket
    worst, count = 0.0, 0
    for build in (dynamics.nonentangling_generator, dynamics.entangling_generator):
        for n in (3, 6):
            result = solver.search_optimal_state(
                build(n), dynamics.product_pm_readout(n), solver.SearchConfig(n_starts=2, seed=5)
            )
            if not result.feasible:
                return False, {"best_residual": result.best_residual}
            count += len(result.solutions)
            worst = max(worst, *(pauli_type_error(sol.state.ket) for sol in result.solutions))
    return worst <= 1e-12, {"max_error": worst, "n_solutions": count}


@_check("balanced outcome frequencies, identical redraw under the same seed")
def _readout_sampling():
    basis = dynamics.product_pm_readout(1)
    rho = states.optimal_single_qubit(+1)
    shots = 10**6
    counts = montecarlo.sample_readout(rho, basis, shots, seed=123)
    frac = counts["+"] / shots
    again = montecarlo.sample_readout(rho, basis, shots, seed=123)
    passed = abs(frac - 0.5) <= 0.002 and again == counts
    return passed, {"plus_fraction": frac}


def run_golden_suite(filter_substring: str | None = None) -> list[CheckResult]:
    """Run all (or a substring-filtered subset of) the golden checks."""
    results = []
    for name, claim, func in _CHECKS:
        if filter_substring and filter_substring not in name:
            continue
        try:
            passed, measured = func()
        except Exception as exc:  # a crash is a failed check, not a crash of the suite
            results.append(CheckResult(name=name, passed=False, detail=f"raised {exc!r}"))
            continue
        results.append(CheckResult(
            name=name, passed=bool(passed), detail=claim,
            measured={k: float(v) for k, v in measured.items()},
        ))
    return results
