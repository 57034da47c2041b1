"""Golden verification suite.

Every check compares a computed quantity against a frozen expected value
(hand-derived or closed form), so any corruption of the underlying algebra is
caught.  Checks are named by what they verify; ``run_golden_suite`` filters by
substring so related groups (e.g. every name containing "parity") can be run
in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import dynamics, fisher, montecarlo, operators, solver, states

_SQ2 = 1.0 / math.sqrt(2.0)

# Frozen matrices used as independent expectations (never built from the
# package's own Pauli constants, so sign corruptions are detectable).
_EXPECT_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
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


_CHECKS: list[tuple[str, Callable[[], CheckResult]]] = []


def _check(name: str):
    def register(func):
        _CHECKS.append((name, func))
        return func

    return register


def _result(name: str, passed: bool, detail: str, **measured: float) -> CheckResult:
    return CheckResult(
        name=name, passed=bool(passed), detail=detail,
        measured={k: float(v) for k, v in measured.items()},
    )


def _close(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@_check("single-qubit-optimum-states")
def _check_single_qubit_optimum() -> CheckResult:
    plus = states.optimal_single_qubit(+1)
    minus = states.optimal_single_qubit(-1)
    err = max(
        _close(plus.matrix, _EXPECT_OPTIMAL_PLUS),
        _close(minus.matrix, _EXPECT_OPTIMAL_MINUS),
        abs(plus.purity() - 1.0),
        abs(minus.purity() - 1.0),
    )
    return _result(
        "single-qubit-optimum-states", err <= 1e-12,
        "optimal single-qubit states are (1 +/- sigma_2)/2 and pure",
        max_error=err,
    )


@_check("eigenbasis-of-y")
def _check_eigenbasis_of_y() -> CheckResult:
    eig = operators.hermitian_eigen(operators.pauli_matrix("Y"))
    value_err = _close(eig.values, [1.0, -1.0])
    ov_plus = abs(np.vdot(eig.vectors[:, 0], _KET_I))
    ov_minus = abs(np.vdot(eig.vectors[:, 1], _KET_IBAR))
    err = max(value_err, abs(ov_plus - 1.0), abs(ov_minus - 1.0))
    return _result(
        "eigenbasis-of-y", err <= 1e-10,
        "sigma_2 eigenpairs are +/-1 with eigenvectors (|0> +/- i|1>)/sqrt(2)",
        max_error=err,
    )


@_check("bloch-construction")
def _check_bloch_construction() -> CheckResult:
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
    return _result(
        "bloch-construction", err <= 1e-12 and rejected,
        "Bloch construction reproduces the optimum and rejects |a| > 1",
        max_error=err,
    )


@_check("tensor-power-expansion")
def _check_tensor_power() -> CheckResult:
    rho2 = states.tensor_power(states.optimal_single_qubit(+1), 2)
    terms = rho2.pauli_coefficients()
    expected = {"II": 0.25, "YI": 0.25, "IY": 0.25, "YY": 0.25}
    err = max(abs(terms.get(k, 0.0) - v) for k, v in expected.items())
    extra = set(terms) - set(expected)
    return _result(
        "tensor-power-expansion", err <= 1e-12 and not extra,
        "two-fold power of the optimum is (II + YI + IY + YY)/4",
        max_error=err,
    )


@_check("cat-pauli-signs")
def _check_cat_signs() -> CheckResult:
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
    return _result(
        "cat-pauli-signs", err <= 1e-12,
        "cat-state Pauli weights match the ket-derived convention",
        max_error=err,
    )


@_check("generator-spectra")
def _check_generators() -> CheckResult:
    non2 = dynamics.nonentangling_generator(2).matrix
    ent2 = dynamics.entangling_generator(2).matrix
    err = max(
        _close(np.sort(np.linalg.eigvalsh(non2)), [-1.0, 0.0, 0.0, 1.0]),
        _close(ent2, np.diag([0.5, -0.5, -0.5, 0.5])),
        abs(np.trace(non2)),
        _close(ent2 @ ent2, 0.25 * np.eye(4)),
    )
    return _result(
        "generator-spectra", err <= 1e-12,
        "two-qubit generators have the expected matrices and spectra",
        max_error=err,
    )


@_check("readout-projectors")
def _check_readout() -> CheckResult:
    basis = dynamics.product_pm_readout(1)
    plus = basis.projector("+")
    err = _close(plus, np.array([[0.5, 0.5], [0.5, 0.5]]))
    basis3 = dynamics.product_pm_readout(3)
    total = sum(basis3.projectors())
    err = max(err, _close(total, np.eye(8)))
    return _result(
        "readout-projectors", err <= 1e-12,
        "per-qubit |+>/|-> projectors are (1 +/- sigma_1)/2 and complete",
        max_error=err,
    )


@_check("derivative-bloch-form")
def _check_derivative_form() -> CheckResult:
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
    return _result(
        "derivative-bloch-form", worst <= 1e-12,
        "-i[H, rho] equals -(a_2 sigma_1 - a_1 sigma_2)/2 for single qubits",
        max_error=worst,
    )


@_check("bloch-rotation")
def _check_bloch_rotation() -> CheckResult:
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
    return _result(
        "bloch-rotation", err <= 1e-10 and err_fd <= 1e-6,
        "evolution rotates the Bloch vector to (-sin x, cos x, 0)",
        bloch_error=err, derivative_error=err_fd,
    )


@_check("single-qubit-sld")
def _check_single_qubit_sld() -> CheckResult:
    gen = dynamics.nonentangling_generator(1)
    plus = states.optimal_single_qubit(+1)
    minus = states.optimal_single_qubit(-1)
    l_plus = fisher.sld_from_state(plus, dynamics.state_derivative(gen, plus))
    l_minus = fisher.sld_from_state(minus, dynamics.state_derivative(gen, minus))
    err = max(
        _close(l_plus.operator, _EXPECT_MINUS_X),
        _close(l_minus.operator, -_EXPECT_MINUS_X),
    )
    return _result(
        "single-qubit-sld", err <= 1e-10,
        "the SLD of the optimal single-qubit probe is -/+ sigma_1",
        max_error=err,
    )


@_check("single-qubit-lambda-and-fisher")
def _check_single_qubit_lambda() -> CheckResult:
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
    return _result(
        "single-qubit-lambda-and-fisher", err <= 1e-9 and report.saturated,
        "inverse eigenvalues are -/+1 and both Fisher informations equal 1",
        max_error=err,
        im_condition_max=report.im_condition_max,
        diagonal_residual=report.diagonal_residual,
    )


@_check("product-state-lambda-additivity")
def _check_lambda_additivity() -> CheckResult:
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
    return _result(
        "product-state-lambda-additivity", worst <= 1e-9,
        "inverse eigenvalues of tensor-power probes add per qubit",
        max_error=worst,
    )


@_check("nqubit-sld-closed-form")
def _check_nqubit_sld() -> CheckResult:
    worst_l = 0.0
    worst_qfi = 0.0
    worst_res = 0.0
    for n in range(1, 7):
        sol = solver.closed_form_solution(dynamics.NONENTANGLING, n)
        basis = dynamics.product_pm_readout(n)
        l_dense = fisher.sld_from_spectrum(basis, sol.inv_lambdas).operator
        x_terms = {"I" * j + "X" + "I" * (n - 1 - j): -1.0 for j in range(n)}
        expect = operators.pauli_terms_dense(x_terms)
        worst_l = max(worst_l, _close(l_dense, expect))
        worst_qfi = max(worst_qfi, abs(sol.qfi - n))
        worst_res = max(worst_res, sol.residual)
    return _result(
        "nqubit-sld-closed-form",
        worst_l <= 1e-9 and worst_qfi <= 1e-8 and worst_res <= 1e-7,
        "diagonal SLD equals minus the sum of single-qubit X terms, QFI = n",
        l_error=worst_l, qfi_error=worst_qfi, residual=worst_res,
    )


@_check("fisher-scaling-product-states")
def _check_fisher_scaling() -> CheckResult:
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
    return _result(
        "fisher-scaling-product-states", worst <= 1e-8 and saturated_all,
        "classical and quantum Fisher information both equal n, saturated",
        max_error=worst,
    )


@_check("pure-probe-closed-form-route")
def _check_pure_route() -> CheckResult:
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
            dynamics.custom_generator(h + h.conj().T),
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
    return _result(
        "pure-probe-closed-form-route", worst <= 1e-9 and flags_agree and not missing_kets,
        "every pure probe carries its ket, and closed-form analysis of tensor, cat and "
        "random pure probes matches the dense route",
        max_error=worst, missing_kets=missing_kets,
    )


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
    m = basis.n_outcomes
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


def _zero_outcome_ket(basis: dynamics.ReadoutBasis, rng: np.random.Generator) -> np.ndarray:
    """A random ket with zero amplitude on a random half of the readout outcomes."""
    phi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    phi[rng.permutation(basis.dim)[: basis.dim // 2]] = 0.0
    return basis.kets @ (phi / np.linalg.norm(phi))


@_check("optimality-equation-readout-frame")
def _check_readout_frame() -> CheckResult:
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
            dynamics.custom_generator(h + h.conj().T),
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
    return _result(
        "optimality-equation-readout-frame",
        max(worst_u, worst_res, worst_qfi) <= 1e-9 and flags_agree,
        "entrywise least squares in the readout frame matches the dense outer-product system",
        u_error=worst_u, residual_error=worst_res, qfi_error=worst_qfi,
    )


@_check("cat-state-excluded")
def _check_cat_excluded() -> CheckResult:
    gen = dynamics.nonentangling_generator(2)
    basis = dynamics.product_pm_readout(2)
    cat = states.cat_state(2, +1)
    rho_prime = dynamics.state_derivative(gen, cat)
    _, residual, _ = solver.solve_lambdas_given_state(cat, basis, gen)
    f_c = fisher.classical_fisher(basis, cat, rho_prime)
    report = fisher.check_saturation(basis, cat, rho_prime)
    ok = residual > 0.1 and abs(f_c) <= 1e-10 and not report.saturated
    return _result(
        "cat-state-excluded", ok,
        "the cat state solves nothing: best residual stays large, F = 0",
        residual=residual, classical_fisher=f_c,
    )


@_check("two-qubit-system-nonentangling")
def _check_system_nonentangling() -> CheckResult:
    system = solver.two_qubit_system(dynamics.NONENTANGLING)
    coeffs = states.BlochCoefficients.from_state(
        states.tensor_power(states.optimal_single_qubit(+1), 2)
    )
    # K values for inverse eigenvalues (-2, 0, 0, +2).
    k = solver.k_values_from_inv_lambdas([-2.0, 0.0, 0.0, 2.0])
    err_k = _close(k, [0.0, -4.0, -4.0, 0.0])
    residuals = solver.evaluate_two_qubit_system(system, coeffs, k)
    dense = solver.dense_two_qubit_residuals(system, coeffs, k)
    err = max(float(np.max(np.abs(residuals))), _close(residuals, dense), err_k)
    return _result(
        "two-qubit-system-nonentangling", err <= 1e-9,
        "product-state K values zero all sixteen relations (dense agreement)",
        max_error=err,
    )


@_check("two-qubit-system-entangling-family")
def _check_system_entangling() -> CheckResult:
    system = solver.two_qubit_system(dynamics.ENTANGLING)
    coeffs = states.BlochCoefficients.from_state(
        states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    )
    worst = 0.0
    for c in (0.0, 0.7, -2.0):
        k = solver.k_values_from_inv_lambdas([-1.0, c, c, 1.0])
        residuals = solver.evaluate_two_qubit_system(system, coeffs, k)
        dense = solver.dense_two_qubit_residuals(system, coeffs, k)
        worst = max(worst, float(np.max(np.abs(residuals))), _close(residuals, dense))
    return _result(
        "two-qubit-system-entangling-family", worst <= 1e-9,
        "the entangling solution zeros all relations for any free value c",
        max_error=worst,
    )


@_check("entangling-two-qubit-solution")
def _check_entangling_solution() -> CheckResult:
    sol = solver.closed_form_solution(dynamics.ENTANGLING, 2)
    basis = dynamics.product_pm_readout(2)
    gen = dynamics.entangling_generator(2)
    spectrum, lstsq_residual, _ = solver.solve_lambdas_given_state(sol.state, basis, gen)
    flipped = states.two_qubit_entangling_candidate(1.0, -1.0, -1.0)
    flipped_res = solver.sol1_residual(
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
    return _result(
        "entangling-two-qubit-solution", err <= 1e-8 and unconstrained_ok,
        "pure two-qubit entangling solution with QFI = 1; mixed outcomes free",
        max_error=err,
    )


@_check("unconstrained-lambda-invariance")
def _check_unconstrained_invariance() -> CheckResult:
    basis = dynamics.product_pm_readout(2)
    gen = dynamics.entangling_generator(2)
    state = states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    worst_qfi = 0.0
    worst_res = 0.0
    for c in (0.0, 0.7, -2.0):
        u = {"++": -1.0, "+-": c, "-+": c, "--": 1.0}
        worst_res = max(worst_res, solver.sol1_residual(state, u, basis, gen))
        l_op = fisher.sld_from_spectrum(basis, u).operator
        qfi = float(np.real(np.trace(l_op @ l_op @ state.matrix)))
        worst_qfi = max(worst_qfi, abs(qfi - 1.0))
    return _result(
        "unconstrained-lambda-invariance", max(worst_qfi, worst_res) <= 1e-9,
        "the free eigenvalue on zero-probability outcomes never moves QFI",
        qfi_error=worst_qfi, residual=worst_res,
    )


@_check("even-parity-imaginary-lambdas")
def _check_even_parity() -> CheckResult:
    ok = True
    worst_re = 0.0
    least_im = np.inf
    for n in (2, 4):
        report = solver.verify_parity_obstruction(n)
        worst_re = max(worst_re, report.max_abs_real)
        least_im = min(least_im, report.max_abs_imag)
        ok &= not report.saturated
    ok &= worst_re <= 1e-9 and least_im >= 0.1
    return _result(
        "even-parity-imaginary-lambdas", ok,
        "even tensor powers under entangling dynamics give imaginary ratios",
        max_abs_real=worst_re, min_max_abs_imag=least_im,
    )


@_check("odd-parity-product-rule")
def _check_odd_parity() -> CheckResult:
    worst = 0.0
    worst_qfi = 0.0
    for n in (3, 5):
        report = solver.verify_parity_obstruction(n)
        prefactor = float(np.real(1j ** (n + 3)))
        for label in report.spectrum.labels:
            expected = prefactor * (-1.0) ** label.count("+")
            worst = max(worst, abs(report.spectrum[label] - expected))
        sol = solver.closed_form_solution(dynamics.ENTANGLING, n)
        worst_qfi = max(worst_qfi, abs(sol.qfi - 1.0), sol.residual)
    return _result(
        "odd-parity-product-rule", worst <= 1e-9 and worst_qfi <= 1e-8,
        "odd tensor powers obey the product rule with values +/-1, QFI = 1",
        max_error=worst, qfi_error=worst_qfi,
    )


@_check("composite-tensor-rule")
def _check_composite_rule() -> CheckResult:
    # Unproven composite construction: measure the residual, record the
    # verdict either way.
    sol = solver.closed_form_solution(dynamics.ENTANGLING, 6)
    passed = sol.residual <= 1e-7
    verdict = "holds" if passed else "fails"
    return _result(
        "composite-tensor-rule", passed,
        f"tensor cube of the two-qubit solution on six qubits: rule {verdict} "
        f"(measured residual {sol.residual:.3e}, qfi {sol.qfi:.6f})",
        residual=sol.residual, qfi=sol.qfi,
    )


@_check("entangling-qfi-constant")
def _check_entangling_qfi() -> CheckResult:
    worst = 0.0
    for n in (1, 3, 5):
        sol = solver.closed_form_solution(dynamics.ENTANGLING, n)
        worst = max(worst, abs(sol.qfi - 1.0))
    return _result(
        "entangling-qfi-constant", worst <= 1e-8,
        "no QFI advantage from more qubits under the entangling generator",
        max_error=worst,
    )


@_check("shot-noise-bound")
def _check_bound() -> CheckResult:
    worst = max(
        abs(fisher.cramer_rao_bound(n, 1) - 1.0 / math.sqrt(n)) for n in range(1, 7)
    )
    worst = max(worst, abs(fisher.cramer_rao_bound(1, 10**4) - 0.01))
    unbounded = math.isinf(fisher.cramer_rao_bound(0.0, 1))
    return _result(
        "shot-noise-bound", worst <= 1e-12 and unbounded,
        "bound is 1/sqrt(repetitions * F), unbounded at F = 0",
        max_error=worst,
    )


@_check("solver-single-qubit-search")
def _check_search() -> CheckResult:
    result = solver.search_optimal_state(
        dynamics.nonentangling_generator(1),
        dynamics.product_pm_readout(1),
        1,
        solver.SearchConfig(n_starts=16, seed=11),
    )
    if not result.feasible:
        return _result(
            "solver-single-qubit-search", False,
            "search found no feasible single-qubit state",
            best_residual=result.best_residual,
        )
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
    return _result(
        "solver-single-qubit-search", worst <= 1e-6,
        "search recovers QFI 1 on the Bloch equator (a_3 = 0, |a| = 1)",
        max_error=worst, n_solutions=len(result.solutions),
    )


@_check("readout-sampling")
def _check_sampling() -> CheckResult:
    basis = dynamics.product_pm_readout(1)
    rho = states.optimal_single_qubit(+1)
    counts = montecarlo.sample_readout(rho, basis, 10**6, seed=123)
    frac = counts.counts["+"] / counts.total
    again = montecarlo.sample_readout(rho, basis, 10**6, seed=123)
    return _result(
        "readout-sampling", abs(frac - 0.5) <= 0.002 and again.counts == counts.counts,
        "balanced outcome frequencies, identical redraw under the same seed",
        plus_fraction=frac,
    )


def run_golden_suite(filter_substring: str | None = None) -> list[CheckResult]:
    """Run all (or a substring-filtered subset of) the golden checks."""
    results = []
    for name, func in _CHECKS:
        if filter_substring and filter_substring not in name:
            continue
        try:
            results.append(func())
        except Exception as exc:  # a crash is a failed check, not a crash of the suite
            results.append(
                CheckResult(name=name, passed=False, detail=f"raised {exc!r}")
            )
    return results
