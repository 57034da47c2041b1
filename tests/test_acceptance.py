"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s`` or in the failure report)."""

import json
import time

import numpy as np
import pytest

from probelab import cli, dynamics, fisher, montecarlo, operators, solver, states, verify
from probelab.montecarlo import MeasurementModel

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_single_qubit_optimum():
    start = time.time()
    basis = dynamics.product_pm_readout(1)
    gen = dynamics.nonentangling_generator(1)
    worst = 0.0
    for sign in (+1, -1):
        rho = states.optimal_single_qubit(sign)
        rho_prime = dynamics.state_derivative(gen, rho)
        l_op = fisher.sld_from_state(rho, rho_prime).operator
        worst = max(worst, float(np.max(np.abs(l_op - (-sign * SX)))))
        spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, l_op)
        worst = max(worst, abs(spectrum["+"] - (-sign)), abs(spectrum["-"] - sign))
        worst = max(
            worst,
            abs(fisher.classical_fisher(basis, rho, rho_prime) - 1.0),
            abs(fisher.quantum_fisher(rho, rho_prime) - 1.0),
        )
        report = fisher.check_saturation(basis, rho, rho_prime)
        assert report.saturated
        worst = max(worst, report.im_condition_max, report.diagonal_residual)
        worst = max(
            worst,
            verify.sol1_residual(
                rho, {"+": -float(sign), "-": float(sign)}, basis, gen
            ),
        )
    elapsed = time.time() - start
    _report(
        "criterion-1 single-qubit optimum",
        worst <= 1e-9 and elapsed < 1.0,
        f"max residual {worst:.3e}, runtime {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_2_nonentangling_scaling():
    start = time.time()
    worst_l = worst_add = worst_f = 0.0
    for n in range(1, 7):
        gen = dynamics.nonentangling_generator(n)
        basis = dynamics.product_pm_readout(n)
        rho = states.tensor_power(states.optimal_single_qubit(+1), n)
        rho_prime = dynamics.state_derivative(gen, rho)

        sol = verify.closed_form_solution(dynamics.NONENTANGLING, n)
        l_dense = fisher.sld_from_spectrum(basis, sol.inv_lambdas)
        expect = np.zeros((2**n, 2**n), dtype=complex)
        for j in range(n):
            labels = ["I"] * n
            labels[j] = "X"
            expect -= operators.pauli_dense("".join(labels))
        worst_l = max(worst_l, float(np.max(np.abs(l_dense - expect))))

        l_min = fisher.sld_from_state(rho, rho_prime).operator
        spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, l_min)
        for label in basis.labels:
            additive = sum(-1.0 if c == "+" else 1.0 for c in label)
            worst_add = max(worst_add, abs(spectrum[label] - additive))

        worst_f = max(
            worst_f,
            abs(fisher.classical_fisher(basis, rho, rho_prime) - n),
            abs(fisher.quantum_fisher(rho, rho_prime) - n),
        )
    elapsed = time.time() - start
    _report(
        "criterion-2 non-entangling N-scaling",
        worst_l <= 1e-9 and worst_add <= 1e-9 and worst_f <= 1e-8 and elapsed < 10.0,
        f"L err {worst_l:.2e}, additivity err {worst_add:.2e}, F err {worst_f:.2e}, "
        f"runtime {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_3_sixteen_equation_systems():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_equiv = 0.0
    for kind in (dynamics.NONENTANGLING, dynamics.ENTANGLING):
        system = verify.two_qubit_system(kind)
        for _ in range(100):
            coeffs = states.BlochCoefficients(
                a=rng.uniform(-1, 1, 3),
                b=rng.uniform(-1, 1, 3),
                c=rng.uniform(-1, 1, (3, 3)),
            )
            k = rng.uniform(-3, 3, 4)
            symbolic = verify.evaluate_two_qubit_system(system, coeffs, k)
            dense = verify.dense_two_qubit_residuals(system, coeffs, k)
            worst_equiv = max(worst_equiv, float(np.max(np.abs(symbolic - dense))))

    product = states.BlochCoefficients.from_state(
        states.tensor_power(states.optimal_single_qubit(+1), 2)
    )
    k_product = verify.k_values_from_inv_lambdas([-2.0, 0.0, 0.0, 2.0])
    assert np.allclose(k_product, [0.0, -4.0, -4.0, 0.0])
    worst_sol = float(
        np.max(
            np.abs(
                verify.evaluate_two_qubit_system(
                    verify.two_qubit_system(dynamics.NONENTANGLING), product, k_product
                )
            )
        )
    )
    candidate = states.BlochCoefficients.from_state(
        states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    )
    for c in (0.0, 0.7, -2.0):
        residuals = verify.evaluate_two_qubit_system(
            verify.two_qubit_system(dynamics.ENTANGLING),
            candidate,
            verify.k_values_from_inv_lambdas([-1.0, c, c, 1.0]),
        )
        worst_sol = max(worst_sol, float(np.max(np.abs(residuals))))
    elapsed = time.time() - start
    _report(
        "criterion-3 two-qubit sixteen-equation systems",
        worst_equiv <= 1e-9 and worst_sol <= 1e-9 and elapsed < 5.0,
        f"dense-equivalence err {worst_equiv:.2e} over 200 samples, "
        f"known-solution residual {worst_sol:.2e}, runtime {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_4_cat_state_exclusion():
    gen = dynamics.nonentangling_generator(2)
    basis = dynamics.product_pm_readout(2)
    cat = states.cat_state(2)
    _, residual, _ = solver.solve_lambdas_given_state(cat, basis, gen)
    f_c = fisher.classical_fisher(basis, cat, dynamics.state_derivative(gen, cat))
    _report(
        "criterion-4 cat-state exclusion",
        residual > 0.1 and abs(f_c) <= 1e-10,
        f"best least-squares residual {residual:.3f} (> 0.1), F_classical {f_c:.2e}",
    )


def test_criterion_5_entangling_two_qubit_solution():
    basis = dynamics.product_pm_readout(2)
    gen = dynamics.entangling_generator(2)
    state = states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    worst = 0.0
    for c in (0.0, 0.9, -1.5):  # the mixed outcomes are unconstrained
        worst = max(
            worst,
            verify.sol1_residual(state, {"++": -1.0, "+-": c, "-+": c, "--": 1.0}, basis, gen),
        )
    spectrum, _, _ = solver.solve_lambdas_given_state(state, basis, gen)
    assert spectrum.unconstrained == (False, True, True, False)
    worst = max(worst, abs(spectrum["++"] - (-1.0)), abs(spectrum["--"] - 1.0))
    sol = verify.closed_form_solution(dynamics.ENTANGLING, 2)
    qfi_err = abs(sol.qfi - 1.0)
    _report(
        "criterion-5 entangling two-qubit solution",
        worst <= 1e-9 and qfi_err <= 1e-8,
        f"equation residual {worst:.2e}, <L^2> error {qfi_err:.2e}",
    )


def test_criterion_6_parity_results():
    start = time.time()
    ok = True
    detail = []
    for n in (2, 4):
        report = verify.verify_parity_obstruction(n)
        ok &= (
            report.max_abs_real <= 1e-9
            and report.max_abs_imag >= 0.1
            and not report.saturated
        )
        detail.append(f"n={n}: |Re|<={report.max_abs_real:.1e}, |Im|={report.max_abs_imag:.2f}")
    worst_odd = 0.0
    worst_qfi = 0.0
    for n in (3, 5):
        report = verify.verify_parity_obstruction(n)
        prefactor = float(np.real(1j ** (n + 3)))
        for label in report.spectrum.labels:
            expected = prefactor * (-1.0) ** label.count("+")
            worst_odd = max(worst_odd, abs(report.spectrum[label] - expected))
        sol = verify.closed_form_solution(dynamics.ENTANGLING, n)
        worst_qfi = max(worst_qfi, abs(sol.qfi - 1.0))
        detail.append(f"n={n}: product-rule err {worst_odd:.1e}")
    elapsed = time.time() - start
    ok &= worst_odd <= 1e-9 and worst_qfi <= 1e-8 and elapsed < 10.0
    _report(
        "criterion-6 parity results",
        ok,
        "; ".join(detail) + f"; runtime {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_7_composite_rule_measured():
    sol = verify.closed_form_solution(dynamics.ENTANGLING, 6)
    verdict = "holds" if sol.residual <= 1e-7 else "fails"
    # the criterion is that the check runs and records a definitive verdict;
    # the measurement shows the rule holds for the six-qubit tensor cube
    _report(
        "criterion-7 composite rule (measured, not assumed)",
        np.isfinite(sol.residual) and verdict == "holds",
        f"residual {sol.residual:.3e} -> rule {verdict}; qfi {sol.qfi:.9f}",
    )


def test_criterion_8_fisher_hierarchy():
    rng = np.random.default_rng(31415)
    checked = 0
    saturated_count = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        dim = 2**n
        rho = (
            states.random_pure_state(n, rng)
            if rng.random() < 0.5
            else states.random_mixed_state(n, rng)
        )
        roll = rng.random()
        if roll < 0.4:
            gen = dynamics.nonentangling_generator(n)
        elif roll < 0.7:
            gen = dynamics.entangling_generator(n)
        else:
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            gen = dynamics.Generator(n, np.linalg.eigvalsh(g + g.conj().T))
        basis = (
            dynamics.product_pm_readout(n)
            if rng.random() < 0.5
            else dynamics.random_projective_readout(n, rng)
        )
        rho_prime = dynamics.state_derivative(gen, rho)
        f_c = fisher.classical_fisher(basis, rho, rho_prime)
        f_q = fisher.quantum_fisher(rho, rho_prime)
        assert f_c <= f_q + 1e-9, f"hierarchy violated: {f_c} > {f_q}"
        if fisher.check_saturation(basis, rho, rho_prime).saturated:
            saturated_count += 1
            assert abs(f_c - f_q) <= 1e-7
        checked += 1
    # random triples virtually never saturate, so drive the implication with
    # known saturating configurations as well (equator states, tensor powers)
    extra = []
    for n in (1, 2, 3):
        extra.append(
            (
                states.tensor_power(states.optimal_single_qubit(+1), n),
                dynamics.nonentangling_generator(n),
                dynamics.product_pm_readout(n),
            )
        )
    for phi in (0.3, 2.1):
        extra.append(
            (
                states.from_bloch([np.sin(phi), np.cos(phi), 0.0]),
                dynamics.nonentangling_generator(1),
                dynamics.product_pm_readout(1),
            )
        )
    for rho, gen, basis in extra:
        rho_prime = dynamics.state_derivative(gen, rho)
        assert fisher.check_saturation(basis, rho, rho_prime).saturated
        f_c = fisher.classical_fisher(basis, rho, rho_prime)
        f_q = fisher.quantum_fisher(rho, rho_prime)
        assert f_c <= f_q + 1e-9
        assert abs(f_c - f_q) <= 1e-7
        saturated_count += 1
    _report(
        "criterion-8 Fisher hierarchy",
        checked == 500 and saturated_count >= len(extra),
        f"{checked} random (state, generator, basis) triples at N <= 3 plus "
        f"{len(extra)} saturating controls; {saturated_count} saturated cases "
        f"all met equality",
    )


def test_criterion_9_monte_carlo_bound():
    start = time.time()
    basis1 = dynamics.product_pm_readout(1)
    gen1 = dynamics.nonentangling_generator(1)
    rho1 = states.optimal_single_qubit(+1)
    model1 = MeasurementModel(gen1, rho1, basis1)
    res1 = montecarlo.uncertainty_run(model1, 0.3, 10**4, 500, seed=1001)
    ok1 = abs(res1.delta_x - 0.01) <= 0.1 * 0.01

    rho4 = states.tensor_power(states.optimal_single_qubit(+1), 4)
    model4 = MeasurementModel(
        dynamics.nonentangling_generator(4), rho4, dynamics.product_pm_readout(4)
    )
    res4 = montecarlo.uncertainty_run(model4, 0.3, 10**4, 500, seed=1002)
    ok4 = abs(res4.delta_x - 0.005) <= 0.1 * 0.005

    res2x = montecarlo.uncertainty_run(model1, 0.3, 2 * 10**4, 1000, seed=1003)
    ratio = res1.delta_x / res2x.delta_x
    ok_ratio = abs(ratio - np.sqrt(2.0)) <= 0.15 * np.sqrt(2.0)
    elapsed = time.time() - start
    _report(
        "criterion-9 Monte Carlo uncertainty bound",
        ok1 and ok4 and ok_ratio and elapsed < 60.0,
        f"N=1 delta_x {res1.delta_x:.5f} (target 0.01), "
        f"N=4 delta_x {res4.delta_x:.5f} (target 0.005), "
        f"doubling ratio {ratio:.3f} (target {np.sqrt(2):.3f}), "
        f"runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_10_reproducibility(tmp_path, capsys):
    code = cli.main(["verify"])
    out_verify = capsys.readouterr().out
    assert "checks passed" in out_verify

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"n_qubits": 1, "shots": 2000, "trials": 100, "seed": 12})
    )
    assert cli.main(["simulate", str(config_path)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["simulate", str(config_path)]) == 0
    second = capsys.readouterr().out
    _report(
        "criterion-10 reproducibility",
        code == 0 and first == second and len(first) > 0,
        f"golden suite exit {code}; identical config+seed gave byte-identical "
        f"reports ({len(first)} bytes)",
    )
