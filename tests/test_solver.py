import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from probelab import dynamics, fisher, solver, states, verify
from probelab.errors import DimensionError, UnsupportedClosedFormError


def test_k_values_round_trip():
    u = np.array([-2.0, 0.5, -0.5, 2.0])
    k = verify.k_values_from_inv_lambdas(u)
    # K_SIGNS is 4x its own inverse
    assert np.allclose(verify.K_SIGNS.T @ k / 4.0, u)


def test_k_values_read_an_array_a_mapping_and_a_spectrum():
    spectrum = verify.closed_form_solution("entangling", 2).inv_lambdas
    u = spectrum.real_values()
    expected = verify.k_values_from_inv_lambdas(u)
    assert np.array_equal(expected, verify.K_SIGNS @ u)
    mapping = dict(zip(spectrum.labels, u.tolist()))
    assert np.array_equal(verify.k_values_from_inv_lambdas(mapping), expected)
    assert np.array_equal(verify.k_values_from_inv_lambdas(spectrum), expected)


def test_sol1_residual_golden_single_qubit():
    basis = dynamics.product_pm_readout(1)
    gen = dynamics.nonentangling_generator(1)
    rho = states.optimal_single_qubit(+1)
    assert verify.sol1_residual(rho, {"+": -1.0, "-": 1.0}, basis, gen) < 1e-10


def test_sol1_residual_trivially_zero_for_mixed_state_and_zero_lambdas():
    basis = dynamics.product_pm_readout(1)
    gen = dynamics.nonentangling_generator(1)
    rho = states.from_bloch([0.0, 0.0, 0.0])
    assert verify.sol1_residual(rho, {"+": 0.0, "-": 0.0}, basis, gen) < 1e-12


def test_sol1_residual_cat_state_stays_large():
    basis = dynamics.product_pm_readout(2)
    gen = dynamics.nonentangling_generator(2)
    cat = states.cat_state(2)
    spectrum, residual, _ = solver.solve_lambdas_given_state(cat, basis, gen)
    assert residual > 0.1
    assert verify.sol1_residual(cat, spectrum.real_values(), basis, gen) > 0.1


def test_solve_lambdas_single_qubit():
    basis = dynamics.product_pm_readout(1)
    gen = dynamics.nonentangling_generator(1)
    spectrum, residual, _ = solver.solve_lambdas_given_state(
        states.optimal_single_qubit(+1), basis, gen
    )
    assert residual < 1e-9
    assert spectrum["+"] == pytest.approx(-1.0)
    assert spectrum["-"] == pytest.approx(1.0)


def test_solve_lambdas_two_qubit_product():
    basis = dynamics.product_pm_readout(2)
    gen = dynamics.nonentangling_generator(2)
    rho = states.tensor_power(states.optimal_single_qubit(+1), 2)
    spectrum, residual, _ = solver.solve_lambdas_given_state(rho, basis, gen)
    assert residual < 1e-9
    expected = {"++": -2.0, "+-": 0.0, "-+": 0.0, "--": 2.0}
    for label, value in expected.items():
        assert spectrum[label] == pytest.approx(value, abs=1e-9)


def test_solve_lambdas_entangling_product_is_infeasible():
    basis = dynamics.product_pm_readout(2)
    gen = dynamics.entangling_generator(2)
    rho = states.tensor_power(states.optimal_single_qubit(+1), 2)
    _, residual, _ = solver.solve_lambdas_given_state(rho, basis, gen)
    assert residual > 0.1


def test_sixteen_equations_nonentangling_product_solution():
    system = verify.two_qubit_system(dynamics.NONENTANGLING)
    coeffs = states.BlochCoefficients.from_state(
        states.tensor_power(states.optimal_single_qubit(+1), 2)
    )
    k = verify.k_values_from_inv_lambdas([-2.0, 0.0, 0.0, 2.0])
    assert np.allclose(k, [0.0, -4.0, -4.0, 0.0])
    assert np.max(np.abs(verify.evaluate_two_qubit_system(system, coeffs, k))) < 1e-12


@pytest.mark.parametrize("c", [0.0, 0.7, -2.0])
def test_sixteen_equations_entangling_family(c):
    system = verify.two_qubit_system(dynamics.ENTANGLING)
    coeffs = states.BlochCoefficients.from_state(
        states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    )
    k = verify.k_values_from_inv_lambdas([-1.0, c, c, 1.0])
    assert np.max(np.abs(verify.evaluate_two_qubit_system(system, coeffs, k))) < 1e-12


def test_sixteen_equations_admit_parity_readout_solution():
    # The systems themselves contain a solution the tensor-power family
    # misses: (|00> - i|11>)/sqrt(2), i.e. c12 = c21 = -1, c33 = 1, whose
    # outcome parity carries the phase at the doubled rate (F = 4).
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0 / np.sqrt(2.0)
    ket[3] = -1.0j / np.sqrt(2.0)
    state = states.pure_state(ket)
    coeffs = states.BlochCoefficients.from_state(state)
    assert coeffs.c[0, 1] == pytest.approx(-1.0)
    assert coeffs.c[1, 0] == pytest.approx(-1.0)
    assert coeffs.c[2, 2] == pytest.approx(1.0)

    u = np.array([2.0, -2.0, -2.0, 2.0])
    k = verify.k_values_from_inv_lambdas(u)
    assert np.allclose(k, [0.0, 0.0, 0.0, 8.0])
    system = verify.two_qubit_system(dynamics.NONENTANGLING)
    assert np.max(np.abs(verify.evaluate_two_qubit_system(system, coeffs, k))) < 1e-12

    basis = dynamics.product_pm_readout(2)
    gen = dynamics.nonentangling_generator(2)
    assert verify.sol1_residual(state, u, basis, gen) < 1e-10
    rho_prime = dynamics.state_derivative(gen, state)
    assert fisher.classical_fisher(basis, state, rho_prime) == pytest.approx(4.0)
    assert fisher.quantum_fisher(state, rho_prime) == pytest.approx(4.0)
    assert fisher.check_saturation(basis, state, rho_prime).saturated


def test_sixteen_equations_all_zero_input():
    system = verify.two_qubit_system(dynamics.NONENTANGLING)
    coeffs = states.BlochCoefficients(a=np.zeros(3), b=np.zeros(3), c=np.zeros((3, 3)))
    residuals = verify.evaluate_two_qubit_system(system, coeffs, np.zeros(4))
    # only the constant terms survive, and they are zero too
    assert np.max(np.abs(residuals)) == 0.0


@pytest.mark.parametrize("kind", [dynamics.NONENTANGLING, dynamics.ENTANGLING])
def test_sixteen_equations_match_dense_operator_route(kind):
    system = verify.two_qubit_system(kind)
    rng = np.random.default_rng(42 if kind == dynamics.NONENTANGLING else 43)
    for _ in range(100):
        coeffs = states.BlochCoefficients(
            a=rng.uniform(-1, 1, 3), b=rng.uniform(-1, 1, 3), c=rng.uniform(-1, 1, (3, 3))
        )
        k = rng.uniform(-3.0, 3.0, 4)
        symbolic = verify.evaluate_two_qubit_system(system, coeffs, k)
        dense = verify.dense_two_qubit_residuals(system, coeffs, k)
        assert np.max(np.abs(symbolic - dense)) < 1e-9


def test_closed_form_nonentangling_scaling():
    for n in range(1, 7):
        sol = verify.closed_form_solution(dynamics.NONENTANGLING, n)
        assert sol.provenance == verify.CLOSED_FORM
        assert sol.residual <= 1e-7
        assert sol.qfi == pytest.approx(n, abs=1e-8)
        for label in sol.inv_lambdas.labels:
            expected = label.count("-") - label.count("+")
            assert sol.inv_lambdas[label].real == pytest.approx(expected)


def test_closed_form_entangling_odd():
    for n in (1, 3, 5):
        sol = verify.closed_form_solution(dynamics.ENTANGLING, n)
        assert sol.residual <= 1e-7
        assert sol.qfi == pytest.approx(1.0, abs=1e-8)
        # the product rule: i^(n+3) times -1 per "+" in the label
        prefactor = np.real(1j ** (n + 3))
        for label in sol.inv_lambdas.labels:
            expected = prefactor * (-1.0) ** label.count("+")
            assert abs(sol.inv_lambdas[label] - expected) <= 1e-9


def test_closed_form_entangling_two_qubits():
    sol = verify.closed_form_solution(dynamics.ENTANGLING, 2)
    assert sol.residual <= 1e-7
    assert sol.qfi == pytest.approx(1.0, abs=1e-8)
    assert sol.inv_lambdas["++"] == pytest.approx(-1.0)
    assert sol.inv_lambdas["--"] == pytest.approx(1.0)
    assert sol.inv_lambdas.unconstrained == (False, True, True, False)


def test_closed_form_entangling_composite_six_qubits():
    # measured, not assumed: the residual is the verdict on the composite rule
    sol = verify.closed_form_solution(dynamics.ENTANGLING, 6)
    assert np.isfinite(sol.residual)
    assert sol.residual <= 1e-7
    assert sol.qfi == pytest.approx(1.0, abs=1e-8)


def test_closed_form_entangling_multiple_of_four_unsupported():
    with pytest.raises(UnsupportedClosedFormError):
        verify.closed_form_solution(dynamics.ENTANGLING, 4)


def test_closed_form_qfi_matches_classical_fisher():
    # every returned solution must actually deliver its qfi through the readout
    cases = [(dynamics.NONENTANGLING, n) for n in range(1, 5)]
    cases += [(dynamics.ENTANGLING, n) for n in (1, 2, 3, 6)]
    for kind, n in cases:
        sol = verify.closed_form_solution(kind, n)
        basis = dynamics.product_pm_readout(n)
        gen = (
            dynamics.nonentangling_generator(n)
            if kind == dynamics.NONENTANGLING
            else dynamics.entangling_generator(n)
        )
        rho_prime = dynamics.state_derivative(gen, sol.state)
        f_c = fisher.classical_fisher(basis, sol.state, rho_prime)
        assert abs(f_c - sol.qfi) <= 1e-7


def test_parity_obstruction_even():
    for n in (2, 4):
        report = verify.verify_parity_obstruction(n)
        assert report.max_abs_real <= 1e-9
        assert report.max_abs_imag >= 0.1
        assert not report.saturated


def test_parity_obstruction_odd_control():
    report = verify.verify_parity_obstruction(3)
    assert report.max_abs_imag <= 1e-9
    assert np.allclose(np.abs(report.spectrum.real_values()), 1.0, atol=1e-9)
    assert report.saturated


def test_unconstrained_lambda_does_not_change_qfi():
    basis = dynamics.product_pm_readout(2)
    state = states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    gen = dynamics.entangling_generator(2)
    values = []
    for c in (0.0, 1.3, -4.0):
        u = {"++": -1.0, "+-": c, "-+": c, "--": 1.0}
        assert verify.sol1_residual(state, u, basis, gen) < 1e-10
        l_op = fisher.sld_from_spectrum(basis, u)
        values.append(float(np.real(np.trace(l_op @ l_op @ state.matrix))))
    assert np.allclose(values, 1.0, atol=1e-10)


def test_search_single_qubit_finds_equator():
    result = solver.search_optimal_state(
        dynamics.nonentangling_generator(1),
        dynamics.product_pm_readout(1),
        solver.SearchConfig(n_starts=12, seed=3),
    )
    assert result.feasible
    for sol in result.solutions:
        assert sol.qfi == pytest.approx(1.0, abs=1e-6)
        assert sol.residual <= 1e-7
        a = states.BlochCoefficients.from_state(sol.state).a
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)
        assert abs(a[2]) < 1e-6


def test_search_two_qubit_entangling_qfi_one():
    result = solver.search_optimal_state(
        dynamics.entangling_generator(2),
        dynamics.product_pm_readout(2),
        solver.SearchConfig(n_starts=16, seed=5),
    )
    assert result.feasible
    assert result.solutions[0].qfi == pytest.approx(1.0, abs=1e-6)


def test_search_two_qubit_nonentangling_beats_product_state():
    # The equation admits solutions beyond the tensor-power family: the
    # phase-rotated cat (|00> - i|11>)/sqrt(2) attains F = 4 with this
    # readout (outcome-parity carries the phase), so the search should
    # reach at least the product-state value 2 and may reach 4.
    result = solver.search_optimal_state(
        dynamics.nonentangling_generator(2),
        dynamics.product_pm_readout(2),
        solver.SearchConfig(n_starts=16, seed=5),
    )
    assert result.feasible
    best = result.solutions[0]
    assert best.qfi >= 2.0 - 1e-6
    # whatever it found must genuinely saturate
    gen = dynamics.nonentangling_generator(2)
    basis = dynamics.product_pm_readout(2)
    rho_prime = dynamics.state_derivative(gen, best.state)
    f_c = fisher.classical_fisher(basis, best.state, rho_prime)
    assert f_c == pytest.approx(best.qfi, abs=1e-6)


def test_search_determinism():
    cfg = solver.SearchConfig(n_starts=6, seed=21)
    gen = dynamics.nonentangling_generator(1)
    basis = dynamics.product_pm_readout(1)
    a = solver.search_optimal_state(gen, basis, cfg)
    b = solver.search_optimal_state(gen, basis, cfg)
    assert len(a.solutions) == len(b.solutions)
    for sa, sb in zip(a.solutions, b.solutions):
        assert np.array_equal(sa.state.matrix, sb.state.matrix)
        assert sa.qfi == sb.qfi


def test_search_refuses_a_basis_of_another_size():
    # the search reads its size from the generator
    with pytest.raises(DimensionError, match="different numbers of qubits"):
        solver.search_optimal_state(
            dynamics.nonentangling_generator(2), dynamics.product_pm_readout(3)
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "build", [dynamics.nonentangling_generator, dynamics.entangling_generator]
)
def test_pure_search_reaches_the_qfi_ceiling(n, build):
    # The QFI is convex and a pure state's is 4 Var(H), so no state, pure or
    # mixed, exceeds (h_max - h_min)^2; the pure search reaches it.
    gen = build(n)
    ceiling = float(gen.spectrum.max() - gen.spectrum.min()) ** 2
    result = solver.search_optimal_state(
        gen, dynamics.product_pm_readout(n),
        solver.SearchConfig(n_starts=4, max_evals=2000, seed=1),
    )
    assert result.feasible
    assert result.solutions[0].qfi == pytest.approx(ceiling, abs=1e-9)
    assert all(sol.qfi <= ceiling + 1e-9 for sol in result.solutions)


def test_search_drops_end_points_that_commute_with_the_generator(monkeypatch):
    # |0> commutes with H = Z/2: u = 0 solves the equation exactly, and the
    # point carries no information.  It is no solution, but its residual still
    # counts as the best one seen.
    # the search's coordinates: the ket's real and imaginary parts, interleaved
    end_point = np.array([1.0, 0.0], dtype=complex).view(float)
    monkeypatch.setattr(
        solver.optimize, "minimize", lambda *args, **kwargs: OptimizeResult(x=end_point, nfev=1)
    )
    result = solver.search_optimal_state(
        dynamics.nonentangling_generator(1),
        dynamics.product_pm_readout(1),
        solver.SearchConfig(n_starts=3, seed=1),
    )
    assert not result.feasible
    assert result.best_residual <= 1e-15


def test_search_reports_no_qfi_free_solutions():
    # the benchmark's seed-108 two-qubit search: every end point within the
    # residual tolerance commutes with H
    result = solver.search_optimal_state(
        dynamics.nonentangling_generator(2),
        dynamics.product_pm_readout(2),
        solver.SearchConfig(n_starts=10, max_evals=1000, simplex_tol=-1.0, seed=594192489),
    )
    assert all(sol.qfi > 1e-9 for sol in result.solutions)
    assert result.best_residual <= 1e-7


def test_search_orders_tied_solutions_by_their_dedup_key_alone():
    # the solutions tie at QFI 4 within TIE_TOL but differ in their last
    # digits; ranking them by full-precision QFI first would reorder them
    result = solver.search_optimal_state(
        dynamics.nonentangling_generator(2),
        dynamics.product_pm_readout(2),
        solver.SearchConfig(n_starts=6, max_evals=600, seed=16),
    )
    qfis = [sol.qfi for sol in result.solutions]
    # the search's coordinates: the Dicke amplitudes c_w = sqrt(binom(2, w)) psi_k
    # at any k of weight w, here k = 0, 1, 3
    keys = [solver._dedup_key(sol.state.ket[[0, 1, 3]] * np.sqrt([1.0, 2.0, 1.0]))
            for sol in result.solutions]
    assert len(qfis) >= 2 and max(qfis) - min(qfis) <= 1e-6
    assert qfis != sorted(qfis, reverse=True)
    assert keys == sorted(keys)
