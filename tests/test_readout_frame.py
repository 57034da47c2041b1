"""The optimality equation solved in the readout frame, against the dense system.

``solver.solve_lambdas_given_state`` solves (u_j + u_k)/2 R_jk = T_jk through
d x d normal equations; the reference is the dense (2 d^2 x d) real least
squares ``verify.dense_lstsq_lambdas`` with the dense L = sum_k u_k E_k.  A
state with a ket takes the closed form instead, checked here against the
same matrix without its ket.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probelab import dynamics, solver, states, verify

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SETTINGS = settings(max_examples=60, deadline=None)


def _generator(kind, n, rng):
    if kind == "nonentangling":
        return dynamics.nonentangling_generator(n)
    if kind == "entangling":
        return dynamics.entangling_generator(n)
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    return dynamics.Generator(n, np.linalg.eigvalsh(g + g.conj().T))


def _probe(kind, basis, rng):
    """A mixed, pure or zero-outcome probe; the last is a mixture of two kets
    that share zero amplitude on half of the readout outcomes."""
    n = basis.n_qubits
    if kind == "mixed":
        return states.random_mixed_state(n, rng)
    if kind == "pure":
        return states.random_pure_state(n, rng)
    zero = rng.permutation(basis.dim)[: basis.dim // 2]
    kets = []
    for _ in range(2):
        phi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        phi[zero] = 0.0
        kets.append(basis.kets @ (phi / np.linalg.norm(phi)))
    weight = rng.uniform(0.2, 0.8)
    matrix = weight * np.outer(kets[0], kets[0].conj()) + (1 - weight) * np.outer(
        kets[1], kets[1].conj()
    )
    return states.density_matrix(matrix)


@SETTINGS
@given(
    n=st.integers(1, 4),
    seed=SEEDS,
    product_readout=st.booleans(),
    generator_kind=st.sampled_from(["nonentangling", "entangling", "custom"]),
    zero_outcomes=st.booleans(),
)
def test_a_pure_fit_gives_the_norm_of_the_state_derivative(
    n, seed, product_readout, generator_kind, zero_outcomes
):
    # ||-i[H, rho]||_F^2 = 2 Var(H) = qfi/2 + residual^2 for a pure state:
    # the search reads its QFI-free drop from the fit
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    generator = _generator(generator_kind, n, rng)
    phi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    if zero_outcomes:
        phi[rng.permutation(basis.dim)[: basis.dim // 2]] = 0.0
    state = states.pure_state(basis.kets @ phi)
    _, residual, qfi = solver.solve_lambdas_given_state(state, basis, generator)
    drift = np.linalg.norm(dynamics.state_derivative(generator, state))
    assert 0.5 * qfi + residual**2 == pytest.approx(drift**2, rel=1e-12, abs=1e-14)


def _dense_l(basis, u):
    return (basis.kets * u) @ basis.kets.conj().T


@SETTINGS
@given(
    n=st.integers(1, 4),
    seed=SEEDS,
    product_readout=st.booleans(),
    generator_kind=st.sampled_from(["nonentangling", "entangling", "custom"]),
    probe_kind=st.sampled_from(["mixed", "pure", "zero-outcome"]),
)
def test_frame_least_squares_matches_the_dense_system(
    n, seed, product_readout, generator_kind, probe_kind
):
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    generator = _generator(generator_kind, n, rng)
    state = _probe(probe_kind, basis, rng)

    spectrum, residual, qfi = solver.solve_lambdas_given_state(state, basis, generator)
    u_ref, unconstrained_ref, residual_ref = verify.dense_lstsq_lambdas(
        state.matrix, basis, generator
    )

    assert spectrum.unconstrained == tuple(map(bool, unconstrained_ref))
    if probe_kind == "zero-outcome":
        assert sum(spectrum.unconstrained) == basis.dim // 2
    u = spectrum.real_values()
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(u_ref))))
    assert residual == pytest.approx(residual_ref, rel=1e-9, abs=1e-12)

    # the fitted residual is the dense residual at the fitted u, and the
    # diagonal QFI is tr(L^2 rho) of the dense L
    assert verify.sol1_residual(state, u, basis, generator) == pytest.approx(
        residual, rel=1e-9, abs=1e-12
    )
    l_ref = _dense_l(basis, u)
    qfi_ref = np.trace(l_ref @ l_ref @ state.matrix).real
    assert qfi == pytest.approx(qfi_ref, rel=1e-9, abs=1e-12)


def _ket_probe(kind, basis, rng):
    """A random, zero-outcome, tensor or cat probe; each carries its ket."""
    n = basis.n_qubits
    if kind == "pure":
        return states.random_pure_state(n, rng)
    if kind == "zero-outcome":
        return states.pure_state(verify._zero_outcome_ket(basis, rng))
    if kind == "tensor":
        return states.tensor_power(states.optimal_single_qubit(+1), n)
    return states.cat_state(n, +1)


@SETTINGS
@given(
    n=st.integers(1, 5),
    seed=SEEDS,
    product_readout=st.booleans(),
    generator_kind=st.sampled_from(["nonentangling", "entangling", "custom"]),
    probe_kind=st.sampled_from(["pure", "zero-outcome", "tensor", "cat"]),
)
def test_closed_form_fit_matches_the_frame_route(
    n, seed, product_readout, generator_kind, probe_kind
):
    assume(probe_kind != "cat" or n > 1)
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    generator = _generator(generator_kind, n, rng)
    state = _ket_probe(probe_kind, basis, rng)
    frame_state = replace(state, ket=None)

    spectrum, residual, qfi = solver.solve_lambdas_given_state(state, basis, generator)
    spectrum_ref, residual_ref, qfi_ref = solver.solve_lambdas_given_state(
        frame_state, basis, generator
    )

    assert spectrum.unconstrained == spectrum_ref.unconstrained
    u_ref = spectrum_ref.real_values()
    np.testing.assert_allclose(
        spectrum.real_values(), u_ref, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(u_ref)))
    )
    assert residual == pytest.approx(residual_ref, rel=1e-9, abs=1e-12)
    assert qfi == pytest.approx(qfi_ref, rel=1e-9, abs=1e-12)
    # each route's residual is the dense residual at its own fitted u
    assert verify.sol1_residual(state, spectrum, basis, generator) == pytest.approx(
        residual, rel=1e-9, abs=1e-12
    )
    assert verify.sol1_residual(frame_state, spectrum_ref, basis, generator) == pytest.approx(
        residual_ref, rel=1e-9, abs=1e-12
    )


def test_a_state_with_a_ket_never_reaches_the_readout_frame(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a state with a ket reached the readout frame")

    monkeypatch.setattr(solver, "_readout_frame", forbidden)
    monkeypatch.setattr(solver, "_lstsq_lambdas", forbidden)
    n = 3
    _, residual, qfi = solver.solve_lambdas_given_state(
        states.tensor_power(states.optimal_single_qubit(+1), n),
        dynamics.product_pm_readout(n),
        dynamics.nonentangling_generator(n),
    )
    assert residual <= 1e-10 and qfi == pytest.approx(n)
    assert verify.closed_form_solution(dynamics.NONENTANGLING, n).qfi == pytest.approx(n)
    result = solver.search_optimal_state(
        dynamics.nonentangling_generator(2), dynamics.product_pm_readout(2), 2,
        solver.SearchConfig(n_starts=2, max_evals=300, seed=5),
    )
    assert np.isfinite(result.best_residual)


@SETTINGS
@given(n=st.integers(1, 6), m=st.integers(1, 5), seed=SEEDS, product_readout=st.booleans())
def test_amplitudes_of_a_stack_are_the_amplitudes_of_its_columns(n, m, seed, product_readout):
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    stack = rng.standard_normal((basis.dim, m)) + 1j * rng.standard_normal((basis.dim, m))
    got = basis.amplitudes(stack)
    columns = np.stack([basis.amplitudes(stack[:, j]) for j in range(m)], axis=1)
    if product_readout:
        # the transform's butterflies are the same additions column by column
        assert np.array_equal(got, columns)
    else:
        np.testing.assert_allclose(got, columns, rtol=0, atol=1e-12 * basis.dim)
    np.testing.assert_allclose(got, basis.kets.conj().T @ stack, rtol=0, atol=1e-12 * basis.dim)


def test_ten_qubit_tensor_probe_solves_in_the_readout_frame():
    # the dense system would need (2 * 1024**2 x 1024) reals, about 17 GB
    n = 10
    state = states.tensor_power(states.optimal_single_qubit(+1), n)
    basis = dynamics.product_pm_readout(n)
    spectrum, residual, _ = solver.solve_lambdas_given_state(
        state, basis, dynamics.nonentangling_generator(n)
    )
    expected = [label.count("-") - label.count("+") for label in basis.labels]
    np.testing.assert_allclose(spectrum.real_values(), expected, rtol=0, atol=1e-9)
    assert not any(spectrum.unconstrained)
    assert residual <= 1e-10


def test_the_frame_fit_solves_by_cholesky_and_falls_back_to_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def lstsq_spy(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
    # a full-rank state: the kept block is positive definite
    n = 3
    basis, generator = dynamics.product_pm_readout(n), dynamics.nonentangling_generator(n)
    state = states.random_mixed_state(n, 11)
    spectrum, residual, _ = solver.solve_lambdas_given_state(state, basis, generator)
    assert not calls
    u_ref, _, residual_ref = verify.dense_lstsq_lambdas(state.matrix, basis, generator)
    calls.clear()
    np.testing.assert_allclose(spectrum.real_values(), u_ref, rtol=0, atol=1e-9)
    assert residual == pytest.approx(residual_ref, rel=1e-9, abs=1e-12)
    # R with a zero diagonal, as no PSD state has, coupling the outcomes in a
    # chain: the normal matrix is singular, and T = 2 R fixes only the sums
    # u_j + u_k = 4 along the chain.  Cholesky refuses the first block and
    # passes the second with a pivot of 1.5e-8 and the solution
    # (6.66, -2.66, 6.66); both go to lstsq, which takes the least-norm one
    for r in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.3, 0.0], [0.3, 0.0, 1.7], [0.0, 1.7, 0.0]]):
        r = np.array(r, dtype=complex)
        u, unconstrained, residual, _ = solver._lstsq_lambdas(r, 2.0 * r)
        assert not unconstrained.any()
        np.testing.assert_allclose(u, np.full(len(r), 2.0), rtol=1e-12)
        assert residual <= 1e-14
    assert len(calls) == 2
