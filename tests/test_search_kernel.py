"""The search's closed-form pure-state kernel against the dense least squares.

``solver._pure_fit`` scores a pure probe from its readout amplitudes, which
the search objective takes from one product with ``solver._amplitude_map``;
the references are the dense (2 d^2 x d) real least squares
``verify.dense_lstsq_lambdas`` with tr(L^2 rho) from the dense L and, near a
zero-probability outcome, a 50-digit evaluation of the same least squares.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import dynamics, solver, verify

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SETTINGS = settings(max_examples=60, deadline=None)


def _setup(n, seed, product_readout, entangling):
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    generator = (
        dynamics.entangling_generator(n) if entangling else dynamics.nonentangling_generator(n)
    )
    return rng, basis, generator


def _pure_fit(ket, basis, generator):
    amplitudes = solver._amplitude_map(basis, generator) @ ket
    return solver._pure_fit(amplitudes[: basis.dim], amplitudes[basis.dim :])


def _ket_with_zero_outcomes(rng, basis, n_zero):
    """A random pure state whose first ``n_zero`` readout outcomes (in a
    random order) have zero probability in exact arithmetic."""
    dim = basis.dim
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi[rng.permutation(dim)[:n_zero]] = 0.0
    phi /= np.linalg.norm(phi)
    return basis.kets @ phi


@SETTINGS
@given(
    n=st.integers(1, 4),
    seed=SEEDS,
    product_readout=st.booleans(),
    entangling=st.booleans(),
    zero_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
)
def test_pure_state_score_matches_dense_least_squares(
    n, seed, product_readout, entangling, zero_fraction
):
    rng, basis, generator = _setup(n, seed, product_readout, entangling)
    n_zero = int(zero_fraction * basis.dim)
    ket = _ket_with_zero_outcomes(rng, basis, n_zero)
    rho = np.outer(ket, ket.conj())

    u, unconstrained, residual, qfi = _pure_fit(ket, basis, generator)
    u_ref, unconstrained_ref, residual_ref = verify.dense_lstsq_lambdas(rho, basis, generator)
    l_ref = (basis.kets * u_ref) @ basis.kets.conj().T
    qfi_ref = np.trace(l_ref @ l_ref @ rho).real

    assert np.array_equal(unconstrained, unconstrained_ref)
    assert np.count_nonzero(unconstrained) == n_zero
    assert np.all(u[unconstrained] == 0.0)
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(u_ref))))
    assert qfi == pytest.approx(qfi_ref, rel=1e-9, abs=1e-12)
    assert residual == pytest.approx(residual_ref, rel=1e-9, abs=1e-12)


def _mp_least_squares(ket, basis, generator):
    """u, tr(L^2 rho) and ||(1/2){L, rho} + i[H, rho]||_F at 50 digits, from
    the normal equations of the dense real least squares."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def mat(a):
        return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)])

    dim = basis.dim
    psi = mat(ket.reshape(-1, 1))
    rho = psi * psi.H
    h = mat(generator.matrix)
    target = -1j * (h * rho - rho * h)
    projectors = [mat(basis.kets[:, [k]]) * mat(basis.kets[:, [k]]).H for k in range(dim)]
    columns = [(e * rho + rho * e) / 2 for e in projectors]

    def inner(a, b):  # real Frobenius inner product Re tr(a^dagger b)
        return mp.re(sum(mp.conj(a[i, j]) * b[i, j] for i in range(dim) for j in range(dim)))

    normal = mp.matrix([[inner(cj, ck) for ck in columns] for cj in columns])
    rhs = mp.matrix([inner(cj, target) for cj in columns])
    u = mp.lu_solve(normal, rhs)
    l_op = sum((u[k] * projectors[k] for k in range(dim)), mp.zeros(dim, dim))
    residual_op = (l_op * rho + rho * l_op) / 2 - target
    residual = mp.sqrt(inner(residual_op, residual_op))
    qfi = mp.re(sum((l_op * l_op * rho)[i, i] for i in range(dim)))
    return np.array([float(x) for x in u]), float(qfi), float(residual)


@pytest.mark.parametrize("product_readout", [True, False])
def test_pure_state_score_near_a_zero_probability_outcome(product_readout):
    rng, basis, generator = _setup(2, 17, product_readout, entangling=False)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi[2] = 1e-7 * np.exp(0.3j)  # p = 1e-14, still constrained
    phi /= np.linalg.norm(phi)
    ket = basis.kets @ phi

    u, unconstrained, residual, qfi = _pure_fit(ket, basis, generator)
    u_ref, qfi_ref, residual_ref = _mp_least_squares(ket, basis, generator)

    assert not unconstrained.any()
    assert abs(u[2]) > 1e5
    np.testing.assert_allclose(u, u_ref, rtol=1e-7)
    assert qfi == pytest.approx(qfi_ref, rel=1e-7)
    assert residual == pytest.approx(residual_ref, rel=1e-7)


def test_search_keeps_the_instrumented_calls(monkeypatch):
    # The search passes its objective positionally to optimize.minimize and
    # checks each start's end point with one solve_lambdas_given_state call;
    # a negative simplex_tol runs every start for exactly max_evals.
    minimize_calls, checks = [], []
    minimize, check = solver.optimize.minimize, solver.solve_lambdas_given_state

    def minimize_spy(*args, **kwargs):
        result = minimize(*args, **kwargs)
        minimize_calls.append((args, kwargs, result))
        return result

    def check_spy(*args, **kwargs):
        checks.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(solver.optimize, "minimize", minimize_spy)
    monkeypatch.setattr(solver, "solve_lambdas_given_state", check_spy)
    config = solver.SearchConfig(n_starts=3, max_evals=150, simplex_tol=-1.0, seed=4)
    solver.search_optimal_state(
        dynamics.nonentangling_generator(2), dynamics.product_pm_readout(2), 2, config
    )

    assert len(minimize_calls) == config.n_starts
    for args, kwargs, result in minimize_calls:
        assert callable(args[0]) and "fun" not in kwargs
        assert result.nfev == config.max_evals
    assert len(checks) == config.n_starts


def test_pure_search_reports_the_closed_form_score():
    # the dense route's QFI loses outcome probabilities near 1e-14 when it
    # forms rho; a pure solution carries its ket and reports the closed form
    basis, generator = dynamics.product_pm_readout(2), dynamics.nonentangling_generator(2)
    config = solver.SearchConfig(n_starts=4, max_evals=400, seed=5)
    result = solver.search_optimal_state(generator, basis, 2, config)
    assert result.feasible
    for sol in result.solutions:
        ket = sol.state.ket
        u, unconstrained, residual, qfi = solver._pure_fit(
            basis.amplitudes(ket), basis.amplitudes(generator.apply(ket))
        )
        assert sol.qfi == qfi
        assert np.array_equal(sol.inv_lambdas.real_values(), u)
        assert sol.inv_lambdas.unconstrained == tuple(unconstrained)
        assert sol.residual == residual
