"""The search's closed-form pure-state kernel and its objective.

``solver._pure_fit`` scores a pure probe from its readout amplitudes
phi = V^dagger psi and chi = V^dagger H psi, which the full-space search
objective takes from one stacked product [V^dagger; V^dagger H] z of its
frame (``solver._search_frame`` on the readout's kets);
the references are the dense (2 d^2 x d) real least squares
``verify.dense_lstsq_lambdas`` with tr(L^2 rho) from the dense L and, near a
zero-probability outcome, a 50-digit evaluation of the same least squares.
The objective ``solver._search_objective`` is checked against the fit's
residual through r^2 = (F_Q - F_C)/2, and its gradient against difference
quotients; its Krawtchouk frame on the permutation-symmetric sector is
checked against the full objective at the embedded ket.  The generator is
either of the paper's diagonal ones or a random real spectrum, and the
readout the per-qubit |+>/|-> one or a Haar-random one, under which the
gradient's h (V G_chi) term mixes every outcome.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import dynamics, solver, verify
from probelab.operators import bit_counts

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SETTINGS = settings(max_examples=60, deadline=None)


GENERATORS = st.sampled_from(["nonentangling", "entangling", "custom"])


def _setup(n, seed, product_readout, generator_kind):
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    if generator_kind == "custom":
        shape = (basis.dim, basis.dim)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        generator = dynamics.Generator(n, np.linalg.eigvalsh(0.25 * (a + a.conj().T)))
    elif generator_kind == "entangling":
        generator = dynamics.entangling_generator(n)
    else:
        generator = dynamics.nonentangling_generator(n)
    return rng, basis, generator


def _pure_fit(ket, basis, generator):
    return solver._pure_fit(basis.amplitudes(ket), basis.amplitudes(generator.apply(ket)))


def _full_frame(basis, generator):
    """The search's frame on the 2^n ket: ``readout_from_kets`` drops the
    per-qubit readout's Hadamard structure, so the frame builder takes no
    sector."""
    frame, _ = solver._search_frame(generator, dynamics.readout_from_kets(basis.kets))
    assert frame[0].shape == (2 * basis.dim, basis.dim)
    return frame


def _objective(x, weight, basis, generator):
    """The objective on the full-space frame."""
    return solver._search_objective(x, weight, *_full_frame(basis, generator))


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
    generator_kind=GENERATORS,
    zero_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
)
def test_pure_state_score_matches_dense_least_squares(
    n, seed, product_readout, generator_kind, zero_fraction
):
    rng, basis, generator = _setup(n, seed, product_readout, generator_kind)
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
    rng, basis, generator = _setup(2, 17, product_readout, "nonentangling")
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


def _quantum_fisher(ket, generator):
    h_ket = generator.apply(ket)
    mean = np.vdot(ket, h_ket).real
    return 4.0 * (np.vdot(h_ket, h_ket).real - mean * mean)


def _point(ket):
    """The search's coordinates of a ket: its real and imaginary parts, interleaved."""
    return np.ascontiguousarray(ket, dtype=complex).view(float)


@SETTINGS
@given(
    n=st.integers(1, 4),
    seed=SEEDS,
    product_readout=st.booleans(),
    generator_kind=GENERATORS,
    zero_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
)
def test_squared_residual_is_half_the_fisher_gap(
    n, seed, product_readout, generator_kind, zero_fraction
):
    # r^2 = (F_Q - F_C)/2 at the closed-form least squares, with F_C summed
    # over the outcomes it keeps, so the objective is -F_C + weight r^2
    rng, basis, generator = _setup(n, seed, product_readout, generator_kind)
    ket = _ket_with_zero_outcomes(rng, basis, int(zero_fraction * basis.dim))
    _, _, residual, f_c = _pure_fit(ket, basis, generator)
    gap = _quantum_fisher(ket, generator) - f_c
    assert residual**2 == pytest.approx(0.5 * gap, rel=1e-9, abs=1e-12)
    scale = rng.uniform(0.1, 10.0)
    for weight in (0.0, 1.0, 1e4):
        value, _ = _objective(_point(scale * ket), weight, basis, generator)
        assert value == pytest.approx(-f_c + weight * residual**2, rel=1e-9, abs=1e-9 * (1.0 + weight))


@SETTINGS
@given(
    n=st.integers(1, 4),
    seed=SEEDS,
    product_readout=st.booleans(),
    generator_kind=GENERATORS,
    small=st.sampled_from([None, 1e-2, 1e-4]),
    weight=st.sampled_from([1.0, 1e2, 1e4]),
)
def test_search_gradient_matches_difference_quotients(
    n, seed, product_readout, generator_kind, small, weight
):
    # One readout amplitude may be small, so that its outcome's p_k = small^2
    # is kept but u_k and the gradient grow as 1/small.  (An outcome of exactly
    # zero probability is dropped from F_C, which jumps there: no difference
    # quotient can check it.)
    rng, basis, generator = _setup(n, seed, product_readout, generator_kind)
    phi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    if small is not None:
        phi[rng.integers(basis.dim)] = small * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    scale = rng.uniform(0.5, 2.0)
    x = _point(scale * (basis.kets @ phi))

    def value(y):
        return _objective(y, weight, basis, generator)[0]

    gradient = _objective(x, weight, basis, generator)[1]
    v = rng.standard_normal(x.size)
    # a fourth-order central difference whose step moves no readout amplitude
    # of z by more than a thousandth of the smallest one
    h = 1e-3 * scale * np.abs(phi).min() / np.linalg.norm(v)
    quotient = (
        8.0 * (value(x + h * v) - value(x - h * v)) - (value(x + 2 * h * v) - value(x - 2 * h * v))
    ) / (12.0 * h)
    assert abs(gradient @ v - quotient) <= 1e-8 * np.linalg.norm(gradient) * np.linalg.norm(v)


def _dicke_embedding(n):
    """E, the d x (n+1) matrix of the normalised Dicke kets, as columns."""
    weights = bit_counts(n)
    embedding = np.zeros((2**n, n + 1))
    embedding[np.arange(2**n), weights] = 1.0 / np.sqrt([math.comb(n, w) for w in weights])
    return embedding


@SETTINGS
@given(
    n=st.integers(1, 8),
    seed=SEEDS,
    generator_kind=st.sampled_from(["nonentangling", "entangling"]),
    empty_classes=st.integers(0, 8),
    weight=st.sampled_from([0.0, 1.0, 1e4]),
)
def test_sector_frame_is_the_full_objective_at_the_embedded_ket(
    n, seed, generator_kind, empty_classes, weight
):
    # at psi = E c the sector's value is the full objective's, and its
    # gradient is the full gradient pulled back by E^T
    rng, basis, generator = _setup(n, seed, True, generator_kind)
    frame, lift = solver._search_frame(generator, basis)
    assert frame[0].shape == (2 * (n + 1), n + 1)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    c[rng.permutation(n + 1)[: min(empty_classes, n)]] = 0.0
    embedding = _dicke_embedding(n)
    psi = lift(c)
    np.testing.assert_allclose(psi, embedding @ c, rtol=0, atol=1e-15 * np.linalg.norm(c))

    value, gradient = solver._search_objective(_point(c), weight, *frame)
    full_value, full_gradient = _objective(_point(psi), weight, basis, generator)
    pulled_back = embedding.T @ full_gradient.view(complex)
    # every term is at most (1 + weight) times the ceiling n^2 (or 1)
    scale = (1.0 + weight) * max(1.0, float(np.ptp(generator.spectrum)) ** 2)
    assert abs(value - full_value) <= 1e-13 * scale
    np.testing.assert_allclose(
        gradient.view(complex), pulled_back, rtol=0,
        atol=1e-13 * max(scale, np.linalg.norm(pulled_back)) / np.linalg.norm(c),
    )


@pytest.mark.parametrize("route", ["custom spectrum", "permuted spectrum", "random readout",
                                   "readout from kets"])
def test_search_leaves_the_sector_without_its_symmetry(route, monkeypatch):
    # the sector is searched only on the Hadamard readout with a spectrum that
    # is a function of popcount; anything else walks the 2^n ket
    n = 3
    rng, basis, generator = _setup(n, 7, True, "nonentangling")
    if route == "custom spectrum":
        generator = dynamics.Generator(n, rng.standard_normal(2**n))
    elif route == "permuted spectrum":  # |001> and |011> swap their values
        generator = dynamics.Generator(n, generator.spectrum[[0, 3, 2, 1, 4, 5, 6, 7]])
    elif route == "random readout":
        basis = dynamics.random_projective_readout(n, rng)
    else:
        basis = dynamics.readout_from_kets(basis.kets)
    frame, _ = solver._search_frame(generator, basis)
    assert frame[0].shape == (2 * 2**n, 2**n) and np.array_equal(frame[2], generator.spectrum)

    sizes, minimize = [], solver.optimize.minimize

    def minimize_spy(fun, x0, **kwargs):
        sizes.append(x0.size)
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(solver.optimize, "minimize", minimize_spy)
    config = solver.SearchConfig(n_starts=2, max_evals=20, seed=1)
    solver.search_optimal_state(generator, basis, config)
    assert sizes and set(sizes) == {2 * 2**n}


def test_search_keeps_the_instrumented_calls(monkeypatch):
    # The search passes its objective positionally to optimize.minimize, once
    # per penalty stage, and checks each start's end point with one
    # solve_lambdas_given_state call.  max_evals bounds each start's
    # evaluations over its stages: L-BFGS-B tests its budget between
    # iterations, so it may pass it by its last line search (at most scipy's
    # default maxls = 20 evaluations), and a start that ends early has spent
    # its budget.
    events = []
    minimize, check = solver.optimize.minimize, solver.solve_lambdas_given_state

    def minimize_spy(*args, **kwargs):
        result = minimize(*args, **kwargs)
        events.append((args, kwargs, result))
        return result

    def check_spy(*args, **kwargs):
        events.append(None)
        return check(*args, **kwargs)

    monkeypatch.setattr(solver.optimize, "minimize", minimize_spy)
    monkeypatch.setattr(solver, "solve_lambdas_given_state", check_spy)
    config = solver.SearchConfig(n_starts=3, max_evals=150, simplex_tol=-1.0, seed=4)
    solver.search_optimal_state(
        dynamics.nonentangling_generator(2), dynamics.product_pm_readout(2), config
    )

    assert events.count(None) == config.n_starts and events[-1] is None
    starts, stages = [], []
    for event in events:
        if event is None:
            starts.append(stages)
            stages = []
        else:
            stages.append(event)
    for stages in starts:
        assert 1 <= len(stages) <= len(solver.PENALTY_STAGES)
        evals = sum(result.nfev for _, _, result in stages)
        assert evals <= config.max_evals + 20
        assert len(stages) == len(solver.PENALTY_STAGES) or evals >= config.max_evals
        for (args, kwargs, _), fraction in zip(stages, solver.PENALTY_STAGES):
            assert callable(args[0]) and "fun" not in kwargs
            assert kwargs["args"][0] == fraction * solver.PENALTY_WEIGHT


def test_pure_search_reports_the_closed_form_score():
    # the dense route's QFI loses outcome probabilities near 1e-14 when it
    # forms rho; a pure solution carries its ket and reports the closed form
    basis, generator = dynamics.product_pm_readout(2), dynamics.nonentangling_generator(2)
    config = solver.SearchConfig(n_starts=4, max_evals=400, seed=5)
    result = solver.search_optimal_state(generator, basis, config)
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


def _search_point(n, generator_kind, seed):
    rng, basis, generator = _setup(n, seed, True, generator_kind)
    frame, _ = solver._search_frame(generator, basis)
    return rng.standard_normal(2 * frame[2].size), frame


@SETTINGS
@given(
    n=st.integers(1, 4),
    seed=SEEDS,
    generator_kind=GENERATORS,
    weight=st.sampled_from([0.0, 1.0, 100.0, solver.PENALTY_WEIGHT]),
)
def test_held_evaluation_is_the_objective_bit_for_bit(n, seed, generator_kind, weight):
    x, frame = _search_point(n, generator_kind, seed)
    value, gradient = solver._held_objective()
    f, g = value(x.copy(), weight, *frame), gradient(x.copy(), weight, *frame)
    f_ref, g_ref = solver._search_objective(x, weight, *frame)
    assert np.float64(f).tobytes() == np.float64(f_ref).tobytes()
    assert g.tobytes() == g_ref.tobytes()


def test_held_gradient_evaluates_afresh_at_a_point_it_has_not_seen(monkeypatch):
    x, frame = _search_point(3, "nonentangling", 2)
    y = x.copy()
    y[1] = np.nextafter(y[1], np.inf)  # one ulp away
    calls, objective = [], solver._search_objective

    def counted(x, *args):
        calls.append(x.copy())
        return objective(x, *args)

    monkeypatch.setattr(solver, "_search_objective", counted)
    value, gradient = solver._held_objective()
    # before any value call
    assert gradient(y, 1.0, *frame).tobytes() == objective(y, 1.0, *frame)[1].tobytes()
    assert len(calls) == 1
    # at the held point, without a second evaluation
    value(x, 1.0, *frame)
    assert gradient(x.copy(), 1.0, *frame).tobytes() == objective(x, 1.0, *frame)[1].tobytes()
    assert len(calls) == 2
    # a point one ulp away is not the held point
    assert gradient(y, 1.0, *frame).tobytes() == objective(y, 1.0, *frame)[1].tobytes()
    assert len(calls) == 3 and np.array_equal(calls[-1], y)


def test_search_evaluates_the_objective_once_per_counted_evaluation(monkeypatch):
    calls, objective, minimize = [0], solver._search_objective, solver.optimize.minimize
    nfev = []

    def counted(x, *args):
        calls[0] += 1
        return objective(x, *args)

    def minimize_spy(*args, **kwargs):
        result = minimize(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    monkeypatch.setattr(solver, "_search_objective", counted)
    monkeypatch.setattr(solver.optimize, "minimize", minimize_spy)
    for generator in (dynamics.nonentangling_generator(3), dynamics.entangling_generator(2)):
        n = generator.n_qubits
        config = solver.SearchConfig(n_starts=3, max_evals=300, seed=2)
        solver.search_optimal_state(generator, dynamics.product_pm_readout(n), config)
    assert len(nfev) >= 6 and calls[0] == sum(nfev)


def _assert_same_search(result, reference):
    assert (result.n_starts, result.best_residual) == (reference.n_starts, reference.best_residual)
    assert len(result.solutions) == len(reference.solutions)
    for sol, ref in zip(result.solutions, reference.solutions):
        assert sol.state.ket.tobytes() == ref.state.ket.tobytes()
        assert sol.state.matrix.tobytes() == ref.state.matrix.tobytes()
        assert sol.inv_lambdas.values.tobytes() == ref.inv_lambdas.values.tobytes()
        assert sol.inv_lambdas.labels == ref.inv_lambdas.labels
        assert sol.inv_lambdas.unconstrained == ref.inv_lambdas.unconstrained
        assert (sol.residual, sol.qfi, sol.provenance) == (ref.residual, ref.qfi, ref.provenance)


@pytest.mark.parametrize(
    "n, kind, readout, simplex_tol",
    [
        (2, "nonentangling", "product", 1e-9),
        (2, "entangling", "product", -1.0),
        (4, "nonentangling", "product", -1.0),
        (4, "entangling", "product", 1e-9),
        (2, "nonentangling", "random", 1e-9),
    ],
)
def test_search_matches_the_memoized_reference(n, kind, readout, simplex_tol, monkeypatch):
    # the reference hands L-BFGS-B the objective's (value, gradient) pair
    # through scipy's jac=True; the held pair must walk the same points
    from scipy import optimize

    _, basis, generator = _setup(n, 5, readout == "product", kind)
    config = solver.SearchConfig(n_starts=4, max_evals=400, simplex_tol=simplex_tol, seed=11)
    result = solver.search_optimal_state(generator, basis, config)

    def reference_minimize(fun, x0, *, args, method, jac, options):
        return optimize.minimize(
            solver._search_objective, x0, args=args, method=method, jac=True, options=options
        )

    shim = type("Shim", (), {"minimize": staticmethod(reference_minimize)})
    monkeypatch.setattr(solver, "optimize", shim, raising=False)
    reference = solver.search_optimal_state(generator, basis, config)
    # no start is feasible on the random readout: best_residual still pins the end points
    assert result.solutions or readout == "random"
    _assert_same_search(result, reference)


def test_each_stage_reads_its_own_gradient_in_any_call_order(monkeypatch):
    # an optimizer that asks for the gradient at its start point before any
    # value: each stage's pair must answer at that stage's weight, although
    # the start point is the previous stage's end point
    minimize, stages = solver.optimize.minimize, []

    def gradient_first(fun, x0, *, args, method, jac, options):
        stages.append(args[0])
        assert jac(x0.copy(), *args).tobytes() == solver._search_objective(x0, *args)[1].tobytes()
        return minimize(fun, x0, args=args, method=method, jac=jac, options=options)

    monkeypatch.setattr(solver.optimize, "minimize", gradient_first)
    config = solver.SearchConfig(n_starts=2, max_evals=300, seed=3)
    solver.search_optimal_state(
        dynamics.nonentangling_generator(3), dynamics.product_pm_readout(3), config
    )
    assert len(stages) == 2 * len(solver.PENALTY_STAGES)
