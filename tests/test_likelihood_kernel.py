"""Property tests of the Monte Carlo likelihood kernels against direct references.

* The trigonometric-polynomial ``MeasurementModel`` against the per-x dense
  probabilities diag(V^dagger U rho U^dagger V) with U = exp(-i x H), and its
  derivative against diag(V^dagger (-i [H, rho_x]) V).
* The lockstep golden-section ``_LikelihoodMachine.estimate`` against the
  scalar golden-section search kept here.
* The sorted-uniform sampler against ``searchsorted(cum, u, side="right")``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import dynamics, states
from probelab.montecarlo import MeasurementModel, _draw_counts, _LikelihoodMachine

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SETTINGS = settings(max_examples=40, deadline=None)
GENERATORS = ("nonentangling", "entangling", "custom")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def build_generator(kind, n, rng):
    if kind == "nonentangling":
        return dynamics.nonentangling_generator(n)
    if kind == "entangling":
        return dynamics.entangling_generator(n)
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    return dynamics.custom_generator((g + g.conj().T) / 4.0)


def build_model(kind, n, seed, product_readout):
    rng = np.random.default_rng(seed)
    generator = build_generator(kind, n, rng)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    return MeasurementModel(generator, states.random_mixed_state(n, rng), basis)


def dense_evolution(h, x):
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * x * values)) @ vectors.conj().T


def dense_diagonal(basis, a):
    return np.real(np.einsum("ik,ij,jk->k", basis.kets.conj(), a, basis.kets))


@SETTINGS
@given(
    n=st.integers(1, 4),
    seed=SEEDS,
    kind=st.sampled_from(GENERATORS),
    product_readout=st.booleans(),
    xs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5),
)
def test_polynomial_model_matches_dense_evolution(n, seed, kind, product_readout, xs):
    model = build_model(kind, n, seed, product_readout)
    h, rho = model.generator.matrix, model.initial_state.matrix
    probs, dprobs = [], []
    for x in xs:
        u = dense_evolution(h, x)
        rho_x = u @ rho @ u.conj().T
        probs.append(dense_diagonal(model.basis, rho_x))
        dprobs.append(dense_diagonal(model.basis, -1j * (h @ rho_x - rho_x @ h)))
    table = model.probability_table(np.array(xs))
    np.testing.assert_allclose(table, np.clip(probs, 0.0, None), rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.derivative_table(np.array(xs)), dprobs, rtol=0, atol=1e-12)
    for x, row in zip(xs, table):
        np.testing.assert_allclose(model.probabilities(x), row, rtol=0, atol=1e-14)
    d = 2**n
    frequencies = len(model._omega)
    assert frequencies == {"nonentangling": 2 * n + 1, "entangling": 3}.get(kind, frequencies)
    assert frequencies <= d * d - d + 1


def scalar_golden_estimate(machine, counts, xtol):
    """The per-row search: grid argmax, then golden section on its bracket.

    Each score is summed as the kernel sums it (``np.dot`` rounds differently):
    a last-bit difference between two nearly equal scores can flip a
    comparison and move the result by a few ``xtol``.
    """
    def score(x):
        logp = np.log(np.clip(machine.model.probabilities(x), 1e-300, None))
        return float(np.einsum("o,o->", counts, logp))

    j = int(np.argmax(machine.log_table @ counts))
    a = machine.xs[max(j - 1, 0)]
    b = machine.xs[min(j + 1, len(machine.xs) - 1)]
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = score(c), score(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = score(d)
    return 0.5 * (a + b)


@SETTINGS
@given(
    # even registers carry no information under the entangling generator
    kind_n=st.sampled_from(
        [("nonentangling", 1), ("nonentangling", 2), ("nonentangling", 3),
         ("entangling", 1), ("entangling", 3)]
    ),
    seed=SEEDS,
    center=st.floats(-1.0, 1.0),
    width=st.floats(0.2, 1.5),
    rows=st.integers(1, 12),
    xtol=st.sampled_from((1e-8, 1e-6)),
)
def test_lockstep_estimate_matches_scalar_golden_section(
    kind_n, seed, center, width, rows, xtol
):
    kind, n = kind_n
    rng = np.random.default_rng(seed)
    model = MeasurementModel(
        build_generator(kind, n, rng),
        states.tensor_power(states.optimal_single_qubit(+1), n),
        dynamics.product_pm_readout(n),
    )
    machine = _LikelihoodMachine(model, (center - width, center + width), grid_points=64)
    # Counts drawn anywhere in [-1.5, 1.5], so some maxima sit on an edge of the grid.
    xs = rng.uniform(-1.5, 1.5, rows)
    counts = np.array([rng.multinomial(500, p) for p in model.probability_table(xs)], float)
    batched = machine.estimate(counts, xtol)
    assert batched.shape == (rows,)
    for row, estimate in zip(counts, batched):
        assert abs(estimate - scalar_golden_estimate(machine, row, xtol)) <= 2 * xtol
    assert machine.estimate(counts[0], xtol).shape == (1,)


@SETTINGS
@given(
    d=st.integers(1, 16),
    seed=SEEDS,
    shots=st.integers(1, 3000),
    zeros=st.floats(0.0, 0.75),
    ties=st.booleans(),
)
def test_sorted_uniform_counts_equal_searchsorted_counts(d, seed, shots, zeros, ties):
    rng = np.random.default_rng(seed)
    probs = rng.random((3, d)) * (rng.random((3, d)) >= zeros)
    probs[:, rng.integers(d)] += 0.1  # at least one outcome is possible
    u = rng.random(shots)
    cums = []
    for p in probs:
        cum = np.cumsum(p / p.sum())
        cum[-1] = 1.0
        cums.append(cum)
    if ties:  # uniforms (always < 1) exactly on an edge go to the next outcome
        edges = cums[0][cums[0] < 1.0][:shots]
        u[: len(edges)] = edges
    expected = [np.bincount(np.searchsorted(c, u, side="right"), minlength=d) for c in cums]
    u_sorted = np.sort(u)
    assert np.array_equal(_draw_counts(probs, u_sorted), expected)
    for p, e in zip(probs, expected):
        assert np.array_equal(_draw_counts(p, u_sorted), e)
