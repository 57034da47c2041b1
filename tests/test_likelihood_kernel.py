"""Property tests of the Monte Carlo likelihood kernels against direct references.

* The trigonometric-polynomial ``MeasurementModel`` against the per-x dense
  probabilities diag(V^dagger U rho U^dagger V) with U = exp(-i x H), and its
  derivative against diag(V^dagger (-i [H, rho_x]) V); on the way, the
  spectral ``state_derivative`` against the dense -i (H rho - rho H).  H is
  either generator of the paper or a random real spectrum.
* The one-pass coefficient table against the per-frequency masked
  ``diagonal`` loop kept here, bit for bit, and the build's memory peak on a
  generic spectrum.
* The per-outcome p and dp/dx, gathered from the class table, against the
  per-outcome polynomial kept here, bit for bit.
* The outcome classes: merged exactly when their coefficient columns are
  equal, and estimates on class counts against estimates on outcome counts.
* The lockstep golden-section ``_LikelihoodMachine.estimate`` against the
  scalar golden-section search kept here.
* The sorted-uniform sampler against ``searchsorted(cum, u, side="right")``.
* The trial loop's class counts, taken a block of trials at a time, against
  each trial's own ``class_counts(_draw_counts(...))``, and ``uncertainty_run``
  against itself at other block sizes.
"""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probelab import dynamics, montecarlo, states
from probelab.errors import DegenerateModelError
from probelab.montecarlo import (
    MeasurementModel,
    _cumulative,
    _draw_counts,
    _fold_free_interval,
    _LikelihoodMachine,
    _trial_counts,
)

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
    return dynamics.Generator(n, np.linalg.eigvalsh((g + g.conj().T) / 4.0))


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
    derivative = dynamics.state_derivative(model.generator, model.initial_state)
    np.testing.assert_allclose(derivative, -1j * (h @ rho - rho @ h), rtol=0, atol=1e-12)
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


def reference_coefficients(generator, rho, basis):
    """The per-frequency build: one masked readout diagonal per distinct
    difference of the spectrum."""
    h = generator.spectrum
    diffs = np.subtract.outer(h, h)
    omega, group = np.unique(diffs, return_inverse=True)
    group = group.reshape(diffs.shape)
    return omega, np.stack([basis.diagonal((group == j) * rho.matrix) for j in range(len(omega))])


PROBES = ("tensor", "cat", "random_pure", "random_mixed")


def build_state(kind, n, rng):
    if kind == "tensor":
        return states.tensor_power(states.optimal_single_qubit(+1), n)
    if kind == "cat":
        return states.cat_state(n) if n >= 2 else states.optimal_single_qubit(+1)
    if kind == "random_pure":
        return states.random_pure_state(n, rng)
    return states.random_mixed_state(n, rng)


@SETTINGS
@given(
    n=st.integers(1, 5),
    seed=SEEDS,
    kind=st.sampled_from(GENERATORS + ("repeated",)),
    probe=st.sampled_from(PROBES),
    drop_ket=st.booleans(),
    product_readout=st.booleans(),
)
def test_one_pass_table_equals_per_frequency_table(n, seed, kind, probe, drop_ket, product_readout):
    rng = np.random.default_rng(seed)
    generator = (
        dynamics.Generator(n, rng.integers(-2, 3, 2**n) * 0.3)  # repeated eigenvalues
        if kind == "repeated"
        else build_generator(kind, n, rng)
    )
    rho = build_state(probe, n, rng)
    if drop_ket:
        rho = dataclasses.replace(rho, ket=None)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    model = MeasurementModel(generator, rho, basis)
    omega, coeffs = reference_coefficients(generator, rho, basis)
    assert np.array_equal(model._omega, omega)
    assert np.array_equal(model._columns[:, model.classes], coeffs)


def test_a_generic_spectrum_builds_in_blocks_below_two_and_a_half_tables():
    # n=6 on a random spectrum: 4,033 frequencies, so the one-pass build
    # transforms its sums in four blocks of columns into a 4.1 MB table.  It
    # equals the per-frequency build bit for bit, no two outcomes of the
    # random state share a class, and the build peaks at about 1.95 tables,
    # below 2.5 (3.1 when the sums were transformed all at once and every
    # column's bytes were held as a class key).
    rng = np.random.default_rng(6)
    generator = dynamics.Generator(6, rng.standard_normal(64))
    rho = states.random_mixed_state(6, rng)
    basis = dynamics.product_pm_readout(6)
    tracemalloc.start()
    try:
        model = MeasurementModel(generator, rho, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    omega, coeffs = reference_coefficients(generator, rho, basis)
    assert len(omega) == 4033
    assert np.array_equal(model._omega, omega)
    assert np.array_equal(model.classes, np.arange(64))
    assert model._columns.tobytes() == coeffs.tobytes()
    assert peak <= 2.5 * model._columns.nbytes


@pytest.mark.parametrize("probe", PROBES)
def test_classes_do_not_depend_on_the_hash_of_a_column(probe, monkeypatch):
    # every column's bytes hash alike: the byte comparison alone tells the
    # classes apart, in the same order of first appearance
    rng = np.random.default_rng(3)
    model = MeasurementModel(
        dynamics.nonentangling_generator(3), build_state(probe, 3, rng), dynamics.product_pm_readout(3)
    )
    monkeypatch.setattr(montecarlo, "hash", lambda key: 0, raising=False)
    coeffs = model._columns[:, model.classes]
    classes, firsts = montecarlo._column_classes(coeffs)
    assert np.array_equal(classes, model.classes)
    assert np.array_equal(coeffs[:, firsts], model._columns)


def reference_tables(omega, coeffs, xs):
    """p and dp/dx of every outcome from its own coefficient column."""
    phases = np.exp(-1j * np.multiply.outer(xs, omega))
    p = np.clip(np.real(np.einsum("xf,fo->xo", phases, coeffs)), 0.0, None)
    return p, np.real(np.einsum("xf,fo->xo", phases, -1j * omega[:, None] * coeffs))


@SETTINGS
@given(
    n=st.integers(1, 5),
    seed=SEEDS,
    kind=st.sampled_from(GENERATORS),
    probe=st.sampled_from(PROBES),
    product_readout=st.booleans(),
    lo=st.floats(-4.0, 4.0),
    points=st.sampled_from((1, 3, 7, 1024)),
)
def test_gathered_tables_equal_per_outcome_polynomial(
    n, seed, kind, probe, product_readout, lo, points
):
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    model = MeasurementModel(build_generator(kind, n, rng), build_state(probe, n, rng), basis)
    omega, coeffs = reference_coefficients(model.generator, model.initial_state, basis)
    xs = np.linspace(lo, lo + math.pi, points)
    p, dp = reference_tables(omega, coeffs, xs)
    assert np.array_equal(model.probability_table(xs), p)
    assert np.array_equal(model.derivative_table(xs), dp)
    assert np.array_equal(model.probabilities(lo), p[0])


def outcome_route(model):
    """The same model with the identity class map, its table gathered from
    the class table: every likelihood step then runs on per-outcome counts."""
    outcomes = copy.copy(model)
    outcomes.classes = np.arange(model.basis.dim)
    outcomes._columns = model._columns[:, model.classes]
    return outcomes


@SETTINGS
@given(
    n=st.integers(1, 5),
    seed=SEEDS,
    kind=st.sampled_from(GENERATORS),
    probe=st.sampled_from(PROBES),
    x_true=st.floats(-1.0, 1.0),
    rows=st.integers(1, 60),  # grid_peaks takes 24 rows of the 1,024-point grid at a time
    xtol=st.sampled_from((1e-6, 1e-5)),
)
def test_class_estimates_match_outcome_estimates(n, seed, kind, probe, x_true, rows, xtol):
    rng = np.random.default_rng(seed)
    model = MeasurementModel(
        build_generator(kind, n, rng), build_state(probe, n, rng), dynamics.product_pm_readout(n)
    )
    classes = model.classes
    coeffs = reference_coefficients(model.generator, model.initial_state, model.basis)[1]
    for i in range(len(classes)):
        for j in range(i):
            assert (classes[i] == classes[j]) == np.array_equal(coeffs[:, i], coeffs[:, j])
    assert list(dict.fromkeys(classes.tolist())) == list(range(classes.max() + 1))
    assert np.array_equal(model._columns[:, classes], coeffs)
    if probe in ("random_pure", "random_mixed") or kind == "custom" and probe == "tensor":
        assert np.array_equal(classes, np.arange(len(classes)))
    try:
        interval = _fold_free_interval(model, x_true)
        by_class = _LikelihoodMachine(model, interval)
        by_outcome = _LikelihoodMachine(outcome_route(model), interval)
    except DegenerateModelError:
        assume(False)
    counts = rng.multinomial(2000, model.probabilities(x_true), size=rows).astype(float)
    class_counts = model.class_counts(counts)
    assert np.array_equal(class_counts.sum(axis=1), counts.sum(axis=1))
    peaks = np.argmax(by_class.log_table @ class_counts.T, axis=0)
    assert np.array_equal(by_class.grid_peaks(class_counts), peaks)
    estimates = by_class.estimate(class_counts, xtol)
    np.testing.assert_allclose(estimates, by_outcome.estimate(counts, xtol), rtol=0, atol=2 * xtol)


def scalar_golden_estimate(machine, counts, xtol):
    """The per-row search: grid argmax, then golden section on its bracket.

    Each score is summed as the kernel sums it (``np.dot`` rounds differently):
    a last-bit difference between two nearly equal scores can flip a
    comparison and move the result by a few ``xtol``.
    """
    def score(x):
        logp = np.log(np.clip(machine.model.class_table(np.array([x]))[0], 1e-300, None))
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
    counts = model.class_counts(
        np.array([rng.multinomial(500, p) for p in model.probability_table(xs)], float)
    )
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
    assert np.array_equal(_draw_counts(_cumulative(probs), u_sorted), expected)
    for p, e in zip(probs, expected):
        assert np.array_equal(_draw_counts(_cumulative(p), u_sorted), e)


@SETTINGS
@given(
    n=st.integers(1, 4),
    seed=SEEDS,
    kind=st.sampled_from(GENERATORS),
    shots=st.integers(1, 500),
    trials=st.integers(1, 12),
    block=st.integers(1, 5),
    x_true=st.floats(-2.0, 2.0),
)
def test_blocked_trial_counts_are_each_trials_own(n, seed, kind, shots, trials, block, x_true):
    model = build_model(kind, n, seed, True)
    xs = np.array([x_true - montecarlo.SLOPE_STEP, x_true, x_true + montecarlo.SLOPE_STEP])
    cum = _cumulative(model.probability_table(xs))
    trial_seed = [seed, n]
    with pytest.MonkeyPatch.context() as patch:  # ``block`` trials at a time
        patch.setattr(montecarlo, "_COUNT_BLOCK", block * cum.size)
        counts = _trial_counts(model, cum, shots, trials, trial_seed)
    assert counts.shape == (3, trials, model.classes.max() + 1)
    for t in range(trials):
        u = np.random.default_rng(np.random.SeedSequence(trial_seed + [t])).random(shots)
        own = model.class_counts(_draw_counts(cum, np.sort(u)))
        assert np.array_equal(counts[:, t], own)
        assert np.all(counts[:, t].sum(axis=1) == shots)


@pytest.mark.parametrize("probe", ["tensor", "random"])
def test_uncertainty_run_does_not_depend_on_the_count_block(probe, monkeypatch):
    # 7 and 11 trials are no multiple of 2 or 3; a budget below one trial's
    # edges still counts one trial at a time
    if probe == "tensor":
        model = MeasurementModel(
            dynamics.nonentangling_generator(3),
            states.tensor_power(states.optimal_single_qubit(+1), 3),
            dynamics.product_pm_readout(3),
        )
    else:
        model = build_model("custom", 2, 4, True)
    d = model.basis.dim
    assert 11 < montecarlo._COUNT_BLOCK // (3 * d)  # one block by default
    for trials in (7, 11):
        monkeypatch.undo()
        default = montecarlo.uncertainty_run(model, 0.3, 300, trials, seed=[5, 2])
        for budget in (1, 3 * d, 2 * 3 * d, 3 * 3 * d + 1):
            monkeypatch.setattr(montecarlo, "_COUNT_BLOCK", budget)
            assert montecarlo.uncertainty_run(model, 0.3, 300, trials, seed=[5, 2]) == default
