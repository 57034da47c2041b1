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
  scalar golden-section search kept here, and each row's estimate and grid
  peak in a batch (searched once per distinct row) against its batch-of-one
  ones, bit for bit, with the BLAS property ``grid_peaks`` rests on.
* Both routes of the edge ranks, comparison passes and the sort, against
  ``searchsorted(cum, u, side="right")``, uniforms on an edge included, and
  the rule that picks between them.
* The trial loop's class counts, taken a block of trials at a time on either
  route, against each trial's own ``searchsorted`` counts, and
  ``uncertainty_run`` against itself at other block sizes and on either route.
"""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probelab import dynamics, montecarlo, states
from probelab.errors import DegenerateModelError, SingularOutcomeError
from probelab.montecarlo import (
    MeasurementModel,
    _cumulative,
    _edge_counts,
    _edge_ranks,
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
    kind_n=st.sampled_from(
        [("nonentangling", 1), ("nonentangling", 2), ("nonentangling", 3),
         ("entangling", 1), ("entangling", 3)]
    ),
    seed=SEEDS,
    center=st.floats(-1.0, 1.0),
    far=st.booleans(),
    width=st.floats(0.2, 1.5),
    distinct=st.integers(1, 12),
    size=st.integers(1, 60),  # grid_peaks takes 24 rows of the 1,024-point grid at a time
    xtol=st.sampled_from((1e-8, 1e-6)),
)
# 49 rows leave a lone row in the last block of grid_peaks; past 2^26 every
# search stops on the repeated-state rule, and most of these rows peak on an
# edge of the grid
@example(kind_n=("nonentangling", 1), seed=0, center=0.3, far=True, width=0.2,
         distinct=6, size=49, xtol=1e-8)
@example(kind_n=("nonentangling", 2), seed=1, center=0.0, far=False, width=0.2,
         distinct=8, size=25, xtol=1e-8)
def test_each_rows_estimate_is_its_batch_of_one_estimate(
    kind_n, seed, center, far, width, distinct, size, xtol
):
    kind, n = kind_n
    rng = np.random.default_rng(seed)
    model = MeasurementModel(
        build_generator(kind, n, rng),
        states.tensor_power(states.optimal_single_qubit(+1), n),
        dynamics.product_pm_readout(n),
    )
    if far:  # the float spacing there, 2^-22, exceeds xtol
        center += 2.0**30
    try:
        machine = _LikelihoodMachine(model, (center - width, center + width))
    except (DegenerateModelError, SingularOutcomeError):
        assume(False)
    xs = center + rng.uniform(-1.5, 1.5, distinct)  # some maxima sit on an edge of the grid
    rows = model.class_counts(
        np.array([rng.multinomial(500, p / p.sum()) for p in model.probability_table(xs)], float)
    )
    batch = rows[rng.integers(distinct, size=size)]  # repeated rows in any order
    # The premise of grid_peaks: a product of two or more rows gives each row
    # the same bits, and grid_peaks forms no product of one row.
    table = machine.log_table
    scores = table @ batch.T if size > 1 else table @ np.concatenate([batch, batch]).T
    for i, row in enumerate(batch):
        assert (table @ np.stack([row, row]).T)[:, 0].tobytes() == scores[:, i].tobytes()
    widths = []

    class Recorded(np.ndarray):
        def __matmul__(self, other):
            widths.append(other.shape[1])
            return np.asarray(self) @ other

    machine.log_table = table.view(Recorded)
    peaks, estimates = machine.grid_peaks(batch), machine.estimate(batch, xtol)
    for i, row in enumerate(batch):
        assert machine.grid_peaks(row[None]).tobytes() == peaks[i : i + 1].tobytes()
        assert machine.estimate(row, xtol).tobytes() == estimates[i : i + 1].tobytes()
    # the same rows in other block neighbourhoods
    for shift in (1, int(rng.integers(size + 1)), size // 2):
        rolled = np.roll(batch, shift, axis=0)
        assert machine.grid_peaks(rolled).tobytes() == np.roll(peaks, shift).tobytes()
        assert machine.estimate(rolled, xtol).tobytes() == np.roll(estimates, shift).tobytes()
    assert machine.grid_peaks(batch[::-1]).tobytes() == peaks[::-1].tobytes()
    assert min(widths) >= 2


def forced_route(patch, route):
    """Force ``_edge_ranks`` onto one route: comparison passes (True) or the
    sort (False); the rule's calls are recorded and returned."""
    calls = []

    def rule(edges, shots):
        calls.append((edges, shots))
        return route

    patch.setattr(montecarlo, "_rank_by_comparison", rule)
    return calls


@SETTINGS
@given(
    d=st.integers(1, 16),
    seed=SEEDS,
    shots=st.integers(1, 3000),
    zeros=st.floats(0.0, 0.75),
    ties=st.booleans(),
)
@example(d=1, seed=0, shots=1, zeros=0.0, ties=False)
@example(d=1, seed=1, shots=200, zeros=0.0, ties=False)
@example(d=5, seed=2, shots=1, zeros=0.5, ties=True)
@example(d=8, seed=3, shots=40, zeros=0.75, ties=True)
def test_both_rank_routes_count_as_searchsorted(d, seed, shots, zeros, ties):
    rng = np.random.default_rng(seed)
    probs = rng.random((3, d)) * (rng.random((3, d)) >= zeros)
    probs[:, rng.integers(d)] += 0.1  # at least one outcome is possible
    u = rng.random(shots)
    cums = []
    for p in probs:
        cum = np.cumsum(p / p.sum())
        cum[-1] = 1.0
        cums.append(cum)
    if ties:  # uniforms (always < 1) exactly on an edge, repeated ones too, go to the next outcome
        edges = np.concatenate(cums)
        edges = edges[edges < 1.0][:shots]
        u[: len(edges)] = edges
    expected = [np.bincount(np.searchsorted(c, u, side="right"), minlength=d) for c in cums]
    ranks = []
    for route in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            calls = forced_route(patch, route)
            ranks.append(_edge_ranks(_cumulative(probs), u.copy()))
            assert np.array_equal(_edge_counts(ranks[-1].copy()), expected)
            for p, e in zip(probs, expected):
                assert np.array_equal(_edge_counts(_edge_ranks(_cumulative(p), u.copy())), e)
        assert calls == [(3 * (d - 1), shots)] + [(d - 1, shots)] * 3
    assert np.array_equal(ranks[0], ranks[1])
    assert np.array_equal(_edge_ranks(_cumulative(probs), u.copy()), ranks[0])


def test_the_rank_rule_reads_edges_and_shots():
    rule = montecarlo._rank_by_comparison
    # the counts of the built-in probes at the default 10^4 shots: n = 1 and 2
    # by comparison passes, n = 3 by the sort
    assert rule(3, 10**4) and rule(9, 10**4) and not rule(21, 10**4)
    assert not any(rule(edges, shots) for edges in (1, 3) for shots in (1, 2, 100, 1000))
    assert rule(21, 10**5) and not rule(30, 10**5)
    for shots in (3000, 10**4, 3 * 10**4, 10**5, 10**6):  # fewer edges never turn to the sort
        limit = max(edges for edges in range(100) if rule(edges, shots))
        assert all(rule(edges, shots) for edges in range(limit))


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
    d = model.basis.dim
    xs = np.array([x_true - montecarlo.SLOPE_STEP, x_true, x_true + montecarlo.SLOPE_STEP])
    cum = _cumulative(model.probability_table(xs))
    trial_seed = [seed, n]
    for route in (False, True):  # each side of the rule, whatever it picks here
        with pytest.MonkeyPatch.context() as patch:  # ``block`` trials at a time
            patch.setattr(montecarlo, "_COUNT_BLOCK", block * cum.size)
            calls = forced_route(patch, route)
            counts = _trial_counts(model, cum, shots, trials, trial_seed)
        assert calls == [(3 * (d - 1), shots)] * trials
        assert counts.shape == (3, trials, model.classes.max() + 1)
        for t in range(trials):
            u = np.random.default_rng(np.random.SeedSequence(trial_seed + [t])).random(shots)
            own = [np.bincount(np.searchsorted(c, u, side="right"), minlength=d) for c in cum]
            assert np.array_equal(counts[:, t], model.class_counts(np.array(own)))
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


@pytest.mark.parametrize("n, generator", [(1, "nonentangling"), (2, "nonentangling"), (3, "entangling")])
def test_uncertainty_run_does_not_depend_on_the_rank_route(n, generator, monkeypatch):
    model = MeasurementModel(
        build_generator(generator, n, None),
        states.tensor_power(states.optimal_single_qubit(+1), n),
        dynamics.product_pm_readout(n),
    )
    for shots in (300, 10**4):
        monkeypatch.undo()
        default = montecarlo.uncertainty_run(model, 0.3, shots, 40, seed=[6, n])
        for route in (False, True):
            calls = forced_route(monkeypatch, route)
            assert montecarlo.uncertainty_run(model, 0.3, shots, 40, seed=[6, n]) == default
            assert calls == [(3 * (2**n - 1), shots)] * 40
