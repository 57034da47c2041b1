import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import dynamics, montecarlo, states
from probelab.errors import DegenerateModelError, ValidationError
from probelab.fisher import cramer_rao_bound
from probelab.montecarlo import MeasurementModel


def single_qubit_model():
    return MeasurementModel(
        dynamics.nonentangling_generator(1),
        states.optimal_single_qubit(+1),
        dynamics.product_pm_readout(1),
    )


def cat_model():
    return MeasurementModel(
        dynamics.nonentangling_generator(2),
        states.cat_state(2),
        dynamics.product_pm_readout(2),
    )


def test_sample_readout_balanced_fraction():
    counts = montecarlo.sample_readout(
        states.optimal_single_qubit(+1), dynamics.product_pm_readout(1), 10**6, seed=7
    )
    assert abs(counts["+"] / 10**6 - 0.5) <= 0.002  # 4 sigma band


def test_sample_readout_deterministic_and_concentrated():
    plus = states.pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    basis = dynamics.product_pm_readout(1)
    a = montecarlo.sample_readout(plus, basis, 100, seed=5)
    b = montecarlo.sample_readout(plus, basis, 100, seed=5)
    assert a == b == {"+": 100, "-": 0}


@pytest.mark.parametrize("shots", [1, 7, 1000])
def test_sample_readout_counts_every_shot(shots):
    rho = states.random_mixed_state(2, 3)
    counts = montecarlo.sample_readout(rho, dynamics.product_pm_readout(2), shots, seed=1)
    assert list(counts) == ["++", "+-", "-+", "--"]
    assert all(type(c) is int for c in counts.values())
    assert sum(counts.values()) == shots


def test_empirical_frequencies_converge_in_total_variation():
    rng_seeds = [11, 12, 13]
    gen = dynamics.nonentangling_generator(2)
    rho = dynamics.evolve(states.tensor_power(states.optimal_single_qubit(+1), 2), gen, 0.4)
    basis = dynamics.product_pm_readout(2)
    exact = dynamics.probability_vector(basis, rho)
    shots = 10**4
    for seed in rng_seeds:
        counts = montecarlo.sample_readout(rho, basis, shots, seed)
        freq = np.array([counts[label] for label in basis.labels]) / shots
        tv = 0.5 * np.sum(np.abs(freq - exact))
        assert tv <= 5.0 * np.sqrt(len(basis.labels) / shots)


def test_model_probabilities_match_evolved_state():
    model = single_qubit_model()
    basis = dynamics.product_pm_readout(1)
    for x in (0.0, 0.3, -1.2):
        evolved = dynamics.evolve(model.initial_state, model.generator, x)
        direct = dynamics.probability_vector(basis, evolved)
        assert np.allclose(model.probabilities(x), direct, atol=1e-12)


def test_model_probability_formula():
    # p(+|x) = (1 - sin x)/2 under the fixed conventions
    model = single_qubit_model()
    for x in (0.0, 0.5, -0.9):
        assert model.probabilities(x)[0] == pytest.approx((1 - np.sin(x)) / 2)


def test_log_likelihood_certain_outcome_is_zero():
    plus = states.pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    model = MeasurementModel(
        dynamics.nonentangling_generator(1), plus, dynamics.product_pm_readout(1)
    )
    assert montecarlo.log_likelihood({"+": 50, "-": 0}, model, 0.0) == pytest.approx(0.0)


def test_log_likelihood_uniform_distribution():
    model = single_qubit_model()
    total = 10**4
    value = montecarlo.log_likelihood({"+": total // 2, "-": total // 2}, model, 0.0)
    assert value == pytest.approx(-total * np.log(2.0))


def test_log_likelihood_maximum_near_truth():
    model = single_qubit_model()
    x_true = 0.4
    state = dynamics.evolve(model.initial_state, model.generator, x_true)
    counts = montecarlo.sample_readout(state, model.basis, 10**5, seed=3)
    xs = np.linspace(x_true - 1.0, x_true + 1.0, 401)
    values = [montecarlo.log_likelihood(counts, model, x) for x in xs]
    assert abs(xs[int(np.argmax(values))] - x_true) < 0.02


def test_counts_with_an_unknown_label_are_refused():
    model = single_qubit_model()
    with pytest.raises(ValidationError, match="'bogus'"):
        montecarlo.log_likelihood({"+": 5, "-": 3, "bogus": 100}, model, 0.2)
    with pytest.raises(ValidationError, match="'bogus'"):
        montecarlo.mle_estimate({"+": 5, "bogus": 1}, model, (-1.0, 1.0))


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("as_mapping", [True, False])
def test_negative_or_non_finite_counts_are_refused(bad, as_mapping):
    model = single_qubit_model()
    counts = {"+": 5.5, "-": bad} if as_mapping else [5.5, bad]
    with pytest.raises(ValidationError, match=f"count {bad} of outcome '-'"):
        montecarlo.mle_estimate(counts, model, (-1.0, 1.0))
    with pytest.raises(ValidationError, match=f"count {bad} of outcome '-'"):
        montecarlo.log_likelihood(counts, model, 0.2)


# Each entry point refuses a non-finite x before any arithmetic: the suite's
# warning filter turns a RuntimeWarning from a NaN or an infinity into a failure.
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_mle_refuses_a_non_finite_interval_end(bad):
    model = single_qubit_model()
    message = f"search interval end must be finite, got {bad}"
    for interval in ((0.0, bad), (bad, 0.0)):
        with pytest.raises(ValidationError, match=message):
            montecarlo.mle_estimate({"+": 5, "-": 5}, model, interval)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_fisher_at_refuses_a_non_finite_x(bad):
    with pytest.raises(ValidationError, match=f"x must be finite, got {bad}"):
        single_qubit_model().fisher_at(bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_log_likelihood_refuses_a_non_finite_x(bad):
    with pytest.raises(ValidationError, match=f"x must be finite, got {bad}"):
        montecarlo.log_likelihood({"+": 5, "-": 5}, single_qubit_model(), bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_uncertainty_run_refuses_a_non_finite_x_true(bad):
    with pytest.raises(ValidationError, match=f"x_true must be finite, got {bad}"):
        montecarlo.uncertainty_run(single_qubit_model(), bad, shots=100, trials=10, seed=1)


def test_mle_refuses_an_interval_its_grid_cannot_resolve():
    # the 1024 points over (1e20, 1e20 + 1e5) collapse onto a few floats
    model = single_qubit_model()
    with pytest.raises(ValidationError, match="float64 cannot resolve the 1024-point search grid"):
        montecarlo.mle_estimate({"+": 5, "-": 5}, model, (1e20, 1e20 + 1e5))
    with pytest.raises(ValidationError, match="positive, finite width"):
        montecarlo.mle_estimate({"+": 5, "-": 5}, model, (-1e308, 1e308))


def test_mle_refuses_an_interval_whose_phases_carry_no_digits():
    # float64 resolves these 1024-point grids, but at |x| past about 2^55 the
    # spacing of the phase x omega (omega = 1 here) exceeds its period 2 pi:
    # the probabilities there are rounding noise, and 1.39e308 used to be
    # returned from them
    for interval in [(1e308, 1.7e308), (-1.7e308, -1e308), (2.0**55, 2.0**56)]:
        with pytest.raises(ValidationError, match="float64 carries no digit of the phases x omega"):
            montecarlo.mle_estimate({"+": 5, "-": 5}, single_qubit_model(), interval)


def test_mle_accepts_an_interval_whose_phases_keep_a_digit():
    x_hat = montecarlo.mle_estimate({"+": 5, "-": 5}, single_qubit_model(), (2.0**51, 2.0**51 + 1e4))
    assert 2.0**51 <= x_hat <= 2.0**51 + 1e4


def test_mle_plug_in_consistency():
    model = single_qubit_model()
    p = model.probabilities(0.3)
    counts = {label: p[i] * 1e8 for i, label in enumerate(model.labels)}
    est = montecarlo.mle_estimate(counts, model, (0.3 - np.pi / 2, 0.3 + np.pi / 2))
    assert est == pytest.approx(0.3, abs=1e-4)


def test_mle_single_outcome_model_is_degenerate():
    # a computational-basis readout of |0><0| gives one outcome at every x
    zero = states.pure_state(np.array([1.0, 0.0]))
    basis = dynamics.readout_from_kets(np.eye(2, dtype=complex))
    model = MeasurementModel(dynamics.nonentangling_generator(1), zero, basis)
    with pytest.raises(DegenerateModelError):
        montecarlo.mle_estimate({"0": 10, "1": 0}, model, (-1.0, 1.0))


def test_mle_flat_uniform_model_is_degenerate():
    mixed = states.density_matrix(np.eye(2) / 2)
    model = MeasurementModel(
        dynamics.nonentangling_generator(1), mixed, dynamics.product_pm_readout(1)
    )
    with pytest.raises(DegenerateModelError):
        montecarlo.mle_estimate({"+": 5, "-": 5}, model, (-1.0, 1.0))


def test_mle_cat_model_is_degenerate():
    with pytest.raises(DegenerateModelError):
        montecarlo.mle_estimate(
            {"++": 10, "+-": 0, "-+": 0, "--": 10}, cat_model(), (-np.pi / 2, np.pi / 2)
        )


def test_uncertainty_run_hits_the_bound_single_qubit():
    model = single_qubit_model()
    result = montecarlo.uncertainty_run(model, 0.3, 10**4, 300, seed=1)
    assert abs(result.delta_x - 0.01) <= 0.001
    assert abs(result.slope) > 0.9
    assert result.delta_x >= 0.01 * (1 - 0.15)


def test_uncertainty_run_determinism():
    model = single_qubit_model()
    a = montecarlo.uncertainty_run(model, 0.2, 2000, 60, seed=8)
    b = montecarlo.uncertainty_run(model, 0.2, 2000, 60, seed=8)
    assert a == b


def test_uncertainty_run_trial_seeds_are_order_independent():
    # estimates must derive from (seed, trial) substreams only: a run with
    # more trials reproduces the shorter run's statistics trial-for-trial
    model = single_qubit_model()
    machine = montecarlo._LikelihoodMachine(model, (0.2 - np.pi / 2, 0.2 + np.pi / 2))
    cum = []
    for x in (0.19, 0.2, 0.21):
        p = model.probabilities(x)
        c = np.cumsum(p / p.sum())
        c[-1] = 1.0
        cum.append(c)
    direct = []
    for t in (3, 1, 4):  # any order
        rng = np.random.default_rng(np.random.SeedSequence([8, t]))
        u = rng.random(2000)
        counts = np.bincount(np.searchsorted(cum[1], u, side="right"), minlength=2)
        direct.append((t, machine.estimate(counts.astype(float))))
    again = []
    for t in (1, 3, 4):
        rng = np.random.default_rng(np.random.SeedSequence([8, t]))
        u = rng.random(2000)
        counts = np.bincount(np.searchsorted(cum[1], u, side="right"), minlength=2)
        again.append((t, machine.estimate(counts.astype(float))))
    assert dict(direct) == dict(again)


def tensor_probes(build_generator, n_list):
    """One (generator, optimal tensor-power state, |+>/|-> readout) per n."""
    return [
        (build_generator(n), states.tensor_power(states.optimal_single_qubit(+1), n),
         dynamics.product_pm_readout(n))
        for n in n_list
    ]


def test_scaling_experiment_nonentangling_rows():
    rows = montecarlo.scaling_experiment(
        tensor_probes(dynamics.nonentangling_generator, [1, 2, 3]),
        shots=2000, trials=80, seed=4,
    )
    for row, n in zip(rows, [1, 2, 3]):
        assert row.n == n
        assert row.f_classical == pytest.approx(n, abs=1e-8)
        assert row.f_quantum == pytest.approx(n, abs=1e-8)
        assert not row.degenerate
        assert row.delta_x_empirical >= row.bound * (1 - 0.15)


def test_scaling_experiment_entangling_parity_rows():
    rows = montecarlo.scaling_experiment(
        tensor_probes(dynamics.entangling_generator, [2, 3]),
        shots=2000, trials=80, seed=4,
    )
    even, odd = rows
    assert even.degenerate
    assert np.isinf(even.bound)
    assert np.isnan(even.delta_x_empirical)
    assert abs(even.f_classical) <= 1e-10
    assert odd.f_classical == pytest.approx(1.0, abs=1e-8)
    assert not odd.degenerate


def test_scaling_experiment_deterministic():
    args = (tensor_probes(dynamics.nonentangling_generator, [1, 2]), 1000, 50, 17)
    assert montecarlo.scaling_experiment(*args) == montecarlo.scaling_experiment(*args)


def test_uncertainty_run_near_the_fold_hits_the_bound():
    # x_true +/- pi/2 reaches past the fold of p(+|x) = (1 - sin x)/2 at pi/2,
    # where x and pi - x give the same distribution: the default interval
    # stops short of it, so the estimate cannot alias to pi - x.
    result = montecarlo.uncertainty_run(single_qubit_model(), 1.2, 10**4, 200, seed=7)
    assert result.delta_x <= 3 * 0.01
    assert abs(result.slope - 1.0) < 0.1


@pytest.mark.parametrize("x_true", [np.pi / 2, -np.pi / 2, np.pi / 2 + 1e-3])
def test_uncertainty_run_at_a_fold_is_degenerate(x_true):
    with pytest.raises(DegenerateModelError, match="folds within one grid step"):
        montecarlo.uncertainty_run(single_qubit_model(), x_true, 1000, 10, seed=1)


@settings(max_examples=15, deadline=None)
@given(x_true=st.floats(-1.3, 1.3), seed=st.integers(0, 2**32 - 1))
def test_uncertainty_run_stays_near_the_bound_across_the_identifiable_range(x_true, seed):
    model = single_qubit_model()
    bound = cramer_rao_bound(model.fisher_at(x_true), 10**4)
    result = montecarlo.uncertainty_run(model, x_true, 10**4, 100, seed=seed)
    # delta_x = rms(x_est / |slope| - x_true) carries x_true (1/|slope| - 1)
    # from the sampling error of the 100-trial slope itself (about 0.013 here):
    # past |x_true| ~ 1 that term alone exceeds 4x the bound on a few percent
    # of seeds.  An aliased estimate misses by far more than either.
    slope_term = abs(x_true) * abs(1.0 / abs(result.slope) - 1.0)
    assert result.delta_x <= 4 * bound + slope_term
    assert abs(result.slope - 1.0) < 0.1
