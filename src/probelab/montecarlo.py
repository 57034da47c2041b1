"""Monte Carlo simulation of the full protocol: prepare, evolve, read out,
estimate, and empirically verify the uncertainty bound.

The reported uncertainty is the units-corrected root-mean-squared deviation

    delta_x = rms over trials of ( x_est / |d<x_est>/dx| - x_true ),

with the slope estimated by a central finite difference of the mean estimate
at x_true +/- h.  No unbiasedness assumption is made.

Randomness contract: every trial draws from its own substream derived from
(seed, trial index) via :class:`numpy.random.SeedSequence`, so results are
identical for any degree of trial parallelism.  Within a trial the same
uniform draws generate the readouts at x_true and at the two slope offsets
(common random numbers), which keeps the slope estimate from inflating the
reported uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dynamics import (
    ENTANGLING,
    Generator,
    ReadoutBasis,
    entangling_generator,
    evolve,
    nonentangling_generator,
    probability_vector,
    product_pm_readout,
    state_derivative,
)
from .errors import DegenerateModelError, DimensionError, ValidationError
from .fisher import analyze, classical_fisher, cramer_rao_bound
from .operators import MAX_QUBITS, Tolerances, hermitian_eigen
from .states import DensityMatrix, cat_state, optimal_single_qubit, tensor_power

#: Classical Fisher information below this leaves the model unidentifiable.
FISHER_FLOOR = 1e-10

_LOG_FLOOR = 1e-300
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ShotCounts:
    """Multinomial outcome counts from repeated readouts."""

    counts: dict[str, int]
    total: int


def _draw_counts(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome counts of the uniforms ``u``: outcome k for each u in
    [cum[k-1], cum[k]) of the cumulative table cum of ``probs``."""
    cum = np.cumsum(probs / probs.sum())
    cum[-1] = 1.0
    return np.bincount(np.searchsorted(cum, u, side="right"), minlength=len(cum))


def sample_readout(
    state_at_x: DensityMatrix, basis: ReadoutBasis, shots: int, seed: int
) -> ShotCounts:
    """Multinomial draw from the outcome distribution; deterministic per seed."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    probs = probability_vector(basis, state_at_x)
    drawn = _draw_counts(probs, np.random.default_rng(seed).random(shots))
    return ShotCounts(
        counts={label: int(c) for label, c in zip(basis.labels, drawn)},
        total=int(shots),
    )


class MeasurementModel:
    """A fixed (generator, initial state, readout) triple.

    Caches the generator eigendecomposition so outcome probabilities at any
    parameter value cost three small matrix products.
    """

    def __init__(
        self, generator: Generator, initial_state: DensityMatrix, basis: ReadoutBasis
    ):
        if generator.n_qubits != initial_state.n_qubits or basis.dim != initial_state.dim:
            raise DimensionError("generator, state and basis dimensions differ")
        self.generator = generator
        self.initial_state = initial_state
        self.basis = basis
        eig = hermitian_eigen(generator.matrix)
        self._phases = eig.values
        self._rho_eig = eig.vectors.conj().T @ initial_state.matrix @ eig.vectors
        self._kets_eig = basis.kets.conj().T @ eig.vectors

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels

    def probabilities(self, x: float) -> np.ndarray:
        """Outcome probabilities p(outcome | x), aligned with basis labels."""
        m = self._kets_eig * np.exp(-1j * x * self._phases)[None, :]
        p = np.real(np.einsum("ok,kl,ol->o", m, self._rho_eig, m.conj()))
        return np.clip(p, 0.0, None)

    def probability_table(self, xs: np.ndarray) -> np.ndarray:
        """Probabilities on a grid, shape (len(xs), outcomes)."""
        return np.stack([self.probabilities(x) for x in xs])

    def state_at(self, x: float) -> DensityMatrix:
        return evolve(self.initial_state, self.generator, x)

    def fisher_at(self, x: float) -> float:
        """Classical Fisher information of the readout at parameter value x."""
        rho_x = self.state_at(x)
        return classical_fisher(self.basis, rho_x, state_derivative(self.generator, rho_x))


def _counts_vector(counts, labels: Sequence[str]) -> np.ndarray:
    if isinstance(counts, ShotCounts):
        counts = counts.counts
    if isinstance(counts, Mapping):
        return np.array([float(counts.get(label, 0)) for label in labels])
    arr = np.asarray(counts, dtype=float)
    if arr.shape != (len(labels),):
        raise DimensionError("counts do not match the outcome labels")
    return arr


def log_likelihood(counts, model: MeasurementModel, x: float) -> float:
    """Multinomial log likelihood sum_outcomes n * ln p(outcome | x)."""
    n = _counts_vector(counts, model.labels)
    logp = np.log(np.clip(model.probabilities(x), _LOG_FLOOR, None))
    return float(np.dot(n, logp))


class _LikelihoodMachine:
    """Grid log-probability table plus golden-section refinement.

    The search interval is a declared configuration: it must lie within one
    period of the likelihood, and identifiability at its midpoint is checked
    once at construction.
    """

    def __init__(
        self,
        model: MeasurementModel,
        search_interval: tuple[float, float],
        grid_points: int = 1024,
    ):
        lo, hi = float(search_interval[0]), float(search_interval[1])
        if not hi > lo:
            raise ValidationError("search interval must have positive width")
        self.model = model
        self.xs = np.linspace(lo, hi, grid_points)
        table = model.probability_table(self.xs)
        center = model.probabilities(0.5 * (lo + hi))
        flat = float(np.max(np.abs(table - center[None, :])))
        if flat <= 1e-12:
            raise DegenerateModelError(
                "outcome probabilities are constant over the search interval"
            )
        fisher_center = model.fisher_at(0.5 * (lo + hi))
        if fisher_center <= FISHER_FLOOR:
            raise DegenerateModelError(
                f"classical Fisher information {fisher_center:.3e} at the interval "
                f"midpoint carries no information about the parameter"
            )
        self.log_table = np.log(np.clip(table, _LOG_FLOOR, None))

    def estimate(self, counts_vec: np.ndarray, xtol: float = 1e-8) -> float:
        scores = self.log_table @ counts_vec
        j = int(np.argmax(scores))
        lo = self.xs[max(j - 1, 0)]
        hi = self.xs[min(j + 1, len(self.xs) - 1)]

        def score(x: float) -> float:
            logp = np.log(np.clip(self.model.probabilities(x), _LOG_FLOOR, None))
            return float(np.dot(counts_vec, logp))

        return _golden_max(score, lo, hi, xtol)


def _golden_max(f, lo: float, hi: float, xtol: float) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def mle_estimate(
    counts,
    model: MeasurementModel,
    search_interval: tuple[float, float],
    *,
    grid_points: int = 1024,
    xtol: float = 1e-8,
) -> float:
    """Maximum-likelihood estimate: grid scan plus golden-section refinement.

    Raises :class:`DegenerateModelError` when the outcome distribution is flat
    over the interval or carries no local information at its midpoint.
    """
    machine = _LikelihoodMachine(model, search_interval, grid_points)
    return machine.estimate(_counts_vector(counts, model.labels), xtol)


@dataclass(frozen=True)
class EstimationResult:
    """Uncertainty of the estimate over repeated simulated experiments."""

    x_true: float
    x_hat: float
    delta_x: float
    slope: float


def uncertainty_run(
    model: MeasurementModel,
    x_true: float,
    shots: int,
    trials: int,
    seed: int | Sequence[int],
    *,
    slope_step: float = 0.01,
    search_interval: tuple[float, float] | None = None,
    grid_points: int = 1024,
) -> EstimationResult:
    """Simulate ``trials`` experiments of ``shots`` readouts each at x_true.

    Statistics are meaningful from about a hundred trials up.  The default
    search interval is x_true +/- pi/2 (one likelihood period for the
    generators built here).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if search_interval is None:
        search_interval = (x_true - math.pi / 2.0, x_true + math.pi / 2.0)
    machine = _LikelihoodMachine(model, search_interval, grid_points)
    offsets = (x_true - slope_step, x_true, x_true + slope_step)
    probs = [model.probabilities(x) for x in offsets]
    estimates = np.empty((3, trials))
    base = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(base + [t]))
        u = rng.random(shots)
        for i, p in enumerate(probs):
            estimates[i, t] = machine.estimate(_draw_counts(p, u).astype(float))
    slope = float(
        (np.mean(estimates[2]) - np.mean(estimates[0])) / (2.0 * slope_step)
    )
    if abs(slope) < 1e-12:
        raise DegenerateModelError("estimator slope vanished; cannot correct units")
    corrected = estimates[1] / abs(slope) - x_true
    delta_x = float(np.sqrt(np.mean(corrected * corrected)))
    return EstimationResult(
        x_true=float(x_true),
        x_hat=float(np.mean(estimates[1])),
        delta_x=delta_x,
        slope=slope,
    )


@dataclass(frozen=True)
class ScalingRow:
    """One row of a scaling table over probe sizes."""

    n: int
    f_classical: float
    f_quantum: float
    bound: float
    delta_x_empirical: float
    degenerate: bool


OPTIMAL_TENSOR_FAMILY = "optimal_single_tensor"
CAT_FAMILY = "cat"


def _family_state(family: str, n: int, sign: int, cap: int) -> DensityMatrix:
    if family == OPTIMAL_TENSOR_FAMILY:
        return tensor_power(optimal_single_qubit(sign), n, cap=cap)
    if family == CAT_FAMILY:
        return cat_state(n, sign, cap=cap)
    raise ValidationError(f"unknown state family {family!r}")


def scaling_experiment(
    n_list: Sequence[int],
    generator_kind: str,
    state_family: str,
    basis_kind: str,
    shots: int,
    trials: int,
    seed: int,
    *,
    x_true: float = 0.3,
    sign: int = +1,
    tol: Tolerances = Tolerances(),
    cap: int = MAX_QUBITS,
) -> list[ScalingRow]:
    """Fisher information and empirical uncertainty across probe sizes.

    ``sign`` selects the family member: the tensor power of
    (1 + sign*sigma_2)/2, or the cat state with relative sign ``sign``.
    Each probe is analyzed with :func:`~probelab.fisher.analyze` under ``tol``.

    Rows whose readout carries no information (classical Fisher information at
    the preparation point ~ 0) are flagged degenerate: their bound is infinite
    and no simulation is attempted.
    """
    if basis_kind != "product_pm":
        raise ValidationError(f"unknown readout kind {basis_kind!r}")
    rows = []
    for n in n_list:
        build = entangling_generator if generator_kind == ENTANGLING else nonentangling_generator
        generator = build(n, cap=cap)
        state = _family_state(state_family, n, sign, cap)
        basis = product_pm_readout(n, cap=cap)
        analysis = analyze(generator, state, basis, tol)
        f_classical, f_quantum = analysis.classical_fisher, analysis.quantum_fisher
        bound = cramer_rao_bound(f_classical, shots) if f_classical > FISHER_FLOOR else math.inf
        if f_classical <= FISHER_FLOOR:
            rows.append(
                ScalingRow(
                    n=n, f_classical=f_classical, f_quantum=f_quantum,
                    bound=bound, delta_x_empirical=math.nan, degenerate=True,
                )
            )
            continue
        model = MeasurementModel(generator, state, basis)
        result = uncertainty_run(model, x_true, shots, trials, [seed, n])
        rows.append(
            ScalingRow(
                n=n, f_classical=f_classical, f_quantum=f_quantum,
                bound=bound, delta_x_empirical=result.delta_x, degenerate=False,
            )
        )
    return rows
