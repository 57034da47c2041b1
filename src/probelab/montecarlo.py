"""Monte Carlo simulation of the full protocol: prepare, evolve, read out,
estimate, and empirically verify the uncertainty bound.

The reported uncertainty is the units-corrected root-mean-squared deviation

    delta_x = rms over trials of ( x_est / |d<x_est>/dx| - x_true ),

with the slope estimated by a central finite difference of the mean estimate
at x_true +/- h.  No unbiasedness assumption is made.

Likelihood model: for a generator with eigenvalues h_k the outcome
probabilities are an exact trigonometric polynomial in x,
p(x) = Re(exp(-i x omega) @ C), over the distinct differences omega of the
spectrum (see :class:`MeasurementModel`).  A batch of parameter values costs
one (points x frequencies) @ (frequencies x outcomes) product.

Estimator cost per trial: one sort of the ``shots`` uniforms, one
``searchsorted`` of the 3 x d cumulative tables into them, and one
(grid x d) @ (d x 3) product for the grid maximum.  After the trial loop one
lockstep golden-section search refines all 3 * trials brackets together,
about 30 batched likelihood evaluations in all.  Memory stays at one trial's
uniforms plus the (3 * trials x d) counts: neither a (3 * trials x grid) score
matrix nor a (trials x shots) uniform matrix is ever formed.

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


def _draw_counts(probs: np.ndarray, u_sorted: np.ndarray) -> np.ndarray:
    """Outcome counts of the sorted uniforms ``u_sorted``: outcome k for each
    u in [cum[k-1], cum[k]) of the cumulative table cum of ``probs``.

    ``probs`` may hold one distribution per row; each row is counted against
    the same uniforms.
    """
    cum = np.cumsum(probs / probs.sum(axis=-1, keepdims=True), axis=-1)
    cum[..., -1] = 1.0
    edges = np.searchsorted(u_sorted, cum, side="left")
    edges[..., 1:] -= edges[..., :-1].copy()
    return edges


def sample_readout(
    state_at_x: DensityMatrix, basis: ReadoutBasis, shots: int, seed: int
) -> ShotCounts:
    """Multinomial draw from the outcome distribution; deterministic per seed."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    probs = probability_vector(basis, state_at_x)
    drawn = _draw_counts(probs, np.sort(np.random.default_rng(seed).random(shots)))
    return ShotCounts(
        counts={label: int(c) for label, c in zip(basis.labels, drawn)},
        total=int(shots),
    )


class MeasurementModel:
    """A fixed (generator, initial state, readout) triple.

    With H = sum_k h_k |k><k|, the outcome probabilities are the exact
    trigonometric polynomial p(x) = Re(exp(-i x omega) @ C).  The frequencies
    omega are the distinct differences h_k - h_l, grouped by exact float
    equality: 2n+1 of them for the non-entangling generator, 3 for the
    entangling one and at most d^2 - d + 1 for a generic spectrum.  Row j of
    C is <o|V rho_j V^dagger|o> in the generator eigenbasis, with rho masked
    to the entries of frequency omega_j; it is built once.  The exact
    derivative dp/dx multiplies C by -i omega.
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
        rho_eig = eig.vectors.conj().T @ initial_state.matrix @ eig.vectors
        kets_eig = basis.kets.conj().T @ eig.vectors
        diffs = np.subtract.outer(eig.values, eig.values)
        self._omega, group = np.unique(diffs, return_inverse=True)
        group = group.reshape(diffs.shape)
        # <o|V rho_j V^dagger|o> as one BLAS product per frequency: the
        # three-operand einsum "ok,kl,ol->o" would be a naive d^3 loop.
        self._coeffs = np.stack([
            np.sum((kets_eig @ np.where(group == j, rho_eig, 0.0)) * kets_eig.conj(), axis=1)
            for j in range(len(self._omega))
        ])

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels

    def _polynomial(self, xs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        # einsum, not BLAS: each row's sum then does not depend on the batch size.
        phases = np.exp(-1j * np.multiply.outer(np.asarray(xs, dtype=float), self._omega))
        return np.real(np.einsum("xf,fo->xo", phases, coeffs))

    def probabilities(self, x: float) -> np.ndarray:
        """Outcome probabilities p(outcome | x), aligned with basis labels."""
        return self.probability_table(np.array([x]))[0]

    def probability_table(self, xs: np.ndarray) -> np.ndarray:
        """Probabilities on a grid, shape (len(xs), outcomes)."""
        return np.clip(self._polynomial(xs, self._coeffs), 0.0, None)

    def derivative_table(self, xs: np.ndarray) -> np.ndarray:
        """Exact dp/dx on a grid, shape (len(xs), outcomes)."""
        return self._polynomial(xs, -1j * self._omega[:, None] * self._coeffs)

    def state_at(self, x: float) -> DensityMatrix:
        return evolve(self.initial_state, self.generator, x)

    def fisher_at(
        self, x: float, *, probability_floor: float = Tolerances.probability_floor
    ) -> float:
        """Classical Fisher information of the readout at parameter value x."""
        rho_x = self.state_at(x)
        drho = state_derivative(self.generator, rho_x)
        return classical_fisher(self.basis, rho_x, drho, probability_floor=probability_floor)


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
    """Grid log-probability table plus lockstep golden-section refinement.

    The search interval is a declared configuration: the likelihood must not
    fold inside it, and identifiability at its midpoint is checked once at
    construction, with ``probability_floor`` as in the Fisher sum.
    """

    def __init__(
        self,
        model: MeasurementModel,
        search_interval: tuple[float, float],
        grid_points: int = 1024,
        probability_floor: float = Tolerances.probability_floor,
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
        fisher_center = model.fisher_at(0.5 * (lo + hi), probability_floor=probability_floor)
        if fisher_center <= FISHER_FLOOR:
            raise DegenerateModelError(
                f"classical Fisher information {fisher_center:.3e} at the interval "
                f"midpoint carries no information about the parameter"
            )
        self.log_table = np.log(np.clip(table, _LOG_FLOOR, None))

    def grid_peaks(self, counts: np.ndarray) -> np.ndarray:
        """Index of the best grid point for each row of ``counts``."""
        return np.argmax(self.log_table @ counts.T, axis=0)

    def _scores(self, counts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        logp = np.log(np.clip(self.model.probability_table(xs), _LOG_FLOOR, None))
        return np.einsum("ro,ro->r", counts, logp)

    def estimate(
        self, counts: np.ndarray, xtol: float = 1e-8, peaks: np.ndarray | None = None
    ) -> np.ndarray:
        """Maximum-likelihood estimates, one per row of ``counts``; a single
        count vector is a batch of one.

        ``peaks`` holds each row's best grid index (found here when omitted).
        All rows run the scalar golden-section search in lockstep on the grid
        bracket around their peak, with the same comparison and the same stop
        at width ``xtol``; a row stops once its bracket is that narrow (edge
        brackets start half as wide, so they stop first).
        """
        counts = np.atleast_2d(np.asarray(counts, dtype=float))
        peaks = self.grid_peaks(counts) if peaks is None else peaks
        a = self.xs[np.maximum(peaks - 1, 0)]
        b = self.xs[np.minimum(peaks + 1, len(self.xs) - 1)]
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = self._scores(counts, c), self._scores(counts, d)
        active = np.flatnonzero(b - a > xtol)
        while active.size:
            left = fc[active] > fd[active]
            lt, rt = active[left], active[~left]
            b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
            c[lt] = b[lt] - _GOLDEN * (b[lt] - a[lt])
            a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
            d[rt] = a[rt] + _GOLDEN * (b[rt] - a[rt])
            scores = self._scores(counts[active], np.where(left, c[active], d[active]))
            fc[lt], fd[rt] = scores[left], scores[~left]
            active = active[b[active] - a[active] > xtol]
        return 0.5 * (a + b)


def _fold_free_interval(
    model: MeasurementModel, x_true: float, grid_points: int = 1024
) -> tuple[float, float]:
    """The default search interval: x_true +/- pi/2 on a ``grid_points`` grid,
    cut one grid point short of the first fold on each side.

    A fold lies between consecutive grid points whose dp/dx vectors reverse
    (negative dot product).  Past a fold the probabilities retrace values
    from before it, so the likelihood has a mirror maximum there.  Raises
    :class:`DegenerateModelError` when a fold lies within one grid step of
    x_true.
    """
    xs = np.linspace(x_true - math.pi / 2.0, x_true + math.pi / 2.0, grid_points)
    dp = model.derivative_table(xs)
    folds = np.flatnonzero(np.einsum("io,io->i", dp[:-1], dp[1:]) < 0.0)
    left, right = folds[xs[folds] < x_true], folds[xs[folds + 1] > x_true]
    lo = xs[left[-1] + 1] if left.size else xs[0]
    hi = xs[right[0]] if right.size else xs[-1]
    if min(hi - x_true, x_true - lo) < xs[1] - xs[0]:
        raise DegenerateModelError(
            f"the outcome distribution folds within one grid step of x_true = {x_true}"
        )
    return float(lo), float(hi)


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
    return float(machine.estimate(_counts_vector(counts, model.labels), xtol)[0])


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
    probability_floor: float = Tolerances.probability_floor,
) -> EstimationResult:
    """Simulate ``trials`` experiments of ``shots`` readouts each at x_true.

    Statistics are meaningful from about a hundred trials up.  The default
    search interval is x_true +/- pi/2, cut one grid point short of the
    first fold of the outcome distribution on each side (the one-qubit
    optimal probe's p(+|x) = (1 - sin x)/2 folds at +/- pi/2, where x and
    pi - x read the same); a fold within one grid step of x_true raises
    :class:`DegenerateModelError`.  An explicit ``search_interval`` is used
    as given.  ``probability_floor`` applies to the identifiability check as
    in the Fisher sum.

    Each trial costs one sort of its uniforms, one ``searchsorted`` and one
    grid product; one lockstep golden-section search then refines all
    3 * trials estimates (see the module docstring for the memory rule).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if search_interval is None:
        search_interval = _fold_free_interval(model, x_true, grid_points)
    machine = _LikelihoodMachine(model, search_interval, grid_points, probability_floor)
    probs = model.probability_table(np.array([x_true - slope_step, x_true, x_true + slope_step]))
    counts = np.empty((3, trials, probs.shape[1]))
    peaks = np.empty((3, trials), dtype=int)
    base = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(base + [t]))
        counts[:, t] = _draw_counts(probs, np.sort(rng.random(shots)))
        peaks[:, t] = machine.grid_peaks(counts[:, t])
    rows = counts.reshape(3 * trials, -1)
    estimates = machine.estimate(rows, peaks=peaks.ravel()).reshape(3, trials)
    slope = float((np.mean(estimates[2]) - np.mean(estimates[0])) / (2.0 * slope_step))
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
        degenerate = f_classical <= FISHER_FLOOR
        bound, delta_x = math.inf, math.nan
        if not degenerate:
            bound = cramer_rao_bound(f_classical, shots)
            model = MeasurementModel(generator, state, basis)
            delta_x = uncertainty_run(
                model, x_true, shots, trials, [seed, n], probability_floor=tol.probability_floor
            ).delta_x
        rows.append(
            ScalingRow(
                n=n, f_classical=f_classical, f_quantum=f_quantum,
                bound=bound, delta_x_empirical=delta_x, degenerate=degenerate,
            )
        )
    return rows
