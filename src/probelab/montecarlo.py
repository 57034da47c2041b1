"""Monte Carlo simulation of the full protocol: prepare, evolve, read out,
estimate, and empirically verify the uncertainty bound.

The reported uncertainty is the units-corrected root-mean-squared deviation

    delta_x = rms over trials of ( x_est / |d<x_est>/dx| - x_true ),

with the slope estimated by a central finite difference of the mean estimate
at x_true +/- h, h = ``SLOPE_STEP``.  No unbiasedness assumption is made.

Likelihood model: for a generator with stored spectrum h the outcome
probabilities are an exact trigonometric polynomial in x,
p(x) = Re(exp(-i x omega) @ C), over the distinct differences omega of h,
with C built without an eigendecomposition (see :class:`MeasurementModel`).
Outcomes whose columns of C are exactly equal form one outcome class: they
share one likelihood function, and their counts enter it only through their
sum.  The built-in probes of identical qubits have few classes (the n=10
tensor probe's 1,024 outcomes fall into 11 Hamming weights), and the model
keeps one column of C per class: a batch of x costs one (points x
frequencies) @ (frequencies x classes) product, and per-outcome values are
gathered from it.  The likelihood grid, the grid peaks and the refinement
run on class counts; sampling, the Fisher information, the fold scan and
:func:`log_likelihood` sum per outcome over the gathered values.

Estimator cost per trial: one in-place sort of the ``shots`` uniforms and
one ``searchsorted`` of the 3 x d cumulative tables (built once) into them.
The counts between the edges, and their exact sums into classes, are taken
once per block of trials whose (3 x trials x d) edges fill about 200 KB.
After the trial loop the grid peaks of all 3 * trials count rows are found a
block of about 200 KB of scores at a time, and one lockstep golden-section
search refines all 3 * trials brackets together, about 30 batched
likelihood evaluations over the rows still active.  Memory stays at one
trial's uniforms, one block of edges and the (3 * trials x classes) counts:
no (3 * trials x grid) score matrix, no (trials x d) count table and no
(trials x shots) uniform matrix is ever formed.

Randomness contract: every trial draws from its own substream derived from
(seed, trial index) via :class:`numpy.random.SeedSequence`, so results are
identical for any degree of trial parallelism.  Within a trial the same
uniform draws generate the readouts at x_true and at the two slope offsets
(common random numbers), which reduces the variance of the slope estimate.
It does not remove it: the slope's sampling error still enters ``delta_x``
as ``x_true (1/|slope| - 1)``, and on the n=8 tensor probe with 50 trials 4
of 30 seeds land above 3x the bound.  This is a known defect of the
estimator: ``SLOPE_STEP`` = 0.05 brought that count to 0 of 30, and a slope
with no sampling error would remove it, but either changes every reported
``delta_x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dynamics import Generator, ReadoutBasis, probability_vector
from .errors import DegenerateModelError, DimensionError, ValidationError
from .fisher import _fisher_sum, analyze, cramer_rao_bound
from .operators import Tolerances
from .states import DensityMatrix

#: Classical Fisher information below this leaves the model unidentifiable.
FISHER_FLOOR = 1e-10
#: Half-width h of the central difference that estimates the slope d<x_est>/dx.
SLOPE_STEP = 0.01
#: Points of the likelihood grid and of the fold scan over the search interval.
GRID_POINTS = 1024

_LOG_FLOOR = 1e-300
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Scores (grid points x count rows) formed at once by ``grid_peaks``: 200 KB.
_PEAK_BLOCK = 25_000
#: Edges (count rows x trials x outcomes) the trial loop holds at once: 200 KB.
_COUNT_BLOCK = 25_000


def _finite(name: str, value: float) -> float:
    """``value`` as a float; refuses NaN and +/-inf with an error that names it."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return float(value)


def _search_grid(
    lo: float, hi: float, subject: str, span: str, points: int = GRID_POINTS
) -> np.ndarray:
    """``np.linspace(lo, hi, points)``, refused with an error naming ``subject``
    when float64 cannot resolve it (its points do not increase)."""
    xs = np.linspace(lo, hi, points)
    if not np.all(xs[1:] > xs[:-1]):
        raise ValidationError(
            f"{subject}: float64 cannot resolve the {points}-point search grid over {span}"
        )
    return xs


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Normalised cumulative table of each row of ``probs``, ending at exactly 1."""
    cum = np.cumsum(probs / probs.sum(axis=-1, keepdims=True), axis=-1)
    cum[..., -1] = 1.0
    return cum


def _draw_counts(cum: np.ndarray, u_sorted: np.ndarray) -> np.ndarray:
    """Outcome counts of the sorted uniforms ``u_sorted``: outcome k for each
    u in [cum[k-1], cum[k]) of the cumulative table ``cum``.

    ``cum`` may hold one table per row; each row is counted against the same
    uniforms.
    """
    return _edge_counts(np.searchsorted(u_sorted, cum, side="left"))


def _edge_counts(edges: np.ndarray) -> np.ndarray:
    """The counts between consecutive ``searchsorted`` edges along the last
    axis, in place: edges[k] - edges[k-1], and edges[0] for the first."""
    edges[..., 1:] -= edges[..., :-1].copy()
    return edges


def sample_readout(
    state_at_x: DensityMatrix, basis: ReadoutBasis, shots: int, seed: int
) -> dict[str, int]:
    """Multinomial draw of ``shots`` readouts from the outcome distribution:
    outcome label -> count, every label present and the counts summing to
    ``shots``.  Deterministic per seed."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    cum = _cumulative(probability_vector(basis, state_at_x))
    drawn = _draw_counts(cum, np.sort(np.random.default_rng(seed).random(shots)))
    return {label: int(c) for label, c in zip(basis.labels, drawn)}


class MeasurementModel:
    """A fixed (generator, initial state, readout) triple.

    With H = diag(h), the outcome probabilities are the exact trigonometric
    polynomial p(x) = Re(exp(-i x omega) @ C).  The frequencies omega are the
    distinct differences of the distinct eigenvalues, grouped by exact float
    equality: 2n+1 of them for the non-entangling generator, 3 for the
    entangling one and at most d^2 - d + 1 for a generic spectrum.  Row j of
    C is the readout diagonal of M_j o rho with M_j the mask
    h_k - h_l = omega_j, all rows from one O(d^2) pass over rho on the
    |+>/|-> readout (:meth:`ReadoutBasis.diagonals`).  The exact derivative
    dp/dx multiplies C by -i omega.

    ``classes[k]`` numbers the outcome class of outcome k, in order of first
    appearance: outcomes share a class exactly when their columns of C are
    equal, with no tolerance, so the map is the identity when no columns
    merge.  Only the first column of each class is kept: the per-outcome
    tables gather the class tables through ``classes``.
    """

    def __init__(
        self, generator: Generator, initial_state: DensityMatrix, basis: ReadoutBasis
    ):
        if generator.n_qubits != initial_state.n_qubits or basis.dim != initial_state.dim:
            raise DimensionError("generator, state and basis dimensions differ")
        self.generator = generator
        self.initial_state = initial_state
        self.basis = basis
        levels, level_of = np.unique(generator.spectrum, return_inverse=True)
        self._omega, group = np.unique(np.subtract.outer(levels, levels), return_inverse=True)
        group = group.reshape(len(levels), -1)[level_of[:, None], level_of[None, :]]
        coeffs = basis.diagonals(initial_state.matrix, group, len(self._omega))
        self.classes, firsts = _column_classes(coeffs)
        self._columns = coeffs if len(firsts) == len(self.classes) else coeffs[:, firsts]

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
        return self.class_table(xs)[:, self.classes]

    def class_table(self, xs: np.ndarray) -> np.ndarray:
        """Probabilities of one outcome of each class, shape (len(xs), classes)."""
        return np.clip(self._polynomial(xs, self._columns), 0.0, None)

    def class_counts(self, counts: np.ndarray) -> np.ndarray:
        """Per-outcome counts, one row per experiment, summed into the outcome
        classes: shape (rows, classes), exact for integer counts."""
        counts = np.atleast_2d(counts)
        size = self._columns.shape[1]
        keys = (np.arange(len(counts))[:, None] * size + self.classes).ravel()
        sums = np.bincount(keys, counts.ravel(), len(counts) * size)
        return sums.reshape(len(counts), size)

    def derivative_table(self, xs: np.ndarray) -> np.ndarray:
        """Exact dp/dx on a grid, shape (len(xs), outcomes)."""
        return self._polynomial(xs, -1j * self._omega[:, None] * self._columns)[:, self.classes]

    def fisher_at(
        self, x: float, *, probability_floor: float = Tolerances.probability_floor
    ) -> float:
        """Classical Fisher information of the readout at parameter value x, from
        the model's p and exact dp/dx with the floor rule of ``classical_fisher``."""
        xs = np.array([_finite("x", x)])
        p, dp = self.probability_table(xs)[0], self.derivative_table(xs)[0]
        return _fisher_sum(self.labels, p, dp, probability_floor)


def _column_classes(coeffs: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The class of each column of ``coeffs``, numbered in order of first
    appearance, and the index of each class's first column.

    Columns share a class exactly when their bytes are equal, after + 0.0
    turns -0.0 into 0.0.  Classes are found by the hash of those bytes and
    confirmed by comparing them, so the bytes of only one column at a time
    are held, not those of the whole table.
    """
    by_hash: dict[int, list[int]] = {}
    firsts: list[int] = []
    classes = np.empty(coeffs.shape[1], dtype=int)
    for k, column in enumerate(coeffs.T):
        key = (column + 0.0).tobytes()
        candidates = by_hash.setdefault(hash(key), [])
        for c in candidates:
            if (coeffs[:, firsts[c]] + 0.0).tobytes() == key:
                break
        else:
            c = len(firsts)
            candidates.append(c)
            firsts.append(k)
        classes[k] = c
    return classes, firsts


def _counts_vector(counts, labels: Sequence[str]) -> np.ndarray:
    """Counts aligned with ``labels``; refuses unknown labels and counts that
    are negative or not finite."""
    if isinstance(counts, Mapping):
        known = set(labels)
        for label in counts:
            if label not in known:
                raise ValidationError(f"counts name an unknown outcome label {label!r}")
        arr = np.array([float(counts.get(label, 0)) for label in labels])
    else:
        arr = np.asarray(counts, dtype=float)
        if arr.shape != (len(labels),):
            raise DimensionError("counts do not match the outcome labels")
    bad = np.flatnonzero(~(np.isfinite(arr) & (arr >= 0.0)))
    if bad.size:
        label, value = labels[bad[0]], arr[bad[0]]
        raise ValidationError(f"count {value} of outcome {label!r} is not finite and >= 0")
    return arr


def _log_likelihoods(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_columns n * ln p for each row n of ``counts`` and row p of ``table``."""
    logp = np.log(np.clip(table, _LOG_FLOOR, None))
    # einsum, not BLAS: each row's sum then does not depend on the batch size.
    return np.einsum("ro,ro->r", counts, logp)


def log_likelihood(counts, model: MeasurementModel, x: float) -> float:
    """Multinomial log likelihood sum_outcomes n * ln p(outcome | x)."""
    n = _counts_vector(counts, model.labels)
    p = model.probability_table(np.array([_finite("x", x)]))
    return float(_log_likelihoods(n[None, :], p)[0])


class _LikelihoodMachine:
    """Grid log-probability table plus lockstep golden-section refinement, both
    on the model's outcome classes: ``grid_peaks`` and ``estimate`` take class
    counts (:meth:`MeasurementModel.class_counts`).

    The search interval is a declared configuration: the likelihood must not
    fold inside it, float64 must resolve its grid (``_search_grid``) and carry
    digits of its phases x omega (their spacing at the far end stays below
    the period 2 pi), and identifiability at its midpoint is checked once at
    construction, with ``probability_floor`` as in the Fisher sum.
    """

    def __init__(
        self,
        model: MeasurementModel,
        search_interval: tuple[float, float],
        grid_points: int = GRID_POINTS,
        probability_floor: float = Tolerances.probability_floor,
    ):
        lo, hi = (_finite("search interval end", end) for end in search_interval)
        if not 0.0 < hi - lo < math.inf:
            raise ValidationError("search interval must have a positive, finite width")
        self.model = model
        self.xs = _search_grid(lo, hi, "search interval", f"({lo!r}, {hi!r})", grid_points)
        phase = max(abs(lo), abs(hi)) * float(np.max(np.abs(model._omega)))
        if not math.ulp(phase) < 2.0 * math.pi:  # an overflow to inf is refused too
            raise ValidationError(
                f"search interval ({lo!r}, {hi!r}): float64 carries no digit of the phases "
                f"x omega there (|x| max|omega| = {phase:.3g})"
            )
        table = model.class_table(self.xs)
        mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) bit for bit, but cannot overflow
        if np.max(np.abs(table - model.class_table(np.array([mid])))) <= 1e-12:
            raise DegenerateModelError(
                "outcome probabilities are constant over the search interval"
            )
        fisher_center = model.fisher_at(mid, probability_floor=probability_floor)
        if fisher_center <= FISHER_FLOOR:
            raise DegenerateModelError(
                f"classical Fisher information {fisher_center:.3e} at the interval "
                f"midpoint carries no information about the parameter"
            )
        self.log_table = np.log(np.clip(table, _LOG_FLOOR, None))

    def grid_peaks(self, counts: np.ndarray) -> np.ndarray:
        """Index of the best grid point for each row of class ``counts``, found
        a block of about ``_PEAK_BLOCK`` scores at a time."""
        step = max(1, _PEAK_BLOCK // len(self.xs))
        return np.concatenate([
            np.argmax(self.log_table @ counts[i : i + step].T, axis=0)
            for i in range(0, len(counts), step)
        ])

    def estimate(self, counts: np.ndarray, xtol: float = 1e-8) -> np.ndarray:
        """Maximum-likelihood estimates, one per row of class ``counts``; a
        single count vector is a batch of one.

        All rows run the scalar golden-section search in lockstep on the grid
        bracket around their peak, with the same comparison and the same stop
        at width ``xtol``; a row stops once its bracket is that narrow (edge
        brackets start half as wide, so they stop first), or once its state
        (bracket, points and scores) is the one of two steps before.  That
        happens past |x| of about 2^26, where the float spacing exceeds
        ``xtol``: a bracket between adjacent floats cannot shrink, and its
        golden points round onto its ends and cycle.  A repeated state
        repeats for ever, so every search that stopped at ``xtol`` stops
        there still.

        Only the active rows are kept: a round updates them with ``np.where``
        and writes the rows that stop into the result.
        """
        counts = np.atleast_2d(np.asarray(counts, dtype=float))

        def score(counts, xs):
            return _log_likelihoods(counts, self.model.class_table(xs))

        peaks = self.grid_peaks(counts)
        a = self.xs[np.maximum(peaks - 1, 0)]
        b = self.xs[np.minimum(peaks + 1, len(self.xs) - 1)]
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        result = 0.5 * a + 0.5 * b
        rows = np.flatnonzero(b - a > xtol)
        counts, a, b, c, d = counts[rows], a[rows], b[rows], c[rows], d[rows]
        state = np.array([a, b, c, d, score(counts, c), score(counts, d)])
        # the state two steps back
        back = np.full(state.shape, np.nan)
        while rows.size:
            a, b, c, d, fc, fd = state
            left = fc > fd
            a2, b2 = np.where(left, a, c), np.where(left, d, b)
            c2 = np.where(left, b2 - _GOLDEN * (b2 - a), d)
            d2 = np.where(left, c, a2 + _GOLDEN * (b - a2))
            f = score(counts, np.where(left, c2, d2))
            new = np.array([a2, b2, c2, d2, np.where(left, f, fd), np.where(left, fc, f)])
            keep = (b2 - a2 > xtol) & ~(new == back).all(axis=0)
            back, state = state, new
            if not keep.all():
                result[rows[~keep]] = (0.5 * a2 + 0.5 * b2)[~keep]
                rows, counts, state, back = rows[keep], counts[keep], state[:, keep], back[:, keep]
        return result


def _fold_free_interval(model: MeasurementModel, x_true: float) -> tuple[float, float]:
    """The search interval of :func:`uncertainty_run`: x_true +/- pi/2 on a
    ``GRID_POINTS`` grid, cut one grid point short of the first fold on each
    side.

    A fold lies between consecutive grid points whose dp/dx vectors reverse
    (negative dot product).  Past a fold the probabilities retrace values
    from before it, so the likelihood has a mirror maximum there.  Raises
    :class:`DegenerateModelError` when a fold lies within one grid step of
    x_true, and :class:`ValidationError` when x_true is not finite or float64
    cannot resolve the grid (|x_true| past 2^44, about 1.8e13, where the float
    spacing exceeds the grid step).
    """
    x_true = _finite("x_true", x_true)
    half = math.pi / 2.0
    xs = _search_grid(x_true - half, x_true + half, f"x_true = {x_true}", "x_true +/- pi/2")
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


def mle_estimate(counts, model: MeasurementModel, search_interval: tuple[float, float]) -> float:
    """Maximum-likelihood estimate: grid scan plus golden-section refinement.

    Raises :class:`DegenerateModelError` when the outcome distribution is flat
    over the interval or carries no local information at its midpoint, and
    :class:`ValidationError` when float64 cannot hold or resolve the interval.
    """
    machine = _LikelihoodMachine(model, search_interval)
    return float(machine.estimate(model.class_counts(_counts_vector(counts, model.labels)))[0])


def _trial_counts(
    model: MeasurementModel, cum: np.ndarray, shots: int, trials: int,
    seed: int | Sequence[int],
) -> np.ndarray:
    """Class counts of every trial against each row of ``cum``, shape
    (len(cum), trials, classes).

    Trial t sorts the ``shots`` uniforms of its own substream (seed, t) in
    place and finds the edges of every row of ``cum`` among them with one
    ``searchsorted``; the counts between the edges (:func:`_edge_counts`)
    and their class sums are taken once per block of trials, whose edges fill
    about ``_COUNT_BLOCK`` entries, so no (trials x outcomes) table is formed.
    """
    rows, d = cum.shape
    step = max(1, _COUNT_BLOCK // (rows * d))
    edges = np.empty((rows, min(step, trials), d), dtype=np.intp)
    counts = np.empty((rows, trials, model.classes.max() + 1))
    base = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    for start in range(0, trials, step):
        block = edges[:, : min(step, trials - start)]
        for j in range(block.shape[1]):
            u = np.random.default_rng(np.random.SeedSequence(base + [start + j])).random(shots)
            u.sort()
            block[:, j] = np.searchsorted(u, cum, side="left")
        sums = model.class_counts(_edge_counts(block).reshape(-1, d))
        counts[:, start : start + block.shape[1]] = sums.reshape(rows, block.shape[1], -1)
    return counts


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
    probability_floor: float = Tolerances.probability_floor,
) -> EstimationResult:
    """Simulate ``trials`` experiments of ``shots`` readouts each at x_true.

    Statistics are meaningful from about a hundred trials up.  The search
    interval is x_true +/- pi/2, cut one grid point short of the first fold
    of the outcome distribution on each side (the one-qubit optimal probe's
    p(+|x) = (1 - sin x)/2 folds at +/- pi/2, where x and pi - x read the
    same); a fold within one grid step of x_true raises
    :class:`DegenerateModelError`.  ``probability_floor`` applies to the
    identifiability check as in the Fisher sum.  Each trial only draws; one
    lockstep search after the loop refines all 3 * trials estimates (the
    module docstring gives the cost and the memory rule).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    interval = _fold_free_interval(model, x_true)
    machine = _LikelihoodMachine(model, interval, probability_floor=probability_floor)
    cum = _cumulative(
        model.probability_table(np.array([x_true - SLOPE_STEP, x_true, x_true + SLOPE_STEP]))
    )
    counts = _trial_counts(model, cum, shots, trials, seed)
    estimates = machine.estimate(counts.reshape(3 * trials, -1)).reshape(3, trials)
    slope = float((np.mean(estimates[2]) - np.mean(estimates[0])) / (2.0 * SLOPE_STEP))
    if abs(slope) < 1e-12:
        raise DegenerateModelError("estimator slope vanished; cannot correct units")
    corrected = estimates[1] / abs(slope) - x_true
    delta_x = float(np.sqrt(np.mean(corrected * corrected)))
    return EstimationResult(float(x_true), float(np.mean(estimates[1])), delta_x, slope)


@dataclass(frozen=True)
class ScalingRow:
    """One row of a scaling table over probe sizes."""

    n: int
    f_classical: float
    f_quantum: float
    bound: float
    delta_x_empirical: float
    degenerate: bool


def scaling_experiment(
    probes: Iterable[tuple[Generator, DensityMatrix, ReadoutBasis]],
    shots: int,
    trials: int,
    seed: int,
    *,
    x_true: float = 0.3,
    tol: Tolerances = Tolerances(),
) -> list[ScalingRow]:
    """Fisher information and empirical uncertainty across probe sizes.

    ``probes`` yields one (generator, state, basis) triple per row; the row's
    n is the state's qubit count, and its trials draw from substream
    [seed, n].  Each probe is analyzed with :func:`~probelab.fisher.analyze`
    under ``tol``.

    Rows whose readout carries no information (classical Fisher information at
    the preparation point ~ 0) are flagged degenerate: their bound is infinite
    and no simulation is attempted.
    """
    rows = []
    for generator, state, basis in probes:
        n = state.n_qubits
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
        rows.append(ScalingRow(n, f_classical, f_quantum, bound, delta_x, degenerate))
    return rows
