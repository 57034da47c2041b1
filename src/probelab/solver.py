"""Solve the optimal-probe-state equation for a fixed readout and generator.

The stationarity condition ties a probe state rho, the readout projectors
E(outcome) and the per-outcome inverse eigenvalues u = 1/lambda together:

    (1/2) { sum_outcomes u E,  rho }  =  -i [H, rho].

For a fixed state the equation is linear in the u, so the inner problem is an
exact least-squares solve; the outer search over pure states is a seeded
multi-start L-BFGS-B descent with an exact gradient (:func:`_search_frame`),
driven by :func:`_lbfgsb`, which runs scipy's L-BFGS-B kernel without its
per-evaluation wrapper.

The readout is fixed, so the inner solve (``_fit``, which
``solve_lambdas_given_state`` and the search view) takes one route per kind
of probe:

* a pure probe psi with its ket: a closed form in the readout amplitudes
  phi = V^dagger psi and chi = V^dagger H psi, u_k = p'_k / p_k, the
  classical score, so the diagonal QFI sum_k u_k^2 p_k is the classical
  Fisher information of the readout.  The amplitudes cost one fast
  Walsh-Hadamard transform each on the per-qubit readout, the rest O(d).
  The search objective feeds the same kernel with [V^dagger psi;
  V^dagger (H psi)], one stacked matvec, small in the symmetric sector
  (O(d^2) elsewhere), and its gradient costs one more.
* any other state: with R = V^dagger rho V and T = V^dagger (-i[H, rho]) V
  the operator sum_k u_k E_k is diag(u) and the equation holds entry by
  entry, (u_j + u_k)/2 R_jk = T_jk: d x d normal equations and O(d^2)
  sums for the residual and the QFI, after forming R and T in
  O(d^2 log d) on the per-qubit readout (two d^3 products on any other).

The closed form is the rank-one case of the frame's normal equations.  The
dense (2 d^2 x d) system of one outer product per outcome is kept only in
:mod:`probelab.verify`, as the reference both routes are checked against,
together with the paper's reference routes (the two-qubit K-combination
systems, the closed-form tensor powers and the parity obstruction).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from math import comb

import numpy as np

from .config import SearchConfig
from .dynamics import Generator, ReadoutBasis, _derivative
from .errors import DimensionError
from .fisher import LambdaSpectrum, pure_sld_residual
from .operators import bit_counts
from .states import DensityMatrix, pure_state


def __getattr__(name: str):
    """``solver.optimize`` is ``scipy.optimize``, imported on first use.

    Only :func:`search_optimal_state` needs scipy, and importing
    ``scipy.optimize`` costs more than the rest of a CLI call's start-up.  The
    CLI imports this module only in ``solve`` and ``verify``; even there scipy
    loads with the first search, not with the module (PEP 562).
    """
    if name == "optimize":
        from scipy import optimize

        globals()[name] = optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


NUMERIC_SEARCH = "numeric-search"

#: Decimals of the density-matrix entries that key duplicate search solutions.
DEDUP_DECIMALS = 6

#: An outcome is unconstrained (u = 0) when ||(E_k rho + rho E_k)/2||_F is at
#: most this times max(1, the largest such norm).
UNCONSTRAINED_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Operator-equation residual and the inner linear solve
# ---------------------------------------------------------------------------


def _readout_frame(
    rho: np.ndarray, basis: ReadoutBasis, generator: Generator
) -> tuple[np.ndarray, np.ndarray]:
    """R = V^dagger rho V and T = V^dagger (-i[H, rho]) V.

    There L = sum_k u_k E_k is diag(u), so the equation holds entry by entry:
    (u_j + u_k)/2 R_jk = T_jk.  Each is V^dagger (V^dagger A^dagger)^dagger,
    two applications of :meth:`ReadoutBasis.amplitudes`: O(d^2 log d) on the
    per-qubit readout, two d^3 products on any other.
    """

    def frame(a: np.ndarray) -> np.ndarray:
        return basis.amplitudes(basis.amplitudes(a.conj().T).conj().T)

    return frame(rho), frame(_derivative(generator, rho))


#: (u, unconstrained mask, residual, diagonal QFI) of one fit.
_Fit = tuple[np.ndarray, np.ndarray, float, float]


def _lstsq_lambdas(r: np.ndarray, t: np.ndarray) -> _Fit:
    """Exact least-squares solve of the equation in the readout frame.

    The normal equations of
    (u_j + u_k)/2 R_jk = T_jk over real u are d x d: with W = |R|^2 the
    matrix is (diag(W 1) + W)/2 and the right-hand side has entries
    sum_k Re(conj(R_jk) T_jk).  The square root of the matrix's diagonal is
    ||(E_j rho + rho E_j)/2||_F; an outcome where it vanishes (its projector
    annihilates the state) is unconstrained and gets u = 0.  The rest are
    solved Jacobi-scaled (unit diagonal) by a Cholesky solve: for a PSD state
    the kept block is positive definite, x^T G x >= sum_k W_kk x_k^2 with
    W_kk = R_kk^2 > 0.  A block that Cholesky refuses, or whose smallest pivot
    squared is at most (kept outcomes) x eps, where ``lstsq``'s cut-off would
    begin to drop directions, is solved by ``lstsq``, which takes the
    least-norm solution: only a matrix that is not PSD, or a nearly pure one
    with outcome probabilities near the unconstrained cut-off, comes near
    that.  The residual is
    ||(u_j + u_k)/2 R - T||_F and the QFI tr(L^2 rho) = sum_k u_k^2 R_kk.
    """
    w = (r.conj() * r).real
    row_sums = w.sum(axis=1)
    norms = np.sqrt(0.5 * (row_sums + w.diagonal()))
    unconstrained = norms <= UNCONSTRAINED_RTOL * max(1.0, float(np.max(norms)))
    kept = ~unconstrained
    u = np.zeros(len(norms))
    if kept.any():
        normal = 0.5 * (np.diag(row_sums) + w)
        rhs = (r.conj() * t).real.sum(axis=1)
        scale = 1.0 / norms[kept]
        scaled = normal[np.ix_(kept, kept)] * np.outer(scale, scale)
        from scipy.linalg import cho_factor, cho_solve  # on first use, as ``optimize``

        try:
            factor = cho_factor(scaled, check_finite=False)
            if np.min(factor[0].diagonal()) ** 2 <= len(scaled) * np.finfo(float).eps:
                raise np.linalg.LinAlgError("the kept block is singular in float64")
            solution = cho_solve(factor, scale * rhs[kept])
        except np.linalg.LinAlgError:
            solution, *_ = np.linalg.lstsq(scaled, scale * rhs[kept], rcond=None)
        u[kept] = scale * solution
    residual = float(np.linalg.norm(0.5 * np.add.outer(u, u) * r - t))
    return u, unconstrained, residual, float(u * u @ r.diagonal().real)


def _pure_score(
    phi: np.ndarray, chi: np.ndarray, s: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p, the classical score u and the unconstrained mask of :func:`_pure_fit`
    at the amplitudes phi / sqrt(s) and chi / sqrt(s): u does not depend on s."""
    phi_c = phi.conj()
    q = (phi_c * phi).real
    p = q / s
    # ||(E_k rho + rho E_k) / 2||_F, the root of the normal matrix's diagonal
    col_norms = np.sqrt(0.5 * (p + p * p))
    unconstrained = col_norms <= UNCONSTRAINED_RTOL * max(1.0, col_norms.max())
    u = np.divide(2.0 * (phi_c * chi).imag, q, out=np.zeros(len(q)), where=~unconstrained)
    return p, u, unconstrained


def _pure_fit(phi: np.ndarray, chi: np.ndarray) -> _Fit:
    """Closed-form least squares of the equation for a pure state psi.

    Takes the readout amplitudes phi = V^dagger psi and chi = V^dagger H psi
    and fits in O(d) without forming rho.  This is the rank-one case of
    ``_lstsq_lambdas``: R = phi phi^dagger, so W = p p^T, the normal matrix
    is (diag(p) + p p^T)/2 and its diagonal gives the same unconstrained rule
    on sqrt((p + p^2)/2).  The equations are solved by the classical score
    u_k = p'_k / p_k = 2 Im(conj(phi_k) chi_k) / |phi_k|^2, so the QFI
    sum_k u_k^2 p_k is the classical Fisher information of the readout.  The
    residual is :func:`~probelab.fisher.pure_sld_residual` of
    L = sum_k u_k E_k, whose L psi has readout amplitudes u phi.
    """
    p, u, unconstrained = _pure_score(phi, chi)
    return u, unconstrained, pure_sld_residual(phi, chi, u * phi), float(u * u @ p)


def _fit(state: DensityMatrix, basis: ReadoutBasis, generator: Generator) -> _Fit:
    """The equation for a fixed state: in closed form on the readout
    amplitudes for a state with a ket, in the readout frame otherwise."""
    if not basis.dim == generator.spectrum.size == state.dim:
        raise DimensionError("basis, generator and state dimensions differ")
    if state.ket is None:
        return _lstsq_lambdas(*_readout_frame(state.matrix, basis, generator))
    phi = basis.amplitudes(state.ket)
    return _pure_fit(phi, basis.amplitudes(generator.apply(state.ket)))


def solve_lambdas_given_state(
    state: DensityMatrix, basis: ReadoutBasis, generator: Generator
) -> tuple[LambdaSpectrum, float, float]:
    """Best real inverse eigenvalues for a fixed state, with the residual and
    the diagonal QFI tr(L^2 rho) of L = sum_k u_k E_k."""
    u, unconstrained, residual, qfi = _fit(state, basis, generator)
    values = u.astype(complex)
    values.setflags(write=False)
    return LambdaSpectrum(basis.labels, values, tuple(map(bool, unconstrained))), residual, qfi


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    """A probe state with its inverse-eigenvalue spectrum and diagnostics."""

    state: DensityMatrix
    inv_lambdas: LambdaSpectrum
    residual: float
    qfi: float
    provenance: str


# ---------------------------------------------------------------------------
# Numeric search over probe states (settings: :class:`~probelab.config.SearchConfig`)
# ---------------------------------------------------------------------------

#: The weight w of the search objective's last stage.
PENALTY_WEIGHT = 1e4
#: The stages of each start, as fractions of ``PENALTY_WEIGHT``.
PENALTY_STAGES = (1e-4, 1e-2, 1.0)
#: Solutions within this of the best QFI are all reported.
TIE_TOL = 1e-6
#: L-BFGS-B's ``ftol``: the relative decrease at which a stage stops.
SEARCH_FTOL = 1e-15


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search: near-optimal solutions sorted best first.

    ``solutions`` is empty when no feasible point was found; ``best_residual``
    then carries the smallest residual seen so the failure is inspectable.
    """

    solutions: tuple[Solution, ...]
    n_starts: int
    best_residual: float

    @property
    def feasible(self) -> bool:
        return bool(self.solutions)


def _dedup_key(v: np.ndarray) -> tuple[float, ...]:
    """v v^dagger at unit v, rounded part by part: the state in search coordinates."""
    v = v / np.linalg.norm(v)
    return tuple(np.round(np.outer(v, v.conj()), DEDUP_DECIMALS).view(float).ravel().tolist())


def _search_frame(generator: Generator, basis: ReadoutBasis) -> tuple[tuple, Callable]:
    """The coordinates the search walks: the frame ``(b, b_adj, h, mult)`` of
    :func:`_search_objective` and the lift of a point to the ket.

    b = [fwd; fwd diag(h)] stacks the two amplitude maps of the objective, so
    b z = [phi; chi] for the point z, and b_adj = b^dagger diag([mult; mult])
    pulls a stacked amplitude vector back in one product.  On the per-qubit
    readout with a spectrum that is a function of popcount (both built-in
    generators) the objective is invariant under qubit permutations, so a
    critical point in the permutation-symmetric sector is one of the full
    search.  The sector's coordinates are the n+1 amplitudes c of the Dicke
    kets, psi = E c with psi_k = c_w / sqrt(binom(n, w)) at w = popcount(k).
    There H psi = E (h_w o c), and V^dagger psi takes one value per outcome
    weight v, phi_v = (A c)_v with the Krawtchouk matrix
    A[v, w] = K_w(v) / sqrt(2^n binom(n, w)) of H^(x)n on the sector; each
    phi_v stands for binom(n, v) outcomes, and E^T V pulls an amplitude
    vector back as A^T diag(binom(n, v)).  So fwd = A there, and b is real;
    it is kept complex, since a complex matvec with a complex vector is the
    fastest product numpy has for it.  Any other readout or spectrum is
    searched on the 2^n ket, with fwd = V^dagger and mult = 1.
    """
    n = generator.n_qubits
    weights = bit_counts(n)
    h_w = generator.spectrum[(1 << np.arange(n + 1)) - 1]
    if not (basis.hadamard and np.array_equal(generator.spectrum, h_w[weights])):
        fwd, h, mult, lift = basis.kets.conj().T, generator.spectrum, 1.0, lambda psi: psi
    else:
        mult = np.array([comb(n, w) for w in range(n + 1)], dtype=float)
        krawtchouk = np.array(
            [[sum((-1) ** j * comb(v, j) * comb(n - v, w - j) for j in range(w + 1))
              for w in range(n + 1)] for v in range(n + 1)],
            dtype=float,
        )
        scale = np.sqrt(mult)
        fwd, h, lift = krawtchouk / np.sqrt(2.0**n * mult), h_w, lambda c: (c / scale)[weights]
    b = np.vstack((fwd, fwd * h)).astype(complex)
    b_adj = np.ascontiguousarray(b.conj().T * np.resize(mult, len(b)))
    return (b, b_adj, h, mult), lift


def _search_objective(
    x: np.ndarray, weight: float, b: np.ndarray, b_adj: np.ndarray, h: np.ndarray, mult
) -> tuple[float, np.ndarray]:
    """-F_C + (weight/2)(F_Q - F_C) at psi = z/||z||, x the real and imaginary
    parts of z interleaved, and its gradient in x: -F_C + weight r^2, since
    r^2 = (F_Q - F_C)/2 at :func:`_pure_fit`, over whose kept outcomes
    F_C = sum_k u_k^2 p_k sums.

    With the frame of :func:`_search_frame`, b z = [phi; chi] sqrt(s) at
    s = ||z||^2 = x.x, each amplitude for ``mult`` outcomes; the score u does
    not depend on s, and F_C, F_Q and the gradient's projection each divide by
    s once.  With G = d/dRe + i d/dIm and w the stacked
    [-4i u chi - 2 u^2 phi; 4i u phi]:
    G_psi F_C = b_adj w, G_psi F_Q = 8 (h - 2 <H>) o h psi and
    G_z = (G_psi - Re(psi^dagger G_psi) psi) / ||z||, here all on the
    unnormalised amplitudes, which scale G_psi by sqrt(s).
    """
    z = x.view(complex)
    s = x @ x
    amplitudes = b @ z
    phi, chi = amplitudes[: z.size], amplitudes[z.size :]
    p, u, _ = _pure_score(phi, chi, s)
    f_c = mult * u * u @ p
    hz = h * z
    hx = hz.view(float)
    mean = (x @ hx) / s
    f_q = 4.0 * ((hx @ hx) / s - mean * mean)
    u_phi = u * phi
    g_c = b_adj @ np.concatenate(((-2.0 * u) * (2j * chi + u_phi), 4j * u_phi))
    g = ((4.0 * weight) * ((h - 2.0 * mean) * hz) - (1.0 + 0.5 * weight) * g_c).view(float)
    return -f_c + 0.5 * weight * (f_q - f_c), (g - (x @ g / s) * x) / s


def _lbfgsb(fun, x0, args=(), *, maxfun, gtol, ftol, **_):
    """L-BFGS-B without bounds, as a ``scipy.optimize.minimize`` custom
    method: ``fun(x, *args)`` returns the value and the gradient together.

    This is the reverse-communication loop of scipy's ``_minimize_lbfgsb``
    on its ``setulb`` (m = 10 corrections, maxls = 20 line-search steps,
    maxiter = 15000, factr = ftol / eps; the ``maxfun`` budget is tested at
    each new iteration) with the bookkeeping of its ``ScalarFunction``: the
    start point is evaluated once, a point is evaluated again only when it
    differs from the last evaluated one (``np.array_equal``'s test), and
    ``setulb`` gets a fresh float64 copy of the gradient.  So it walks the
    points of ``minimize(fun, x0, args, method="L-BFGS-B", jac=True)`` bit
    for bit, without that driver's per-evaluation copies, array-API
    conversions and per-call set-up.  ``fun`` must not write to its point.
    ``setulb`` is scipy's private extension (its arguments since scipy 1.15);
    ``tests/test_search_kernel.py`` pins this loop to the public driver.
    """
    from scipy.optimize import OptimizeResult
    from scipy.optimize._lbfgsb import setulb

    m, maxls, maxiter = 10, 20, 15000
    n = x0.size
    x = np.array(x0, dtype=np.float64)
    at = x.copy()
    held, nfev, nit = fun(at, *args), 1, 0
    f, g = np.array(0.0), np.zeros(n)
    nbd, bound = np.zeros(n, np.int32), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    while True:
        g = g.astype(np.float64)
        setulb(m, x, bound, bound, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave,
               maxls, ln_task)
        if task[0] == 3:  # f and g at x
            if not (x == at).all():
                at = x.copy()
                held = fun(at, *args)
                nfev += 1
            f, g = held
        elif task[0] == 1:  # a new iteration
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    return OptimizeResult(x=x, fun=f, nfev=nfev, nit=nit, success=bool(task[0] == 4))


def search_optimal_state(
    generator: Generator,
    basis: ReadoutBasis,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Maximize tr(L^2 rho) over probe states subject to the equation residual.

    Multi-start penalized search over pure states: L-BFGS-B walks the real
    and imaginary parts of an unnormalised point in the coordinates of
    :func:`_search_frame` on :func:`_search_objective` (its inner least
    squares is exact, in closed form), once per stage of ``PENALTY_STAGES``,
    each stage from the last one's end point.  A start's stages share
    ``max_evals`` evaluations; :func:`_lbfgsb` tests the budget between
    iterations, so a start may pass it by one line search (at most 20
    evaluations).  Mixed states are not searched: the QFI
    is convex and a pure state's is 4 Var(H), so no state exceeds the ceiling
    (h_max - h_min)**2; a solution within ``TIE_TOL`` of it is a global
    optimum up to ``residual_tol``, and the defaults reach it up to n = 10.
    Each start's end point is lifted to its ket, fitted once by
    :func:`solve_lambdas_given_state` and must pass ``residual_tol`` to
    count as a solution; one whose ||-i[H, rho]||_F is within
    ``residual_tol`` carries no information (u = 0 solves the equation) and
    is dropped; at a pure end point its square is 2 Var(H) =
    qfi/2 + residual^2, read from the fit.  Starts draw seeded random points,
    so results are reproducible and independent of any parallel scheduling;
    every solution within ``TIE_TOL`` of the best QFI is reported, ordered by
    its :func:`_dedup_key` alone, so digits below the key's never decide it.
    """
    config = config or SearchConfig()
    if basis.n_qubits != generator.n_qubits:
        raise DimensionError("generator and basis act on different numbers of qubits")
    frame, lift = _search_frame(generator, basis)
    # L-BFGS-B refuses a negative factr
    gtol, ftol = (config.simplex_tol, SEARCH_FTOL) if config.simplex_tol >= 0 else (0.0, 0.0)

    # through the module object, so a replaced ``solver.optimize`` is seen
    optimize = sys.modules[__name__].optimize
    rng_root = np.random.SeedSequence(config.seed)
    found: dict[tuple, Solution] = {}
    best_residual = np.inf
    for child in rng_root.spawn(config.n_starts):
        x = np.random.default_rng(child).standard_normal(2 * frame[2].size)
        evals = 0
        for fraction in PENALTY_STAGES:
            if evals >= config.max_evals:
                break
            weight = fraction * PENALTY_WEIGHT
            result = optimize.minimize(
                _search_objective, x, args=(weight, *frame), method=_lbfgsb,
                options={"maxfun": config.max_evals - evals, "gtol": gtol, "ftol": ftol},
            )
            x, evals = result.x, evals + result.nfev
        state = pure_state(lift(x.view(complex)))
        spectrum, residual, qfi = solve_lambdas_given_state(state, basis, generator)
        best_residual = min(best_residual, residual)
        drift = np.sqrt(0.5 * qfi + residual * residual)  # ||-i[H, rho]||_F
        if residual > config.residual_tol or drift <= config.residual_tol:
            continue
        solution = Solution(state, spectrum, residual, qfi, NUMERIC_SEARCH)
        key = _dedup_key(x.view(complex))
        existing = found.get(key)
        if existing is None or solution.qfi > existing.qfi:
            found[key] = solution

    best_qfi = max((sol.qfi for sol in found.values()), default=np.inf)
    kept = tuple(sol for _, sol in sorted(found.items()) if sol.qfi >= best_qfi - TIE_TOL)
    return SearchResult(kept, config.n_starts, float(best_residual))
