"""Spans around probelab's public functions, recorded from outside the package.

:func:`install` replaces each traced function at every place it is bound:
the defining module and every ``probelab`` module that imported it by name
(``cli.classical_fisher`` as well as ``fisher.classical_fisher``), so calls
from any caller are seen.  ``scipy.optimize.minimize`` is wrapped as well, to
read ``nfev`` and ``success`` and to time each objective evaluation.

Spans are kept in memory as ``(name, start, end, parent)`` and aggregated at
the end: a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from probelab import config, dynamics, fisher, montecarlo, operators, report, solver, states

#: (span name, owner, attribute): the public functions each layer exposes.
TRACED = (
    ("fisher.classical_fisher", fisher, "classical_fisher"),
    ("fisher.lambda_spectrum", fisher, "lambda_spectrum"),
    ("fisher.check_saturation", fisher, "check_saturation"),
    ("fisher.sld_from_state", fisher, "sld_from_state"),
    ("fisher.quantum_fisher", fisher, "quantum_fisher"),
    ("operators.hermitian_eigen", operators, "hermitian_eigen"),
    ("operators.pauli_expand", operators, "pauli_expand"),
    ("states.tensor_power", states, "tensor_power"),
    ("states.density_matrix", states, "density_matrix"),
    ("dynamics.generator", dynamics, "nonentangling_generator"),
    ("dynamics.generator", dynamics, "entangling_generator"),
    ("dynamics.product_pm_readout", dynamics, "product_pm_readout"),
    ("dynamics.state_derivative", dynamics, "state_derivative"),
    ("dynamics.evolve", dynamics, "evolve"),
    ("montecarlo.MeasurementModel.probabilities", montecarlo.MeasurementModel, "probabilities"),
    ("montecarlo.uncertainty_run", montecarlo, "uncertainty_run"),
    ("solver.search_optimal_state", solver, "search_optimal_state"),
    ("solver.solve_lambdas_given_state", solver, "solve_lambdas_given_state"),
    ("config.parse_config_text", config, "parse_config_text"),
    ("config.state_from_config", config, "state_from_config"),
    ("report.dumps_report", report, "dumps_report"),
)

ROOT = "cli"
MINIMIZE = "solver.minimize"
OBJECTIVE = "solver.objective"
SEARCH = "solver.search_optimal_state"


class Recorder:
    """Spans and counters of one traced pass over a task list."""

    def __init__(self):
        # Finished spans are tuples, which the garbage collector stops
        # tracking; tens of thousands of lists would slow every collection.
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._search_tol: float | None = None

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent, parent_name = stack[-1] if stack else (-1, None)
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(parent_name, args, kwargs, result)
            return result

        return traced

    # Hooks that turn arguments and results into counters.

    def _trials(self, parent_name, args, kwargs, result):
        self.counters["trials"] += kwargs["trials"] if "trials" in kwargs else args[3]

    def _search_config(self, args, kwargs):
        cfg = kwargs.get("config", args[3] if len(args) > 3 else None)
        self._search_tol = (cfg or solver.SearchConfig()).residual_tol
        return args, kwargs

    def _start_residual(self, parent_name, args, kwargs, result):
        # The search checks each start's end point with one direct call.
        if parent_name == SEARCH:
            self.counters["starts"] += 1
            self.counters["feasible_starts"] += result[1] <= self._search_tol

    def _wrap_objective(self, args, kwargs):
        return (self.wrap(OBJECTIVE, args[0]),) + args[1:], kwargs

    def _minimize_result(self, parent_name, args, kwargs, result):
        self.counters["minimize_calls"] += 1
        self.counters["nfev"] += result.nfev
        self.counters["converged"] += bool(result.success)

    def run_root(self, fn, *args):
        """Call ``fn`` (the CLI entry point) under the root span."""
        return self.wrap(ROOT, fn)(*args)

    def install(self) -> list:
        """Patch every binding of the traced functions; returns the undo list."""
        hooks = {
            "montecarlo.uncertainty_run": (None, self._trials),
            SEARCH: (self._search_config, None),
            "solver.solve_lambdas_given_state": (None, self._start_residual),
        }
        modules = [m for k, m in sys.modules.items() if k == "probelab" or k.startswith("probelab.")]
        undo = []
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, *hooks.get(name, (None, None)))
            sites = [owner] + [m for m in modules if m is not owner]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        undo.append((site, key, value))
                        setattr(site, key, wrapped)
        optimize = solver.optimize
        undo.append((optimize, "minimize", optimize.minimize))
        optimize.minimize = self.wrap(
            MINIMIZE, optimize.minimize, self._wrap_objective, self._minimize_result
        )
        return undo


def uninstall(undo: list) -> None:
    for site, key, value in reversed(undo):
        setattr(site, key, value)


def layer_totals(spans: list[tuple]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, self seconds, inclusive seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start - child[index]
        entry[2] += end - start
    return {name: tuple(v) for name, v in totals.items()}


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see ``PER_LAYER``)."""
    totals = layer_totals(recorder.spans)
    c = recorder.counters

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    out = {}
    for name, unit in PER_LAYER:
        layer, _, suffix = name.rpartition(".")
        if suffix == "calls":
            out[name] = calls(layer)
        elif suffix == "s":
            out[name] = self_s(layer)
    objective = totals.get(OBJECTIVE, (0, 0.0, 0.0))
    out.update({
        "montecarlo.probabilities_per_trial": _frac(
            calls("montecarlo.MeasurementModel.probabilities"), c["trials"]),
        "solver.nfev": c["nfev"],
        "solver.objective_us": 1e6 * _frac(objective[2], objective[0]),
        "solver.converged_frac": _frac(c["converged"], c["minimize_calls"]),
        "solver.feasible_frac": _frac(c["feasible_starts"], c["starts"]),
        "cli.unattributed_s": self_s(ROOT),
    })
    return out


#: Per-layer metric names and units, in report order.
PER_LAYER = (
    ("fisher.classical_fisher.calls", "count"),
    ("fisher.classical_fisher.s", "s"),
    ("fisher.lambda_spectrum.calls", "count"),
    ("fisher.lambda_spectrum.s", "s"),
    ("fisher.check_saturation.s", "s"),
    ("fisher.sld_from_state.calls", "count"),
    ("fisher.sld_from_state.s", "s"),
    ("fisher.quantum_fisher.s", "s"),
    ("operators.hermitian_eigen.calls", "count"),
    ("operators.hermitian_eigen.s", "s"),
    ("montecarlo.MeasurementModel.probabilities.calls", "count"),
    ("montecarlo.MeasurementModel.probabilities.s", "s"),
    ("montecarlo.probabilities_per_trial", "calls/trial"),
    ("montecarlo.uncertainty_run.s", "s"),
    ("solver.search_optimal_state.s", "s"),
    ("solver.minimize.s", "s"),
    ("solver.nfev", "count"),
    ("solver.objective_us", "us"),
    ("solver.converged_frac", "ratio"),
    ("solver.solve_lambdas_given_state.calls", "count"),
    ("solver.solve_lambdas_given_state.s", "s"),
    ("solver.feasible_frac", "ratio"),
    ("operators.pauli_expand.calls", "count"),
    ("operators.pauli_expand.s", "s"),
    ("states.tensor_power.s", "s"),
    ("states.density_matrix.calls", "count"),
    ("states.density_matrix.s", "s"),
    ("dynamics.generator.s", "s"),
    ("dynamics.product_pm_readout.s", "s"),
    ("dynamics.state_derivative.s", "s"),
    ("dynamics.evolve.calls", "count"),
    ("dynamics.evolve.s", "s"),
    ("config.parse_config_text.s", "s"),
    ("config.state_from_config.s", "s"),
    ("report.dumps_report.s", "s"),
    ("cli.unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
)
