"""Output checker for probelab reports.

Each check returns a list of problems.  A problem is either an *invariant*
(the report is wrong or malformed: the task counts as failed) or a *quality*
finding (the report is self-consistent but the science result is poor, such
as an estimate far off the Cramer-Rao bound).  A task passes when it has no
problems of either kind.  A scaling report is one result per row, since
each row is its own simulation; every other report is one result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

#: Relative slack for comparisons of values the report rounds to 12 digits.
REL = 1e-9
#: Absolute slack for quantities that are zero in exact arithmetic.
ABS = 1e-9
#: An estimate counts as near the bound when bound/K <= delta_x <= K*bound.
DELTA_X_FACTOR = 3.0


@dataclass(frozen=True)
class Problem:
    kind: str  # "invariant" or "quality"
    message: str
    unit: int = 0  # which result of the report (scaling row index)


@dataclass
class Checked:
    """A checked task: its problems plus the science numbers it reported."""

    problems: list
    delta_x_ratios: list
    qfi_ratio: float | None = None
    units: int = 1

    @property
    def failed(self) -> bool:
        return any(p.kind == "invariant" for p in self.problems)

    @property
    def passed(self) -> bool:
        return not self.problems

    @property
    def passed_units(self) -> int:
        return self.units - len({p.unit for p in self.problems})


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b)) + ABS


def _finite(problems: list, **values: float) -> None:
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(Problem("invariant", f"{name} is not a finite number: {value!r}"))


def _check_bound(problems: list, f_classical: float, bound: float, shots: int) -> None:
    expected = 1.0 / math.sqrt(shots * f_classical) if f_classical > 0 else math.inf
    if math.isinf(expected) or math.isinf(bound):
        ok = expected == bound
    else:
        ok = _close(bound, expected)
    if not ok:
        problems.append(
            Problem("invariant", f"bound {bound!r} != 1/sqrt(shots*F_C) = {expected!r}")
        )


def _check_fisher_pair(problems: list, f_classical: float, f_quantum: float) -> None:
    if not -ABS <= f_classical <= f_quantum * (1 + REL) + ABS:
        problems.append(
            Problem("invariant", f"need 0 <= F_C <= F_Q, got F_C={f_classical} F_Q={f_quantum}")
        )


def closed_form(generator: str, state_kind: str, n: int) -> dict | None:
    """Known (F_C, F_Q, saturated) of the built-in probes at x = 0, else None.

    The non-entangling tensor probe gives F_C = F_Q = n.  Under the
    entangling generator the tensor probe has F_Q = 1 and saturates only for
    odd n (even n gives pure-imaginary eigenvalue ratios and F_C = 0); the
    cat probe has F_C = 0, with F_Q = 1 for odd n and 0 for even n.
    """
    if state_kind == "optimal_single_tensor":
        if generator == "nonentangling":
            return {"f_classical": n, "f_quantum": n, "saturated": True}
        odd = n % 2 == 1
        return {"f_classical": 1 if odd else 0, "f_quantum": 1, "saturated": odd}
    if state_kind == "cat" and generator == "entangling":
        return {"f_classical": 0, "f_quantum": n % 2, "saturated": n % 2 == 0}
    return None


def _check_closed_form(problems: list, config: dict, values: dict) -> None:
    state = config.get("state") or "optimal_single_tensor"
    kind = state if isinstance(state, str) else state["kind"]
    expected = closed_form(config.get("generator", "nonentangling"), kind,
                           values.get("n", config.get("n_qubits", 1)))
    if expected is None:
        return
    for key, want in expected.items():
        if key not in values:
            continue
        got = values[key]
        ok = got is want if isinstance(want, bool) else _close(got, want)
        if not ok:
            problems.append(Problem("invariant", f"{key} = {got!r}, closed form gives {want!r}"))


def _check_delta_x(problems: list, ratios: list, label: str, delta_x, bound) -> None:
    _finite(problems, **{f"{label}delta_x": delta_x})
    if not (isinstance(delta_x, (int, float)) and math.isfinite(delta_x) and bound > 0):
        return
    ratio = delta_x / bound
    ratios.append(ratio)
    if not 1.0 / DELTA_X_FACTOR <= ratio <= DELTA_X_FACTOR:
        problems.append(
            Problem("quality", f"{label}delta_x/bound = {ratio:.4g}, outside "
                               f"[1/{DELTA_X_FACTOR:g}, {DELTA_X_FACTOR:g}]")
        )


def _fisher(report: dict, checked: Checked) -> None:
    res, cfg, problems = report["result"], report["config"], checked.problems
    f_c, f_q = res["classical_fisher"], res["quantum_fisher"]
    _finite(problems, F_C=f_c, F_Q=f_q, im_condition_max=res["im_condition_max"],
            diagonal_residual=res["diagonal_residual"])
    for entry in res["inv_lambdas"]:
        _finite(problems, inv_lambda_real=entry["real"], inv_lambda_imag=entry["imag"])
    _check_fisher_pair(problems, f_c, f_q)
    _check_bound(problems, f_c, res["bound"], cfg.get("shots", 10**4))
    _check_closed_form(problems, cfg, {"f_classical": f_c, "f_quantum": f_q,
                                       "saturated": res["saturated"]})


def _simulate(report: dict, checked: Checked) -> None:
    res, cfg, problems = report["result"], report["config"], checked.problems
    f_c = res["classical_fisher"]
    _finite(problems, x_hat=res["x_hat"], slope=res["slope"], F_C=f_c)
    if not f_c > 0:
        problems.append(Problem("invariant", f"simulated probe has F_C = {f_c!r}"))
        return
    _check_bound(problems, f_c, res["bound"], res["shots"])
    _check_closed_form(problems, cfg, {"f_classical": f_c})
    _check_delta_x(problems, checked.delta_x_ratios, "", res["delta_x"], res["bound"])


def _scaling(report: dict, checked: Checked) -> None:
    cfg = report["config"]
    rows = report["result"]["rows"]
    checked.units = len(rows)
    for index, row in enumerate(rows):
        problems = []
        label = f"n={row['n']}: "
        f_c, f_q = row["f_classical"], row["f_quantum"]
        _finite(problems, **{f"{label}F_C": f_c, f"{label}F_Q": f_q})
        _check_fisher_pair(problems, f_c, f_q)
        _check_closed_form(problems, cfg, {"n": row["n"], "f_classical": f_c, "f_quantum": f_q})
        if not row["degenerate"]:
            _check_bound(problems, f_c, row["bound"], cfg.get("shots", 10**4))
            _check_delta_x(problems, checked.delta_x_ratios, label, row["delta_x_empirical"],
                           row["bound"])
        checked.problems += [Problem(p.kind, p.message, index) for p in problems]


def max_qfi(generator: str, n: int) -> float:
    """Largest QFI any probe reaches: (spread of the generator spectrum)^2."""
    return float(n * n) if generator == "nonentangling" else 1.0


def _solve(report: dict, checked: Checked) -> None:
    res, cfg, problems = report["result"], report["config"], checked.problems
    tol = report["tolerances"]["solution_residual"]
    ceiling = max_qfi(cfg.get("generator", "nonentangling"), cfg["n_qubits"])
    _finite(problems, best_residual=res["best_residual"])
    if res["feasible"] != bool(res["solutions"]):
        problems.append(Problem("invariant", "feasible flag disagrees with the solution list"))
    best = 0.0
    for index, sol in enumerate(res["solutions"]):
        label = f"solution {index}: "
        _finite(problems, **{f"{label}qfi": sol["qfi"], f"{label}residual": sol["residual"],
                             f"{label}purity": sol["purity"]})
        if not sol["residual"] <= tol:
            problems.append(Problem("invariant", f"{label}residual {sol['residual']!r} > {tol!r}"))
        if not -ABS <= sol["qfi"] <= ceiling * (1 + REL) + ABS:
            problems.append(Problem("invariant", f"{label}qfi {sol['qfi']!r} outside [0, {ceiling}]"))
        if not sol["purity"] <= 1 + REL:
            problems.append(Problem("invariant", f"{label}purity {sol['purity']!r} > 1"))
        best = max(best, sol["qfi"])
    checked.qfi_ratio = best / ceiling


_CHECKERS = {"fisher": _fisher, "simulate": _simulate, "scaling": _scaling, "solve": _solve}


def check(command: str, exit_code: int, text: str) -> Checked:
    """Check one task's exit code and report text."""
    checked = Checked(problems=[], delta_x_ratios=[])
    if exit_code != 0:
        checked.problems.append(Problem("invariant", f"exit code {exit_code}"))
        return checked
    try:
        report = json.loads(text)
        if report.get("task") != command:
            raise ValueError(f"report is for task {report.get('task')!r}")
        _CHECKERS[command](report, checked)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        checked.problems.append(Problem("invariant", f"malformed report: {exc!r}"))
    return checked
