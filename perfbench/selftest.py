"""Smoke self-test of the benchmark at tiny sizes (n <= 3).

    python3 perfbench/selftest.py

Checks that ``run.py`` emits exactly the metrics ``BENCHMARK.json`` names,
each with its unit, for every workload in both trace modes; that every
``.calls`` count and ``solver.nfev`` repeat exactly between two traced runs
with the same seed; and that the output checker flags tampered reports.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import probelab.cli as cli  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def require(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def run_tiny(workload: str, trace: int, seed: int = 3) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    require(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}: "
                                  f"{proc.stderr[-500:]}")
    if proc.returncode:
        return None
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_emitted_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    require({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    traced = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload, trace)
            if result is None:
                continue
            label = f"{workload} trace={trace}"
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{label}: result keys {sorted(result)}")
            require(result["correct"] is True and result["failed"] == 0
                    and result["attempted"] >= 1, f"{label}: {result['correct']=} "
                    f"{result['attempted']=} {result['failed']=}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            require(got == want, f"{label}: metric names/units differ: "
                                 f"missing {sorted(set(want) - set(got))}, "
                                 f"extra {sorted(set(got) - set(want))}, "
                                 f"units {[(n, got[n], u) for n, u in want.items() if got.get(n, u) != u]}")
            for name, entry in result["metrics"].items():
                require(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
                        f"{label}: {name} = {entry['value']!r}")
            if trace:
                traced[workload] = result["metrics"]
    # Counts must repeat exactly for the same seed.
    for workload in ("simulate", "solve"):
        again = run_tiny(workload, 1)
        if again is None or workload not in traced:
            continue
        for name, entry in traced[workload].items():
            if name.endswith(".calls") or name == "solver.nfev":
                require(entry["value"] == again["metrics"][name]["value"],
                        f"{workload}: {name} differs between identical traced runs")


def _report(command: str, config: dict, *args: str) -> str:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main([command, str(cfg), "--out", str(out), *args])
        require(code == 0, f"{command} {config}: exit {code}")
        return out.read_text(encoding="utf-8")


def _tampered(text: str, edit) -> str:
    report = json.loads(text)
    edit(report["result"])
    return json.dumps(report)


def check_checker() -> None:
    fisher = _report("fisher", {"n_qubits": 2})
    simulate = _report("simulate", {"n_qubits": 1, "trials": 40, "seed": 5})
    scaling = _report("scaling", {"n_list": [1, 2], "trials": 20, "seed": 5}, "--format", "json")
    solve = _report("solve", {"n_qubits": 2, "solver": {"n_starts": 2}, "seed": 5})
    for command, text in (("fisher", fisher), ("simulate", simulate),
                          ("scaling", scaling), ("solve", solve)):
        require(checks.check(command, 0, text).passed, f"untampered {command} report flagged")

    def first_row(edit):
        return lambda result: edit(result["rows"][0])

    def first_solution(edit):
        return lambda result: edit(result["solutions"][0])

    cases = [
        ("fisher F_C > F_Q", "fisher", fisher,
         lambda r: r.update(classical_fisher=r["quantum_fisher"] * 1.5), "invariant"),
        ("fisher bound", "fisher", fisher, lambda r: r.update(bound=r["bound"] * 1.01), "invariant"),
        ("fisher closed form", "fisher", fisher,
         lambda r: r.update(classical_fisher=1.5, bound=1 / math.sqrt(1e4 * 1.5)), "invariant"),
        ("fisher saturation flag", "fisher", fisher, lambda r: r.update(saturated=False), "invariant"),
        ("fisher non-finite", "fisher", fisher, lambda r: r.update(im_condition_max=math.nan),
         "invariant"),
        ("simulate delta_x", "simulate", simulate, lambda r: r.update(delta_x=r["bound"] * 10),
         "quality"),
        ("simulate bound", "simulate", simulate, lambda r: r.update(bound=r["bound"] / 2),
         "invariant"),
        ("scaling F_Q", "scaling", scaling, first_row(lambda row: row.update(f_quantum=0.5)),
         "invariant"),
        ("solve residual", "solve", solve, first_solution(lambda s: s.update(residual=1e-3)),
         "invariant"),
        ("solve qfi", "solve", solve, first_solution(lambda s: s.update(qfi=5.0)), "invariant"),
        ("solve feasible flag", "solve", solve, lambda r: r.update(solutions=[]), "invariant"),
    ]
    for label, command, text, edit, kind in cases:
        problems = checks.check(command, 0, _tampered(text, edit)).problems
        require(any(p.kind == kind for p in problems), f"checker missed tampered {label}")
    require(checks.check("fisher", 2, fisher).failed, "checker missed a non-zero exit code")
    require(checks.check("fisher", 0, fisher[:-20]).failed, "checker missed a truncated report")
    require(checks.check("solve", 0, fisher).failed, "checker missed a report for another task")
    require(checks.check("fisher", 0, "[1, 2]").failed, "checker missed a report that is no object")


def main() -> int:
    check_checker()
    check_emitted_metrics()
    print("selftest:", "FAILED" if FAILURES else "ok", f"({len(FAILURES)} failures)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
