"""Benchmark worker: one workload, in-process, one task at a time.

Started by ``run.py`` in a fresh process (with the BLAS thread count and
``PYTHONPATH`` already set), it writes the workload's seeded inputs, then
calls ``probelab.cli.main`` on each task in a closed loop: the next task
starts when the previous one returns.

With ``--trace 0`` nothing in probelab is patched and the end-to-end metrics
are reported.  One whole pass over the task list runs first; then tasks keep
running, least-sampled first, while one still fits in ``--seconds``.
``run_s`` is the sum over tasks of each task's median time, in calibrated
seconds (see calibration.py).

With ``--trace 1`` the run alternates an untraced and a traced pass over the
whole list while another pair fits (at least one pair runs), and the
per-layer metrics come from the traced passes; their spans are written to
``.perfbench_out/spans-<workload>.json``.

Prints a per-task table, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics`` (``run.py`` adds ``setup_s``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import probelab.cli as cli

import calibration
import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metrics this worker reports, with units (``setup_s`` is run.py's).
END_TO_END = (
    ("run_s", "s"),
    ("largest_task_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "ratio"),
    ("delta_x_ratio", "ratio"),
    ("qfi_ratio", "ratio"),
)


def run_task(task, config_path, out_path, recorder=None):
    """Run one task; returns (seconds, checked result)."""
    argv = [task.command, str(config_path), "--out", str(out_path), *task.args]
    gc.collect()
    start = time.perf_counter()
    code = recorder.run_root(cli.main, argv) if recorder else cli.main(argv)
    seconds = time.perf_counter() - start
    text = out_path.read_text(encoding="utf-8") if code == 0 else ""
    out_path.unlink(missing_ok=True)
    return seconds, checks.check(task.command, code, text)


def run_pass(tasks, config_paths, out_path, recorder=None):
    """Run every task once; returns (seconds per task, checked results)."""
    runs = [run_task(t, p, out_path, recorder) for t, p in zip(tasks, config_paths)]
    return [s for s, _ in runs], [c for _, c in runs]


def cycle(tasks, config_paths, out_path, seconds):
    """Untraced: one whole pass, then more runs while any task still fits.

    After the first pass, the next task is the one with the fewest samples
    among those whose median time still fits in what is left of ``seconds``
    (ties go to the longest), so every task is sampled across the whole run
    and the largest task is not the one left with a single sample.  The
    calibration kernel is timed between consecutive tasks, and each task time
    is scaled by the kernel times just before and after it.  Returns
    (measured seconds per task, calibrated seconds per task, checked results
    in run order).
    """
    measured = [[] for _ in tasks]
    calibrated = [[] for _ in tasks]
    checked = []
    kernel = calibration.sample()
    start = time.perf_counter()
    index = 0
    while index is not None:
        task_s, result = run_task(tasks[index], config_paths[index], out_path)
        before, kernel = kernel, calibration.sample()
        measured[index].append(task_s)
        calibrated[index].append(task_s * calibration.scale(before + kernel))
        checked.append(result)
        if len(checked) < len(tasks):
            index += 1
            continue
        left = seconds - (time.perf_counter() - start)
        medians = [statistics.median(times) for times in measured]
        fits = [i for i in range(len(tasks)) if medians[i] <= left]
        index = min(fits, key=lambda i: (len(measured[i]), -medians[i])) if fits else None
    return measured, calibrated, checked


def traced_passes(tasks, config_paths, out_path, seconds):
    """Alternate an untraced and a traced pass while another pair fits.

    Returns (untraced passes, traced passes, one span recorder per traced
    pass); a pass is (seconds per task, checked results).
    """
    plain, traced, recorders = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(tasks, config_paths, out_path))
        recorder = spans.Recorder()
        undo = recorder.install()
        try:
            traced.append(run_pass(tasks, config_paths, out_path, recorder))
        finally:
            spans.uninstall(undo)
        recorders.append(recorder)
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, recorders


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the workload; returns the metrics plus per-task rows for the table."""
    tasks = workloads.build(workload, seed, tiny)
    largest = [i for i, t in enumerate(tasks) if t.largest]
    workdir = OUT_DIR / f"work-{workload}-{seed}-{int(time.time() * 1e6)}"
    try:
        config_paths = workloads.write_inputs(tasks, workdir)
        out_path = workdir / "report.out"
        if trace:
            plain, traced, recorders = traced_passes(tasks, config_paths, out_path, seconds)
            measured = [[times[i] for times, _ in plain] for i in range(len(tasks))]
            checked = [c for _, results in plain + traced for c in results]
        else:
            measured, calibrated, checked = cycle(tasks, config_paths, out_path, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = checked[:len(tasks)]
    result = {
        "correct": not any(c.failed for c in checked),
        "attempted": len(checked),
        "failed": sum(c.failed for c in checked),
        "tasks": _task_rows(tasks, first, measured),
    }
    if trace:
        per_pass = [spans.layer_metrics(r) for r in recorders]
        metrics = {
            name: statistics.median(m[name] for m in per_pass)
            for name, _ in spans.PER_LAYER if name != "trace_overhead_frac"
        }
        plain_s = statistics.median(sum(times) for times, _ in plain)
        traced_s = statistics.median(sum(times) for times, _ in traced)
        metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
        result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in spans.PER_LAYER}
        _write_spans(workload, seed, recorders)
        return result

    ratios = [r for c in first for r in c.delta_x_ratios]
    # The best QFI of a search split over several calls is the best of its parts.
    qfi = {}
    for task, c in zip(tasks, first):
        if c.qfi_ratio is not None:
            key = task.group or task.name
            qfi[key] = max(qfi.get(key, 0.0), c.qfi_ratio)
    # Time metrics are in calibrated seconds (see calibration.py).
    values = {
        "run_s": sum(statistics.median(times) for times in calibrated),
        "largest_task_s": statistics.median(s for i in largest for s in calibrated[i]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": sum(c.passed_units for c in first) / sum(c.units for c in first),
        # 1.0 (the ideal) on workloads that run no simulation / no search.
        "delta_x_ratio": statistics.median(ratios) if ratios else 1.0,
        "qfi_ratio": statistics.fmean(qfi.values()) if qfi else 1.0,
    }
    result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return result


def _task_rows(tasks, first, samples) -> list[dict]:
    rows = []
    for index, task in enumerate(tasks):
        checked = first[index]
        notes = [p.kind + ": " + p.message for p in checked.problems]
        notes += [f"delta_x/bound={r:.4g}" for r in checked.delta_x_ratios]
        if checked.qfi_ratio is not None:
            notes.append(f"qfi/max={checked.qfi_ratio:.4g}")
        rows.append({
            "task": task.name,
            "seconds": statistics.median(samples[index]),
            "samples": len(samples[index]),
            "status": "FAIL" if checked.failed else ("quality" if checked.problems else "pass"),
            "notes": notes,
        })
    return rows


def _write_spans(workload: str, seed: int, recorders) -> None:
    passes = []
    for recorder in recorders:
        names = sorted({s[0] for s in recorder.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = recorder.spans[0][1] if recorder.spans else 0.0
        passes.append({
            "names": names,
            "counters": dict(recorder.counters),
            "spans": [[index[n], round(a - t0, 9), round(b - t0, 9), p]
                      for n, a, b, p in recorder.spans],
        })
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "passes": passes}, handle)


def format_table(workload: str, seed: int, result: dict) -> str:
    lines = [f"workload {workload}  seed {seed}  tasks {len(result['tasks'])}  "
             f"attempted {result['attempted']}  failed {result['failed']}  "
             f"(task times: measured seconds, median x samples)"]
    for row in result["tasks"]:
        notes = "; ".join(row["notes"])
        lines.append(f"  {row['task']:<34} {row['seconds']:9.4f} s x{row['samples']:<3} "
                     f"{row['status']:<7} {notes}")
    for name, entry in result["metrics"].items():
        lines.append(f"  {name:<48} {entry['value']:14.6g} {entry['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n <= 3 task lists (self-test)")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(format_table(args.workload, args.seed, result))
    for entry in result["metrics"].values():
        if not math.isfinite(entry["value"]):
            print(f"non-finite metric in {entry}", file=sys.stderr)
            return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
