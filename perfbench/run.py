"""probelab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src/``.
``setup_s`` is measured here, as the median over fresh interpreters of the
first ``import probelab.cli``, in calibrated seconds (see calibration.py);
everything else is measured by ``bench.py`` in
a separate worker process.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload untraced and traced and prints every
end-to-end metric per workload plus the per-layer tables.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: One BLAS thread: the tasks are timed one at a time on a shared 2-core
#: machine, where a second BLAS thread adds more noise than speed.
BLAS_THREADS = "1"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
#: Every run, set-up included, must end well inside 180 s.
TIME_LIMIT_S = 170.0

#: Child program for one ``setup_s`` sample: the timed first
#: ``import probelab.cli``, then a calibration (see calibration.py; it imports
#: numpy, so it must not run before the timed import).
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import probelab.cli; "
    "d = time.perf_counter() - t; sys.path.append({here!r}); import calibration; "
    "import probelab; print(d, calibration.scale(calibration.sample()), probelab.__file__)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def measure_setup(env: dict) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE.format(here=str(HERE))], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, scale, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"probelab was imported from {path}, not from {SRC}")
        samples.append(float(seconds) * float(scale))
    return statistics.median(samples)


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool,
            deadline: float) -> tuple[list[str], dict]:
    """Run one workload; returns (table lines, result JSON)."""
    env = child_env()
    setup_s = None if trace else measure_setup(env)
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload!r} exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
        lines.insert(-1, f"  {'setup_s':<48} {setup_s:14.6g} s")
    return lines[:-1], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n <= 3 task lists (self-test)")
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "probelab" / "cli.py").is_file():
        print(f"no probelab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            lines, result = run_one(args.workload, args.seed, args.seconds, args.trace,
                                    args.tiny, start + TIME_LIMIT_S)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS

        summary = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                lines, result = run_one(workload, args.seed, args.seconds, trace,
                                        args.tiny, time.monotonic() + TIME_LIMIT_S)
                print(f"[trace {trace}] " + "\n".join(lines), flush=True)
                summary.setdefault(workload, {}).update(result["metrics"])
        print(json.dumps(summary))
        return 0
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
