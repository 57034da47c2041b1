"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
over minutes: the same solve task took 7 s and then 10 s a quarter of an hour
later.  A fixed reference kernel, timed between the tasks of a run, slows
down with them.  The time metrics are therefore reported as *calibrated
seconds*::

    calibrated = measured * NOMINAL_S / median(kernel times around the task)

that is, seconds on a host on which the kernel takes ``NOMINAL_S``.  The
kernel touches no probelab code, so a change to the program moves the
calibrated time exactly as it moves the measured one.

The kernel mixes the two kinds of work that dominate probelab's Python-level
hot loops: plain interpreter work (a pure-Python loop) and small-array numpy
calls (4x4 products and least squares, as in the solver's objective).  A
pure-Python loop alone missed the slow spells that hit numpy-heavy Python
code harder: over ten 24-second windows of one solve task, the spread of the
window medians was 0.069 of the median measured, 0.082 scaled by a
pure-Python loop and 0.029 scaled by the small-array part.  No kernel timed
between tasks followed the n=6 simulate task, whose time goes into large
einsum contractions: it varied by up to 60% between back-to-back runs of the
same input, and the benchmark leaves it out (see README.md).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Pure-Python iterations per kernel run.
PY_LOOPS = 50_000
#: Small-array numpy iterations per kernel run.
NP_LOOPS = 75
#: The kernel time the calibrated seconds are scaled to (about the kernel's
#: time on the documented machine).
NOMINAL_S = 0.007
#: Kernel timings taken per call of ``sample``.
REPEATS = 3

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_B = np.ones(4)


def kernel_seconds() -> float:
    """Time one run of the fixed reference kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(PY_LOOPS):
        total += i * i % 7
    for _ in range(NP_LOOPS):
        gram = _M @ _M.conj().T
        np.linalg.lstsq(gram.real, _B, rcond=None)
    return time.perf_counter() - start


def sample() -> list[float]:
    """``REPEATS`` kernel timings, taken back to back."""
    return [kernel_seconds() for _ in range(REPEATS)]


def scale(kernel_times: list[float]) -> float:
    """Factor that turns measured seconds into calibrated seconds."""
    return NOMINAL_S / statistics.median(kernel_times)
