"""Machine-speed calibration for the timed metrics.

On the shared 2-core host where this benchmark was sized, the same body's
wall time swings by up to 2x within tens of seconds as other tenants load
the machine.  Its CPU time swings with it, so the slowdown is in execution
speed, not in scheduling, and neither medians nor minima over a 30 s run
are steady across runs.  The benchmark therefore times four fixed loops of
its own code around every timed set-up and body:

- a Python loop with small numpy calls, the instruction mix of the
  simulation loop;
- a loop of 49 x 49 pseudo-inverses, the small dense LAPACK mix of EXP2 and
  of the simplex pivots, run with the program's default BLAS threads;
- a loop of pricing passes, ``c - y @ A`` and its argmax over a 4 x 25000
  matrix (800 KB), the memory-bound mix of the hard-instance search,
  whose LPs span up to 27405 grid tuples;
- a loop of in-place passes over an 8 MB array, beyond the private caches,
  which slows with the other tenants' use of the shared cache and memory.

The calibration time is the geometric mean of the four, and a timed span is
rescaled to the reference speed:

    scaled = wall * REF_SECONDS / mean(calibration before, calibration after)

The loops never call the package, so a change to the package moves the
scaled time exactly as much as the raw wall time.  They allocate nothing
above glibc's mmap threshold either, so they leave the allocator state that
the package's own large temporaries produce as it is.
"""
from __future__ import annotations

import math
import time

import numpy as np

LOOP_ITERATIONS = 10_000
PINV_CALLS = 30
PRICING_PASSES = 200
MEMORY_PASSES = 24
REPEATS = 3
# Calibration time at full speed on the reference machine (2 cores,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31): there a scaled time
# equals the wall time.
REF_SECONDS = 0.0088

_MATRIX = np.random.default_rng(0).uniform(size=(49, 49))
_MATRIX = _MATRIX @ _MATRIX.T
_PRICING = np.random.default_rng(1).uniform(size=(4, 25_000))
_DUALS = np.ones(4)
_COSTS = np.zeros(25_000)
_REDUCED = np.empty(25_000)
_STREAM = np.random.default_rng(2).uniform(size=1_000_000)


def _python_loop():
    x = np.zeros(10)
    acc = 0.0
    for i in range(LOOP_ITERATIONS):
        x[i % 10] += 1.0
        acc += float(x.sum()) * 0.5
    return acc


def _blas_loop():
    for _ in range(PINV_CALLS):
        np.linalg.pinv(_MATRIX, hermitian=True)


def _pricing_loop():
    for _ in range(PRICING_PASSES):
        np.matmul(_DUALS, _PRICING, out=_REDUCED)
        np.subtract(_COSTS, _REDUCED, out=_REDUCED)
        int(np.argmax(_REDUCED))


def _memory_loop():
    for _ in range(MEMORY_PASSES):
        np.multiply(_STREAM, 1.0, out=_STREAM)


def _fastest(fn) -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def calibration_seconds() -> float:
    """Geometric mean of the four loops' fastest times."""
    loops = (_python_loop, _blas_loop, _pricing_loop, _memory_loop)
    return math.prod(_fastest(loop) for loop in loops) ** (1 / len(loops))


class SpeedClock:
    """Rescales wall times to the reference speed.  Call :meth:`scale`
    right after each timed span: the calibrations taken before and after it
    give the machine's speed while it ran."""

    def __init__(self):
        calibration_seconds()  # the first pass in a process runs cold
        self.samples = [calibration_seconds()]

    def scale(self, wall: float) -> float:
        self.samples.append(calibration_seconds())
        return wall * REF_SECONDS / (0.5 * (self.samples[-2] + self.samples[-1]))
