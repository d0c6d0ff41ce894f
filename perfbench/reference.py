"""Reference kernels: fixed work whose CPU time tells how fast the host runs now.

The host's speed swings by up to 1.7x over seconds to minutes, and process
CPU time swings with it (see README.md).  The benchmark therefore times a
kernel just before and just after every job and reports the job's CPU time
times ``nominal_s`` over the kernel's mean time: the job's time on a host
running at the speed the kernel had where the benchmark was defined.  A
kernel uses only Python and numpy, never the toolkit, so no change to the
toolkit can move it.  Each workload uses the kernel whose work is most like
its own inner loop (see workloads.KERNELS); the interpreter kernel does not
follow the speed of memory-bound dense algebra, and the dense one does not
follow the interpreter.
"""

import time

import numpy as np


def _fastest(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


class Interpreter:
    """Interpreter work plus scalar numpy draws, the mix of the simulator's
    and the fluid solvers' per-step loops."""

    nominal_s = 7.0e-4

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def _loop(self):
        total, table, seq = 0, {}, []
        for i in range(2000):
            total += i * i % 7
            table[i & 63] = total
            seq.append(total)

    def _draws(self):
        draw = 0.0
        for _ in range(300):
            draw += self._rng.exponential(1.0) + self._rng.random()

    def __call__(self, repeats=3):
        """CPU time of the kernel now: each part's fastest of ``repeats``."""
        return _fastest(self._loop, repeats) + _fastest(self._draws, repeats)


class DenseProduct:
    """Vector-matrix products over a fixed 32 MiB matrix, the inner loop of
    the oracle's uniformization.  The matrix counts in the process's peak
    resident memory."""

    nominal_s = 1.7e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((2048, 2048))
        self._vector = rng.random(2048)

    def __call__(self, repeats=3):
        """CPU time of one product now: the fastest of ``repeats``."""
        return _fastest(lambda: self._vector @ self._matrix, repeats)
