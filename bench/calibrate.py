"""Machine-speed calibration of measured times.

On the shared 2-core machine this benchmark was written on, the same
LAPACK kernel alternates between about 5.6 ms and 10 ms from one second to
the next (an eigh of a 60 x 60 matrix, 20 times), so raw medians of 30-s
runs spread by 15-25 % between runs.  A short probe kernel timed around
every measured interval tracks that speed: over ten 10-s windows the median
``solve_bcd`` time ranged 61-85 ms while its ratio to the adjacent probe
stayed within 21.1-22.5.

Every time the end-to-end metrics report is therefore a wall time rescaled
to a machine on which the probe takes its reference time:

    calibrated = wall * REF / (mean of the probes before and after)

The references are typical probe times on that machine (2 cores,
scipy-openblas 0.3.31, one BLAS thread), so there calibrated seconds read
close to wall seconds.  Raw wall times are printed beside them.  The probes
never run bwt, so a change to bwt moves calibrated times exactly as it
moves wall times.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

class Probe:
    """A fixed kernel and its reference time in seconds.

    ``lapack`` probes run ``reps`` eigendecompositions of a fixed n x n SPD
    matrix, matching the decompositions that dominate ``pairs`` (n = 200)
    and ``barycenter`` (n = 60).  The ``spawn`` probe starts an interpreter
    that does nothing (``python -c pass``), which tracks the start-up cost of
    ``cli`` calls and of every workload's set-up far better than any
    in-process kernel (over ten 10-s windows: ratio within 8.0-8.6 while the
    calls took 428-642 ms).
    """

    def __init__(self, kind: str, ref_s: float, n: int = 0, reps: int = 0):
        self.kind, self.ref_s, self.reps = kind, ref_s, reps
        if kind == "lapack":
            f = np.random.default_rng(0).standard_normal((n, n))
            self.mat = f @ f.T

    def __call__(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "lapack":
            for _ in range(self.reps):
                np.linalg.eigh(self.mat)
        else:
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor that rescales a wall time measured between two probes."""
        return self.ref_s / (0.5 * (before + after))


PAIRS = Probe("lapack", 6.5e-3, n=200, reps=2)
BARYCENTER = Probe("lapack", 2.2e-3, n=60, reps=8)
SPAWN = Probe("spawn", 80e-3)
