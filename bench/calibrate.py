"""The calibration loop that end-to-end pass times are divided by.

Imported after ``run.use_checkout_package`` has capped the BLAS threads,
like the other benchmark modules, because importing numpy starts them.
"""

import time

import numpy as np


class Calibration:
    """A fixed loop of the benchmark's own code, timed right before each pass.

    On a 2-vCPU VM whose host is shared, the speed of all code changed by up
    to 1.7x over minutes, so raw pass times of runs made minutes apart
    differed by 20-30%.  A pass's wall time divided by this loop's, timed next to it,
    cancels most of that drift.  The loop runs no alignor code, so a change
    to the package moves only the numerator.  It mixes what the workloads
    do: float text formatting and parsing (recordio), elementwise numpy over
    long arrays (spincore, the latch, the filters), small dense solves (the
    LM fits) and a plain Python loop (glue).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(40_000)
        self.field = rng.standard_normal(200_000)
        self.matrix = rng.standard_normal((5, 5)) + 5 * np.eye(5)

    def time(self) -> float:
        start = time.perf_counter()
        v = self.values
        text = "\n".join(" ".join(repr(float(x)) for x in v[i:i + 5])
                         for i in range(0, len(v), 5))
        if len([float(t) for t in text.split()]) != len(v):
            raise RuntimeError("calibration loop parsed the wrong count")
        a = self.field
        for _ in range(12):
            np.exp(-a * a) * np.sin(a) + np.cumsum(a) * 1e-6
        for _ in range(3000):
            np.linalg.solve(self.matrix, v[:5])
        acc = 0.0
        for i in range(150_000):
            acc += i * 0.5
        return time.perf_counter() - start
