"""Machine-speed gauge: scales measured times to a nominal machine speed.

On a shared host the machine's speed drifts by tens of percent within a
minute (a fixed pure-Python loop took 46 to 73 ms over one minute on a
2-core sandbox), which swamps the differences a benchmark is meant to show.
So the benchmark times a fixed reference kernel between ops and reports
every op time divided by

    factor = (median of the last WINDOW kernel times) / nominal kernel time,

that is, the time the op would have taken on a machine where the kernel
takes its nominal time.  Each workload names the kernel that is bound by the
same resource as its ops: the interpreter, or memory for the dense
factorizations.  The kernels are the benchmark's own code, so a change to
gridzeta cannot move them.  Unscaled figures are printed beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

WINDOW = 5
EVERY_S = 0.05  # op time between two kernel samples


def interpreter_kernel_s() -> float:
    """Time a fixed integer-and-dict loop (4 ms at nominal speed)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(30000):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - t0


def memory_kernel_s() -> float:
    """Time allocating, filling and summing a fresh 128 MB array (50 ms at
    nominal speed).  Imports numpy, so it runs only after gridzeta is in."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.ones(16_000_000)
    a.sum()
    del a
    return time.perf_counter() - t0


# kernel name: (kernel, its median time on the 2-core sandbox the bounds come from)
KERNELS = {
    "interpreter": (interpreter_kernel_s, 0.004),
    "memory": (memory_kernel_s, 0.050),
}


class SpeedGauge:
    def __init__(self, kernel: str):
        self._kernel, self._nominal_s = KERNELS[kernel]
        self.samples: list[float] = []
        self._since_s = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(self._kernel())
        self._since_s = 0.0

    def after_op(self, op_s: float) -> None:
        """Take a kernel sample once EVERY_S of op time has passed."""
        self._since_s += op_s
        if self._since_s >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Current slowness relative to nominal, from the last WINDOW samples."""
        return statistics.median(self.samples[-WINDOW:]) / self._nominal_s

    def run_factor(self) -> float:
        """Slowness relative to nominal over every sample taken."""
        return statistics.median(self.samples) / self._nominal_s
