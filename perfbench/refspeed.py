"""Reference kernel that measures how fast the host core runs right now.

On a shared VM the same call can take anywhere from 1.0 to 1.9 times its
quiet-core time, depending on what other tenants run on the same physical
core, and a slow phase can last from a second to minutes. The machine gives
no hardware counters to count work instead. So the benchmark times this
fixed kernel between its ops, all through a run, and scales the run's
timings by how much slower than its quiet-core time the kernel ran. The
kernel mixes the three kinds of work the workloads do: a scalar Python loop
(bisection and crossing refinement), many calls on 7-element arrays (RK4
on the seven-agent graph) and an exp over a 64 x 200 block (grid costate
evaluation). It never changes, so a change to waveplan moves the scaled
figures exactly as much as the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's time on an uncontended core of a 2-vCPU Intel Xeon VM
# (CPython 3.11, numpy 2.4, one BLAS thread). A fixed scale: scaled timings
# read as seconds on a core that runs the kernel this fast.
REFERENCE_S = 0.0036

_BLOCK = np.linspace(0.0, 1.0, 64 * 200).reshape(64, 200)


def kernel() -> float:
    x, seen = 0.0, {}
    for i in range(4000):
        x += (i * 0.5) ** 2
        seen[i & 63] = x
    v = np.ones(7)
    for _ in range(400):
        v = np.exp(-v * 0.5) + 0.1
        x += float(v.sum())
    for _ in range(10):
        x += float(np.exp(_BLOCK * -1.5).sum())
    return x


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """How many times slower than REFERENCE_S the kernel ran, on average."""
    return statistics.fmean(samples) / REFERENCE_S


class SpeedProbe:
    """Kernel times taken between ops, once per ``every_s`` seconds of op time.

    Each sample sits next to the ops it is compared with, so the mean over
    a run weighs the host's slow and fast phases as the ops met them. The
    first op is followed by a sample, so every run has one.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self._owed = every_s

    def after_op(self, op_seconds: float) -> None:
        self._owed += op_seconds
        if self._owed >= self.every_s:
            self._owed = 0.0
            self.samples.append(time_kernel())
