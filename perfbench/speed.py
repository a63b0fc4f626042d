"""Machine-speed reference for latencies measured on a shared host.

On a shared virtual machine the same command can take up to twice as long
from one moment to the next, because of load the benchmark cannot see or
control, and the slow and fast phases last seconds.  run.py therefore times
this fixed kernel between consecutive timed commands.  The mean of the two
timings around a command (just before, just after), divided by REFERENCE_S,
is the machine's slowdown factor around the command, and a latency divided
by its factor is the latency *at reference speed*: what the command takes
when the kernel takes REFERENCE_S.  The kernel runs for about 0.2 s: a
shorter one is noisier than the commands it corrects (at 45 ms, rescaling
widened the spread of repeated identical commands; at 0.27 s before and
after, it cut it from 0.19 to 0.08 of the median).  The kernel mixes the
operations the package spends its time on -- numpy calls on 15-element
arrays, scipy's logsumexp, Python float arithmetic and number formatting --
and never calls the package, so a change to the package moves the latencies
and not the factor.
"""

import time

import numpy as np
from scipy.special import logsumexp

REFERENCE_S = 0.225          # kernel time on an unloaded 2-core x86 box
_ITERATIONS = 1250
_X = np.linspace(0.1, 1.0, 15)


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        g = np.log(np.sinh(_X * (1.0 + i * 1e-3)))
        acc += float(logsumexp(g + 0.5)) + float(np.max(g))
        acc += sum(v * v for v in (0.1, 0.2, 0.3, 0.4)) + len(f"{acc:.12g}")
    return time.perf_counter() - t0


class Reference:
    """Kernel timings taken between commands: command i ran between
    timings i and i + 1."""

    def __init__(self):
        self.timings = [reference_seconds()]

    def mark(self) -> None:
        """Time the kernel once more; call after each command."""
        self.timings.append(reference_seconds())

    def factor(self, i: int) -> float:
        """Slowdown factor around command i."""
        return (self.timings[i] + self.timings[i + 1]) / (2.0 * REFERENCE_S)
