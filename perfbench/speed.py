"""How fast the machine runs right now, measured by loops that share no code
with gelkit.

On a shared VM the same code runs up to twice as slowly for tens of seconds
at a time while neighbours load the host (2-core Xeon VM: a pure-Python loop
timed in 2 s blocks ranged over 1.0-1.8x of its fastest block, and CPU time
moved with wall time).  The benchmark times every gelkit call between two
probes and also reports the call's time at reference speed: scaled by
``PROBE_REF_S`` over the mean of the two probe times.  Each workload uses
the probe whose work is most like its own.  The scaling does not remove all
of the machine's drift, and now and then adds some: ``baseline.json`` gives
the spread over seeds of each time with and without it.
"""

from __future__ import annotations

import time

# Probe time at which a measured time is reported unchanged.
PROBE_REF_S = 0.010


def probe_interpreter() -> float:
    """Seconds of interpreter arithmetic and dict traffic, the kind of work
    the particle event loop and the graph's union-find do."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    table = {}
    for i in range(20_000):
        table[i * 7919 % 100_003] = i
    for i in range(20_000):
        table.get(i)
    return time.perf_counter() - start


def probe_numpy() -> float:
    """Seconds of numpy calls on tiny arrays, the kind of work the
    fixed-point and Runge-Kutta loops do."""
    import numpy as np  # here, so that the set-up timing includes numpy's import

    x = np.linspace(0.1, 1.0, 4)
    a = 0.5 * np.eye(4)
    start = time.perf_counter()
    for _ in range(1_200):
        y = a @ (x * -np.expm1(-x))
        float(np.abs(y - x).max())
    return time.perf_counter() - start


class Speed:
    """The probe taken after each timed call, reused before the next one."""

    def __init__(self, probe):
        self.probe = probe  # a loop that shares no code with gelkit
        self.last: float | None = None

    def sample(self) -> float:
        self.last = self.probe()
        return self.last

    def before(self) -> float:
        """The latest probe, which the previous call's ``sample`` took."""
        return self.last if self.last is not None else self.sample()
