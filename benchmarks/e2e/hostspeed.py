"""How slow the host is right now, measured by a fixed kernel.

This box's speed drifts: for a minute or two at a time everything —
a bare ``for`` loop as much as a ``repro`` operation — runs 1.3 to 1.7
times slower, then recovers (README, findings).  Raw wall times taken
in two such periods differ by more than any regression bound could
allow, so the benchmark times this kernel between operations and
divides its end-to-end times by the run's median *slowdown*: kernel
seconds over :data:`NOMINAL_S`.  A reported second is then a second on
a host on which the kernel takes ``NOMINAL_S``.

The kernel must never call into ``repro``: a faster ``repro`` would
hide in its own yardstick.
"""

from __future__ import annotations

import time

import numpy as np

#: about what the kernel takes on this box in its fast phase (fastest
#: of 1 200 timings 0.0229 s, median 0.0315 s in a middling period); by
#: construction a slowdown of 1.0
NOMINAL_S = 0.025
#: kernel timings per calibration round
ROUND = 5
#: a round is due once this many seconds of operations have run since
#: the last one, so calibration stays under a fifth of any run
EVERY_S = 0.5


class _Counter:
    def __init__(self) -> None:
        self.total = 0
        self.calls = 0

    def add(self, value: int) -> int:
        self.total += value
        self.calls += 1
        return self.total


def kernel() -> float:
    """Wall seconds of a fixed mix of what the workloads do: bytecode
    arithmetic, method calls, dict and string churn, and numpy on
    small and on cache-sized arrays."""
    started = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    counter = _Counter()
    for i in range(60_000):
        counter.add(i)
    for _ in range(10):  # small tables: the kernel must not raise peak RSS
        table = {}
        for i in range(3_000):
            table[i] = str(i)
    small = np.arange(64.0)
    for _ in range(3_750):
        small = small * 1.01 + 0.5
        small.sum()
    large = np.arange(50_000, dtype=float)
    for _ in range(30):
        large = large * 1.0000001 + 0.5
    return time.perf_counter() - started


class HostSpeed:
    """Kernel timings of one child process."""

    def __init__(self) -> None:
        self.slowdowns: list[float] = []
        #: wall seconds spent in the kernel so far
        self.spent = 0.0
        self._since_round = EVERY_S

    def calibrate(self) -> None:
        for _ in range(ROUND):
            seconds = kernel()
            self.spent += seconds
            self.slowdowns.append(seconds / NOMINAL_S)
        self._since_round = 0.0

    def before_operation(self) -> None:
        if self._since_round >= EVERY_S:
            self.calibrate()

    def after_operation(self, seconds: float) -> None:
        self._since_round += seconds
