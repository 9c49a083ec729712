"""Host speed calibration: a fixed pure-Python kernel, timed between ops.

The benchmark's host is a VM on a shared machine.  Its speed moves by up
to 2x within seconds as other tenants load the cores, and the same op
takes up to twice as long in a slow stretch as in a fast one.  The
kernel below builds and walks a tree of small objects and sorts a list
of them: allocation, attribute access and calls in the interpreter, the
work the emitted code does too.  It never changes, and it calls nothing
in ``repro``, so its time measures the host alone.

``Calibration.sample`` times one kernel run, outside every timed op.
The end-to-end times are scaled to a reference speed: an op's time is
multiplied by ``REF_MS`` over the median kernel time of the samples
nearest to the op.  So a time reads as it would on a host where the
kernel takes ``REF_MS`` (about its time in the fast stretches of the VM
below); a change to the program moves it, a slow stretch of the host
mostly does not.  The unscaled times are printed beside them.  On the 2-vCPU VM the benchmark was
written on, an op's scaled time moved by 1-3% between the host's fast
and slow stretches (the kernel's own time by 1.5-2x), 15% for CorONA's
sub-millisecond fetches.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from statistics import median
from time import perf_counter, thread_time
from typing import List, Sequence

#: the kernel time that the scaled times are stated at
REF_MS = 0.6
#: the loops take a sample when this long has passed since the last one
EVERY_S = 0.1
#: an op's factor is the median over this many samples nearest to it
NEAREST = 5
#: untimed kernel runs before the first sample
WARM_UP = 5


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left = left
        self.right = right
        self.value = value

    def total(self):
        t = self.value
        if self.left is not None:
            t += self.left.total()
        if self.right is not None:
            t += self.right.total()
        return t


def _build(depth: int, value: int) -> _Node:
    if depth == 0:
        return _Node(None, None, value)
    return _Node(_build(depth - 1, 2 * value), _build(depth - 1, 2 * value + 1), value)


def kernel() -> int:
    tree = _build(9, 1)
    items = [_Node(None, None, (i * 7919) % 1009) for i in range(800)]
    items.sort(key=lambda n: n.value)
    return tree.total() + items[0].value + items[-1].value


class Calibration:
    """Kernel samples of one process: (time taken at, seconds)."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []
        self.next_at = 0.0
        for _ in range(WARM_UP):  # a fresh process runs the kernel slowly at first
            kernel()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the kernel frees all it allocates; keep the program's GC out
        try:
            at, t = perf_counter(), thread_time()
            kernel()
            took = thread_time() - t
        finally:
            if enabled:
                gc.enable()
        self.at.append(at)
        self.took.append(took)
        self.next_at = perf_counter() + EVERY_S

    def maybe(self) -> None:
        """Take a sample when ``EVERY_S`` has passed since the last one."""
        if perf_counter() >= self.next_at:
            self.sample()

    def samples(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    def factor_at(self, t: float) -> float:
        """``REF_MS`` over the median kernel time nearest to time ``t``."""
        i = bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return REF_MS / (median(self.took[lo:lo + NEAREST]) * 1e3)

    def factors(self, times: Sequence[float]) -> List[float]:
        return [self.factor_at(t) for t in times]

    def kernel_ms(self) -> float:
        return median(self.took) * 1e3
