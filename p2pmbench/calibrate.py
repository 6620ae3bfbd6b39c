"""Host-speed calibration for timed benchmark segments.

On a shared host the same pure-Python work runs fast in some phases and
slow in others, each phase lasting seconds.  Every timed segment (a burst,
a setup, a group of subscribe/cancel calls) is therefore followed by a
fixed kernel, and its wall time is rescaled to the kernel's reference
speed::

    calibrated = raw * KERNEL_REFERENCE_S / median(last KERNEL_WINDOW kernels)

The calibrated figure reads as "seconds on a host where the kernel takes
KERNEL_REFERENCE_S"; the raw figure is kept beside it.  The kernel is
never changed together with the program, so a slower program still shows.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array

#: Steps of each half of the kernel.
KERNEL_STEPS = 10_000

#: The ring the memory half walks: KERNEL_STEPS machine integers, one per
#: 64-byte cache line (640 KB in one array, which the garbage collector
#: never scans), linked in a fixed shuffled cycle.  A timed segment of the
#: program evicts most of these lines from the 2 MB L2 cache, and they stay
#: in the 300 MB L3 cache, so the walk reads mostly the shared cache's
#: latency under the host's contention, not the program's heap.
SLOTS_PER_LINE = 8

#: Kernel runs whose median rescales a segment: the one that closes it and
#: the two before.  One 3 ms run is now and then slowed by a stray
#: interrupt; a wider window misses the host's shorter slow phases
#: (meteo-lossy's rounds last about 0.15 s).
KERNEL_WINDOW = 3

#: Median kernel time on the reference host (see README, "Calibration").
KERNEL_REFERENCE_S = 0.0028


def make_ring(steps: int = KERNEL_STEPS) -> array:
    """``ring[i]`` is the slot after ``i``; one slot per cache line."""
    order = [SLOTS_PER_LINE * k for k in range(steps)]
    random.Random(0).shuffle(order)
    ring = array("q", bytes(8 * SLOTS_PER_LINE * steps))
    for a, b in zip(order, order[1:] + order[:1]):
        ring[a] = b
    return ring


def kernel(ring: array, steps: int = KERNEL_STEPS) -> int:
    """Fixed work in two halves: an integer loop (the interpreter's speed)
    and a walk along the ring (the latency of the shared cache)."""
    x = 0
    for i in range(steps):
        x = (x * 31 + i) & 0xFFFF
    slot = 0  # on the cycle: every multiple of SLOTS_PER_LINE is
    for _ in range(steps):
        slot = ring[slot]
    return x + slot


class Meter:
    """Times segments and rescales them by the kernels run beside them.

    ``begin()`` starts a segment; operations inside it may be timed one by
    one and handed to ``note()``; ``end()`` closes the segment, runs the
    kernel and returns ``(raw, calibrated, notes)`` where ``notes`` holds a
    ``(raw, calibrated)`` pair per noted operation.  Each segment costs one
    kernel run.
    """

    def __init__(self) -> None:
        self._ring = make_ring()
        self._start = time.perf_counter()
        self._notes: list[tuple[str, float]] = []
        #: every kernel time measured
        self.kernel_times: list[float] = [self.time_kernel()]

    def time_kernel(self) -> float:
        start = time.perf_counter()
        kernel(self._ring)
        return time.perf_counter() - start

    def begin(self) -> None:
        self._notes = []
        self._start = time.perf_counter()

    def note(self, kind: str, raw: float) -> None:
        self._notes.append((kind, raw))

    def end(self) -> tuple[float, float, list[tuple[str, float, float]]]:
        raw = time.perf_counter() - self._start
        self.kernel_times.append(self.time_kernel())
        factor = KERNEL_REFERENCE_S / statistics.median(self.kernel_times[-KERNEL_WINDOW:])
        notes = [(kind, value, value * factor) for kind, value in self._notes]
        self._notes = []
        return raw, raw * factor, notes
