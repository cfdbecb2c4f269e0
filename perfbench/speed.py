"""Machine-speed reference: time measured by the benchmark is scaled to a
fixed speed of the machine.

The shared 2-vCPU reference machine changes speed by up to ~60 % within a
minute, per vCPU: a fixed pure-Python loop timed from a second process did
not follow the slowdowns of the workload process, while the same loop timed
inside that process, between its calls, followed them to ~5 % (the raw
times of the calls moved by ~30 %).  So every workload process times
``reference_chunk`` every ``INTERVAL_S`` or so while it works, outside its
timed calls, and each timed span is scaled by REFERENCE_S over the median
chunk time near it: a duration reads as what it would have been on a
machine where one chunk takes exactly REFERENCE_S.

The chunk is the benchmark's own code and never calls eulerlab, so a change
to the library cannot change the scale.  It is float arithmetic in the style
of the double-double kernel (two-sum and Dekker split), the work that
dominates ``certify`` and the ``lookup`` tail.
"""
from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Sequence, Tuple

REFERENCE_S = 1e-3  # one chunk's time at the reference speed
INTERVAL_S = 0.05  # how often a working process times a chunk
NEAREST = 9  # chunks a short span is scaled by
CHUNK_LOOPS = 2500

Sample = Tuple[float, float]  # (perf_counter at the chunk's middle, its duration in s)


def reference_chunk(loops: int = CHUNK_LOOPS) -> float:
    hi, lo = 1.0, 0.0
    keep = []
    for i in range(1, loops):
        b = 1.0 / i
        s = hi + b
        bb = s - hi
        e = (hi - (s - bb)) + (b - bb) + lo
        hi = s + e
        lo = e - (hi - s)
        c = 134217729.0 * b
        bhi = c - (c - b)
        keep.append((hi, lo, bhi * (b - bhi)))
        if len(keep) > 64:
            keep.clear()
    return hi


def sample() -> Tuple[Sample, float]:
    """Time one chunk: ((middle, duration), CPU seconds of this thread)."""
    c0, t0 = time.thread_time(), time.perf_counter()
    reference_chunk()
    t1 = time.perf_counter()
    return ((t0 + t1) / 2, t1 - t0), time.thread_time() - c0


class Meter:
    """Chunk samples of one process; ``due`` samples inline when INTERVAL_S
    has passed, ``background`` samples from a thread while a long call runs."""

    def __init__(self):
        self.samples: List[Sample] = []
        self.cpu_s = 0.0  # CPU time the chunks took, to leave out of cpu_s
        self._last = float("-inf")
        self._stop = threading.Event()
        self._thread = None

    def take(self, n: int = 1) -> None:
        for _ in range(n):
            s, cpu = sample()
            self.samples.append(s)
            self.cpu_s += cpu
        self._last = time.perf_counter()

    def due(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.take()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.take()

    def __enter__(self) -> "Meter":
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="speed-meter", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def scale(samples: Sequence[Sample], t0: float, t1: float) -> float:
    """REFERENCE_S over the median chunk time near the span [t0, t1]: the
    chunks taken inside it if there are at least NEAREST, else the NEAREST
    chunks closest to its middle."""
    if not samples:
        raise ValueError("no speed samples")
    times = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
    if hi - lo < NEAREST:
        mid = (t0 + t1) / 2
        i = j = bisect.bisect_left(times, mid)
        while j - i < min(NEAREST, len(times)):
            if j >= len(times) or (i > 0 and mid - times[i - 1] <= times[j] - mid):
                i -= 1
            else:
                j += 1
        lo, hi = i, j
    return REFERENCE_S / statistics.median(d for _, d in samples[lo:hi])
