"""Host speed, measured around each timed repetition.

The speed of a shared host drifts by a fifth or more over minutes, so
the median repetition of one run moves with the host far more than a
run of any affordable length can average out.  Each timed repetition
is therefore bracketed by runs of :func:`probe`, a fixed mix of
interpreter, numpy and zlib work that lives here, outside the program,
so no change to the program can speed it up.  The repetition's seconds
are then scaled by how much slower than ``REFERENCE_S`` the two probes
around it ran: the result reads as the repetition's seconds on a host
where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import heapq
import time
import zlib

import numpy as np

#: The probe's seconds at reference speed: about its fastest on a quiet
#: 2-vCPU Xeon VM.
REFERENCE_S = 0.25


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def probe() -> float:
    """Host seconds of one fixed computation, after a ``gc.collect()``."""
    gc.collect()
    start = time.perf_counter()
    acc = 0.0
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    points = [_Point(i * 0.5, i * 0.25) for i in range(64)]
    vector = np.linspace(0.0, 1.0, 48)
    blob = bytes(range(256)) * 8
    for i in range(150_000):
        point = points[i & 63]
        acc += point.x * 0.5 - point.y
        heapq.heappush(heap, ((i * 7919) % 4093, i))
        if len(heap) > 128:
            heapq.heappop(heap)
        table[i & 255] = table.get(i & 255, 0) + 1
        if i % 4 == 0:
            acc += float(np.hypot(vector, vector).sum())
        if i % 64 == 0:
            acc += len(zlib.compress(blob, 1))
            acc += float((np.outer(vector, vector) @ vector).sum())
    return time.perf_counter() - start


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """Each repetition's seconds at reference speed.

    ``probes[i]`` ran just before ``times[i]`` and ``probes[i + 1]``
    just after it.
    """
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before and one after every repetition")
    return [
        seconds * 2 * REFERENCE_S / (before + after)
        for seconds, before, after in zip(times, probes, probes[1:])
    ]
