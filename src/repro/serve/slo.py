"""Streaming SLO accounting: latency percentiles, goodput, losses.

Fleet-scale runs complete tens of thousands of requests; storing every
latency and sorting at the end is the kind of O(n log n) tail the hot
path should not pay.  :class:`~repro.obs.metrics.StreamingHistogram`
keeps log-spaced buckets (constant relative error ~6%) so p50/p95/p99
are O(buckets) at any point during the run.

:class:`SloTracker` records every request outcome into the ``serve.*``
series of a :class:`~repro.obs.metrics.MetricsRegistry` (its own unless
one is passed in) and reads its counts and latency histogram back from
those series, so each outcome is counted once.  Services that share a
registry would read each other's records, so a fleet run gives each
stage service a :meth:`~repro.obs.metrics.MetricsRegistry.child` view:
the service reads only its own records, and the run's series still get
them all.  The tracker keeps only what no series holds: the count of
completions that met their deadline, and a short sliding window of
latencies for control decisions, which the autoscaler polls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    SeriesHandle,
    StreamingHistogram,
    ensure_registry,
    series_key,
)
from repro.serve.request import Request

__all__ = ["SloTracker", "SloSnapshot"]

#: ``record_loss`` kinds, each a ``serve.requests`` outcome label.
_LOSS_KINDS = ("drop", "shed", "reject", "expire")

#: The series completed-request latencies go into.
_LATENCY = "serve.request.latency_s"


def _count(name: str, **labels: str) -> property:
    """A read-only property: the tracker's counter ``name`` + ``labels``."""
    return property(
        lambda self: self.metrics.count(name, **labels),
        doc=f"The ``{series_key(name, labels)}`` count of this tracker.",
    )


@dataclass
class SloSnapshot:
    """Point-in-time serving quality, consumed by the autoscaler."""

    completed: int = 0
    window_p95_s: float = 0.0
    window_completions: int = 0


class SloTracker:
    """Fold request outcomes into SLO metrics."""

    offered = _count("serve.requests", outcome="offered")
    completed = _count("serve.requests", outcome="completed")
    dropped = _count("serve.requests", outcome="drop")
    shed = _count("serve.requests", outcome="shed")
    rejected = _count("serve.requests", outcome="reject")
    expired = _count("serve.requests", outcome="expire")
    requeued = _count("serve.requeues")

    def __init__(
        self,
        window_s: float = 2.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s}")
        self.window_s = float(window_s)
        self.metrics = ensure_registry(metrics)
        self.deadline_met = 0
        self._window: deque[tuple[float, float]] = deque()
        counter = self.metrics.counter
        self._offered = SeriesHandle(counter, "serve.requests", outcome="offered")
        self._completed = SeriesHandle(
            counter, "serve.requests", outcome="completed"
        )
        self._latency = SeriesHandle(self.metrics.histogram, _LATENCY)
        self._requeues = SeriesHandle(counter, "serve.requeues")
        self._losses = {
            kind: SeriesHandle(counter, "serve.requests", outcome=kind)
            for kind in _LOSS_KINDS
        }

    # ----------------------------------------------------------- intake

    def record_offered(self, request: Request, now: float) -> None:
        """A request entered the system."""
        self._offered.inc()

    def record_completion(self, request: Request, now: float) -> None:
        """A request finished with a response."""
        latency = request.latency_s
        self._latency.observe(latency)
        self._completed.inc()
        if request.met_deadline:
            self.deadline_met += 1
        self._window.append((now, latency))
        self._prune(now)

    def record_requeue(self, request: Request, now: float) -> None:
        """A request was rescued from a crashed replica (non-terminal).

        Requeues are transitions, not outcomes: a requeued request still
        ends in exactly one of completed / dropped / shed / expired, so
        the conservation identity ``offered == completed + losses``
        holds regardless of how many times it was requeued.
        """
        self._requeues.inc()

    def record_loss(self, request: Request, kind: str, now: float) -> None:
        """A request ended without a response (drop/shed/reject/expire)."""
        series = self._losses.get(kind)
        if series is None:
            raise ConfigurationError(f"unknown loss kind {kind!r}")
        series.inc()

    # ---------------------------------------------------------- queries

    def _prune(self, now: float) -> None:
        while self._window and self._window[0][0] < now - self.window_s:
            self._window.popleft()

    def snapshot(self, now: float) -> SloSnapshot:
        """Recent-window view for control loops (autoscaler)."""
        self._prune(now)
        if not self._window:
            return SloSnapshot(completed=self.completed)
        latencies = sorted(latency for _, latency in self._window)
        idx = min(int(0.95 * len(latencies)), len(latencies) - 1)
        return SloSnapshot(
            completed=self.completed,
            window_p95_s=latencies[idx],
            window_completions=len(latencies),
        )

    @property
    def histogram(self) -> StreamingHistogram:
        """Latencies of completed requests: the registry's series.

        Empty, and in no registry, until the first completion creates it.
        """
        series = self.metrics.find(_LATENCY)
        return (series if series is not None else Histogram(_LATENCY)).hist

    @property
    def losses(self) -> int:
        """Requests that ended without a response."""
        return self.dropped + self.shed + self.rejected + self.expired

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed requests that missed their deadline."""
        completed = self.completed
        if not completed:
            return 0.0
        return 1.0 - self.deadline_met / completed
