"""Streaming SLO accounting: latency percentiles, goodput, losses.

Fleet-scale runs complete tens of thousands of requests; storing every
latency and sorting at the end is the kind of O(n log n) tail the hot
path should not pay.  :class:`~repro.obs.metrics.StreamingHistogram`
keeps log-spaced buckets (constant relative error ~6%) so p50/p95/p99
are O(buckets) at any point during the run — which is also what the
autoscaler polls.

:class:`SloTracker` folds every request outcome into counters and the
histogram, keeps a short sliding window for control decisions, and
increments the ``serve.*`` series of a
:class:`~repro.obs.metrics.MetricsRegistry` (its own unless one is
passed in).  The tracker keeps its own counts and histogram because
one registry can serve several services — a fleet run shares one
across its shadow and canary stages — so the registry's series are
run totals, while a :class:`~repro.serve.service.ServeSummary` and its
conservation check need this one service's tallies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.obs.metrics import (
    MetricsRegistry,
    SeriesHandle,
    StreamingHistogram,
    ensure_registry,
)
from repro.serve.request import Request

__all__ = ["SloTracker", "SloSnapshot"]

#: ``record_loss`` kinds, each a ``serve.requests`` outcome label.
_LOSS_KINDS = ("drop", "shed", "reject", "expire")


@dataclass
class SloSnapshot:
    """Point-in-time serving quality, consumed by the autoscaler."""

    completed: int = 0
    window_p95_s: float = 0.0
    window_completions: int = 0


class SloTracker:
    """Fold request outcomes into SLO metrics."""

    def __init__(
        self,
        window_s: float = 2.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s}")
        self.window_s = float(window_s)
        self.metrics = ensure_registry(metrics)
        self.histogram = StreamingHistogram()
        self.offered = 0
        self.completed = 0
        self.deadline_met = 0
        self.dropped = 0
        self.shed = 0
        self.rejected = 0
        self.expired = 0
        self.requeued = 0
        self._window: deque[tuple[float, float]] = deque()
        counter = self.metrics.counter
        self._offered = SeriesHandle(counter, "serve.requests", outcome="offered")
        self._completed = SeriesHandle(
            counter, "serve.requests", outcome="completed"
        )
        self._latency = SeriesHandle(
            self.metrics.histogram, "serve.request.latency_s"
        )
        self._requeues = SeriesHandle(counter, "serve.requeues")
        self._losses = {
            kind: SeriesHandle(counter, "serve.requests", outcome=kind)
            for kind in _LOSS_KINDS
        }

    # ----------------------------------------------------------- intake

    def record_offered(self, request: Request, now: float) -> None:
        """A request entered the system."""
        self.offered += 1
        self._offered.inc()

    def record_completion(self, request: Request, now: float) -> None:
        """A request finished with a response."""
        self.completed += 1
        latency = request.latency_s
        self.histogram.record(latency)
        if request.met_deadline:
            self.deadline_met += 1
        self._window.append((now, latency))
        self._prune(now)
        self._completed.inc()
        self._latency.observe(latency)

    def record_requeue(self, request: Request, now: float) -> None:
        """A request was rescued from a crashed replica (non-terminal).

        Requeues are transitions, not outcomes: a requeued request still
        ends in exactly one of completed / dropped / shed / expired, so
        the conservation identity ``offered == completed + losses``
        holds regardless of how many times it was requeued.
        """
        self.requeued += 1
        self._requeues.inc()

    def record_loss(self, request: Request, kind: str, now: float) -> None:
        """A request ended without a response (drop/shed/reject/expire)."""
        if kind == "drop":
            self.dropped += 1
        elif kind == "shed":
            self.shed += 1
        elif kind == "reject":
            self.rejected += 1
        elif kind == "expire":
            self.expired += 1
        else:
            raise ConfigurationError(f"unknown loss kind {kind!r}")
        self._losses[kind].inc()

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
    def losses(self) -> int:
        """Requests that ended without a response."""
        return self.dropped + self.shed + self.rejected + self.expired

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed requests that missed their deadline."""
        if not self.completed:
            return 0.0
        return 1.0 - self.deadline_met / self.completed

    @property
    def deadline_attainment(self) -> float:
        """Fraction of completed requests that met their deadline."""
        if not self.completed:
            return 1.0
        return self.deadline_met / self.completed
