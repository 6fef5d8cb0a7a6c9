"""Simulated time for the testbed, edge, and network emulations.

The paper's system runs against wall-clock time (lease start dates,
container boot times, transfer durations).  For a deterministic
reproduction everything runs on a :class:`Clock` — a monotonically
advancing simulated timestamp — plus a discrete-event scheduler
(:class:`EventScheduler`) that every subsystem (testbed leases, edge
daemons, net transfers, serve batching, faults, fleet) shares.

No component in :mod:`repro` reads the real wall clock.

Scale notes
-----------
The scheduler is sized for millions of events over 100k entities while
keeping the original observable contract (timestamp order, FIFO within
an instant via ``(time, seq)``, overdue events firing at the current
time):

* The heap stores ``(time, seq, event)`` tuples so sift comparisons run
  at C speed instead of calling a Python ``__lt__``.
* ``pending`` is O(1): a live counter is maintained on schedule /
  cancel / fire instead of scanning the heap.
* Cancellation is tombstone-free at scale: cancelled entries are
  counted, and once tombstones outnumber live events (past a small
  floor) the heap is compacted in one O(n) pass — a cancel-heavy
  workload (serve's batcher wake events) can no longer rot the heap
  until the tombstones' due times.
* ``run_until`` drains all same-instant events with a single clock
  adjustment, and the dispatch loop has a no-hook fast path; an
  optional fire hook (:meth:`EventScheduler.set_fire_hook`) lets obs
  trace event delivery without taxing untraced runs.

An automatic fired-event freelist was considered and rejected:
cancellation handles escape to consumers (serve keeps wake/in-flight
events in maps and may cancel them after they fire), so silently
recycling a fired event would alias a live handle and let a stale
``cancel()`` kill an unrelated event.  Instead, reuse is explicit:
:meth:`EventScheduler.reschedule` moves (or revives) an event the
*caller* hands back — the rotate-a-watchdog pattern (serve's batcher
wakes, deadline timers) then runs without allocating a new event or
closure per rotation.  Incarnations are distinguished by ``seq``, so a
superseded heap entry is just another tombstone.  Remaining allocation
churn is cut by ``__slots__`` on :class:`ScheduledEvent` and the
tuple-based heap.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.common.errors import ClockError

__all__ = ["Clock", "EventScheduler", "ScheduledEvent"]


class Clock:
    """A monotonically advancing simulated clock.

    Time is a float number of seconds since an arbitrary epoch (0.0).
    ``advance`` moves time forward; ``advance_to`` jumps to an absolute
    timestamp.  Moving backwards raises :class:`ClockError` — simulated
    time, like real time, only goes one way — and so does a NaN or
    infinite time or step, which would leave the clock where no later
    time can follow it.

    >>> clock = Clock()
    >>> clock.advance(5.0)
    5.0
    >>> clock.now
    5.0
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not 0 <= start < math.inf:
            raise ClockError(f"clock start must be finite and >= 0: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time."""
        if not 0 <= seconds < math.inf:
            raise ClockError(f"cannot advance by {seconds}: negative or not finite")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump to an absolute ``timestamp`` (must not be in the past)."""
        if not self._now <= timestamp < math.inf:
            raise ClockError(
                f"cannot move clock to {timestamp}: past or not finite "
                f"(now={self._now})"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self._now:.3f})"


class ScheduledEvent:
    """An event queued on an :class:`EventScheduler`.

    The scheduler's heap orders ``(time, seq, event)`` entries, and
    ``seq`` is unique, so events scheduled for the same instant fire in
    FIFO order and are never compared.  ``cancel()`` marks the event so the
    scheduler skips it; cancelling an event that already fired (or was
    already cancelled) is a no-op.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "_scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        self._scheduler: EventScheduler | None = None

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when due.

        Cancelling an event that already fired is a harmless no-op (the
        ``_scheduler`` backref doubles as the in-heap marker and is
        cleared when the event leaves the heap).
        """
        if self.cancelled:
            return
        self.cancelled = True
        scheduler = self._scheduler
        if scheduler is not None:
            # Inlined accounting (hot path): the entry left in the heap
            # becomes a tombstone; compact once tombstones dominate.
            scheduler._live -= 1
            scheduler._tombstones += 1
            if (
                scheduler._tombstones > scheduler._COMPACT_FLOOR
                and scheduler._tombstones > scheduler._live
            ):
                scheduler._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return (
            f"ScheduledEvent(time={self.time!r}, seq={self.seq}, "
            f"label={self.label!r}, {state})"
        )


class EventScheduler:
    """A discrete-event scheduler driving a shared :class:`Clock`.

    Events are callbacks scheduled at absolute simulated times.  Calling
    :meth:`run_until` advances the clock through every due event in
    timestamp order, firing callbacks as it goes.  Callbacks may
    schedule further events.

    The testbed lease manager uses this to expire leases; edge device
    daemons use it for heartbeats; the network layer for transfer
    completions; serve for batch wakes and completions.

    Failure contract: if a callback raises, the clock rests at the
    failing event's time, that event is consumed, every other queued
    event stays queued, and the exception propagates.  The final
    jump to ``run_until``'s target timestamp is skipped.
    """

    # Compact when tombstones outnumber live events, but never bother
    # below this floor — tiny heaps pay more in heapify than in scans.
    _COMPACT_FLOOR = 64

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else Clock()
        # Heap of (time, seq, event): tuple comparison keeps sift
        # operations at C speed; seq is unique so the event object is
        # never compared.
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._live = 0  # non-cancelled events currently in the heap
        self._tombstones = 0  # cancelled events still occupying heap slots
        self._fire_hook: Callable[[ScheduledEvent], None] | None = None

    def schedule_at(
        self, timestamp: float, callback: Callable[[], Any], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated ``timestamp``."""
        now = self.clock._now
        if not now <= timestamp < math.inf:
            raise ClockError(
                f"cannot schedule at {timestamp}: past or not finite (now={now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(float(timestamp), seq, callback, label)
        event._scheduler = self
        heapq.heappush(self._heap, (event.time, seq, event))
        self._live += 1
        return event

    def schedule_in(
        self, delay: float, callback: Callable[[], Any], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if not 0 <= delay < math.inf:
            raise ClockError(f"delay {delay} is negative or not finite")
        return self.schedule_at(self.clock._now + delay, callback, label)

    def reschedule(
        self,
        event: ScheduledEvent | None,
        timestamp: float,
        callback: Callable[[], Any] | None = None,
        label: str = "",
    ) -> ScheduledEvent:
        """Move ``event`` to ``timestamp``, reusing the event object.

        The allocation-free rotation primitive: cancel-and-replace in
        one call.  ``event`` may be live (its old slot becomes a
        tombstone), already fired or cancelled (the object is revived),
        or ``None`` (a fresh event is scheduled — ``callback`` is then
        required).  The callback and label carry over unless overridden.
        Each incarnation takes a fresh ``seq``, so ordering is exactly
        what ``event.cancel()`` + ``schedule_at(...)`` would produce.
        """
        now = self.clock._now
        if not now <= timestamp < math.inf:
            raise ClockError(
                f"cannot schedule at {timestamp}: past or not finite (now={now})"
            )
        if event is None:
            if callback is None:
                raise ClockError("reschedule of a fresh event needs a callback")
            return self.schedule_at(timestamp, callback, label)
        if event._scheduler is not None and event._scheduler is not self:
            raise ClockError("cannot reschedule an event owned by another scheduler")
        if event._scheduler is self:
            if event.cancelled:
                # Tombstone already counted by cancel(); revive it.
                event.cancelled = False
                self._live += 1
            else:
                # Live: the superseded heap entry becomes a tombstone.
                self._tombstones += 1
        else:
            # Fired (or never scheduled here): plain fresh schedule.
            event.cancelled = False
            event._scheduler = self
            self._live += 1
        if callback is not None:
            event.callback = callback
        if label:
            event.label = label
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        event.time = float(timestamp)
        heapq.heappush(self._heap, (event.time, seq, event))
        if self._tombstones > self._COMPACT_FLOOR and self._tombstones > self._live:
            self._compact()
        return event

    def set_fire_hook(
        self, hook: Callable[[ScheduledEvent], None] | None
    ) -> None:
        """Install ``hook`` to observe every fired event (None to clear).

        The hook runs just before each callback.  With no hook installed
        the dispatch loop takes a branch-free fast path, so untraced
        runs pay nothing for the instrumentation point.
        """
        self._fire_hook = hook

    @property
    def pending(self) -> int:
        """Number of queued live (non-cancelled) events.  O(1)."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical heap slots, live events plus tombstones.  O(1).

        Compaction keeps this within a constant factor of ``pending``;
        benchmarks and tests use it to pin peak memory behaviour.
        """
        return len(self._heap)

    def _compact(self) -> None:
        """Drop every tombstone in one O(n) in-place rebuild.

        Heapify over (time, seq) tuples is total-order stable: seq is
        unique, so live events keep their exact firing order.  The list
        is compacted *in place* (slice assignment, never rebound):
        cancellation can run inside a callback while ``_drain`` iterates
        an alias of the heap, and rebinding would leave the drain loop
        popping a stale list while fired events linger in the new one.
        """
        heap = self._heap
        live: list[tuple[float, int, ScheduledEvent]] = []
        for entry in heap:
            event = entry[2]
            if event.seq != entry[1]:
                continue  # superseded incarnation; the event lives on
            if event.cancelled:
                event._scheduler = None
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._tombstones = 0

    def next_event_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` if idle."""
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            if event.seq != seq:
                heapq.heappop(heap)
            elif event.cancelled:
                heapq.heappop(heap)
                event._scheduler = None
            else:
                return time
            self._tombstones -= 1
        return None

    def run_until(self, timestamp: float) -> int:
        """Fire every event due at or before ``timestamp``.

        The clock ends exactly at ``timestamp`` even if no event was due
        then.  Returns the number of callbacks fired.  All events at one
        instant are drained with a single clock adjustment.  If a
        callback raises, the clock stays at the failing event's time and
        the exception propagates (see the class failure contract).
        """
        if not self.clock.now <= timestamp < math.inf:
            raise ClockError(
                f"cannot run until {timestamp}: past or not finite "
                f"(now={self.clock.now})"
            )
        fired = self._drain(timestamp, None)
        self.clock.advance_to(timestamp)
        return fired

    def _drain(self, timestamp: float, max_events: int | None) -> int:
        """Pop and fire due events, up to ``max_events`` if given."""
        heap = self._heap
        clock = self.clock
        hook = self._fire_hook
        fired = 0
        while heap and heap[0][0] <= timestamp:
            if max_events is not None and fired >= max_events:
                break
            time, seq, event = heapq.heappop(heap)
            if event.seq != seq:
                self._tombstones -= 1  # superseded incarnation
                continue
            event._scheduler = None
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._live -= 1
            # One adjustment per instant: same-time successors skip it.
            # Overdue events (someone advanced the shared clock directly,
            # e.g. a blocking deploy) fire immediately at the current time.
            if time > clock._now:
                clock._now = time
            if hook is not None:
                hook(event)
            event.callback()
            fired += 1
        return fired

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Fire events until the queue drains (bounded by ``max_events``).

        The bound is enforced per event: exactly ``max_events`` callbacks
        fire before :class:`ClockError`, even when many events share one
        instant.
        """
        fired = 0
        while True:
            next_time = self.next_event_time()
            if next_time is None:
                return fired
            if fired >= max_events:
                raise ClockError(
                    f"scheduler did not drain after {max_events} events"
                )
            fired += self._drain(next_time, max_events - fired)
            self.clock.advance_to(max(next_time, self.clock.now))
