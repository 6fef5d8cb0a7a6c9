"""Bounded admission queues with drop / shed / backpressure policies.

Every replica fronts a bounded FIFO (per priority class).  When the
queue is full, the admission policy decides who pays:

* ``drop`` — the *newest* arrival is rejected (tail drop, the default
  for open-loop traffic);
* ``shed`` — the *oldest* request of the least-important class is
  displaced to make room, provided the newcomer is at least as
  important (load shedding keeps fresh work over stale work);
* ``backpressure`` — the arrival is refused without being consumed, and
  the sender is expected to slow down (closed-loop vehicles simply keep
  their request slot busy).

Requests whose absolute deadline passes while queued are *expired* by
:meth:`AdmissionQueue.expire` — serving them would waste a batch slot
on a response nobody can use.  A deadline heap, whose entries for
requests that left the queue are dropped lazily when they reach its
top, answers :meth:`AdmissionQueue.earliest_deadline_s` and lets
``expire`` return at once while no deadline has passed, so a pump
scans the queue only when something actually expires.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections import deque

from repro.common.errors import ConfigurationError
from repro.serve.request import Request, RequestStatus

__all__ = ["AdmissionPolicy", "AdmissionQueue", "QUEUE_POLICIES"]


class AdmissionPolicy(enum.Enum):
    """What happens when an arrival finds the queue full."""

    DROP = "drop"  # reject the newest arrival
    SHED = "shed"  # displace the oldest least-important queued request
    BACKPRESSURE = "backpressure"  # refuse and signal the sender


QUEUE_POLICIES = tuple(policy.value for policy in AdmissionPolicy)


class AdmissionQueue:
    """A bounded, priority-classed FIFO admission queue."""

    def __init__(
        self, capacity: int, policy: str | AdmissionPolicy = AdmissionPolicy.DROP
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity must be >= 1, got {capacity}")
        if isinstance(policy, str):
            try:
                policy = AdmissionPolicy(policy)
            except ValueError:
                raise ConfigurationError(
                    f"unknown admission policy {policy!r}; "
                    f"choose from {QUEUE_POLICIES}"
                ) from None
        self.capacity = int(capacity)
        self.policy = policy
        self._classes: dict[int, deque[Request]] = {}
        self._depth = 0
        # (deadline_s, entry, request) heap.  ``_live`` maps id(request)
        # to the entry number of its current admission, so an entry of a
        # request that was popped, shed or expired (or admitted again
        # since) is stale and is discarded when it surfaces.
        self._deadlines: list[tuple[float, int, Request]] = []
        self._live: dict[int, int] = {}
        self._entries = 0

    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        """Number of queued requests across all priority classes."""
        return self._depth

    # --------------------------------------------------------- admission

    def offer(self, request: Request, now: float) -> tuple[bool, Request | None]:
        """Try to admit ``request`` at simulated time ``now``.

        Returns ``(admitted, displaced)``: ``displaced`` is the request
        shed to make room (``shed`` policy only), already marked
        :attr:`RequestStatus.DROPPED`.  A refused arrival is marked
        ``DROPPED`` (drop policy) or ``REJECTED`` (backpressure).
        """
        displaced: Request | None = None
        if self._depth >= self.capacity:
            if self.policy is AdmissionPolicy.DROP:
                request.status = RequestStatus.DROPPED
                return False, None
            if self.policy is AdmissionPolicy.BACKPRESSURE:
                request.status = RequestStatus.REJECTED
                return False, None
            displaced = self._shed_for(request)
            if displaced is None:
                # Everything queued outranks the newcomer: drop it.
                request.status = RequestStatus.DROPPED
                return False, None
        request.status = RequestStatus.QUEUED
        request.admitted_s = now
        self._classes.setdefault(request.priority, deque()).append(request)
        self._depth += 1
        deadline = request.deadline_s
        if deadline == deadline:  # a NaN deadline never expires nor is earliest
            entry = self._entries
            self._entries = entry + 1
            self._live[id(request)] = entry
            heapq.heappush(self._deadlines, (deadline, entry, request))
            if len(self._deadlines) > 2 * self._depth + 64:
                self._compact()
        return True, displaced

    def _shed_for(self, incoming: Request) -> Request | None:
        """Displace the oldest request of the least-important class that
        the incoming request is allowed to replace."""
        for priority in sorted(self._classes, reverse=True):
            queue = self._classes[priority]
            if queue and priority >= incoming.priority:
                victim = queue.popleft()
                self._depth -= 1
                self._live.pop(id(victim), None)
                victim.status = RequestStatus.DROPPED
                return victim
        return None

    # ----------------------------------------------------------- service

    def expire(self, now: float) -> list[Request]:
        """Remove and return every queued request whose deadline passed.

        Classes in the order they were first admitted, FIFO within each.
        """
        if not self.earliest_deadline_s() < now:
            return []
        expired: list[Request] = []
        live = self._live
        for priority, queue in self._classes.items():
            if not queue:
                continue
            keep: deque[Request] = deque()
            for request in queue:
                if request.deadline_s < now:
                    request.status = RequestStatus.EXPIRED
                    expired.append(request)
                    live.pop(id(request), None)
                else:
                    keep.append(request)
            self._classes[priority] = keep
        self._depth -= len(expired)
        return expired

    def pop(self, limit: int) -> list[Request]:
        """Dequeue up to ``limit`` requests, priority then FIFO order."""
        if limit < 1:
            raise ConfigurationError(f"pop limit must be >= 1, got {limit}")
        batch: list[Request] = []
        for priority in sorted(self._classes):
            queue = self._classes[priority]
            while queue and len(batch) < limit:
                batch.append(queue.popleft())
            if len(batch) >= limit:
                break
        self._depth -= len(batch)
        live = self._live
        for request in batch:
            live.pop(id(request), None)
        return batch

    def oldest_admitted_s(self) -> float:
        """Admission time of the longest-waiting request (inf if empty)."""
        oldest = float("inf")
        for queue in self._classes.values():
            if queue:
                oldest = min(oldest, queue[0].admitted_s)
        return oldest

    def earliest_deadline_s(self) -> float:
        """Tightest absolute deadline among queued requests (inf if empty)."""
        heap = self._deadlines
        live = self._live
        while heap:
            deadline, entry, request = heap[0]
            if live.get(id(request)) == entry:
                return deadline
            heapq.heappop(heap)
        return math.inf

    def _compact(self) -> None:
        """Drop every stale heap entry in one pass."""
        live = self._live
        self._deadlines = [
            item for item in self._deadlines if live.get(id(item[2])) == item[1]
        ]
        heapq.heapify(self._deadlines)
