"""Append-only event log with typed events and simple querying.

Trovi's impact metrics (views, launch clicks, executions — §5 of the
paper) are *derived* quantities over a raw interaction log.
:class:`EventLog` is that log: an append-only sequence of :class:`Event`
records that can be filtered, counted, and grouped without mutating the
underlying history.  Only :mod:`repro.artifacts` keeps one; serving and
faults report through the tracer and the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True)
class Event:
    """A single immutable log entry.

    Attributes
    ----------
    time:
        Simulated timestamp (seconds).
    kind:
        Event type tag, e.g. ``"artifact.launch"`` or ``"lease.start"``.
    subject:
        The entity the event is about (artifact id, node id, ...).
    actor:
        Who caused it (user id, daemon id), or ``""`` for system events.
    payload:
        Arbitrary extra fields.
    """

    time: float
    kind: str
    subject: str
    actor: str = ""
    payload: dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only store of :class:`Event` records.

    Events must be appended in non-decreasing time order (the emulation
    is single-threaded over a simulated clock, so this is natural) —
    enforcement catches accidentally unsorted replay files.
    """

    def __init__(self) -> None:
        self._events: list[Event] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def append(
        self,
        time: float,
        kind: str,
        subject: str,
        actor: str = "",
        **payload: Any,
    ) -> Event:
        """Append a new event and return it."""
        if self._events and time < self._events[-1].time:
            raise ValueError(
                f"events must be appended in time order: "
                f"last={self._events[-1].time}, new={time}"
            )
        event = Event(float(time), kind, subject, actor, dict(payload))
        self._events.append(event)
        return event

    # ------------------------------------------------------------ query

    def filter(
        self,
        kind: str | None = None,
        subject: str | None = None,
        actor: str | None = None,
        since: float | None = None,
        until: float | None = None,
        predicate: Callable[[Event], bool] | None = None,
    ) -> list[Event]:
        """Return events matching every given criterion."""
        out = []
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if subject is not None and event.subject != subject:
                continue
            if actor is not None and event.actor != actor:
                continue
            if since is not None and event.time < since:
                continue
            if until is not None and event.time > until:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def count(self, **kwargs: Any) -> int:
        """Number of events matching :meth:`filter` criteria."""
        return len(self.filter(**kwargs))

    def distinct_actors(self, kind: str | None = None) -> set[str]:
        """Set of distinct non-empty actors (optionally for one kind)."""
        return {
            event.actor
            for event in self.filter(kind=kind)
            if event.actor
        }

    def group_by_kind(self) -> dict[str, int]:
        """Histogram of event kinds."""
        hist: dict[str, int] = {}
        for event in self._events:
            hist[event.kind] = hist.get(event.kind, 0) + 1
        return hist

    def last(self, kind: str | None = None) -> Event | None:
        """Most recent event (optionally of a given kind)."""
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None
