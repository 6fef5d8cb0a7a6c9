"""Opt-in event-scheduler instrumentation.

The :class:`~repro.common.clock.EventScheduler` dispatch loop stays
hook-free (and therefore free) by default; this module attaches the
observability stack to it when a run *wants* event-level visibility —
profiling which labels dominate a scenario, or watching queue depth
while tuning fleet size.

``instrument_scheduler`` installs a fire hook that counts deliveries
per event label into a :class:`~repro.obs.metrics.MetricsRegistry`
(``sched.fired{label=...}``) and tracks the live-event high-water mark
(``sched.pending.max`` gauge, O(1) via the scheduler's counter).  It
returns an uninstall callable; nothing is recorded after uninstall, and
schedulers without instrumentation keep their no-hook fast path.
"""

from __future__ import annotations

from typing import Callable

from repro.common.clock import EventScheduler, ScheduledEvent
from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["instrument_scheduler"]


def instrument_scheduler(
    scheduler: EventScheduler, metrics: MetricsRegistry
) -> Callable[[], None]:
    """Count event deliveries into ``metrics`` until uninstalled."""
    fired: dict[str, Counter] = {}  # bound once per label
    pending_max = metrics.gauge("sched.pending.max")

    def hook(event: ScheduledEvent) -> None:
        label = event.label or "unlabelled"
        counter = fired.get(label)
        if counter is None:
            counter = fired[label] = metrics.counter("sched.fired", label=label)
        counter.inc()
        depth = scheduler.pending
        if depth > pending_max.value:
            pending_max.set(depth)

    scheduler.set_fire_hook(hook)

    def uninstall() -> None:
        scheduler.set_fire_hook(None)

    return uninstall
