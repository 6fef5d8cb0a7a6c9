"""Seeded fault injection on the discrete-event clock.

The :class:`FaultInjector` owns one :class:`~repro.faults.plan.FaultPlan`
and plays two roles:

* **pure oracle** — window faults (partitions, degradation, transient
  store errors, slow nodes) are answered directly from the plan
  (:meth:`active`, :meth:`latency_factor`, :meth:`should_fail`), so any
  component that knows the simulated time can consult them without an
  event ever firing;
* **action dispatcher** — faults that must *do* something (crash a
  replica, freeze and later thaw a hung one) are armed on an
  :class:`~repro.common.clock.EventScheduler` and dispatched to
  handlers registered with :meth:`on` / :meth:`on_clear`.

Every spec gets its own rng stream keyed by
``seed_from_name(f"{kind}:{target}:{index}", seed)``, so a chaos
scenario replays byte-identically per seed no matter which components
consult it or in what order the fleet grew.
"""

from __future__ import annotations

from typing import Callable

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng, seed_from_name
from repro.faults.plan import WINDOW_KINDS, FaultKind, FaultPlan, FaultSpec
from repro.obs.tracer import NullTracer, Tracer

__all__ = ["FaultInjector", "FaultHandler"]

#: A fault handler: called with the firing spec and its seeded stream.
FaultHandler = "Callable[[FaultSpec, object], None]"


class FaultInjector:
    """Schedule a :class:`FaultPlan` and answer fault-state queries."""

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        tracer: Tracer | None = None,
    ) -> None:
        self.plan = plan
        self.seed = int(seed)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.started = 0
        self.cleared = 0
        self._armed = False
        self._handlers: dict[FaultKind, list[Callable]] = {}
        self._clear_handlers: dict[FaultKind, list[Callable]] = {}
        self._rngs = [
            ensure_rng(
                seed_from_name(
                    f"{spec.kind.value}:{spec.target}:{index}", self.seed
                )
            )
            for index, spec in enumerate(plan)
        ]

    # --------------------------------------------------------- handlers

    def on(self, kind: FaultKind, handler: Callable) -> None:
        """Register ``handler(spec, rng)`` for fault starts of ``kind``."""
        self._handlers.setdefault(kind, []).append(handler)

    def on_clear(self, kind: FaultKind, handler: Callable) -> None:
        """Register ``handler(spec, rng)`` for fault windows ending."""
        self._clear_handlers.setdefault(kind, []).append(handler)

    # ----------------------------------------------------------- arming

    def arm(self, scheduler: EventScheduler) -> None:
        """Schedule every spec's start (and window end) on ``scheduler``.

        Idempotent: arming twice is a no-op, so the service that owns
        the injector and a test that also holds it cannot double-fire.
        """
        if self._armed:
            return
        self._armed = True
        now = scheduler.clock.now
        for index, spec in enumerate(self.plan):
            if spec.at_s < now:
                raise ConfigurationError(
                    f"fault {spec.kind.value}@{spec.at_s}s is already in the "
                    f"past (now={now})"
                )
            scheduler.schedule_at(
                spec.at_s,
                self._make_fire(index, spec),
                label="fault.start",
            )
            if spec.kind in WINDOW_KINDS:
                scheduler.schedule_at(
                    spec.end_s,
                    self._make_clear(index, spec),
                    label="fault.clear",
                )

    def _make_fire(self, index: int, spec: FaultSpec) -> Callable[[], None]:
        def fire() -> None:
            self.started += 1
            self.tracer.event(
                f"fault.start.{spec.kind.value}",
                target=spec.target,
                duration_s=spec.duration_s,
            )
            for handler in self._handlers.get(spec.kind, []):
                handler(spec, self._rngs[index])

        return fire

    def _make_clear(self, index: int, spec: FaultSpec) -> Callable[[], None]:
        def clear() -> None:
            self.cleared += 1
            self.tracer.event(
                f"fault.clear.{spec.kind.value}", target=spec.target
            )
            for handler in self._clear_handlers.get(spec.kind, []):
                handler(spec, self._rngs[index])

        return clear

    # ---------------------------------------------------- state queries

    def active(self, kind: FaultKind, target: str, now: float) -> bool:
        """Whether any ``kind`` fault covers ``target`` at time ``now``."""
        return any(
            spec.kind is kind and spec.active_at(now) and spec.matches(target)
            for spec in self.plan
        )

    def latency_factor(self, target: str, now: float) -> float:
        """Product of active degrade / slow-node factors over ``target``."""
        factor = 1.0
        for spec in self.plan:
            if (
                spec.kind in (FaultKind.LINK_DEGRADE, FaultKind.SLOW_NODE)
                and spec.active_at(now)
                and spec.matches(target)
            ):
                factor *= spec.factor
        return factor

    def should_fail(self, kind: FaultKind, target: str, now: float) -> bool:
        """One seeded failure draw against the active ``kind`` fault.

        Draws come from the covering spec's own stream, in call order —
        deterministic for a deterministic caller.  Returns ``False``
        when no fault covers the target.
        """
        for index, spec in enumerate(self.plan):
            if spec.kind is kind and spec.active_at(now) and spec.matches(target):
                if spec.error_rate >= 1.0:
                    return True
                return bool(
                    self._rngs[index].uniform() < spec.error_rate
                )
        return False
