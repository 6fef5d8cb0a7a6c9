"""Reactive autoscaling: queue-depth and tail-latency driven.

The control loop samples the fleet every ``interval_s`` of simulated
time and compares two signals against the policy: mean queue depth per
routable replica, and the sliding-window p95 latency from the
:class:`~repro.serve.slo.SloTracker`.  Crossing the high watermarks
adds a replica — which only becomes routable after the provisioning
delay (``BARE_METAL_DEPLOY_S`` for bare-metal testbed nodes, far less
for a warm container), so the policy must be read against that lag.
Sustained quiet drains the newest replica away.

A cooldown suppresses flapping: after any scaling action the loop
holds still for ``cooldown_s`` regardless of the signals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.params import check_numbers
from repro.serve.replica import ReplicaState
from repro.testbed.provisioning import BARE_METAL_DEPLOY_S

__all__ = ["AutoscalePolicy", "Autoscaler"]

#: States that still hold (or will soon hold) serving capacity.
_ALIVE_STATES = (
    ReplicaState.PROVISIONING,
    ReplicaState.READY,
    ReplicaState.DRAINING,
)


@dataclass(frozen=True)
class AutoscalePolicy:
    """Watermarks and timing for the reactive scaling loop.

    Each field is refused at construction unless finite, ``>= 0`` and,
    for a replica count, whole (:func:`~repro.common.params.check_numbers`),
    and in its range.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    interval_s: float = 1.0
    queue_high: float = 8.0
    queue_low: float = 0.5
    p95_target_s: float = 0.1
    provision_delay_s: float = BARE_METAL_DEPLOY_S
    cooldown_s: float = 2.0

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.min_replicas < 1:
            raise ConfigurationError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError(
                f"max_replicas must be >= min_replicas {self.min_replicas}, "
                f"got {self.max_replicas}"
            )
        if self.queue_high <= self.queue_low:
            raise ConfigurationError(
                f"queue_high must be > queue_low {self.queue_low}, "
                f"got {self.queue_high}"
            )
        for name in ("interval_s", "p95_target_s"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")


class Autoscaler:
    """Periodic scale-up/down controller over an ``InferenceService``."""

    def __init__(self, service, policy: AutoscalePolicy | None = None) -> None:
        self.service = service
        self.policy = policy or AutoscalePolicy()
        self.scale_ups = 0
        self.scale_downs = 0
        self._cooldown_until = 0.0
        self._until_s = 0.0

    def start(self, until_s: float) -> None:
        """Begin ticking; no further ticks are scheduled past ``until_s``."""
        self._until_s = float(until_s)
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        scheduler = self.service.scheduler
        if scheduler.clock.now + self.policy.interval_s >= self._until_s:
            return
        scheduler.schedule_in(
            self.policy.interval_s, self._tick, label="autoscale.tick"
        )

    def _tick(self) -> None:
        now = self.service.scheduler.clock.now
        self._schedule_tick()
        routable = self.service.routable_replicas()
        pending = self.service.provisioning_count()
        # Crashed capacity is replaced ahead of the cooldown and the
        # empty-fleet guard: a fault that kills the last replica must not
        # leave the service dark until the watermarks notice.  Hung
        # replicas still count as alive — they thaw on their own.
        alive = sum(
            1 for r in self.service.replicas if r.state in _ALIVE_STATES
        )
        if alive < self.policy.min_replicas:
            self.service.add_replica(delay_s=self.policy.provision_delay_s)
            self.scale_ups += 1
            self._cooldown_until = now + self.policy.cooldown_s
            return
        if now < self._cooldown_until:
            return
        if not routable and not pending:
            return
        depth = (
            sum(len(replica.queue) for replica in routable) / len(routable)
            if routable
            else 0.0
        )
        p95 = self.service.slo.snapshot(now).window_p95_s
        policy = self.policy
        fleet = len(routable) + pending
        overloaded = depth > policy.queue_high or p95 > policy.p95_target_s
        if overloaded and routable and fleet < policy.max_replicas:
            self.service.add_replica(delay_s=policy.provision_delay_s)
            self.scale_ups += 1
            self._cooldown_until = now + policy.cooldown_s
            return
        quiet = depth < policy.queue_low and p95 <= policy.p95_target_s
        if quiet and pending == 0 and len(routable) > policy.min_replicas:
            if self.service.retire_replica() is None:
                return
            self.scale_downs += 1
            self._cooldown_until = now + policy.cooldown_s
