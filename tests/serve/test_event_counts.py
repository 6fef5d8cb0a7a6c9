"""Scheduler events a serving run fires, and the kept routable set.

A vehicle tick is one scheduler event, and each vehicle moves one event
from tick to tick instead of making a new one (and a closure) per tick;
counting what the scheduler fires and creates keeps a per-tick
allocation from coming back unnoticed.  The service keeps its routable
set between placements; comparing it with a full scan after every
event and at every placement of a randomized fault run, autoscaler
on, keeps a missed invalidation from going unnoticed.  The same run
checks the serving state each replica holds at every event.
"""

from collections import Counter

import pytest

from repro.common.clock import EventScheduler
from repro.eval import runner
from repro.eval.library import matrix_specs, scenario_spec
from repro.faults import FaultInjector, FaultPlan
from repro.faults.breaker import BreakerState
from repro.obs.metrics import MetricsRegistry
from repro.obs.sched import instrument_scheduler
from repro.obs.tracer import Tracer
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.replica import BatchLatencyModel, ReplicaState
from repro.serve.service import InferenceService
from repro.serve.workload import VehicleFleetWorkload
from repro.testbed.hardware import GPU_SPECS


class CountingScheduler(EventScheduler):
    """A scheduler with ``instrument_scheduler`` attached that also
    counts the events it creates, per label."""

    def __init__(self, clock=None):
        super().__init__(clock)
        self.metrics = MetricsRegistry()
        instrument_scheduler(self, self.metrics)
        self.created = Counter()

    def schedule_at(self, timestamp, callback, label=""):
        self.created[label] += 1
        return super().schedule_at(timestamp, callback, label)


def counted_run(monkeypatch, spec):
    schedulers = []

    def make():
        schedulers.append(CountingScheduler())
        return schedulers[-1]

    monkeypatch.setattr(runner, "EventScheduler", make)
    run = runner.run_scenario(spec, seed=1)
    (scheduler,) = schedulers
    return scheduler, run.artifacts["workload"]


@pytest.mark.parametrize(
    "spec",
    [scenario_spec("chaos-crash"), matrix_specs()[-1]],
    ids=lambda spec: spec.name,
)
def test_one_event_per_tick_through_one_event_per_vehicle(monkeypatch, spec):
    scheduler, workload = counted_run(monkeypatch, spec)
    fired = scheduler.metrics.counter("sched.fired", label="workload.vehicle")
    assert workload.stale_ticks > 0
    assert fired.value == workload.ticks
    assert scheduler.created["workload.vehicle"] == workload.n_vehicles


def full_scan(service, now):
    """The routable set as a scan of every replica computes it."""
    out = []
    for replica in service.replicas:
        if not replica.routable or replica.is_hung(now):
            continue
        if replica.breaker is not None and not replica.breaker.peek(now):
            continue
        out.append(replica)
    return out


def check_replica_state(replica, now):
    """A pending completion exactly while a batch is in flight, and
    neither a batch nor a wake once the replica has failed or retired."""
    where = (now, replica.replica_id)
    completion = replica.completion
    pending = completion is not None and not completion.cancelled
    assert pending == bool(replica.inflight), where
    if replica.state in (ReplicaState.FAILED, ReplicaState.RETIRED):
        assert not replica.inflight and replica.wake is None, where


@pytest.mark.parametrize(
    ("seed", "provision_delay_s"), [(0, 0.5), (0, 0.0), (2, 0.5)]
)
def test_kept_routable_set_matches_a_full_scan(seed, provision_delay_s):
    replicas = 3
    duration_s = 10.0
    plan = FaultPlan.randomized(
        [f"replica-{i:04d}" for i in range(1, replicas + 1)],
        duration_s=duration_s,
        rng=seed,
        n_faults=6,
    )
    scheduler = EventScheduler()
    tracer = Tracer(scheduler.clock)
    service = InferenceService(
        BatchLatencyModel.from_gpu(GPU_SPECS["V100"], 1e8),
        scheduler=scheduler,
        n_replicas=replicas,
        seed=seed,
        injector=FaultInjector(plan, seed=seed),
        tracer=tracer,
    )
    autoscaler = Autoscaler(service, AutoscalePolicy(
        min_replicas=replicas - 1, max_replicas=2 * replicas,
        interval_s=0.5, provision_delay_s=provision_delay_s,
        queue_low=4.0, p95_target_s=0.5, cooldown_s=0.5,
    ))
    checked = []

    def check(_event=None):
        now = service.scheduler.clock.now
        assert service.routable_replicas() == full_scan(service, now), now
        for replica in service.replicas:
            check_replica_state(replica, now)
        checked.append(now)

    route = service.router.route

    def checked_route(routable, request, now):
        assert routable == full_scan(service, now), now
        return route(routable, request, now)

    # The hook runs before each event, so it sees the state every
    # earlier event left behind, at the next event's time; the router
    # sees the set each placement uses, within an event too.
    service.scheduler.set_fire_hook(check)
    service.router.route = checked_route
    service.run(
        VehicleFleetWorkload(24, deadline_ticks=4, seed=seed),
        duration_s,
        autoscaler=autoscaler,
    )
    check()
    # The drain leaves no batch, wake or batch span behind.
    for replica in service.replicas:
        assert not replica.inflight and replica.completion is None
        assert replica.wake is None and replica.batch_span is None
    assert not [span for span in tracer.open_spans if span.name == "serve.batch"]
    assert len(checked) > 1000
    assert service.crashes and service.hangs
    assert autoscaler.scale_ups and autoscaler.scale_downs
    assert any(
        to is BreakerState.HALF_OPEN
        for replica in service.replicas
        for _, _, to in replica.breaker.transitions
    )
