"""Chaos × trace integration: every injected fault is observable.

Runs the shared ``chaos_service`` fixture with a tracer attached and
checks the trace tells the whole story: each planned fault start (and
window clear) appears as an instant event, a crash leaves an
error-status replica span and an open breaker, and a hang leaves an
error-status ``serve.replica.hang`` span covering its window.
"""

from __future__ import annotations

import pytest

from repro.common.clock import EventScheduler
from repro.faults.breaker import BreakerState
from repro.faults.plan import FaultKind
from repro.obs.export import chrome_trace, text_tree
from repro.obs.span import STATUS_ERROR
from repro.obs.tracer import Tracer
from repro.serve.workload import PoissonWorkload


def traced_run(chaos_service, plan, duration_s=2.0, rate_hz=300.0, **kw):
    scheduler = EventScheduler()
    tracer = Tracer(scheduler.clock)
    service = chaos_service(
        plan=plan, tracer=tracer, scheduler=scheduler, **kw
    )
    service.run(PoissonWorkload(rate_hz, deadline_s=0.2, seed=5), duration_s)
    tracer.close_all()
    return service, tracer


class TestFaultEventsAppear:
    def test_every_plan_entry_has_a_start_event(self, chaos_service):
        plan = [
            (FaultKind.REPLICA_CRASH, "replica-0001", 0.5),
            (FaultKind.REPLICA_HANG, "replica-0002", 0.8, 0.5),
            (FaultKind.SLOW_NODE, "replica-*", 1.0, 0.5, 3.0),
        ]
        service, tracer = traced_run(chaos_service, plan, n_replicas=2)
        starts = {e.name: e for e in tracer.events if "fault.start" in e.name}
        assert set(starts) == {
            "fault.start.replica-crash",
            "fault.start.replica-hang",
            "fault.start.slow-node",
        }
        assert starts["fault.start.replica-crash"].time_s == 0.5
        assert starts["fault.start.replica-crash"].attrs["target"] == "replica-0001"

    def test_window_faults_also_emit_clear_events(self, chaos_service):
        plan = [
            (FaultKind.REPLICA_HANG, "replica-0001", 0.5, 0.4),
            (FaultKind.SLOW_NODE, "replica-*", 0.6, 0.3, 2.0),
        ]
        _, tracer = traced_run(chaos_service, plan, n_replicas=2)
        clears = {e.name: e.time_s for e in tracer.events if "fault.clear" in e.name}
        assert clears == {
            "fault.clear.replica-hang": pytest.approx(0.9),
            "fault.clear.slow-node": pytest.approx(0.9),
        }


class TestCrashLeavesErrorSpans:
    def test_crashed_replica_span_is_error(self, chaos_service):
        plan = [(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)]
        service, tracer = traced_run(chaos_service, plan, n_replicas=2)
        assert service.crashes == 1
        crashed = [
            s for s in tracer.find("serve.replica")
            if s.attrs["replica"] == "replica-0001"
        ]
        assert len(crashed) == 1
        assert crashed[0].status == STATUS_ERROR
        assert crashed[0].error == "crash"
        assert crashed[0].end_s == 0.5

    def test_every_tripped_breaker_has_an_error_span(self, chaos_service):
        plan = [(FaultKind.REPLICA_CRASH, "replica-*", 0.5)]
        service, tracer = traced_run(chaos_service, plan, n_replicas=2)
        error_replicas = {
            s.attrs["replica"]
            for s in tracer.find("serve.replica")
            if s.status == STATUS_ERROR
        }
        tripped = [
            r.replica_id
            for r in service.replicas
            if r.breaker.state is BreakerState.OPEN
        ]
        assert tripped, "the crash plan should have tripped breakers"
        for replica_id in tripped:
            assert replica_id in error_replicas

    def test_in_flight_batch_on_crashed_replica_is_error(self, chaos_service):
        # Slow frames (1e10 FLOPs) make batches ~1 s long, so the crash
        # at 0.5 s is guaranteed to catch one mid-flight.
        plan = [(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)]
        service, tracer = traced_run(
            chaos_service, plan, rate_hz=600.0, n_replicas=1,
            flops_per_frame=1e10,
        )
        crashed_batches = [
            s for s in tracer.find("serve.batch") if s.error == "crash"
        ]
        assert service.slo.requeued > 0
        assert crashed_batches
        assert all(s.status == STATUS_ERROR for s in crashed_batches)
        assert all(s.end_s == 0.5 for s in crashed_batches)


class TestHangWindowSpans:
    def test_hang_span_covers_the_window(self, chaos_service):
        plan = [(FaultKind.REPLICA_HANG, "replica-0001", 0.5, 0.4)]
        service, tracer = traced_run(chaos_service, plan, n_replicas=2)
        assert service.hangs == 1
        hangs = tracer.find("serve.replica.hang")
        assert len(hangs) == 1
        span = hangs[0]
        assert span.start_s == 0.5
        assert span.end_s == pytest.approx(0.9)
        assert span.status == STATUS_ERROR
        assert span.error == "hang"
        assert span.attrs["replica"] == "replica-0001"


class TestTraceDeterminism:
    def test_same_seed_same_trace_bytes(self, chaos_service):
        plan = [
            (FaultKind.REPLICA_CRASH, "replica-0001", 0.5),
            (FaultKind.REPLICA_HANG, "replica-0002", 0.8, 0.5),
        ]
        exports = []
        for _ in range(2):
            _, tracer = traced_run(chaos_service, list(plan), n_replicas=3)
            exports.append((chrome_trace(tracer), text_tree(tracer)))
        assert exports[0] == exports[1]
