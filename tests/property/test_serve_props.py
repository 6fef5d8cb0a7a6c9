"""Property-based invariants for the serving subsystem.

Conservation (no request lost or double-served), FIFO within a
priority class, batch-size caps, and seed determinism must hold for
*any* workload shape — hypothesis drives the parameter space.  The
vehicle loop must match the per-tick loop it replaced under any
response timing, same-instant ties included, and the admission
queue's deadline heap must answer what full scans of the queue do.
"""

import functools
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.clock import EventScheduler
from repro.serve.queueing import AdmissionQueue
from repro.serve.replica import BatchLatencyModel
from repro.serve.request import Request, RequestStatus, TERMINAL_STATUSES
from repro.serve.service import InferenceService
from repro.serve.workload import PoissonWorkload, VehicleFleetWorkload
from tests.conftest import TickLog, record_offers

LATENCY = BatchLatencyModel(0.004, 0.0002)

SLOW_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_service(seed, rate, capacity, policy, batch_policy, replicas):
    """One Poisson run; returns the service and the requests offered."""
    service = InferenceService(
        LATENCY,
        n_replicas=replicas,
        batch_policy=batch_policy,
        queue_capacity=capacity,
        queue_policy=policy,
        seed=seed,
    )
    offered = record_offers(service)
    service.run(PoissonWorkload(rate, deadline_s=0.05, seed=seed), 1.0)
    return service, offered


service_params = {
    "seed": st.integers(0, 2**16),
    "rate": st.floats(50.0, 3000.0),
    "capacity": st.integers(1, 64),
    "policy": st.sampled_from(["drop", "shed", "backpressure"]),
    "batch_policy": st.sampled_from(["single", "size", "wait", "adaptive"]),
    "replicas": st.integers(1, 4),
}


class TestConservation:
    @SLOW_SETTINGS
    @given(**service_params)
    def test_no_request_lost_or_double_served(
        self, seed, rate, capacity, policy, batch_policy, replicas
    ):
        service, offered = run_service(
            seed, rate, capacity, policy, batch_policy, replicas
        )
        # Every submitted request ends in exactly one terminal status...
        assert all(r.status in TERMINAL_STATUSES for r in offered)
        # ...and the SLO ledger balances against the request list.
        by_status = Counter(r.status for r in offered)
        slo = service.slo
        assert slo.offered == len(offered)
        assert slo.completed == by_status[RequestStatus.COMPLETED]
        assert slo.offered == slo.completed + slo.losses
        # No double service: completed requests belong to exactly one
        # batch, and with no faults every batch the registry counted
        # completed.
        completed = [r for r in offered if r.status is RequestStatus.COMPLETED]
        assert all(r.batch_id for r in completed)
        batches = {r.batch_id for r in completed}
        assert len(batches) == service.metrics.count("serve.batches")

    @SLOW_SETTINGS
    @given(**service_params)
    def test_batches_never_exceed_cap(
        self, seed, rate, capacity, policy, batch_policy, replicas
    ):
        _, offered = run_service(
            seed, rate, capacity, policy, batch_policy, replicas
        )
        sizes = Counter(
            r.batch_id for r in offered if r.status is RequestStatus.COMPLETED
        )
        cap = 1 if batch_policy == "single" else 32
        assert all(size <= cap for size in sizes.values())


class TestFifoWithinPriority:
    @settings(max_examples=30, deadline=None)
    @given(
        priorities=st.lists(st.integers(0, 2), min_size=1, max_size=30),
        limit=st.integers(1, 30),
    )
    def test_pop_preserves_arrival_order_per_class(self, priorities, limit):
        queue = AdmissionQueue(capacity=64)
        for i, priority in enumerate(priorities):
            queue.offer(
                Request(f"req-{i:04d}", "test", float(i), 100.0, priority),
                float(i),
            )
        popped = queue.pop(limit)
        for priority in set(r.priority for r in popped):
            klass = [r.admitted_s for r in popped if r.priority == priority]
            assert klass == sorted(klass)

    @SLOW_SETTINGS
    @given(**service_params)
    def test_dispatch_order_fifo_within_class(
        self, seed, rate, capacity, policy, batch_policy, replicas
    ):
        _, offered = run_service(
            seed, rate, capacity, policy, batch_policy, replicas
        )
        # Per replica and priority class, dispatch order follows admission.
        per_key = {}
        completed = [r for r in offered if r.status is RequestStatus.COMPLETED]
        for request in sorted(
            completed, key=lambda r: (r.dispatched_s, r.batch_id)
        ):
            per_key.setdefault(
                (request.replica_id, request.priority), []
            ).append(request.admitted_s)
        for admissions in per_key.values():
            assert admissions == sorted(admissions)


class TestSeedDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_identical_seeds_identical_traces(self, seed):
        def trace():
            _, offered = run_service(seed, 500.0, 32, "drop", "adaptive", 2)
            return [
                (r.request_id, r.status.value, r.completed_s, r.batch_id)
                for r in offered
            ]

        assert trace() == trace()


@pytest.mark.parametrize("jitter", [0.0, 0.1])
def test_latency_model_sample_positive(jitter):
    model = BatchLatencyModel(0.005, 0.0001, jitter=jitter)
    assert model.sample(0, 16) > 0.0


# ------------------------------------------------------- the vehicle loop


class PerTickFleet(VehicleFleetWorkload):
    """The vehicle loop as it was: a new event and closure every tick.

    Only the phases and the counters' initial state come from the class
    under test; the loop and the outcome handlers are copies.  A
    :class:`TickLog` observes the streaks and the fresh-tick timeline of
    both loops alike.
    """

    def start(self, service, until_s):
        self._service = service
        self._until_s = float(until_s)
        now = service.scheduler.clock.now
        for vehicle, phase in enumerate(self._phases):
            if now + phase < self._until_s:
                service.scheduler.schedule_in(
                    phase, self._make_tick(vehicle), label="workload.vehicle"
                )

    def _make_tick(self, vehicle):
        def tick():
            self._tick(vehicle)

        return tick

    def _tick(self, vehicle):
        scheduler = self._service.scheduler
        now = scheduler.clock.now
        self.ticks += 1
        if self._outstanding[vehicle]:
            self.stale_ticks += 1
        else:
            self._count += 1
            frame = None
            if self._frames is not None:
                frame = self._frames[vehicle % len(self._frames)]
            request = Request(
                request_id=f"req-{self._count:06d}",
                source=f"veh-{vehicle:04d}",
                arrival_s=now,
                deadline_s=now + self.deadline_s,
                frame=frame,
            )
            self._outstanding[vehicle] = True
            self._service.submit(request)
        if now + self.dt < self._until_s:
            scheduler.schedule_in(
                self.dt, self._make_tick(vehicle), label="workload.vehicle"
            )

    def on_response(self, request):
        self._outstanding[int(request.source[4:])] = False

    def on_loss(self, request):
        self._outstanding[int(request.source[4:])] = False


class ScriptedService:
    """Answers or loses the i-th request as step i of a script says.

    A step is ``(outcome, when)``; ``outcome`` is ``"respond"`` or
    ``"lose"`` and ``when`` one of:

    * ``("now",)`` — inside ``submit``;
    * ``("delay", x)`` — an event at arrival + x;
    * ``("until", x)`` — an event at ``until_s + x``, in the drain;
    * ``("tick", m, how)`` — exactly at the vehicle's m-th tick after
      the arrival (the same ``t + dt`` sums the workload makes), by an
      event scheduled in ``submit`` (``"direct"``), or by one scheduled
      from a relay event at the tick before it (``"at-previous"``) or
      between the two ticks (``"between"``).  A relay between the two
      ticks runs after the vehicle's previous tick, so the scheduler
      orders the vehicle's tick first at the shared instant.
    """

    def __init__(self, workload, script, until_s):
        self.scheduler = EventScheduler()
        self.workload = workload
        self.script = script
        self.until_s = until_s
        self.trace = []

    def submit(self, request):
        self.trace.append(
            (request.request_id, request.source, request.arrival_s,
             request.deadline_s)
        )
        outcome, when = self.script[(len(self.trace) - 1) % len(self.script)]
        deliver = functools.partial(self._deliver, request, outcome)
        scheduler = self.scheduler
        if when[0] == "now":
            deliver()
        elif when[0] == "delay":
            scheduler.schedule_at(request.arrival_s + when[1], deliver)
        elif when[0] == "until":
            scheduler.schedule_at(self.until_s + when[1], deliver)
        else:
            _, later, how = when
            previous = tick = request.arrival_s
            for _ in range(later):
                previous, tick = tick, tick + self.workload.dt
            if how == "direct":
                scheduler.schedule_at(tick, deliver)
            else:
                relay_s = previous
                if how == "between":
                    relay_s = previous + (tick - previous) / 2
                    assert previous < relay_s < tick
                scheduler.schedule_at(
                    relay_s, functools.partial(scheduler.schedule_at, tick, deliver)
                )
        return True

    def _deliver(self, request, outcome):
        if outcome == "respond":
            request.status = RequestStatus.COMPLETED
            request.completed_s = self.scheduler.clock.now
            self.workload.on_response(request)
        else:
            request.status = RequestStatus.DROPPED
            self.workload.on_loss(request)


def fleet_readings(workload, log):
    return {
        "requests": workload.submitted,
        "ticks": workload.ticks,
        "stale_ticks": workload.stale_ticks,
        "max_stale_streak": log.max_stale_streak,
        "stale_ratio": workload.stale_ratio,
        "timeline": log.fresh_ratio_timeline(),
    }


def drive_fleet(fleet_cls, n_vehicles, dt, deadline_ticks, seed, until_s,
                read_s, script):
    workload = fleet_cls(
        n_vehicles, dt=dt, deadline_ticks=deadline_ticks, seed=seed
    )
    service = ScriptedService(workload, script, until_s)
    log = TickLog.attach(workload)
    workload.start(service, until_s)
    service.scheduler.run_until(read_s)
    mid_run = fleet_readings(workload, log)
    service.scheduler.run_until(until_s)
    service.scheduler.run_all()
    return service.trace, mid_run, fleet_readings(workload, log)


script_step = st.tuples(
    st.sampled_from(["respond", "lose"]),
    st.one_of(
        st.just(("now",)),
        st.tuples(st.just("delay"), st.floats(0.0, 0.3)),
        st.tuples(
            st.just("tick"),
            st.integers(1, 5),
            st.sampled_from(["direct", "at-previous", "between"]),
        ),
        st.tuples(st.just("until"), st.floats(0.0, 0.2)),
    ),
)


class TestVehicleLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        n_vehicles=st.integers(1, 4),
        dt=st.sampled_from([0.05, 0.1, 0.03]),
        deadline_ticks=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        until_s=st.floats(0.05, 1.5),
        read_frac=st.floats(0.0, 1.0),
        script=st.lists(script_step, min_size=1, max_size=12),
    )
    def test_matches_the_per_tick_loop(
        self, n_vehicles, dt, deadline_ticks, seed, until_s, read_frac, script
    ):
        args = (n_vehicles, dt, deadline_ticks, seed, until_s,
                until_s * read_frac, script)
        assert drive_fleet(VehicleFleetWorkload, *args) == drive_fleet(
            PerTickFleet, *args
        )

    def test_same_instant_order_follows_when_the_outcome_was_scheduled(self):
        # One vehicle, 20 ticks; each request is answered exactly on the
        # second tick after its arrival.  Scheduled at submit, the answer
        # comes first at that instant, so that tick submits again: one
        # stale tick per request.  Scheduled after the tick in between
        # ran, the tick comes first and is stale too: two per request.
        stats = {}
        for how in ("direct", "between"):
            args = (1, 0.05, 2, 3, 1.0, 0.5, [("respond", ("tick", 2, how))])
            readings = drive_fleet(VehicleFleetWorkload, *args)
            assert readings == drive_fleet(PerTickFleet, *args)
            stats[how] = readings[2]
        assert stats["direct"]["ticks"] == stats["between"]["ticks"] == 20
        assert (stats["direct"]["requests"], stats["direct"]["stale_ticks"]) == (
            10, 10
        )
        assert (
            stats["between"]["requests"], stats["between"]["stale_ticks"]
        ) == (7, 13)


# ------------------------------------------------------ the admission queue


class ScanQueue:
    """Brute-force model of :class:`AdmissionQueue`: lists, full scans.

    ``classes`` keeps each priority's FIFO in the order the priority was
    first admitted; every query scans all of it.
    """

    def __init__(self, capacity, policy):
        self.capacity = capacity
        self.policy = policy
        self.classes = {}

    def __len__(self):
        return sum(len(queue) for queue in self.classes.values())

    def offer(self, request):
        displaced = None
        if len(self) >= self.capacity:
            if self.policy != "shed":
                return False, None
            for priority in sorted(self.classes, reverse=True):
                if self.classes[priority] and priority >= request.priority:
                    displaced = self.classes[priority].pop(0)
                    break
            else:
                return False, None
        self.classes.setdefault(request.priority, []).append(request)
        return True, displaced

    def expire(self, now):
        expired = [
            request
            for queue in self.classes.values()
            for request in queue
            if request.deadline_s < now
        ]
        for priority, queue in self.classes.items():
            self.classes[priority] = [r for r in queue if r.deadline_s >= now]
        return expired

    def pop(self, limit):
        batch = [
            request
            for priority in sorted(self.classes)
            for request in self.classes[priority]
        ][:limit]
        for request in batch:
            self.classes[request.priority].remove(request)
        return batch

    def earliest_deadline_s(self):
        return min(
            (r.deadline_s for queue in self.classes.values() for r in queue),
            default=float("inf"),
        )

    def oldest_admitted_s(self):
        return min(
            (queue[0].admitted_s for queue in self.classes.values() if queue),
            default=float("inf"),
        )


queue_op = st.one_of(
    st.tuples(
        st.just("offer"),
        st.integers(0, 2),
        st.sampled_from([0.25, 0.5, 1.0, 1.0, 1.5, 3.0]),
    ),
    st.tuples(st.just("pop"), st.integers(1, 4)),
    st.tuples(st.just("expire")),
    st.tuples(st.just("again")),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 0.5])),
)


class TestDeadlineHeap:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        policy=st.sampled_from(["drop", "shed", "backpressure"]),
        ops=st.lists(queue_op, max_size=60),
    )
    def test_matches_full_scans(self, capacity, policy, ops):
        def ids(requests):
            return [request.request_id for request in requests]

        queue = AdmissionQueue(capacity, policy)
        model = ScanQueue(capacity, policy)
        now = 0.0
        offered = 0
        popped = []
        for op in ops:
            if op[0] == "offer" or (op[0] == "again" and popped):
                if op[0] == "offer":
                    offered += 1
                    request = Request(
                        f"req-{offered:04d}", "test", now, op[2], op[1]
                    )
                else:
                    # A rescued request goes round again, as _requeue does.
                    request = popped.pop()
                    request.status = RequestStatus.PENDING
                admitted, displaced = model.offer(request)
                got_admitted, got_displaced = queue.offer(request, now)
                assert got_admitted == admitted
                assert got_displaced is displaced
            elif op[0] == "pop":
                batch = queue.pop(op[1])
                assert ids(batch) == ids(model.pop(op[1]))
                popped.extend(batch)
            elif op[0] == "expire":
                assert ids(queue.expire(now)) == ids(model.expire(now))
            elif op[0] == "advance":
                now += op[1]
            assert len(queue) == len(model)
            assert queue.earliest_deadline_s() == model.earliest_deadline_s()
            assert queue.oldest_admitted_s() == model.oldest_admitted_s()
