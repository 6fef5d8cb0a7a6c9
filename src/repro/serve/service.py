"""The inference service: replicas + router + batching on the event loop.

:class:`InferenceService` wires the serving pieces together over one
:class:`~repro.common.clock.EventScheduler`:

1. a workload generator submits a :class:`~repro.serve.request.Request`;
2. the router picks a routable replica, whose bounded queue admits or
   refuses it;
3. the replica's micro-batcher decides to fire now or to wake later;
4. a dispatched batch occupies the replica for one sampled batch
   latency (optionally running a *real* batched model forward pass for
   the responses), then completions feed the SLO tracker, the router's
   latency feedback, and the workload's closed loop.

Every decision is a pure function of queue state and simulated time,
and every random draw comes from seeded per-replica streams keyed by
``seed_from_name`` — so the same seed yields a byte-identical
:class:`ServeSummary`, independent of fleet size or scaling history.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError, ServeError
from repro.common.ids import IdFactory
from repro.common.rng import seed_from_name
from repro.faults.breaker import BreakerPolicy, BreakerState, CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultSpec
from repro.net.topology import Route
from repro.obs.metrics import MetricsRegistry, SeriesHandle, ensure_registry
from repro.obs.span import STATUS_ERROR, Span
from repro.obs.tracer import NullTracer, Tracer
from repro.serve.autoscale import Autoscaler
from repro.serve.batcher import MicroBatcher
from repro.serve.queueing import AdmissionQueue
from repro.serve.replica import BatchLatencyModel, Replica, ReplicaState
from repro.serve.request import Request, RequestStatus
from repro.serve.router import Router, make_router
from repro.serve.slo import SloTracker
from repro.serve.workload import Workload

__all__ = ["InferenceService", "ServeSummary"]


@dataclass
class ServeSummary:
    """Deterministic end-of-run report for one serving experiment."""

    router: str
    batch_policy: str
    duration_s: float
    elapsed_s: float
    offered: int
    completed: int
    deadline_met: int
    dropped: int
    shed: int
    rejected: int
    expired: int
    goodput_hz: float
    throughput_hz: float
    deadline_miss_rate: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    mean_ms: float
    batches: int
    mean_batch: float
    replicas: int
    scale_ups: int = 0
    scale_downs: int = 0
    stale_ticks: int = 0
    crashes: int = 0
    hangs: int = 0
    requeued: int = 0

    def to_dict(self) -> dict:
        """JSON-ready view (used by the benchmark emitter)."""
        return asdict(self)

    def to_text(self) -> str:
        """Fixed-format report; byte-identical across same-seed runs."""
        lines = [
            "serve summary",
            f"  config    router={self.router} batch={self.batch_policy} "
            f"replicas={self.replicas}",
            f"  duration  {self.duration_s:.3f}s simulated "
            f"({self.elapsed_s:.3f}s to drain)",
            f"  offered   {self.offered}",
            f"  completed {self.completed} "
            f"(goodput {self.goodput_hz:.2f} Hz, "
            f"throughput {self.throughput_hz:.2f} Hz)",
            f"  losses    dropped={self.dropped} shed={self.shed} "
            f"rejected={self.rejected} expired={self.expired}",
            f"  latency   p50={self.p50_ms:.3f}ms p95={self.p95_ms:.3f}ms "
            f"p99={self.p99_ms:.3f}ms max={self.max_ms:.3f}ms "
            f"mean={self.mean_ms:.3f}ms",
            f"  deadlines miss_rate={self.deadline_miss_rate:.4f} "
            f"met={self.deadline_met}",
            f"  batching  batches={self.batches} mean_size={self.mean_batch:.2f}",
            f"  scaling   ups={self.scale_ups} downs={self.scale_downs}",
        ]
        if self.crashes or self.hangs or self.requeued:
            lines.append(
                f"  faults    crashes={self.crashes} hangs={self.hangs} "
                f"requeued={self.requeued}"
            )
        if self.stale_ticks:
            lines.append(f"  vehicles  stale_ticks={self.stale_ticks}")
        return "\n".join(lines) + "\n"


class InferenceService:
    """A fleet of model replicas behind a router, on simulated time."""

    def __init__(
        self,
        latency_model: BatchLatencyModel,
        scheduler: EventScheduler | None = None,
        model=None,
        model_version: str = "",
        n_replicas: int = 1,
        router: str | Router = "least-outstanding",
        batch_policy: str = "adaptive",
        max_batch: int = 32,
        max_wait_s: float = 0.008,
        queue_capacity: int = 256,
        queue_policy: str = "drop",
        route: Route | None = None,
        seed: int = 0,
        injector: FaultInjector | None = None,
        breaker_policy: BreakerPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        trace_requests: bool = False,
    ) -> None:
        if n_replicas < 1:
            raise ConfigurationError(f"need >= 1 replica, got {n_replicas}")
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.latency_model = latency_model
        self.model = model
        self.model_version = model_version
        # Warm-compile the pinned model's execution plans at pin time so
        # the first request never pays compile/alloc cost mid-batch.
        if model is not None:
            model.compile_plans()
        self.router = router if isinstance(router, Router) else make_router(router)
        self.batch_policy = batch_policy
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.queue_capacity = int(queue_capacity)
        self.queue_policy = queue_policy
        self.route = route
        self.seed = int(seed)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = ensure_registry(metrics)
        self._replica_gauge = SeriesHandle(self.metrics.gauge, "serve.replicas")
        self._batches = SeriesHandle(self.metrics.counter, "serve.batches")
        self._batch_latency = SeriesHandle(
            self.metrics.histogram, "serve.batch.latency_s"
        )
        self._crash_faults = SeriesHandle(
            self.metrics.counter, "serve.faults", kind="crash"
        )
        self._hang_faults = SeriesHandle(
            self.metrics.counter, "serve.faults", kind="hang"
        )
        self._trace_requests = bool(trace_requests)
        self._request_spans: dict[str, Span] = {}
        self.slo = SloTracker(metrics=self.metrics)
        self.replicas: list[Replica] = []
        self.injector = injector
        self._breaker_policy = breaker_policy
        if self._breaker_policy is None and injector is not None:
            self._breaker_policy = BreakerPolicy()
        self._ids = IdFactory()
        self._hang_resolutions: dict[FaultSpec, list[list[Replica]]] = {}
        self._workload: Workload | None = None
        # The routable set, kept between placements: None after anything
        # that can move a replica in or out of it (a replica state
        # change, a hang start, a breaker trip, close or probe
        # admission), and rebuilt once the clock reaches the earliest
        # hang end or breaker half-open time it was built under.
        self._routable: list[Replica] | None = None
        self._routable_until = math.inf
        for _ in range(n_replicas):
            replica = self._new_replica()
            replica.mark_ready(self.scheduler.clock.now)
        if injector is not None:
            injector.on(FaultKind.REPLICA_CRASH, self._on_crash_fault)
            injector.on(FaultKind.REPLICA_HANG, self._on_hang_fault)
            injector.on_clear(FaultKind.REPLICA_HANG, self._on_hang_clear)
            injector.arm(self.scheduler)

    # ------------------------------------------------------------- fleet

    def _new_replica(
        self, model=None, model_version: str | None = None
    ) -> Replica:
        if model is not None:
            model.compile_plans()
        replica_id = self._ids.next("replica")
        # Seeding by name (not by creation order relative to other draws)
        # keeps each replica's latency stream stable across scaling
        # histories: replica-0003 samples identically whether it was born
        # at t=0 or autoscaled in at t=7.
        replica = Replica(
            replica_id=replica_id,
            latency_model=self.latency_model,
            queue=AdmissionQueue(self.queue_capacity, self.queue_policy),
            batcher=MicroBatcher(
                policy=self.batch_policy,
                max_batch=self.max_batch,
                max_wait_s=self.max_wait_s,
            ),
            rng=seed_from_name(replica_id, self.seed),
            route=self.route,
            model=model,
            model_version=(
                self.model_version if model_version is None else model_version
            ),
        )
        self.replicas.append(replica)
        if self._breaker_policy is not None:
            replica.breaker = CircuitBreaker(self._breaker_policy, name=replica_id)
        replica.span = self.tracer.start("serve.replica", replica=replica_id)
        self._update_replica_gauge()
        return replica

    def _update_replica_gauge(self) -> None:
        live = sum(
            1
            for replica in self.replicas
            if replica.state
            in (ReplicaState.PROVISIONING, ReplicaState.READY, ReplicaState.DRAINING)
        )
        self._replica_gauge.set(live)

    @property
    def crashes(self) -> int:
        """Replica crashes so far: the ``serve.faults{kind=crash}`` count."""
        return self.metrics.count("serve.faults", kind="crash")

    @property
    def hangs(self) -> int:
        """Replica hangs so far: the ``serve.faults{kind=hang}`` count."""
        return self.metrics.count("serve.faults", kind="hang")

    def version_of(self, replica_id: str) -> str:
        """Model-version label of one replica ("" = service default)."""
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica.model_version
        raise ConfigurationError(f"unknown replica {replica_id!r}")

    def add_replica(
        self,
        delay_s: float = 0.0,
        model=None,
        model_version: str | None = None,
    ) -> Replica:
        """Grow the fleet; routable after ``delay_s`` of provisioning.

        ``model``/``model_version`` pin the new replica to a specific
        registry version (canary/shadow fleets); both default to the
        service-level model.
        """
        replica = self._new_replica(model=model, model_version=model_version)
        now = self.scheduler.clock.now
        if delay_s <= 0:
            replica.mark_ready(now)
            self._routable = None
            return replica

        def ready() -> None:
            replica.mark_ready(self.scheduler.clock.now)
            self._routable = None
            self._pump(replica)

        self.scheduler.schedule_in(delay_s, ready, label="serve.provision")
        return replica

    def retire_replica(self) -> Replica | None:
        """Drain the newest routable replica; retires once idle."""
        for replica in reversed(self.replicas):
            if replica.routable:
                replica.drain()
                self._routable = None
                if not replica.inflight and not len(replica.queue):
                    replica.retire()
                    self.tracer.end(replica.span)
                    self._update_replica_gauge()
                return replica
        return None

    def routable_replicas(self) -> list[Replica]:
        """Replicas the router may currently target.

        Excludes hung replicas and replicas whose circuit is open
        (``peek`` is side-effect-free, so stats polls don't consume
        half-open probes — probe admission happens in :meth:`submit`).
        """
        return list(self._routable_at(self.scheduler.clock.now))

    def _routable_at(self, now: float) -> list[Replica]:
        """The kept routable set, rescanned only when it may be stale."""
        routable = self._routable
        if routable is None or now >= self._routable_until:
            routable = []
            until = math.inf
            for replica in self.replicas:
                if not replica.routable:
                    continue
                if replica.is_hung(now):
                    until = min(until, replica.hung_until)
                    continue
                breaker = replica.breaker
                if breaker is not None and not breaker.peek(now):
                    until = min(until, breaker.half_open_at)
                    continue
                routable.append(replica)
            self._routable = routable
            self._routable_until = until
        return routable

    def provisioning_count(self) -> int:
        """Replicas still inside their provisioning delay."""
        return sum(
            1
            for replica in self.replicas
            if replica.state is ReplicaState.PROVISIONING
        )

    # ------------------------------------------------------------ intake

    def submit(self, request: Request) -> bool:
        """Offer one request to the fleet; returns True if admitted."""
        now = self.scheduler.clock.now
        self.slo.record_offered(request, now)
        if self._trace_requests:
            self._request_spans[request.request_id] = self.tracer.start(
                "serve.request", request=request.request_id, source=request.source
            )
        return self._place(request, now)

    def _place(self, request: Request, now: float) -> bool:
        """Route + admit one request (shared by submit and requeue)."""
        replica = self.router.route(self._routable_at(now), request, now)
        if replica is None:
            request.status = RequestStatus.DROPPED
            self._lose(request, "drop", now)
            return False
        breaker = replica.breaker
        if breaker is not None and breaker.state is not BreakerState.CLOSED:
            # allow() may admit a half-open probe, which changes peek().
            self._routable = None
            if not breaker.allow(now):
                # The router raced a just-consumed half-open probe slot.
                request.status = RequestStatus.DROPPED
                self._lose(request, "drop", now)
                return False
        admitted, displaced = replica.queue.offer(request, now)
        if displaced is not None:
            self._lose(displaced, "shed", now)
        if not admitted:
            kind = "reject" if request.status is RequestStatus.REJECTED else "drop"
            self._lose(request, kind, now)
            return False
        request.replica_id = replica.replica_id
        replica.batcher.observe_arrival(now)
        self._pump(replica)
        return True

    def _lose(self, request: Request, kind: str, now: float) -> None:
        self.slo.record_loss(request, kind, now)
        span = self._request_spans.pop(request.request_id, None)
        if span is not None:
            self.tracer.end(span, status=STATUS_ERROR, error=kind)
        if self._workload is not None:
            self._workload.on_loss(request)

    # ------------------------------------------------------------ faults

    def _fault_targets(self, spec: FaultSpec, rng) -> list[Replica]:
        """Resolve a fault spec's target to live replicas.

        ``"replica:any"`` picks one routable replica from the fault's
        own stream; names and ``*`` wildcards match any replica that is
        ready or draining.
        """
        if spec.target == "replica:any":
            candidates = [r for r in self.replicas if r.routable]
            if not candidates:
                return []
            return [candidates[int(rng.integers(len(candidates)))]]
        return [
            replica
            for replica in self.replicas
            if spec.matches(replica.replica_id)
            and replica.state in (ReplicaState.READY, ReplicaState.DRAINING)
        ]

    def _on_crash_fault(self, spec: FaultSpec, rng) -> None:
        now = self.scheduler.clock.now
        for replica in self._fault_targets(spec, rng):
            self._crash(replica, now)

    def _crash(self, replica: Replica, now: float) -> None:
        """Kill one replica; rescue its queued and in-flight requests."""
        if replica.wake is not None:
            replica.wake.cancel()
            replica.wake = None
        orphans = list(replica.inflight)
        if orphans:
            replica.completion.cancel()
            self.tracer.end(replica.batch_span, status=STATUS_ERROR, error="crash")
            replica.completion = replica.batch_span = None
        if len(replica.queue):
            orphans.extend(replica.queue.pop(len(replica.queue)))
        replica.fail()
        self._routable = None
        self.tracer.end(replica.span, status=STATUS_ERROR, error="crash")
        self._update_replica_gauge()
        self._crash_faults.inc()
        if replica.breaker is not None:
            replica.breaker.trip(now)
        # Tightest deadline first: the rescue order that never strands an
        # urgent request behind a relaxed one (chaos property-checked).
        orphans.sort(key=lambda r: (r.deadline_s, r.arrival_s, r.request_id))
        for request in orphans:
            self._requeue(request, now)

    def _requeue(self, request: Request, now: float) -> None:
        """Give a rescued request another chance, deadline permitting."""
        self.slo.record_requeue(request, now)
        if request.deadline_s < now:
            request.status = RequestStatus.EXPIRED
            self._lose(request, "expire", now)
            return
        request.status = RequestStatus.PENDING
        request.batch_id = ""
        request.dispatched_s = -1.0
        self._place(request, now)

    def _on_hang_fault(self, spec: FaultSpec, rng) -> None:
        now = self.scheduler.clock.now
        targets = self._fault_targets(spec, rng)
        # Remember the resolution so the clear event thaws the *same*
        # replicas (a second "replica:any" draw could pick differently).
        self._hang_resolutions.setdefault(spec, []).append(targets)
        for replica in targets:
            self._hang(replica, now, spec.end_s)

    def _hang(self, replica: Replica, now: float, until_s: float) -> None:
        """Freeze one replica until ``until_s``; in-flight work stalls."""
        if replica.hang_span is not None:
            # Overlapping hang: the old window is subsumed by this one.
            self.tracer.end(replica.hang_span, status=STATUS_ERROR, error="hang")
        replica.hang_span = self.tracer.start(
            "serve.replica.hang", replica=replica.replica_id, until_s=until_s
        )
        self._hang_faults.inc()
        replica.hung_until = max(replica.hung_until, until_s)
        self._routable = None
        if replica.wake is not None:
            replica.wake.cancel()
            replica.wake = None
        if replica.breaker is not None:
            replica.breaker.trip(now)
        if replica.inflight:
            # The in-flight batch finishes late by the hang duration.
            completion = replica.completion
            self.scheduler.reschedule(completion, completion.time + (until_s - now))

    def _on_hang_clear(self, spec: FaultSpec, rng) -> None:
        now = self.scheduler.clock.now
        resolutions = self._hang_resolutions.get(spec, [])
        for replica in resolutions.pop(0) if resolutions else []:
            if replica.hang_span is not None:
                # The hang window itself is an error-status interval,
                # whatever became of the replica afterwards.
                self.tracer.end(replica.hang_span, status=STATUS_ERROR, error="hang")
                replica.hang_span = None
            if replica.state is not ReplicaState.FAILED and not replica.is_hung(now):
                self._pump(replica)

    # ---------------------------------------------------------- batching

    def _pump(self, replica: Replica) -> None:
        """Re-evaluate one replica's batching decision."""
        if replica.inflight or replica.state not in (
            ReplicaState.READY,
            ReplicaState.DRAINING,
        ):
            return
        now = self.scheduler.clock.now
        if replica.is_hung(now):
            return
        for expired in replica.queue.expire(now):
            self._lose(expired, "expire", now)
        # Wake rotation: hold the stale wake and either move it with the
        # allocation-free reschedule() (every pump between two wakes used
        # to rot a tombstone in the heap) or cancel it for good.
        stale_wake = replica.wake
        replica.wake = None
        depth = len(replica.queue)
        if depth == 0:
            if stale_wake is not None:
                stale_wake.cancel()
            if replica.state is ReplicaState.DRAINING:
                replica.retire()
                self.tracer.end(replica.span)
                self._update_replica_gauge()
            return
        planned = min(depth, replica.batcher.max_batch)
        decision = replica.batcher.decide(
            depth=depth,
            now=now,
            oldest_admitted_s=replica.queue.oldest_admitted_s(),
            earliest_deadline_s=replica.queue.earliest_deadline_s(),
            expected_latency_s=replica.expected_latency(planned),
        )
        if decision.size > 0:
            if stale_wake is not None:
                stale_wake.cancel()
            self._dispatch(replica, decision.size)
        elif math.isfinite(decision.wake_at):
            if stale_wake is None:
                replica.wake = self.scheduler.schedule_at(
                    max(decision.wake_at, now),
                    lambda: self._pump(replica),
                    label="serve.batch.wake",
                )
            else:
                # The stale wake's callback already pumps this replica.
                replica.wake = self.scheduler.reschedule(
                    stale_wake, max(decision.wake_at, now)
                )
        elif stale_wake is not None:
            stale_wake.cancel()

    def _dispatch(self, replica: Replica, size: int) -> None:
        now = self.scheduler.clock.now
        batch = replica.queue.pop(size)
        if not batch:
            return
        batch_id = self._ids.next("batch")
        for request in batch:
            request.status = RequestStatus.DISPATCHED
            request.dispatched_s = now
            request.replica_id = replica.replica_id
            request.batch_id = batch_id
        latency = replica.sample_batch_latency(len(batch))
        if self.injector is not None:
            latency *= self.injector.latency_factor(replica.replica_id, now)
        replica.inflight = tuple(batch)
        replica.inflight_latency_s = latency
        replica.batch_span = self.tracer.start(
            "serve.batch", batch=batch_id, replica=replica.replica_id, size=len(batch)
        )
        self._batches.inc()
        self._batch_latency.observe(latency)
        replica.completion = self.scheduler.schedule_in(
            latency, lambda: self._complete(replica), label="serve.batch.complete"
        )

    def _complete(self, replica: Replica) -> None:
        """End the replica's in-flight batch: answer and score each request."""
        now = self.scheduler.clock.now
        batch = replica.inflight
        latency = replica.inflight_latency_s
        model = replica.model if replica.model is not None else self.model
        if model is not None:
            frames = [request.frame for request in batch]
            if all(frame is not None for frame in frames):
                commands = model.predict_frames(np.stack(frames))
                for request, (angle, throttle) in zip(batch, commands):
                    request.angle = float(angle)
                    request.throttle = float(throttle)
        for request in batch:
            if request.status is not RequestStatus.DISPATCHED:
                raise ServeError(
                    f"{request.request_id} completed while "
                    f"{request.status.value}, not dispatched"
                )
            request.status = RequestStatus.COMPLETED
            request.completed_s = now
            self.slo.record_completion(request, now)
            span = self._request_spans.pop(request.request_id, None)
            if span is not None:
                span.attrs["latency_s"] = request.latency_s
                self.tracer.end(span)
        replica.batch_span.attrs["latency_s"] = latency
        self.tracer.end(replica.batch_span)
        replica.inflight = ()
        replica.completion = replica.batch_span = None
        breaker = replica.breaker
        if breaker is not None:
            if breaker.state is not BreakerState.CLOSED:
                self._routable = None  # a probe success closes the circuit
            breaker.record_success(now)
        self.router.observe_batch(replica, latency)
        if self._workload is not None:
            for request in batch:
                self._workload.on_response(request)
        self._pump(replica)

    # --------------------------------------------------------------- run

    def run(
        self,
        workload: Workload,
        duration_s: float,
        autoscaler: Autoscaler | None = None,
    ) -> ServeSummary:
        """Drive ``workload`` for ``duration_s``, drain, and summarise.

        After the drain every offered request must have ended exactly
        once: ``offered == completed + losses`` and no replica still
        holds queued or in-flight work, else :class:`ServeError` (a
        request lost in a crash is a bug in the rescue path).
        """
        if not 0 < duration_s < math.inf:
            raise ConfigurationError(
                f"duration_s must be finite and positive, got {duration_s}"
            )
        if self.model is not None and not workload.provides_frames:
            raise ConfigurationError(
                "service has a real model but the workload generates no "
                "frames; pass frame_shape to the workload"
            )
        self._workload = workload
        start = self.scheduler.clock.now
        workload.start(self, start + duration_s)
        if autoscaler is not None:
            autoscaler.start(start + duration_s)
        self.scheduler.run_until(start + duration_s)
        self.scheduler.run_all()
        self._check_conservation()
        return self._summarise(start, duration_s, workload, autoscaler)

    def _check_conservation(self) -> None:
        slo = self.slo
        if slo.offered != slo.completed + slo.losses:
            raise ServeError(
                f"conservation violated: offered={slo.offered} != "
                f"completed={slo.completed} + losses={slo.losses}"
            )
        holding = [
            replica.replica_id
            for replica in self.replicas
            if replica.inflight or len(replica.queue)
        ]
        if holding:
            raise ServeError(
                f"replicas still hold queued or in-flight work after the "
                f"drain: {holding}"
            )

    def _summarise(
        self,
        start: float,
        duration_s: float,
        workload: Workload,
        autoscaler: Autoscaler | None,
    ) -> ServeSummary:
        elapsed = self.scheduler.clock.now - start
        slo = self.slo
        hist = slo.histogram
        batches = self.metrics.count("serve.batches")
        return ServeSummary(
            router=self.router.name,
            batch_policy=self.batch_policy,
            duration_s=duration_s,
            elapsed_s=elapsed,
            offered=slo.offered,
            completed=slo.completed,
            deadline_met=slo.deadline_met,
            dropped=slo.dropped,
            shed=slo.shed,
            rejected=slo.rejected,
            expired=slo.expired,
            goodput_hz=slo.deadline_met / elapsed if elapsed > 0 else 0.0,
            throughput_hz=slo.completed / elapsed if elapsed > 0 else 0.0,
            deadline_miss_rate=slo.deadline_miss_rate,
            p50_ms=hist.percentile(0.50) * 1e3,
            p95_ms=hist.percentile(0.95) * 1e3,
            p99_ms=hist.percentile(0.99) * 1e3,
            max_ms=hist.max_s * 1e3,
            mean_ms=hist.mean_s * 1e3,
            batches=batches,
            mean_batch=slo.completed / batches if batches else 0.0,
            replicas=len(self.replicas),
            scale_ups=autoscaler.scale_ups if autoscaler else 0,
            scale_downs=autoscaler.scale_downs if autoscaler else 0,
            stale_ticks=getattr(workload, "stale_ticks", 0),
            crashes=self.crashes,
            hangs=self.hangs,
            requeued=slo.requeued,
        )
