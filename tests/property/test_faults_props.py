"""Property-based invariants for the fault/resilience layer.

Backoff schedules must be monotone and capped for *any* policy, a
circuit breaker must never jump OPEN -> CLOSED without a half-open
probe, and crash requeues must preserve deadline order for *any*
deadline mix — hypothesis drives the parameter space.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.breaker import BreakerPolicy, BreakerState, CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.serve.replica import BatchLatencyModel
from repro.serve.request import Request
from repro.serve.service import InferenceService

SLOW_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRetryPolicyProps:
    @settings(max_examples=100, deadline=None)
    @given(
        base_s=st.floats(1e-3, 2.0),
        factor=st.floats(1.0, 4.0),
        cap_mult=st.floats(1.0, 100.0),
        max_attempts=st.integers(1, 12),
    )
    def test_schedule_monotone_nondecreasing_and_capped(
        self, base_s, factor, cap_mult, max_attempts
    ):
        policy = RetryPolicy(
            base_s=base_s, factor=factor, cap_s=base_s * cap_mult,
            max_attempts=max_attempts, jitter=0.0,
        )
        schedule = policy.schedule()
        assert len(schedule) == max_attempts - 1
        assert all(a <= b for a, b in zip(schedule, schedule[1:]))
        assert all(base_s <= delay <= policy.cap_s for delay in schedule)

    @settings(max_examples=50, deadline=None)
    @given(
        jitter=st.floats(0.0, 1.0),
        attempt=st.integers(0, 8),
        seed=st.integers(0, 2**16),
    )
    def test_jittered_backoff_stays_within_bounds(self, jitter, attempt, seed):
        policy = RetryPolicy(base_s=0.1, factor=2.0, cap_s=5.0,
                             max_attempts=10, jitter=jitter)
        raw = min(policy.cap_s, policy.base_s * policy.factor**attempt)
        delay = policy.backoff_s(attempt, rng=seed)
        assert raw <= delay <= raw * (1.0 + jitter) + 1e-12


breaker_ops = st.lists(
    st.tuples(
        st.sampled_from(["failure", "success", "allow", "trip", "peek"]),
        st.floats(0.0, 2.0),
    ),
    max_size=60,
)


class TestBreakerProps:
    @settings(max_examples=100, deadline=None)
    @given(
        ops=breaker_ops,
        threshold=st.integers(1, 4),
        open_s=st.floats(0.1, 3.0),
        probes=st.integers(1, 3),
    )
    def test_closed_is_only_reachable_through_half_open(
        self, ops, threshold, open_s, probes
    ):
        breaker = CircuitBreaker(BreakerPolicy(
            failure_threshold=threshold, open_s=open_s,
            half_open_probes=probes,
        ))
        now = 0.0
        for op, dt in ops:
            now += dt
            if op == "failure":
                breaker.record_failure(now)
            elif op == "success":
                breaker.record_success(now)
            elif op == "allow":
                breaker.allow(now)
            elif op == "trip":
                breaker.trip(now)
            else:
                breaker.peek(now)
        for _, frm, to in breaker.transitions:
            assert (frm, to) != (BreakerState.OPEN, BreakerState.CLOSED)
            if to is BreakerState.CLOSED:
                assert frm is BreakerState.HALF_OPEN

    @settings(max_examples=100, deadline=None)
    @given(ops=breaker_ops)
    def test_peek_agrees_with_allow_and_mutates_nothing(self, ops):
        breaker = CircuitBreaker(CircuitBreaker().policy)
        now = 0.0
        for op, dt in ops:
            now += dt
            peeked = breaker.peek(now)
            state = breaker.state
            assert breaker.peek(now) == peeked  # stable under repetition
            assert breaker.state is state
            if op == "failure":
                breaker.record_failure(now)
            elif op == "success":
                breaker.record_success(now)
            elif op == "allow":
                assert breaker.allow(now) == peeked
            elif op == "trip":
                breaker.trip(now)


class TestRequeueProps:
    @SLOW_SETTINGS
    @given(
        deadlines=st.lists(st.floats(0.5, 50.0), min_size=2, max_size=20),
        seed=st.integers(0, 2**16),
    )
    def test_requeues_never_violate_deadline_order(self, deadlines, seed):
        plan = FaultPlan([
            FaultSpec(FaultKind.REPLICA_CRASH, "replica-0001", at_s=0.05)
        ])
        service = InferenceService(
            BatchLatencyModel(0.2, 0.01, jitter=0.0),
            n_replicas=1, batch_policy="single", queue_capacity=64,
            seed=seed, injector=FaultInjector(plan, seed=seed),
        )
        requeued = []
        record_requeue = service.slo.record_requeue

        def spy(request, now):
            requeued.append(request.deadline_s)
            record_requeue(request, now)

        service.slo.record_requeue = spy
        for i, deadline in enumerate(deadlines):
            service.submit(Request(f"req-{i:06d}", "test", 0.0, deadline))
        service.scheduler.run_all()
        assert service.crashes == 1
        assert requeued, "the crash must orphan the queued requests"
        assert requeued == sorted(requeued)
