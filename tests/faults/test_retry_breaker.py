"""Retry policies, circuit breakers, and the resilient-call loop."""

import numpy as np
import pytest

from repro.common.clock import Clock
from repro.common.errors import (
    CircuitOpenError,
    ConfigurationError,
    InjectedFaultError,
    RetryExhaustedError,
)
from repro.faults.breaker import BreakerPolicy, BreakerState, CircuitBreaker
from repro.faults.retry import RetryPolicy, call_with_resilience


class TestRetryPolicy:
    def test_schedule_grows_to_cap(self):
        policy = RetryPolicy(base_s=0.1, factor=2.0, cap_s=0.5, max_attempts=5)
        assert policy.schedule() == (0.1, 0.2, 0.4, 0.5)

    def test_backoff_without_rng_is_deterministic(self):
        policy = RetryPolicy(base_s=0.05, factor=3.0, cap_s=10.0)
        assert policy.backoff_s(0) == 0.05
        assert policy.backoff_s(2) == pytest.approx(0.45)

    def test_jitter_stretches_within_bounds(self):
        policy = RetryPolicy(base_s=1.0, factor=1.0, cap_s=1.0, jitter=0.5)
        for seed in range(20):
            delay = policy.backoff_s(0, rng=seed)
            assert 1.0 <= delay <= 1.5

    def test_jittered_backoff_is_seeded(self):
        policy = RetryPolicy(jitter=0.3)
        assert policy.backoff_s(1, rng=7) == policy.backoff_s(1, rng=7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_s=1.0, cap_s=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(-1)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(0.5)

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, open_s=1.0))
        breaker.record_failure(0.0)
        assert not breaker.allow(0.9)
        assert breaker.allow(1.0)  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(1.0)  # probe budget spent
        breaker.record_success(1.1)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, open_s=1.0))
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(1.5)
        assert breaker.allow(2.0)

    def test_peek_has_no_side_effects(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, open_s=1.0,
                                               half_open_probes=1))
        breaker.record_failure(0.0)
        for _ in range(5):
            assert breaker.peek(1.0)
        assert breaker.state is BreakerState.OPEN  # peek never transitions
        assert breaker.allow(1.0)
        assert not breaker.allow(1.0)

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_success(0.1)
        breaker.record_failure(0.2)
        assert breaker.state is BreakerState.CLOSED

    def test_forced_trip_and_retrip_refreshes_window(self):
        breaker = CircuitBreaker(BreakerPolicy(open_s=1.0))
        breaker.trip(0.0)
        assert breaker.state is BreakerState.OPEN
        breaker.trip(0.8)  # re-trip pushes the re-probe time out
        assert not breaker.allow(1.5)
        assert breaker.allow(1.8)

    def test_peek_is_false_exactly_until_half_open_at(self):
        breaker = CircuitBreaker(BreakerPolicy(open_s=0.3))
        assert breaker.half_open_at == float("inf")
        breaker.trip(0.1)
        reopens = breaker.half_open_at
        assert reopens == 0.1 + 0.3
        assert not breaker.peek(float(np.nextafter(reopens, 0.0)))
        assert breaker.peek(reopens)
        assert breaker.allow(reopens)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.half_open_at == float("inf")

    def test_transitions_are_recorded(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, open_s=1.0))
        breaker.record_failure(0.0)
        breaker.allow(1.0)
        breaker.record_success(1.1)
        assert [(f.value, t.value) for _, f, t in breaker.transitions] == [
            ("closed", "open"), ("open", "half-open"), ("half-open", "closed"),
        ]

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(open_s=0.0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(half_open_probes=0)


class FlakyOp:
    """Fails with InjectedFaultError until ``fail_until`` on the clock."""

    def __init__(self, clock, fail_until):
        self.clock = clock
        self.fail_until = fail_until
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.clock.now < self.fail_until:
            raise InjectedFaultError("still failing")
        return "ok"


class TestCallWithResilience:
    def test_retries_until_window_clears(self):
        clock = Clock()
        op = FlakyOp(clock, fail_until=0.2)
        retry = RetryPolicy(base_s=0.1, factor=2.0, cap_s=1.0,
                            max_attempts=5, jitter=0.0)
        assert call_with_resilience(op, retry=retry, clock=clock) == "ok"
        assert op.calls == 3  # fail@0, fail@0.1, ok@0.3
        assert clock.now == pytest.approx(0.3)

    def test_exhaustion_raises_and_chains(self):
        clock = Clock()
        op = FlakyOp(clock, fail_until=1e9)
        retry = RetryPolicy(base_s=0.01, max_attempts=3, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as err:
            call_with_resilience(op, retry=retry, clock=clock, target="x")
        assert op.calls == 3
        assert isinstance(err.value.__cause__, InjectedFaultError)

    def test_without_retry_fault_propagates(self):
        clock = Clock()
        op = FlakyOp(clock, fail_until=1e9)
        with pytest.raises(InjectedFaultError):
            call_with_resilience(op, clock=clock)
        assert op.calls == 1

    def test_deadline_stops_the_loop_early(self):
        clock = Clock()
        op = FlakyOp(clock, fail_until=1e9)
        retry = RetryPolicy(base_s=1.0, factor=1.0, cap_s=1.0,
                            max_attempts=10, jitter=0.0)
        with pytest.raises(RetryExhaustedError):
            call_with_resilience(
                op, retry=retry, clock=clock, deadline_s=2.5
            )
        assert op.calls == 3  # attempts at 0.0, 1.0, 2.0; next lands at 3.0
        assert clock.now <= 2.5

    def test_open_breaker_fails_fast(self):
        clock = Clock()
        breaker = CircuitBreaker(BreakerPolicy(open_s=10.0))
        breaker.trip(0.0)
        op = FlakyOp(clock, fail_until=0.0)
        with pytest.raises(CircuitOpenError):
            call_with_resilience(op, breaker=breaker, clock=clock)
        assert op.calls == 0

    def test_breaker_fed_failures_then_success(self):
        clock = Clock()
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=5))
        op = FlakyOp(clock, fail_until=0.15)
        retry = RetryPolicy(base_s=0.1, factor=1.0, cap_s=0.1,
                            max_attempts=5, jitter=0.0)
        assert (
            call_with_resilience(op, retry=retry, breaker=breaker, clock=clock)
            == "ok"
        )
        assert breaker.state is BreakerState.CLOSED
