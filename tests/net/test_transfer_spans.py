"""The ``net.rsync``/``net.scp`` spans a traced transfer records.

A transfer runs inside one span that covers its retries and backoff,
records its attempt count, its breaker's state and its duration, and
nests under the caller's open span.  Tracing records; it never changes
the transfer: with a tracer or without, the result and the clock agree.
"""

import pytest

from repro.common.clock import Clock
from repro.common.errors import LinkPartitionError, RetryExhaustedError
from repro.faults import (
    BreakerPolicy,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.faults.breaker import BreakerState
from repro.net.topology import autolearn_topology
from repro.net.transfer import rsync_tub, scp_bytes
from repro.obs.span import STATUS_ERROR, STATUS_OK
from repro.obs.tracer import Tracer

#: Backoff of 0.4 s then 0.8 s carries the third attempt past a 1 s
#: partition.
RIDE_OUT = RetryPolicy(
    base_s=0.4, factor=2.0, cap_s=2.0, max_attempts=6, jitter=0.0
)
GIVE_UP = RetryPolicy(
    base_s=0.1, factor=1.0, cap_s=0.1, max_attempts=3, jitter=0.0
)


def route():
    return autolearn_topology().route("car-pi", "chi-uc")


def partition(duration_s):
    return FaultInjector(FaultPlan([
        FaultSpec(FaultKind.LINK_PARTITION, "car-pi->chi-uc",
                  at_s=0.0, duration_s=duration_s),
    ]))


def rsync(tub, tracer=None, clock=None, **kw):
    return rsync_tub(tub, route(), clock=clock, rng=0, tracer=tracer, **kw)


def scp(tracer=None, clock=None, **kw):
    return scp_bytes(40_000, route(), clock=clock, rng=0, tracer=tracer, **kw)


class TestSpanAttributes:
    def test_rsync_span_records_the_transfer(self, tub_factory):
        tub = tub_factory(n_records=10)
        clock = Clock()
        tracer = Tracer(clock)
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=5))
        result = rsync(tub, tracer, clock, injector=partition(1.0),
                       retry=RIDE_OUT, breaker=breaker)
        (span,) = tracer.find("net.rsync")
        assert span.status == STATUS_OK
        assert span.parent_id == ""
        assert span.attrs["target"] == "car-pi->chi-uc"
        assert span.attrs["files"] == result.files
        assert span.attrs["nbytes_wire"] == result.nbytes_wire
        assert span.attrs["attempts"] == 3
        assert span.attrs["breaker"] is BreakerState.CLOSED
        assert span.attrs["seconds"] == result.seconds
        # The span covers the backoff sleeps and the transfer itself.
        assert (span.start_s, span.end_s) == (0.0, clock.now)
        assert clock.now == pytest.approx(1.2 + result.seconds)

    def test_scp_span_without_a_breaker_has_no_breaker_state(self):
        clock = Clock()
        tracer = Tracer(clock)
        result = scp(tracer, clock)
        (span,) = tracer.find("net.scp")
        assert span.status == STATUS_OK
        assert span.attrs["nbytes_wire"] == 40_000
        assert span.attrs["attempts"] == 1
        assert "breaker" not in span.attrs
        assert span.attrs["seconds"] == result.seconds
        assert span.end_s == clock.now == result.seconds

    @pytest.mark.parametrize("breaker", [False, True])
    def test_exhausted_retries_end_the_span_in_error(self, breaker):
        clock = Clock()
        tracer = Tracer(clock)
        kw = {}
        if breaker:
            kw["breaker"] = CircuitBreaker(
                BreakerPolicy(failure_threshold=10)
            )
        with pytest.raises(RetryExhaustedError):
            scp(tracer, clock, injector=partition(100.0), retry=GIVE_UP, **kw)
        (span,) = tracer.find("net.scp")
        assert span.status == STATUS_ERROR
        assert span.error == "RetryExhaustedError"
        assert span.attrs["attempts"] == 3
        assert "seconds" not in span.attrs
        assert ("breaker" in span.attrs) is breaker
        assert span.end_s == clock.now == pytest.approx(0.2)
        assert tracer.open_spans == []

    def test_a_failure_without_retry_carries_its_own_type(self, tub_factory):
        tub = tub_factory(n_records=10)
        clock = Clock()
        tracer = Tracer(clock)
        with pytest.raises(LinkPartitionError):
            rsync(tub, tracer, clock, injector=partition(1.0))
        (span,) = tracer.find("net.rsync")
        assert (span.status, span.error) == (STATUS_ERROR, "LinkPartitionError")
        assert span.attrs["attempts"] == 1


class TestNesting:
    def test_transfers_nest_under_the_open_span(self, tub_factory):
        tub = tub_factory(n_records=10)
        clock = Clock()
        tracer = Tracer(clock)
        with tracer.span("pipeline.collect") as outer:
            rsync(tub, tracer, clock)
            scp(tracer, clock)
        rsync_span, scp_span = tracer.find("net.rsync") + tracer.find("net.scp")
        assert rsync_span.parent_id == scp_span.parent_id == outer.span_id
        # Both finish inside the stage, in simulated time too.
        assert outer.start_s <= rsync_span.start_s
        assert rsync_span.end_s <= scp_span.start_s
        assert scp_span.end_s <= outer.end_s == clock.now


class TestTracingChangesNothing:
    @pytest.mark.parametrize("faulty", [False, True])
    def test_rsync_with_and_without_a_tracer(self, tub_factory, faulty):
        tub = tub_factory(n_records=10)
        kw = {"injector": partition(1.0), "retry": RIDE_OUT} if faulty else {}
        plain_clock, traced_clock = Clock(), Clock()
        plain = rsync(tub, None, plain_clock, **kw)
        kw = {"injector": partition(1.0), "retry": RIDE_OUT} if faulty else {}
        traced = rsync(tub, Tracer(traced_clock), traced_clock, **kw)
        assert plain == traced
        assert plain_clock.now == traced_clock.now

    @pytest.mark.parametrize("faulty", [False, True])
    def test_scp_with_and_without_a_tracer(self, faulty):
        kw = {"injector": partition(1.0), "retry": RIDE_OUT} if faulty else {}
        plain_clock, traced_clock = Clock(), Clock()
        plain = scp(None, plain_clock, **kw)
        kw = {"injector": partition(1.0), "retry": RIDE_OUT} if faulty else {}
        traced = scp(Tracer(traced_clock), traced_clock, **kw)
        assert plain == traced
        assert plain_clock.now == traced_clock.now

    def test_no_clock_still_gives_equal_results(self, tub_factory):
        tub = tub_factory(n_records=10)
        tracer = Tracer(Clock())
        assert rsync(tub) == rsync(tub, tracer)
        assert scp() == scp(tracer)
