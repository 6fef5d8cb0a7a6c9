"""The fault injector: arming, dispatch, and pure window queries."""

import pytest

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs.tracer import Tracer


def hang(target="replica-0001", at_s=1.0, duration_s=2.0):
    return FaultSpec(FaultKind.REPLICA_HANG, target, at_s=at_s,
                     duration_s=duration_s)


class TestArming:
    def test_start_and_clear_fire_in_order(self):
        fired = []
        scheduler = EventScheduler()
        injector = FaultInjector(FaultPlan([hang()]))
        injector.on(FaultKind.REPLICA_HANG,
                    lambda spec, rng: fired.append(("start", spec.target)))
        injector.on_clear(FaultKind.REPLICA_HANG,
                          lambda spec, rng: fired.append(("clear", spec.target)))
        injector.arm(scheduler)
        scheduler.run_all()
        assert fired == [("start", "replica-0001"), ("clear", "replica-0001")]
        assert injector.started == 1 and injector.cleared == 1

    def test_crash_has_no_clear_event(self):
        scheduler = EventScheduler()
        injector = FaultInjector(FaultPlan([
            FaultSpec(FaultKind.REPLICA_CRASH, "replica-0001", at_s=1.0)
        ]))
        injector.arm(scheduler)
        scheduler.run_all()
        assert injector.started == 1 and injector.cleared == 0

    def test_arm_is_idempotent(self):
        fired = []
        scheduler = EventScheduler()
        injector = FaultInjector(FaultPlan([hang()]))
        injector.on(FaultKind.REPLICA_HANG, lambda s, r: fired.append(s))
        injector.arm(scheduler)
        injector.arm(scheduler)
        scheduler.run_all()
        assert len(fired) == 1

    def test_past_spec_is_rejected(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(5.0)
        injector = FaultInjector(FaultPlan([hang(at_s=1.0)]))
        with pytest.raises(ConfigurationError):
            injector.arm(scheduler)

    def test_events_are_logged(self):
        scheduler = EventScheduler()
        tracer = Tracer(scheduler.clock)
        injector = FaultInjector(FaultPlan([hang()]), tracer=tracer)
        injector.arm(scheduler)
        scheduler.run_all()
        events = [(e.name, e.time_s) for e in tracer.events]
        assert events == [
            ("fault.start.replica-hang", 1.0),
            ("fault.clear.replica-hang", 3.0),
        ]


class TestQueries:
    def make(self):
        return FaultInjector(FaultPlan([
            FaultSpec(FaultKind.LINK_PARTITION, "a->b", at_s=1.0,
                      duration_s=2.0),
            FaultSpec(FaultKind.LINK_DEGRADE, "a->b", at_s=1.0,
                      duration_s=4.0, factor=3.0),
            FaultSpec(FaultKind.SLOW_NODE, "replica-*", at_s=0.0,
                      duration_s=10.0, factor=2.0),
            FaultSpec(FaultKind.STORE_ERROR, "store:models", at_s=0.0,
                      duration_s=5.0, error_rate=0.5),
        ]))

    def test_active_respects_windows_without_arming(self):
        injector = self.make()
        assert not injector.active(FaultKind.LINK_PARTITION, "a->b", 0.5)
        assert injector.active(FaultKind.LINK_PARTITION, "a->b", 1.5)
        assert not injector.active(FaultKind.LINK_PARTITION, "a->b", 3.0)
        assert not injector.active(FaultKind.LINK_PARTITION, "b->a", 1.5)

    def test_latency_factors_multiply(self):
        injector = self.make()
        assert injector.latency_factor("a->b", 2.0) == pytest.approx(3.0)
        assert injector.latency_factor("a->b", 5.5) == pytest.approx(1.0)
        assert injector.latency_factor("replica-0003", 5.0) == pytest.approx(2.0)

    def test_should_fail_draws_are_seeded(self):
        def draws(seed):
            injector = FaultInjector(self.make().plan, seed=seed)
            return [
                injector.should_fail(FaultKind.STORE_ERROR, "store:models", 1.0)
                for _ in range(50)
            ]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)
        assert any(draws(1)) and not all(draws(1))  # rate 0.5 mixes outcomes

    def test_should_fail_certain_rate_consumes_no_draws(self):
        injector = FaultInjector(FaultPlan([
            FaultSpec(FaultKind.STORE_ERROR, "store:m", at_s=0.0,
                      duration_s=5.0, error_rate=1.0),
        ]))
        assert all(
            injector.should_fail(FaultKind.STORE_ERROR, "store:m", 1.0)
            for _ in range(10)
        )
        assert not injector.should_fail(FaultKind.STORE_ERROR, "store:m", 9.0)
