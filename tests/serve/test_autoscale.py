"""Reactive autoscaling: watermarks, provisioning lag, cooldown."""

import pytest

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError
from repro.obs.tracer import Tracer
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.replica import BatchLatencyModel, ReplicaState
from repro.serve.service import InferenceService
from repro.serve.workload import PoissonWorkload

FAST = BatchLatencyModel(0.005, 0.0001)  # GPU-like: batches amortise
SLOW = BatchLatencyModel(0.002, 0.010)  # 10 ms/frame: one replica drowns


def run(rate, policy, latency_model=SLOW, duration=6.0, **service_kw):
    service = InferenceService(
        latency_model,
        n_replicas=policy.min_replicas,
        seed=5,
        **service_kw,
    )
    autoscaler = Autoscaler(service, policy)
    workload = PoissonWorkload(rate, deadline_s=0.5, seed=5)
    summary = service.run(workload, duration, autoscaler=autoscaler)
    return summary, autoscaler, service


class TestScaleUp:
    def test_overload_adds_replicas(self):
        policy = AutoscalePolicy(
            min_replicas=1, max_replicas=4, queue_high=4.0,
            provision_delay_s=0.5, cooldown_s=1.0,
        )
        summary, autoscaler, service = run(rate=300.0, policy=policy)
        assert autoscaler.scale_ups >= 1
        assert summary.scale_ups == autoscaler.scale_ups
        # Every scale-up adds exactly one replica to the fleet.
        assert len(service.replicas) == policy.min_replicas + autoscaler.scale_ups

    def test_max_replicas_is_a_hard_cap(self):
        policy = AutoscalePolicy(
            min_replicas=1, max_replicas=2, queue_high=2.0,
            provision_delay_s=0.1, cooldown_s=0.0,
        )
        _, _, service = run(rate=400.0, policy=policy)
        assert len(service.replicas) <= 2

    def test_provisioning_lag_delays_capacity(self):
        policy = AutoscalePolicy(
            min_replicas=1, max_replicas=4, queue_high=2.0,
            provision_delay_s=1.0, cooldown_s=0.5,
        )
        scheduler = EventScheduler()
        tracer = Tracer(scheduler.clock)
        _, _, service = run(
            rate=300.0, policy=policy, scheduler=scheduler, tracer=tracer
        )
        assert len(service.replicas) > 1
        added = service.replicas[1]
        (created,) = [
            span for span in tracer.find("serve.replica")
            if span.attrs["replica"] == added.replica_id
        ]
        # A replica becomes routable one provisioning delay after the
        # scale-up decision that created it.
        assert added.ready_at == pytest.approx(created.start_s + 1.0)

    def test_cooldown_throttles_consecutive_ups(self):
        eager = AutoscalePolicy(
            min_replicas=1, max_replicas=8, queue_high=1.0,
            provision_delay_s=2.0, cooldown_s=0.0, interval_s=0.25,
        )
        cautious = AutoscalePolicy(
            min_replicas=1, max_replicas=8, queue_high=1.0,
            provision_delay_s=2.0, cooldown_s=2.0, interval_s=0.25,
        )
        _, eager_scaler, _ = run(rate=300.0, policy=eager)
        _, cautious_scaler, _ = run(rate=300.0, policy=cautious)
        assert cautious_scaler.scale_ups < eager_scaler.scale_ups


class TestScaleDown:
    def test_quiet_fleet_drains_to_min(self):
        policy = AutoscalePolicy(
            min_replicas=1, max_replicas=4, queue_low=0.5,
            provision_delay_s=0.1, cooldown_s=0.5, p95_target_s=10.0,
        )
        # Trickle load on a fast fleet of 2: scale-down should trigger.
        service = InferenceService(FAST, n_replicas=2, seed=5)
        autoscaler = Autoscaler(service, policy)
        workload = PoissonWorkload(5.0, deadline_s=0.5, seed=5)
        service.run(workload, 8.0, autoscaler=autoscaler)
        assert autoscaler.scale_downs >= 1
        assert len(service.routable_replicas()) >= policy.min_replicas
        retired = [
            r for r in service.replicas if r.state is ReplicaState.RETIRED
        ]
        assert len(retired) == autoscaler.scale_downs

    def test_never_below_min_replicas(self):
        policy = AutoscalePolicy(
            min_replicas=2, max_replicas=4, queue_low=1.0,
            provision_delay_s=0.1, cooldown_s=0.0, p95_target_s=10.0,
        )
        service = InferenceService(FAST, n_replicas=2, seed=5)
        autoscaler = Autoscaler(service, policy)
        workload = PoissonWorkload(5.0, deadline_s=0.5, seed=5)
        service.run(workload, 6.0, autoscaler=autoscaler)
        assert autoscaler.scale_downs == 0
        assert len(service.routable_replicas()) == 2


class TestPolicyValidation:
    def test_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(interval_s=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(queue_high=0.2, queue_low=0.5)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(p95_target_s=0.0)
