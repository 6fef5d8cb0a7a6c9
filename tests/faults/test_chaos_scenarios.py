"""Chaos regressions: conservation under crashes, per-seed determinism."""

import json

import pytest

from repro.cli import default_plan, main
from repro.common.errors import ConfigurationError
from repro.eval.library import scenario_spec
from repro.eval.runner import run_scenario
from repro.eval.spec import ScenarioSpec
from repro.faults.breaker import BreakerState
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.serve.replica import ReplicaState
from repro.serve.request import RequestStatus, TERMINAL_STATUSES
from repro.serve.workload import PoissonWorkload, VehicleFleetWorkload
from tests.conftest import record_offers


class TestCrashConservation:
    def test_no_admitted_request_is_lost_or_double_completed(
        self, chaos_service
    ):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)],
            n_replicas=2,
        )
        offered = record_offers(service)
        service.run(PoissonWorkload(400.0, deadline_s=0.2, seed=5), 2.0)
        assert service.crashes == 1
        assert service.slo.requeued > 0
        assert offered
        assert all(r.status in TERMINAL_STATUSES for r in offered)
        slo = service.slo
        assert slo.offered == slo.completed + slo.losses
        completed = [
            r.request_id for r in offered
            if r.status is RequestStatus.COMPLETED
        ]
        assert len(completed) == len(set(completed))

    def test_crashed_replica_is_failed_and_circuit_open(self, chaos_service):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)],
            n_replicas=2,
        )
        service.run(PoissonWorkload(200.0, seed=5), 1.0)
        crashed = service.replicas[0]
        assert crashed.state is ReplicaState.FAILED
        assert crashed.replica_id == "replica-0001"
        assert crashed.breaker.state is BreakerState.OPEN
        assert crashed not in service.routable_replicas()

    def test_requeues_preserve_deadline_order(self, chaos_service, monkeypatch):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)],
            n_replicas=1,
        )
        requeues = []
        record_requeue = service.slo.record_requeue

        def spy(request, now):
            requeues.append(request.deadline_s)
            record_requeue(request, now)

        monkeypatch.setattr(service.slo, "record_requeue", spy)
        service.run(PoissonWorkload(600.0, deadline_s=0.5, seed=5), 1.0)
        assert requeues, "the crash should have orphaned queued requests"
        assert len(requeues) == service.slo.requeued
        assert requeues == sorted(requeues)

    def test_losing_every_replica_degrades_not_crashes(self, chaos_service):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-*", 0.5)],
            n_replicas=2,
        )
        summary = service.run(PoissonWorkload(200.0, seed=5), 2.0)
        assert service.crashes == 2
        assert summary.offered == summary.completed + (
            summary.dropped + summary.shed + summary.rejected + summary.expired
        )
        assert summary.dropped > 0  # post-crash arrivals fall back to drops


class TestHangs:
    def test_inflight_completion_is_postponed_past_the_hang(self):
        from repro.faults import FaultInjector, FaultPlan
        from repro.serve.replica import BatchLatencyModel
        from repro.serve.request import Request
        from repro.serve.service import InferenceService

        # Deterministic latency: the single-request batch takes 0.31 s,
        # so it is mid-flight when the hang lands at 0.1 s.
        plan = FaultPlan([FaultSpec(FaultKind.REPLICA_HANG, "replica-0001",
                                    at_s=0.1, duration_s=1.0)])
        service = InferenceService(
            BatchLatencyModel(0.3, 0.01, jitter=0.0),
            n_replicas=1, batch_policy="single", seed=5,
            injector=FaultInjector(plan, seed=5),
        )
        request = Request("req-000001", "test", arrival_s=0.0, deadline_s=10.0)
        assert service.submit(request)
        service.scheduler.run_all()
        assert service.hangs == 1
        assert request.status is RequestStatus.COMPLETED
        # Without the hang it would complete at 0.31; the hang freezes the
        # replica from 0.1 to 1.1, shifting completion by the full second.
        assert request.completed_s == pytest.approx(1.31)

    def test_hung_replica_is_unroutable_until_thaw(self, chaos_service):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_HANG, "replica-0001", 0.5, 1.0)],
            n_replicas=1,
        )
        scheduler = service.scheduler
        scheduler.run_until(0.6)
        assert service.routable_replicas() == []
        scheduler.run_until(5.0)
        replica = service.replicas[0]
        assert not replica.is_hung(scheduler.clock.now)


class TestAutoscalerReplacement:
    def test_crashed_capacity_is_replaced(self, chaos_service):
        from repro.serve.autoscale import AutoscalePolicy, Autoscaler

        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)],
            n_replicas=1,
        )
        policy = AutoscalePolicy(
            min_replicas=1, max_replicas=4, interval_s=0.25,
            provision_delay_s=0.25, queue_high=1e9, p95_target_s=1e9,
        )
        autoscaler = Autoscaler(service, policy)
        offered = record_offers(service)
        summary = service.run(
            PoissonWorkload(50.0, deadline_s=2.0, seed=5), 4.0,
            autoscaler=autoscaler,
        )
        assert service.crashes == 1
        assert summary.scale_ups == autoscaler.scale_ups >= 1
        # The replacement is decided after the crash and provisioned
        # one delay later; then it serves requests.
        replacement = service.replicas[1]
        assert replacement.ready_at >= 0.5 + policy.provision_delay_s
        assert any(
            request.replica_id == replacement.replica_id
            and request.status is RequestStatus.COMPLETED
            for request in offered
        )


def chaos_spec(**overrides) -> ScenarioSpec:
    """A chaos run: a serve spec with the stock plan and the autoscaler."""
    spec = ScenarioSpec("det", "serve", {
        "duration_s": 6.0,
        "service": {"replicas": 2},
        "workload": {"shape": "vehicles", "n_vehicles": 32,
                     "deadline_ticks": 4},
        "faults": default_plan(2).to_dicts(),
        "autoscale": {"min_replicas": 2, "provision_delay_s": 0.5},
    })
    return spec.with_overrides(overrides)


class TestDeterminism:
    def test_run_chaos_byte_identical_per_seed(self):
        a = run_scenario(chaos_spec(), seed=3)
        b = run_scenario(chaos_spec(), seed=3)
        assert a.summary == b.summary
        assert a.artifacts["summary"].to_dict() == b.artifacts["summary"].to_dict()
        assert a.metrics.to_json() == b.metrics.to_json()

    def test_different_seeds_differ(self):
        a = run_scenario(chaos_spec(), seed=3)
        b = run_scenario(chaos_spec(), seed=4)
        assert a.summary != b.summary

    def test_cli_chaos_byte_identical(self, capsys):
        argv = ["chaos", "--seed", "3", "--duration", "5", "--vehicles", "24"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        # The stock plan's crash and hang land; the autoscaler replaces.
        assert "faults    crashes=1 hangs=1" in first
        assert "scaling   ups=1" in first

    def test_cli_faults_file(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(default_plan(2).to_dicts()))
        argv = ["--faults", str(path), "--replicas", "2", "--vehicles", "16",
                "--duration", "6", "--seed", "2"]
        assert main(["serve", *argv]) == 0
        served = capsys.readouterr().out
        assert "faults    crashes=1 hangs=1" in served
        assert "scaling   ups=0" in served
        # chaos is serve with the autoscaler on: same faults, more replicas.
        assert main(["chaos", *argv]) == 0
        chaos = capsys.readouterr().out
        assert "faults    crashes=1 hangs=1" in chaos
        assert "scaling   ups=2" in chaos


class TestScenario:
    def test_dict_round_trip(self):
        spec = scenario_spec("chaos-crash")
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.digest() == spec.digest()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="blast_radius"):
            run_scenario(chaos_spec(blast_radius=3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_scenario(chaos_spec(duration_s=0.0))
        with pytest.raises(ConfigurationError):
            run_scenario(chaos_spec(**{"workload.n_vehicles": 0}))
        with pytest.raises(ConfigurationError):
            default_plan(0)

    def test_summary_embeds_serve_report(self):
        run = run_scenario(chaos_spec(duration_s=4.0), seed=1)
        assert run.summary.startswith("serve summary")
        assert "faults    crashes=" in run.summary
        summary = run.artifacts["summary"]
        assert summary.offered == summary.completed + (
            summary.dropped + summary.shed + summary.rejected + summary.expired
        )


class TestChaosCrashSpec:
    def test_vehicle_staleness_holds_its_recorded_values(self, tick_logs):
        """The staleness figures the chaos-crash scorecard used to pin."""
        artifacts = run_scenario(scenario_spec("chaos-crash"), seed=0).artifacts
        summary = artifacts["summary"]
        (log,) = tick_logs
        assert log.max_stale_streak == 23
        # Every request comes from a vehicle, so the service's counts
        # are the fleet's responses and lost responses.
        assert (summary.completed, summary.offered) == (385, 445)
        assert summary.offered - summary.completed == 60
