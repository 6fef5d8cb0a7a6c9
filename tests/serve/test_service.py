"""End-to-end serving: dispatch, completion, determinism, real models."""

import numpy as np
import pytest

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError, ServeError
from repro.faults.plan import FaultKind
from repro.obs.tracer import Tracer
from repro.serve.replica import BatchLatencyModel
from repro.serve.request import Request, RequestStatus, TERMINAL_STATUSES
from repro.serve.service import InferenceService
from repro.serve.workload import PoissonWorkload, VehicleFleetWorkload
from repro.testbed.hardware import GPU_SPECS
from tests.conftest import record_offers

GPU_MODEL = BatchLatencyModel.from_gpu(GPU_SPECS["V100"], 1e8)


def make_service(**kw):
    kw.setdefault("seed", 5)
    return InferenceService(GPU_MODEL, **kw)


class TestLifecycle:
    def test_open_loop_run_completes_everything(self, chaos_service):
        service = chaos_service(n_replicas=2)
        offered = record_offers(service)
        summary = service.run(PoissonWorkload(400.0, seed=5), 3.0)
        assert summary.offered > 1000
        assert summary.completed == summary.offered
        assert summary.dropped == summary.expired == 0
        assert all(r.status is RequestStatus.COMPLETED for r in offered)

    def test_every_request_reaches_a_terminal_status(self, chaos_service):
        service = chaos_service(n_replicas=1, queue_capacity=8)
        offered = record_offers(service)
        service.run(PoissonWorkload(3000.0, deadline_s=0.02, seed=5), 1.0)
        assert offered
        assert all(r.status in TERMINAL_STATUSES for r in offered)
        slo = service.slo
        assert slo.offered == slo.completed + slo.losses

    def test_run_raises_when_a_loss_goes_uncounted(
        self, chaos_service, monkeypatch
    ):
        # Every replica crashes, so later arrivals are dropped; with the
        # loss tally silenced the drain finds requests unaccounted for.
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-*", 0.5)], n_replicas=2
        )
        monkeypatch.setattr(service.slo, "record_loss", lambda *a, **k: None)
        with pytest.raises(ServeError, match="conservation violated"):
            service.run(PoissonWorkload(200.0, seed=5), 2.0)

    def test_completing_a_request_twice_raises(self, chaos_service):
        service = chaos_service(n_replicas=1)
        offered = record_offers(service)
        service.run(PoissonWorkload(50.0, seed=5), 0.5)
        done = offered[0]
        assert done.status is RequestStatus.COMPLETED
        replica = service.replicas[0]
        replica.inflight = (done,)
        with pytest.raises(ServeError, match="completed while completed"):
            service._complete(replica)

    def test_closed_loop_fleet(self):
        service = make_service(n_replicas=4)
        workload = VehicleFleetWorkload(64, seed=5)
        summary = service.run(workload, 3.0)
        # 64 vehicles at 20 Hz for 3 s: every tick either submits or
        # rides a stale command (one request in flight per vehicle).
        assert workload.ticks == pytest.approx(64 * 20 * 3, abs=64)
        assert summary.offered + summary.stale_ticks == workload.ticks
        assert summary.offered > 1500
        assert summary.deadline_miss_rate < 0.05

    def test_batch_sizes_never_exceed_cap(self):
        scheduler = EventScheduler()
        tracer = Tracer(scheduler.clock)
        service = make_service(
            n_replicas=1, max_batch=8, scheduler=scheduler, tracer=tracer
        )
        service.run(PoissonWorkload(2000.0, seed=5), 1.0)
        sizes = [span.attrs["size"] for span in tracer.find("serve.batch")]
        assert len(sizes) == service.metrics.count("serve.batches")
        assert max(sizes) <= 8

    def test_overload_sheds_with_shed_policy(self):
        service = make_service(
            n_replicas=1, queue_capacity=16, queue_policy="shed",
            batch_policy="single",
        )
        summary = service.run(
            PoissonWorkload(2000.0, deadline_s=0.05, seed=5), 1.0
        )
        assert summary.shed > 0

    def test_backpressure_rejects_instead_of_dropping(self):
        service = make_service(
            n_replicas=1, queue_capacity=16, queue_policy="backpressure",
            batch_policy="single",
        )
        summary = service.run(
            PoissonWorkload(2000.0, deadline_s=0.05, seed=5), 1.0
        )
        assert summary.rejected > 0 and summary.dropped == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_service(n_replicas=0)
        with pytest.raises(ConfigurationError):
            make_service().run(PoissonWorkload(10.0, seed=0), 0.0)
        # NaN ran nothing and summarised zeros; inf never returned.
        for value in (float("nan"), float("inf")):
            service = make_service()
            with pytest.raises(ConfigurationError, match="duration_s"):
                service.run(PoissonWorkload(10.0, seed=0), value)
            assert service.scheduler.pending == 0


class TestDeterminism:
    def run_once(self, **kw):
        service = make_service(n_replicas=4, batch_policy="adaptive", **kw)
        return service.run(VehicleFleetWorkload(128, seed=5), 4.0)

    def test_same_seed_byte_identical_summary(self):
        assert self.run_once().to_text() == self.run_once().to_text()

    def test_same_seed_identical_event_trace(self):
        def trace():
            scheduler = EventScheduler()
            tracer = Tracer(scheduler.clock)
            service = make_service(
                n_replicas=2, scheduler=scheduler, tracer=tracer,
                trace_requests=True,
            )
            service.run(PoissonWorkload(300.0, seed=9), 2.0)
            return [
                (s.span_id, s.name, s.start_s, s.end_s, s.status, s.attrs)
                for s in tracer.spans
            ]

        first = trace()
        assert first == trace()
        assert {span[1] for span in first} >= {"serve.request", "serve.batch"}

    def test_different_seed_differs(self):
        a = make_service(n_replicas=2, seed=1).run(
            PoissonWorkload(300.0, seed=1), 2.0
        )
        b = make_service(n_replicas=2, seed=2).run(
            PoissonWorkload(300.0, seed=2), 2.0
        )
        assert a.to_text() != b.to_text()

    def test_summary_dict_round_trip(self):
        summary = self.run_once()
        payload = summary.to_dict()
        assert payload["offered"] == summary.offered
        assert payload["batch_policy"] == "adaptive"


class TestBatchingWins:
    def saturate(self, policy):
        service = make_service(
            n_replicas=1, batch_policy=policy, queue_capacity=64
        )
        return service.run(
            PoissonWorkload(1500.0, deadline_s=0.1, seed=5), 2.0
        )

    def test_adaptive_throughput_beats_single(self):
        single = self.saturate("single")
        adaptive = self.saturate("adaptive")
        # The acceptance bar: >= 3x measured throughput at saturating load.
        assert adaptive.throughput_hz >= 3 * single.throughput_hz
        assert adaptive.mean_batch > 4.0

    def test_adaptive_meets_deadlines_under_load(self):
        adaptive = self.saturate("adaptive")
        assert adaptive.deadline_miss_rate < 0.05


class TestRealModelServing:
    def test_commands_match_direct_prediction(self, trained_linear):
        h, w, _ = trained_linear.input_shape
        service = make_service(n_replicas=2, model=trained_linear)
        offered = record_offers(service)
        workload = PoissonWorkload(
            60.0, deadline_s=0.2, seed=5, frame_shape=(h, w, 3)
        )
        summary = service.run(workload, 1.0)
        assert summary.completed > 20
        completed = [r for r in offered if r.status is RequestStatus.COMPLETED]
        frames = np.stack([r.frame for r in completed])
        expected = trained_linear.predict_frames(frames)
        got = np.array([[r.angle, r.throttle] for r in completed])
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)

    def test_model_requires_frames(self, trained_linear):
        service = make_service(model=trained_linear)
        with pytest.raises(ConfigurationError):
            service.run(PoissonWorkload(10.0, seed=0), 1.0)
