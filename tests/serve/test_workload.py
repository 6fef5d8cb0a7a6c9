"""Workload generators: rates, determinism, closed-loop backpressure."""

import pytest

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError
from repro.serve.workload import PoissonWorkload, VehicleFleetWorkload


class RecordingService:
    """Minimal service stand-in: accepts everything, optionally replies."""

    def __init__(self, respond=None):
        self.scheduler = EventScheduler()
        self.requests = []
        self._respond = respond

    def submit(self, request):
        self.requests.append(request)
        if self._respond is not None:
            self._respond(request)
        return True


class TestPoissonWorkload:
    def run(self, rate=200.0, seed=3, duration=5.0):
        service = RecordingService()
        workload = PoissonWorkload(rate, seed=seed)
        workload.start(service, duration)
        service.scheduler.run_until(duration)
        return service, workload

    def test_rate_approximately_honoured(self):
        service, workload = self.run(rate=200.0, duration=5.0)
        assert workload.submitted == len(service.requests)
        assert 800 <= workload.submitted <= 1200  # ~1000 expected

    def test_same_seed_same_trace(self):
        service_a, _ = self.run(seed=11)
        service_b, _ = self.run(seed=11)
        trace_a = [(r.request_id, r.arrival_s) for r in service_a.requests]
        trace_b = [(r.request_id, r.arrival_s) for r in service_b.requests]
        assert trace_a == trace_b

    def test_different_seeds_differ(self):
        service_a, _ = self.run(seed=1)
        service_b, _ = self.run(seed=2)
        assert [r.arrival_s for r in service_a.requests] != [
            r.arrival_s for r in service_b.requests
        ]

    def test_deadlines_are_relative(self):
        service, _ = self.run()
        for request in service.requests:
            assert request.deadline_s == pytest.approx(request.arrival_s + 0.1)

    def test_frame_pool(self):
        service = RecordingService()
        workload = PoissonWorkload(100.0, seed=0, frame_shape=(8, 10, 3))
        assert workload.provides_frames
        workload.start(service, 1.0)
        service.scheduler.run_until(1.0)
        assert all(
            r.frame is not None and r.frame.shape == (8, 10, 3)
            for r in service.requests
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonWorkload(0.0)
        with pytest.raises(ConfigurationError):
            PoissonWorkload(10.0, deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            PoissonWorkload(10.0, frame_shape=(8, 10))
        # An infinite rate scheduled arrivals zero seconds apart forever;
        # a NaN deadline never expired and never counted as met.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="rate_hz"):
                PoissonWorkload(value)
            with pytest.raises(ConfigurationError, match="deadline_s"):
                PoissonWorkload(10.0, deadline_s=value)


class TestVehicleFleetWorkload:
    def test_tick_rate_per_vehicle(self):
        workload = VehicleFleetWorkload(10, dt=0.05, seed=0)
        service = RecordingService(respond=workload.on_response)
        workload.start(service, 2.0)
        service.scheduler.run_until(2.0)
        # 10 vehicles x ~40 ticks in 2 s, responses instant -> all submit.
        assert 350 <= workload.submitted <= 400
        assert workload.stale_ticks == 0
        sources = {r.source for r in service.requests}
        assert sources == {f"veh-{i:04d}" for i in range(10)}

    def test_max_one_outstanding_per_vehicle(self):
        service = RecordingService()
        workload = VehicleFleetWorkload(4, dt=0.05, seed=0)
        workload.start(service, 1.0)
        service.scheduler.run_until(1.0)  # nothing ever responds
        # Each vehicle submits exactly once, then rides stale commands.
        per_vehicle = {}
        for request in service.requests:
            per_vehicle[request.source] = per_vehicle.get(request.source, 0) + 1
        assert set(per_vehicle.values()) == {1}
        assert workload.stale_ticks > 0

    def test_response_reopens_the_slot(self):
        service = RecordingService()
        workload = VehicleFleetWorkload(1, dt=0.05, seed=0)
        workload.start(service, 0.30)
        service.scheduler.run_until(0.06)
        assert workload.submitted == 1
        workload.on_response(service.requests[0])
        service.scheduler.run_until(0.30)
        assert workload.submitted > 1

    def test_loss_also_reopens_the_slot(self):
        service = RecordingService()
        workload = VehicleFleetWorkload(1, dt=0.05, seed=0)
        workload.start(service, 0.30)
        service.scheduler.run_until(0.06)
        workload.on_loss(service.requests[0])
        service.scheduler.run_until(0.30)
        assert workload.submitted > 1

    def test_phases_are_staggered_and_deterministic(self):
        make = lambda: VehicleFleetWorkload(8, dt=0.05, seed=9)  # noqa: E731
        assert make()._phases == make()._phases
        assert len(set(make()._phases)) == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VehicleFleetWorkload(0)
        with pytest.raises(ConfigurationError):
            VehicleFleetWorkload(4, dt=0.0)
        with pytest.raises(ConfigurationError):
            VehicleFleetWorkload(4, deadline_ticks=0)
        # A NaN dt used to reach numpy's uniform() as an OverflowError.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="dt"):
                VehicleFleetWorkload(4, dt=value)
