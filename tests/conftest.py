"""Shared fixtures: small tracks, tubs, and trained models.

Everything here is sized for speed: 40x56 camera frames, ~0.2-scale
networks, short drives.  Session-scoped fixtures amortise the expensive
artefacts (a recorded tub, a trained model) across the whole run.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.common.rng import ensure_rng
from repro.core.drivers import PurePursuitDriver, StudentDriver
from repro.data.records import DriveRecord
from repro.data.tub import Tub
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.ml.network import Sequential
from repro.serve.replica import BatchLatencyModel
from repro.serve.service import InferenceService
from repro.serve.workload import VehicleFleetWorkload
from repro.sim.renderer import CameraParams
from repro.sim.session import DrivingSession
from repro.sim.tracks import default_tape_oval, waveshare_track
from repro.testbed.hardware import GPU_SPECS
from repro.vehicle.builder import build_recording_vehicle

#: Small camera used across the suite.
TEST_H, TEST_W = 40, 56


def pytest_addoption(parser):
    """Register ``--update-goldens`` (regenerate golden-trace files).

    Tier-1 runs never pass it, so goldens are read-only in CI; a human
    (or a deliberate tooling run) updates them after reviewing a diff.
    """
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden files (tests/obs/golden/*.json, "
             "tests/eval/golden/*.json) from the current code",
    )


@pytest.fixture(scope="session")
def oval_track():
    """The paper's default tape oval."""
    return default_tape_oval()


@pytest.fixture(scope="session")
def waveshare():
    """The Waveshare mat."""
    return waveshare_track()


@pytest.fixture()
def small_camera():
    """Low-res camera parameters for fast rendering."""
    return CameraParams(height=TEST_H, width=TEST_W)


@pytest.fixture()
def session_factory(oval_track):
    """Factory for small driving sessions on the oval."""

    def make(seed=0, render=True, track=None, **kwargs):
        return DrivingSession(
            track if track is not None else oval_track,
            camera=CameraParams(height=TEST_H, width=TEST_W),
            seed=seed,
            render=render,
            **kwargs,
        )

    return make


def make_records(n: int, seed: int = 0, h: int = TEST_H, w: int = TEST_W):
    """Synthetic drive records with plausible telemetry."""
    rng = ensure_rng(seed)
    records = []
    for i in range(n):
        records.append(
            DriveRecord(
                image=rng.integers(0, 255, (h, w, 3), dtype=np.uint8),
                angle=float(np.clip(np.sin(i / 9.0) + rng.normal(0, 0.05), -1, 1)),
                throttle=float(np.clip(0.5 + rng.normal(0, 0.05), -1, 1)),
                cte=float(rng.normal(0, 0.05)),
                speed=float(abs(rng.normal(1.0, 0.2))),
                off_track=False,
                timestamp_ms=i * 50,
            )
        )
    return records


class _LayerLoop:
    """Both compiled plans of one ``Sequential``, run on its layers.

    ``run`` and ``forward``/``backward`` call ``Sequential.forward`` and
    ``Sequential.backward``, the reference layer loop the plans are
    checked against.
    """

    def __init__(self, net: Sequential) -> None:
        self.net = net

    def run(self, x):
        return self.net.forward(x, training=False)

    def forward(self, x):
        return self.net.forward(x, training=True)

    def backward(self, grad, input_grad=True):
        dx = self.net.backward(grad)
        return dx if input_grad else None


@pytest.fixture()
def layer_loop():
    """Context manager: inside it, every model pass runs the layer loop.

    It patches ``Sequential.plan`` and ``Sequential.training_plan``, so
    ``DonkeyModel.forward``/``backward``, ``predict`` and ``Trainer``
    take the reference layers: the side every parity check compares
    the compiled plans with.
    """

    @contextlib.contextmanager
    def active():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Sequential, "plan", lambda net: _LayerLoop(net))
            patch.setattr(Sequential, "training_plan", lambda net: _LayerLoop(net))
            yield

    return active


@pytest.fixture()
def tub_factory(tmp_path):
    """Create tubs filled with synthetic records."""

    counter = {"n": 0}

    def make(n_records=60, seed=0, metadata=None):
        counter["n"] += 1
        tub = Tub.create(
            tmp_path / f"tub{counter['n']}",
            metadata=metadata or {"track_half_width": 0.35},
        )
        with tub.bulk():
            for record in make_records(n_records, seed=seed):
                tub.write_record(record)
        return tub

    return make


@pytest.fixture()
def fault_plan_factory():
    """Build :class:`FaultPlan`s from specs or compact tuples.

    Accepts ready :class:`FaultSpec` objects or ``(kind, target, at_s,
    ...)`` tuples in :class:`FaultSpec` argument order.
    """

    def make(*specs):
        built = [
            spec if isinstance(spec, FaultSpec) else FaultSpec(*spec)
            for spec in specs
        ]
        return FaultPlan(built)

    return make


@pytest.fixture()
def chaos_service(fault_plan_factory):
    """Factory for inference services, optionally under fault injection.

    ``plan=None`` gives a plain fault-free service (the baseline the
    chaos assertions compare against); otherwise the plan is wired
    through a seeded :class:`FaultInjector`.
    """

    def make(
        plan=None, seed=5, gpu="V100", flops_per_frame=1e8, tracer=None, **kw
    ):
        if plan is not None and not isinstance(plan, FaultPlan):
            plan = fault_plan_factory(*plan)
        injector = (
            FaultInjector(plan, seed=seed, tracer=tracer)
            if plan is not None
            else None
        )
        latency_model = BatchLatencyModel.from_gpu(
            GPU_SPECS[gpu], flops_per_frame
        )
        return InferenceService(
            latency_model, seed=seed, injector=injector, tracer=tracer, **kw
        )

    return make


def record_offers(service) -> list:
    """Spy on ``service.submit``; returns the list of requests offered.

    Install it before the run starts.  A request a crash rescues is
    placed again, not offered again, so each request appears once.
    """
    offered = []
    submit = service.submit

    def spy(request):
        offered.append(request)
        return submit(request)

    service.submit = spy
    return offered


class TickLog:
    """What each tick of one vehicle workload saw, observed from outside.

    :meth:`attach` wraps a workload's ``_tick`` before it starts.  A
    tick is stale while its vehicle's request is outstanding, else
    fresh.  The log keeps each vehicle's current run of stale ticks
    (``max_stale_streak`` is the longest) and the fresh and total ticks
    per ``bucket_s`` of simulated time (:meth:`fresh_ratio_timeline`).
    """

    def __init__(self, bucket_s: float = 1.0) -> None:
        self.bucket_s = bucket_s
        self.max_stale_streak = 0
        self._streaks: dict[int, int] = {}
        self._buckets: dict[int, list[int]] = {}

    @classmethod
    def attach(cls, workload, bucket_s: float = 1.0) -> "TickLog":
        log = cls(bucket_s)
        tick = workload._tick

        def observed(vehicle):
            now = workload._service.scheduler.clock.now
            log.record(vehicle, now, workload._outstanding[vehicle])
            tick(vehicle)

        workload._tick = observed
        return log

    def record(self, vehicle: int, now: float, stale: bool) -> None:
        bucket = self._buckets.setdefault(int(now // self.bucket_s), [0, 0])
        bucket[1] += 1
        if stale:
            streak = self._streaks.get(vehicle, 0) + 1
            self._streaks[vehicle] = streak
            self.max_stale_streak = max(self.max_stale_streak, streak)
        else:
            bucket[0] += 1
            self._streaks[vehicle] = 0

    def fresh_ratio_timeline(self) -> list[tuple[float, float]]:
        """Per-bucket ``(start_s, fresh-tick ratio)`` pairs, time-ordered."""
        return [
            (index * self.bucket_s, fresh / total)
            for index, (fresh, total) in sorted(self._buckets.items())
        ]


@pytest.fixture()
def tick_logs(monkeypatch):
    """A :class:`TickLog` per vehicle workload the test starts, in order."""
    logs = []
    start = VehicleFleetWorkload.start

    def start_logged(workload, service, until_s):
        logs.append(TickLog.attach(workload))
        start(workload, service, until_s)

    monkeypatch.setattr(VehicleFleetWorkload, "start", start_logged)
    return logs


@pytest.fixture(scope="session")
def driven_tub(tmp_path_factory, oval_track):
    """A tub recorded by a decent scripted student on the oval."""
    root = tmp_path_factory.mktemp("driven")
    session = DrivingSession(
        oval_track, camera=CameraParams(height=TEST_H, width=TEST_W), seed=11
    )
    driver = StudentDriver(PurePursuitDriver(session), skill=0.9, rng=12)
    tub = Tub.create(
        root / "tub",
        metadata={"track": oval_track.name, "track_half_width": oval_track.half_width},
    )
    vehicle = build_recording_vehicle(session, driver, tub)
    vehicle.start(max_loop_count=700)
    return tub


@pytest.fixture(scope="session")
def trained_linear(driven_tub):
    """A small linear model trained on the driven tub (session-scoped)."""
    from repro.data.datasets import TubDataset
    from repro.ml.models.factory import create_model
    from repro.ml.training import Trainer

    dataset = TubDataset(driven_tub)
    split = dataset.split(val_fraction=0.15, rng=5, targets="both")
    model = create_model("linear", input_shape=(TEST_H, TEST_W, 3), scale=0.4, seed=7)
    Trainer(batch_size=64, epochs=6, shuffle_seed=3).fit(model, split)
    return model
