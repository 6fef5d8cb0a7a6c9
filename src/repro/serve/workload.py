"""Seeded request generators: open-loop Poisson and closed-loop fleets.

Two traffic shapes bracket real serving load:

* :class:`PoissonWorkload` — open loop: arrivals follow a seeded
  Poisson process at a fixed offered rate, regardless of how the
  service keeps up.  This is how you find a fleet's saturation knee.
* :class:`VehicleFleetWorkload` — closed loop: N simulated vehicles
  each tick at 20 Hz (phase-staggered) and keep at most one request in
  flight; while a request is outstanding the vehicle drives on its
  stale command (counted per vehicle).  Load self-limits, which is the
  natural backpressure of a control loop.  Every tick is one scheduler
  event, fresh or stale, and each vehicle moves its one event from tick
  to tick, so a tick allocates neither an event nor a closure.

Both draw every random quantity from a single ``ensure_rng`` stream,
so the same seed yields a byte-identical arrival trace.  Frames come
from a small pre-generated pool (deterministic, cheap) when real model
forward passes are wanted.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.common.clock import ScheduledEvent
from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.serve.request import Request

__all__ = ["Workload", "PoissonWorkload", "VehicleFleetWorkload"]

#: Size of the deterministic frame pool shared by generated requests.
FRAME_POOL_SIZE = 16


class Workload:
    """Request-generator interface driven by the service's scheduler."""

    #: Whether generated requests carry camera frames.
    provides_frames = False

    def start(self, service, until_s: float) -> None:
        """Begin scheduling arrivals on ``service`` until ``until_s``."""
        raise NotImplementedError

    def on_response(self, request: Request) -> None:
        """A request this workload submitted completed."""

    def on_loss(self, request: Request) -> None:
        """A request this workload submitted was dropped/rejected/expired."""

    @property
    def submitted(self) -> int:
        """Requests handed to the service so far."""
        raise NotImplementedError


def _frame_pool(
    rng: np.random.Generator, frame_shape: tuple[int, int, int] | None
) -> list[np.ndarray] | None:
    if frame_shape is None:
        return None
    if len(frame_shape) != 3 or frame_shape[2] != 3:
        raise ConfigurationError(f"frame_shape must be (H, W, 3), got {frame_shape}")
    return [
        rng.integers(0, 255, frame_shape, dtype=np.uint8)
        for _ in range(FRAME_POOL_SIZE)
    ]


class PoissonWorkload(Workload):
    """Open-loop arrivals at ``rate_hz`` with exponential interarrivals."""

    def __init__(
        self,
        rate_hz: float,
        deadline_s: float = 0.1,
        seed: int | np.random.Generator | None = None,
        frame_shape: tuple[int, int, int] | None = None,
        priority: int = 0,
        source: str = "open-loop",
    ) -> None:
        if not 0 < rate_hz < math.inf:
            raise ConfigurationError(
                f"rate_hz must be finite and positive, got {rate_hz}"
            )
        if not 0 < deadline_s < math.inf:
            raise ConfigurationError(
                f"deadline_s must be finite and positive, got {deadline_s}"
            )
        self.rate_hz = float(rate_hz)
        self.deadline_s = float(deadline_s)
        self.priority = int(priority)
        self.source = source
        self._rng = ensure_rng(seed)
        self._frames = _frame_pool(self._rng, frame_shape)
        self.provides_frames = self._frames is not None
        self._count = 0
        self._service = None
        self._until_s = 0.0

    @property
    def submitted(self) -> int:
        return self._count

    def start(self, service, until_s: float) -> None:
        self._service = service
        self._until_s = float(until_s)
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = float(self._rng.exponential(1.0 / self.rate_hz))
        scheduler = self._service.scheduler
        if scheduler.clock.now + gap >= self._until_s:
            return
        scheduler.schedule_in(gap, self._arrive, label="workload.poisson")

    def _arrive(self) -> None:
        now = self._service.scheduler.clock.now
        frame = None
        if self._frames is not None:
            frame = self._frames[self._count % len(self._frames)]
        self._count += 1
        request = Request(
            request_id=f"req-{self._count:06d}",
            source=self.source,
            arrival_s=now,
            deadline_s=now + self.deadline_s,
            priority=self.priority,
            frame=frame,
        )
        self._service.submit(request)
        self._schedule_next()


class VehicleFleetWorkload(Workload):
    """Closed loop: N vehicles at ``1/dt`` Hz, one request in flight each.

    Vehicle ``v`` first ticks at ``start + phase[v]``, and each later
    tick time is the one before plus ``dt``, one float sum at a time.
    A tick submits a request when the vehicle has none in flight;
    otherwise it is *stale*: the vehicle drives on its old command.

    The loop counts only what the service cannot see: a tick adds one
    to ``ticks`` and then either one to ``stale_ticks`` or submits.
    Requests, responses and losses are the service's to count.

    **Events.**  Every tick, stale or fresh, is one ``workload.vehicle``
    scheduler event, and stale ticks are counted as they run, so the
    counts are current whenever they are read.  Each vehicle owns one
    :class:`~repro.common.clock.ScheduledEvent` (and one callback),
    made at :meth:`start`; the end of every tick moves it to the next
    tick with :meth:`~repro.common.clock.EventScheduler.reschedule`, so
    a tick allocates no event and no closure.

    **Ties.**  A response or loss at the exact instant of one of its
    vehicle's ticks is ordered by the scheduler's ``(time, seq)`` rule:
    it comes first, and that tick submits, exactly when its event was
    scheduled before the vehicle's previous tick ran (the moment the
    tick's own event took its place); otherwise the tick runs first and
    is stale.  This is why a stale tick still runs as an event: counted
    without running, it would leave no trace of when its successor took
    its place, and such a tie could go either way.
    """

    def __init__(
        self,
        n_vehicles: int,
        dt: float = 0.05,
        deadline_ticks: int = 2,
        seed: int | np.random.Generator | None = None,
        frame_shape: tuple[int, int, int] | None = None,
    ) -> None:
        if n_vehicles < 1:
            raise ConfigurationError(f"need >= 1 vehicle, got {n_vehicles}")
        if not 0 < dt < math.inf:
            raise ConfigurationError(f"dt must be finite and positive, got {dt}")
        if deadline_ticks < 1:
            raise ConfigurationError(
                f"deadline_ticks must be >= 1, got {deadline_ticks}"
            )
        self.n_vehicles = int(n_vehicles)
        self.dt = float(dt)
        self.deadline_s = deadline_ticks * self.dt
        self._rng = ensure_rng(seed)
        self._frames = _frame_pool(self._rng, frame_shape)
        self.provides_frames = self._frames is not None
        # Deterministic phase stagger spreads the 20 Hz ticks across the
        # control interval so arrivals do not all land on one instant.
        self._phases = [
            (vehicle / self.n_vehicles) * self.dt
            + float(self._rng.uniform(0, self.dt / self.n_vehicles))
            for vehicle in range(self.n_vehicles)
        ]
        self._outstanding = [False] * self.n_vehicles
        self.ticks = 0
        self.stale_ticks = 0
        self._count = 0
        self._service = None
        self._scheduler = None
        self._handles: list[ScheduledEvent | None] = [None] * self.n_vehicles
        self._until_s = 0.0

    @property
    def submitted(self) -> int:
        return self._count

    @property
    def stale_ratio(self) -> float:
        """Fraction of fleet ticks driven on a stale command."""
        return self.stale_ticks / self.ticks if self.ticks else 0.0

    def start(self, service, until_s: float) -> None:
        self._service = service
        self._scheduler = scheduler = service.scheduler
        self._until_s = float(until_s)
        now = scheduler.clock.now
        for vehicle, phase in enumerate(self._phases):
            if now + phase < self._until_s:
                self._handles[vehicle] = scheduler.schedule_in(
                    phase,
                    functools.partial(self._tick, vehicle),
                    label="workload.vehicle",
                )

    def _tick(self, vehicle: int) -> None:
        scheduler = self._scheduler
        now = scheduler.clock.now
        self.ticks += 1
        if self._outstanding[vehicle]:
            # Previous command still in flight: drive on the stale one.
            self.stale_ticks += 1
        else:
            self._count += 1
            frame = None
            if self._frames is not None:
                frame = self._frames[vehicle % len(self._frames)]
            request = Request(
                request_id=f"req-{self._count:06d}",
                source=f"veh-{vehicle:04d}",
                arrival_s=now,
                deadline_s=now + self.deadline_s,
                frame=frame,
            )
            self._outstanding[vehicle] = True
            self._service.submit(request)
        if now + self.dt < self._until_s:
            scheduler.reschedule(self._handles[vehicle], now + self.dt)

    def _vehicle_index(self, source: str) -> int | None:
        if not source.startswith("veh-"):
            return None
        return int(source[4:])

    def on_response(self, request: Request) -> None:
        # Answered or lost, the vehicle's next tick submits again.
        vehicle = self._vehicle_index(request.source)
        if vehicle is not None:
            self._outstanding[vehicle] = False

    on_loss = on_response
