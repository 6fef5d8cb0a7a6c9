"""Driving sessions: the closed loop of dynamics + track + camera.

A :class:`DrivingSession` owns a car on a track and exposes the same
step interface the DonkeyCar Unity simulator offers: apply (steering,
throttle), advance one control interval, observe (camera frame, pose,
telemetry).  It tracks lap progress, lap times, cross-track error, and
off-track excursions (crashes) — the quantities the paper's model
evaluation stage measures ("drive them around the track measuring
qualities of interest (speed, number of errors, etc.)", §3.3).

The loop itself is written once, over arrays: a :class:`FleetSession`
steps ``N`` cars together, with one bicycle-model pass and one track
projection per step, and a :class:`DrivingSession` is its one-car case
plus the camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.common.errors import OffTrackError, SimulationError
from repro.common.rng import ensure_rng
from repro.common.units import DONKEYCAR_LOOP_HZ
from repro.sim.dynamics import (
    BicycleModel,
    CarArrays,
    CarParams,
    CarState,
    PIRACER_PARAMS,
)
from repro.sim.renderer import RENDERER_MODES, CameraParams, CameraRenderer
from repro.sim.tracks import Track, TrackQuery

__all__ = ["Observation", "LapStats", "FleetSession", "DrivingSession"]


@dataclass(frozen=True)
class Observation:
    """Everything a driver (human or pilot) can see after a step."""

    image: np.ndarray  # HxWx3 uint8 camera frame
    state: CarState
    time: float  # session time (s)
    cte: float  # signed cross-track error (m, positive = left)
    arclength: float  # progress coordinate along the centreline (m)
    lap: int  # completed laps
    off_track: bool  # currently outside the drivable lane
    speed: float  # convenience copy of state.speed (m/s)


@dataclass
class LapStats:
    """Aggregated per-session driving statistics."""

    laps_completed: int = 0
    lap_times: list[float] = field(default_factory=list)
    crashes: int = 0
    steps: int = 0
    distance: float = 0.0
    abs_cte_sum: float = 0.0
    speed_sum: float = 0.0

    @property
    def mean_abs_cte(self) -> float:
        """Mean unsigned cross-track error over all steps (m)."""
        return self.abs_cte_sum / self.steps if self.steps else 0.0

    @property
    def mean_speed(self) -> float:
        """Mean speed over all steps (m/s)."""
        return self.speed_sum / self.steps if self.steps else 0.0

    @property
    def mean_lap_time(self) -> float:
        """Mean completed-lap time (s); 0.0 if no lap finished."""
        return float(np.mean(self.lap_times)) if self.lap_times else 0.0

    @property
    def lap_time_std(self) -> float:
        """Std-dev of completed-lap times (s) — the consistency metric."""
        return float(np.std(self.lap_times)) if len(self.lap_times) > 1 else 0.0


class FleetSession:
    """Closed-loop simulation of ``N`` cars on one track, in lockstep.

    Car ``i``'s state, statistics and lap detection are element ``i``
    of ``(N,)`` arrays; one :meth:`step` advances every car with one
    :meth:`BicycleModel.advance` pass and one :meth:`Track.query`.  The
    cars do not interact: each element goes through the operations one
    car alone would, so car ``i`` of a fleet and a one-car session
    driven the same way agree bit for bit.

    Parameters
    ----------
    track:
        The circuit to drive.
    starts:
        Arclength of each car's start on the centreline; ``N`` is its
        length.
    car_params:
        Plant parameters (defaults to the PiRacer kit).
    dt:
        Control interval; defaults to DonkeyCar's 20 Hz loop.
    strict:
        If True, leaving the lane raises :class:`OffTrackError`.  If
        False (default), excursions are counted and the car is
        respawned on the centreline at its current progress, which is
        what students do on the real track ("pick the car up and put it
        back").
    """

    def __init__(
        self,
        track: Track,
        starts: np.ndarray,
        car_params: CarParams = PIRACER_PARAMS,
        dt: float = 1.0 / DONKEYCAR_LOOP_HZ,
        strict: bool = False,
    ) -> None:
        if not (math.isfinite(dt) and dt > 0):
            raise SimulationError(f"dt must be positive and finite, got {dt}")
        self.track = track
        self.model = BicycleModel(car_params)
        self.dt = float(dt)
        self.strict = strict
        self.reset(starts)

    def reset(self, starts: np.ndarray, lateral_offset: float = 0.0) -> None:
        """Put car ``i`` at arclength ``starts[i]``, stopped; zero the stats."""
        starts = np.asarray(starts, dtype=np.float64)
        if starts.ndim != 1 or not len(starts):
            raise SimulationError(
                f"starts must be a non-empty 1-D array, got {starts!r}"
            )
        x, y, heading = self.track.pose_at(starts, lateral_offset)
        n = len(starts)
        self.cars = CarArrays(x, y, heading, np.zeros(n), np.zeros(n), np.zeros(n))
        self.time = 0.0
        self.steps = 0
        self.lap_times: list[list[float]] = [[] for _ in range(n)]
        self.crashes = np.zeros(n, dtype=np.int64)
        self.distance = np.zeros(n)
        self.abs_cte_sum = np.zeros(n)
        self.speed_sum = np.zeros(n)
        #: Total unwrapped arclength each car progressed since reset (m).
        self.progress = np.zeros(n)
        self._prev_s = starts % self.track.length
        self._lap_start = np.zeros(n)
        self._respawn = np.zeros(n, dtype=bool)
        self._query: TrackQuery | None = None
        self.pose_query()

    # ------------------------------------------------------------ step

    def step(self, steering: np.ndarray, throttle: np.ndarray) -> TrackQuery:
        """Apply one command per car and advance every car ``dt`` seconds.

        Returns the projection of the new poses, which :meth:`pose_query`
        then serves.
        """
        prev = self.cars
        if self._respawn.any():
            # The previous step ended off-track: the student picks the
            # car up and puts it back on the centreline, stopped.
            index = np.flatnonzero(self._respawn)
            x, y, heading = self.track.pose_at(self._prev_s[index])
            for column, value in zip(prev, (x, y, heading, 0.0, 0.0, 0.0)):
                column[index] = value
        cars = self.cars = self.model.advance(prev, steering, throttle, self.dt)
        self.time += self.dt
        self.steps += 1
        self.speed_sum += cars.speed
        self.distance += np.hypot(cars.x - prev.x, cars.y - prev.y)

        # One projection for every new pose.
        self._query = None
        query = self.pose_query()
        cte = query.signed_cte
        self.abs_cte_sum += np.abs(cte)

        # Lap detection: progress wrapped past s = 0.
        length = self.track.length
        ds = query.arclength - self._prev_s
        forward = ds < -length / 2.0  # wrapped forward through start
        for index in np.flatnonzero(forward).tolist():
            self.lap_times[index].append(self.time - float(self._lap_start[index]))
            self._lap_start[index] = self.time
        ds = np.where(
            forward,
            ds + length,
            np.where(ds > length / 2.0, ds - length, ds),  # wrapped backward
        )
        self.progress += ds
        self._prev_s = query.arclength

        off_track = ~query.on_track
        self.crashes += off_track
        if self.strict and off_track.any():
            index = int(np.argmax(off_track))
            raise OffTrackError(
                f"car {index} left the track at s={query.arclength[index]:.2f} m "
                f"(cte={cte[index]:+.3f} m) after {self.steps} steps"
            )
        # The crash pose itself is observed (and recorded — it is
        # exactly the bad data tubclean exists to remove); the respawn
        # happens at the start of the next step.
        self._respawn = off_track
        return query

    # --------------------------------------------------------- observe

    def pose_query(self) -> TrackQuery:
        """The track projection of every car's pose, computed once per pose.

        The step or reset that makes the poses projects them;
        :meth:`place` drops the projection, so it is never stale.
        """
        if self._query is None:
            points = np.empty((len(self.cars.x), 2))
            points[:, 0], points[:, 1] = self.cars.x, self.cars.y
            self._query = self.track.query(points)
        return self._query

    def place(self, index: int, state: CarState) -> None:
        """Move car ``index`` to ``state`` (lap progress is kept)."""
        self.cars.place(index, state)
        self._query = None

    def lap_stats(self) -> list[LapStats]:
        """Each car's statistics since the last reset, in car order."""
        return [
            LapStats(
                laps_completed=len(times),
                lap_times=list(times),
                crashes=crashes,
                steps=self.steps,
                distance=distance,
                abs_cte_sum=abs_cte_sum,
                speed_sum=speed_sum,
            )
            for times, crashes, distance, abs_cte_sum, speed_sum in zip(
                self.lap_times,
                self.crashes.tolist(),
                self.distance.tolist(),
                self.abs_cte_sum.tolist(),
                self.speed_sum.tolist(),
            )
        ]


class DrivingSession:
    """Closed-loop simulation of one car on one track.

    The one-car case of :class:`FleetSession`, which it drives (as
    :attr:`fleet`), plus the camera.

    Parameters
    ----------
    track:
        The circuit to drive.
    car_params:
        Plant parameters (defaults to the PiRacer kit).
    camera:
        Camera intrinsics/mounting.
    dt:
        Control interval; defaults to DonkeyCar's 20 Hz loop.
    strict:
        If True, leaving the lane raises :class:`OffTrackError`
        (used by tests that must not silently tolerate crashes).
        If False (default), excursions are counted and the car is
        respawned on the centreline at its current progress.
    seed:
        Seeds the camera sensor noise stream.
    render:
        If False, observations carry a zero image (fast mode for
        physics-only experiments) and no camera renderer is built.
    """

    def __init__(
        self,
        track: Track,
        car_params: CarParams = PIRACER_PARAMS,
        camera: CameraParams | None = None,
        dt: float = 1.0 / DONKEYCAR_LOOP_HZ,
        strict: bool = False,
        seed: int | np.random.Generator | None = None,
        render: bool = True,
        renderer_mode: str = "perspective",
    ) -> None:
        if renderer_mode not in RENDERER_MODES:
            raise SimulationError(f"unknown renderer mode: {renderer_mode!r}")
        self.fleet = FleetSession(track, [0.0], car_params, dt=dt, strict=strict)
        self.track = track
        self.model = self.fleet.model
        self.dt = self.fleet.dt
        self.render_enabled = render
        self._camera = camera or CameraParams()
        self._renderer_mode = renderer_mode
        self._rng = ensure_rng(seed)
        self._blank = np.zeros(
            (self._camera.height, self._camera.width, 3), dtype=np.uint8
        )
        # The first frame, as reset() returns it: a rendering session
        # draws its first camera noise here.
        self._observe()

    @cached_property
    def renderer(self) -> CameraRenderer:
        """The camera renderer, built on first use.

        A ``render=False`` session never builds one.
        """
        return CameraRenderer(self.track, self._camera, mode=self._renderer_mode)

    # ------------------------------------------------------------ state

    @property
    def state(self) -> CarState:
        """The car's kinematic state; assigning one moves the car."""
        return self.fleet.cars.car(0)

    @state.setter
    def state(self, state: CarState) -> None:
        self.fleet.place(0, state)

    @property
    def cars(self) -> CarArrays:
        """The car's state as one-element arrays (what drivers read)."""
        return self.fleet.cars

    @property
    def stats(self) -> LapStats:
        """Driving statistics since the last reset."""
        return self.fleet.lap_stats()[0]

    @property
    def time(self) -> float:
        """Session time since the last reset (s)."""
        return self.fleet.time

    @property
    def progress(self) -> float:
        """Total unwrapped arclength progressed since reset (m)."""
        return float(self.fleet.progress[0])

    # ------------------------------------------------------- lifecycle

    def reset(self, s: float = 0.0, lateral_offset: float = 0.0) -> Observation:
        """Place the car at arclength ``s`` and return the first frame."""
        self.fleet.reset(np.array([s], dtype=np.float64), lateral_offset)
        return self._observe()

    # ------------------------------------------------------------ step

    def step(self, steering: float, throttle: float) -> Observation:
        """Apply one control command and advance ``dt`` seconds.

        The observation's ``lap`` is the count from before this step, so
        the step that completes a lap reports it one step late.
        """
        laps = len(self.fleet.lap_times[0])
        self.fleet.step(
            np.array([steering], dtype=np.float64),
            np.array([throttle], dtype=np.float64),
        )
        return self._observe(laps)

    def run(self, pilot, steps: int) -> LapStats:
        """Drive ``steps`` control intervals under ``pilot``.

        ``pilot`` is any callable mapping an :class:`Observation` to a
        ``(steering, throttle)`` pair — a trained model wrapper, a
        scripted driver, or a human-input replay.
        """
        obs = self._observe()
        for _ in range(steps):
            steering, throttle = pilot(obs)
            obs = self.step(steering, throttle)
        return self.stats

    # --------------------------------------------------------- observe

    def pose_query(self) -> TrackQuery:
        """The track projection of the current pose, computed once per pose.

        The step or reset that moved the car projected it; assigning
        :attr:`state` drops the projection, so it is never stale.
        """
        return self.fleet.pose_query()

    def _observe(self, laps: int | None = None) -> Observation:
        query = self.pose_query()
        state = self.state
        if self.render_enabled:
            image = self.renderer.render(
                state.x, state.y, state.heading, rng=self._rng
            )
        else:
            image = self._blank
        return Observation(
            image=image,
            state=state,
            time=self.fleet.time,
            cte=float(query.signed_cte[0]),
            arclength=float(query.arclength[0]),
            lap=len(self.fleet.lap_times[0]) if laps is None else laps,
            off_track=not bool(query.on_track[0]),
            speed=state.speed,
        )
