"""Driving sessions: the closed loop of dynamics + track + camera.

A :class:`DrivingSession` owns a car on a track and exposes the same
step interface the DonkeyCar Unity simulator offers: apply (steering,
throttle), advance one control interval, observe (camera frame, pose,
telemetry).  It tracks lap progress, lap times, cross-track error, and
off-track excursions (crashes) — the quantities the paper's model
evaluation stage measures ("drive them around the track measuring
qualities of interest (speed, number of errors, etc.)", §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.common.errors import OffTrackError, SimulationError
from repro.common.rng import ensure_rng
from repro.common.units import DONKEYCAR_LOOP_HZ
from repro.sim.dynamics import BicycleModel, CarParams, CarState, PIRACER_PARAMS
from repro.sim.renderer import RENDERER_MODES, CameraParams, CameraRenderer
from repro.sim.tracks import Track, TrackQuery

__all__ = ["Observation", "LapStats", "DrivingSession"]


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


class DrivingSession:
    """Closed-loop simulation of one car on one track.

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
        respawned on the centreline at its current progress, which is
        what students do on the real track ("pick the car up and put it
        back").
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
        if dt <= 0:
            raise SimulationError(f"dt must be positive, got {dt}")
        if renderer_mode not in RENDERER_MODES:
            raise SimulationError(f"unknown renderer mode: {renderer_mode!r}")
        self.track = track
        self.model = BicycleModel(car_params)
        self.dt = float(dt)
        self.strict = strict
        self.render_enabled = render
        self._camera = camera or CameraParams()
        self._renderer_mode = renderer_mode
        self._rng = ensure_rng(seed)
        self._blank = np.zeros(
            (self._camera.height, self._camera.width, 3), dtype=np.uint8
        )
        self._queried_state: CarState | None = None
        self._query: TrackQuery | None = None
        self.reset()

    @cached_property
    def renderer(self) -> CameraRenderer:
        """The camera renderer, built on first use.

        A ``render=False`` session never builds one.
        """
        return CameraRenderer(self.track, self._camera, mode=self._renderer_mode)

    # ------------------------------------------------------- lifecycle

    def reset(self, s: float = 0.0, lateral_offset: float = 0.0) -> Observation:
        """Place the car at arclength ``s`` and return the first frame."""
        x, y, heading = self.track.pose_at(s, lateral_offset)
        self.state = CarState(x=x, y=y, heading=heading)
        self.time = 0.0
        self.stats = LapStats()
        self._prev_s = s % self.track.length
        self._lap_start_time = 0.0
        self._unwrapped_s = 0.0
        self._respawn_pending = False
        return self._observe()

    # ------------------------------------------------------------ step

    def step(self, steering: float, throttle: float) -> Observation:
        """Apply one control command and advance ``dt`` seconds."""
        if self._respawn_pending:
            # The previous step ended off-track: the student picks the
            # car up and puts it back on the centreline, stopped.
            x, y, heading = self.track.pose_at(self._prev_s)
            self.state = CarState(x=x, y=y, heading=heading)
            self._respawn_pending = False
        prev_state = self.state
        self.state = self.model.step(prev_state, steering, throttle, self.dt)
        self.time += self.dt
        self.stats.steps += 1
        self.stats.speed_sum += self.state.speed
        self.stats.distance += float(
            np.hypot(self.state.x - prev_state.x, self.state.y - prev_state.y)
        )

        obs = self._observe()
        self.stats.abs_cte_sum += abs(obs.cte)

        # Lap detection: progress wrapped past s = 0.
        ds = obs.arclength - self._prev_s
        if ds < -self.track.length / 2.0:  # wrapped forward through start
            self.stats.laps_completed += 1
            self.stats.lap_times.append(self.time - self._lap_start_time)
            self._lap_start_time = self.time
            ds += self.track.length
        elif ds > self.track.length / 2.0:  # wrapped backward (rare)
            ds -= self.track.length
        self._unwrapped_s += ds
        self._prev_s = obs.arclength

        if obs.off_track:
            self.stats.crashes += 1
            if self.strict:
                raise OffTrackError(
                    f"car left the track at s={obs.arclength:.2f} m "
                    f"(cte={obs.cte:+.3f} m) after {self.stats.steps} steps"
                )
            # The crash frame itself is observed (and recorded — it is
            # exactly the bad data tubclean exists to remove); the
            # respawn happens at the start of the next step.
            self._respawn_pending = True
        return obs

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

        Keyed on the identity of the frozen :attr:`state`: every step
        and respawn makes a new :class:`CarState`, and so does any
        caller that moves the car, so a memoised query is never stale.
        """
        state = self.state
        if state is not self._queried_state:
            self._query = self.track.query(np.array([[state.x, state.y]]))
            self._queried_state = state
        return self._query

    def _observe(self) -> Observation:
        query = self.pose_query()
        cte = float(query.signed_cte[0])
        arclength = float(query.arclength[0])
        if self.render_enabled:
            image = self.renderer.render(
                self.state.x, self.state.y, self.state.heading, rng=self._rng
            )
        else:
            image = self._blank
        return Observation(
            image=image,
            state=self.state,
            time=self.time,
            cte=cte,
            arclength=arclength,
            lap=self.stats.laps_completed,
            off_track=not bool(query.on_track[0]),
            speed=self.state.speed,
        )

    @property
    def progress(self) -> float:
        """Total unwrapped arclength progressed since reset (m)."""
        return self._unwrapped_s
