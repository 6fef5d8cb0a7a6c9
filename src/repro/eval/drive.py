"""Multi-vehicle drive scenarios: trajectories for tracking-grade scoring.

A ``drive`` scenario puts N scripted students on one track (phase-
staggered around the centreline), ticks them in lockstep on the run's
:class:`~repro.common.clock.EventScheduler` — one array pass over the
whole :class:`~repro.sim.session.FleetSession` per tick — and records
two aligned frame sequences:

* ground truth — each vehicle's true position per tick;
* tracker output — the estimates of :class:`GreedyTracker`, a small
  nearest-neighbour perception tracker fed seeded noisy detections
  (position noise, dropouts), which is the *system under evaluation*
  for the MOT-style metrics in :mod:`repro.eval.mot`.

Driving quality (lap times, cross-track error, crashes) comes straight
from the fleet.  Everything is a pure function of the spec params and
the seed: per-vehicle dynamics, student noise, disturbance, and
perception noise all draw from ``seed_from_name`` streams.  After the
run, :func:`run_drive` checks that every car recorded every tick, with
finite poses and cross-track errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.params import number_param
from repro.common.rng import ensure_rng, seed_from_name
from repro.eval.metrics import cte_stats
from repro.eval.spec import resolve_params
from repro.obs.metrics import MetricsRegistry, SeriesHandle
from repro.obs.tracer import NullTracer, Tracer
from repro.sim.session import LapStats

__all__ = ["DRIVE_PARAMS", "GreedyTracker", "DriveArtifacts", "run_drive"]

#: ``drive`` params: name -> default; ``perception`` is a nested group
#: holding the :class:`GreedyTracker` dials plus the MOT match radius.
DRIVE_PARAMS: dict = {
    "track": "default-tape-oval",
    "n_vehicles": 4,
    "ticks": 240,
    "dt": 0.05,
    "skill": 0.85,
    "steering_noise": 0.0,
    "perception": {
        "noise_m": 0.06,
        "dropout": 0.04,
        "gate_m": 0.8,
        "max_coast": 3,
        "match_radius_m": 0.5,
    },
}


class GreedyTracker:
    """Nearest-neighbour tracker over noisy, dropout-prone detections.

    Detections within ``gate_m`` of a live track update it; leftover
    detections spawn new track ids; a track missing for more than
    ``max_coast`` consecutive frames is retired.  Deliberately naive —
    dropouts and crossings produce the identity switches the MOT
    metrics exist to measure.
    """

    def __init__(
        self,
        noise_m: float = 0.06,
        dropout: float = 0.04,
        gate_m: float = 0.8,
        max_coast: int = 3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not (math.isfinite(noise_m) and noise_m >= 0):
            raise ConfigurationError(f"noise_m must be finite and >= 0, got {noise_m}")
        if not (math.isfinite(gate_m) and gate_m > 0):
            raise ConfigurationError(f"gate_m must be finite and > 0, got {gate_m}")
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {dropout}")
        if max_coast < 0:
            raise ConfigurationError(f"max_coast must be >= 0, got {max_coast}")
        self.noise_m = float(noise_m)
        self.dropout = float(dropout)
        self.gate_m = float(gate_m)
        self.max_coast = int(max_coast)
        self._rng = ensure_rng(seed)
        self._tracks: dict[str, list] = {}  # id -> [x, y, missed_frames]
        self.spawned = 0
        self.detections = 0

    def observe(self, gt_frame: dict[str, tuple[float, float]]) -> dict:
        """Ingest one ground-truth frame; return ``{track_id: (x, y)}``."""
        detections: list[tuple[float, float]] = []
        for obj_id in sorted(gt_frame):
            if self.dropout and self._rng.random() < self.dropout:
                continue
            x, y = gt_frame[obj_id]
            if self.noise_m:
                dx, dy = self._rng.normal(0.0, self.noise_m, 2)
                x, y = x + float(dx), y + float(dy)
            detections.append((x, y))
            self.detections += 1
        candidates = sorted(
            (
                (math.hypot(x - track[0], y - track[1]), track_id, index)
                for track_id, track in self._tracks.items()
                for index, (x, y) in enumerate(detections)
            ),
        )
        matched_tracks: set[str] = set()
        matched_detections: set[int] = set()
        output: dict[str, tuple[float, float]] = {}
        for distance, track_id, index in candidates:
            if distance > self.gate_m:
                break
            if track_id in matched_tracks or index in matched_detections:
                continue
            matched_tracks.add(track_id)
            matched_detections.add(index)
            track = self._tracks[track_id]
            track[0], track[1] = detections[index]
            track[2] = 0
            output[track_id] = detections[index]
        for index, position in enumerate(detections):
            if index in matched_detections:
                continue
            self.spawned += 1
            track_id = f"trk-{self.spawned:04d}"
            self._tracks[track_id] = [position[0], position[1], 0]
            output[track_id] = position
        for track_id in sorted(set(self._tracks) - matched_tracks - set(output)):
            track = self._tracks[track_id]
            track[2] += 1
            if track[2] > self.max_coast:
                del self._tracks[track_id]
        return output


@dataclass
class DriveArtifacts:
    """Everything the evaluator needs from one drive run."""

    track_name: str
    n_vehicles: int
    ticks: int
    dt: float
    lap_stats: list[LapStats] = field(default_factory=list)
    cte_values: list[float] = field(default_factory=list)
    gt_frames: list[dict] = field(default_factory=list)
    tracked_frames: list[dict] = field(default_factory=list)
    match_radius_m: float = 0.5
    detections: int = 0
    tracks_spawned: int = 0

    @cached_property
    def driving(self) -> dict:
        """The run's driving figures: laps, lap times, crashes, speed, |cte|.

        The summary text and the scorecard's ``driving`` group both read
        them; computed once, after the run.
        """
        lap_stats = self.lap_stats
        lap_times = [time for stats in lap_stats for time in stats.lap_times]
        steps = sum(stats.steps for stats in lap_stats)
        cte = cte_stats(self.cte_values)
        return {
            "vehicles": self.n_vehicles,
            "ticks": self.ticks,
            "laps": sum(stats.laps_completed for stats in lap_stats),
            "mean_lap_s": (
                sum(lap_times) / len(lap_times) if lap_times else 0.0
            ),
            "best_lap_s": min(lap_times) if lap_times else 0.0,
            "crashes": sum(stats.crashes for stats in lap_stats),
            "mean_speed_mps": (
                sum(stats.speed_sum for stats in lap_stats) / steps
                if steps
                else 0.0
            ),
            "cte_mean_m": cte["mean_m"],
            "cte_p95_m": cte["p95_m"],
            "cte_max_m": cte["max_m"],
        }


def run_drive(
    name: str,
    params: dict,
    seed: int,
    scheduler,
    tracer: Tracer | NullTracer,
    metrics: MetricsRegistry,
) -> tuple[str, DriveArtifacts]:
    """Run one drive scenario; returns (summary text, artifacts)."""
    from repro.core.drivers import PurePursuitDriver, StudentDriver
    from repro.sim.server import make_track
    from repro.sim.session import FleetSession

    where = f"drive spec {name!r} params"
    params = resolve_params(params, DRIVE_PARAMS, where)
    track_name = str(params["track"])
    try:
        track = make_track(track_name)
    except SimulationError as exc:
        raise ConfigurationError(f"{where}.track: {exc.args[0]}") from None
    n_vehicles = number_param(
        params["n_vehicles"], f"{where}.n_vehicles", whole=True, positive=True
    )
    ticks = number_param(params["ticks"], f"{where}.ticks", whole=True, positive=True)
    dt = number_param(params["dt"], f"{where}.dt", positive=True)
    noise_amp = params["steering_noise"]
    perception = params["perception"]
    tracker = GreedyTracker(
        noise_m=perception["noise_m"],
        dropout=perception["dropout"],
        gate_m=number_param(
            perception["gate_m"], f"{where}.perception.gate_m", positive=True
        ),
        max_coast=perception["max_coast"],
        seed=seed_from_name("drive-perception", seed),
    )
    artifacts = DriveArtifacts(
        track_name=track_name,
        n_vehicles=n_vehicles,
        ticks=ticks,
        dt=dt,
        match_radius_m=perception["match_radius_m"],
    )

    fleet = FleetSession(
        track, track.length * np.arange(n_vehicles) / n_vehicles, dt=dt
    )
    expert = PurePursuitDriver(fleet)
    students = StudentDriver(
        expert,
        skill=params["skill"],
        rng=[
            seed_from_name(f"drive-skill-{index:04d}", seed)
            for index in range(n_vehicles)
        ],
    )
    disturbance = ensure_rng(seed_from_name("drive-disturbance", seed))
    vehicle_ids = [f"veh-{index:04d}" for index in range(n_vehicles)]
    drive_ticks = SeriesHandle(metrics.counter, "drive.ticks")

    def tick() -> None:
        steering, throttle = students.commands(*expert.commands(fleet.cars.speed))
        if noise_amp:
            # One draw per car, in car order, from the shared stream.
            kicks = disturbance.normal(size=n_vehicles)
            steering = np.clip(steering + noise_amp * kicks, -1.0, 1.0)
        query = fleet.step(steering, throttle)
        frame_gt = dict(
            zip(vehicle_ids, zip(fleet.cars.x.tolist(), fleet.cars.y.tolist()))
        )
        artifacts.cte_values.extend(query.signed_cte.tolist())
        artifacts.gt_frames.append(frame_gt)
        artifacts.tracked_frames.append(tracker.observe(frame_gt))
        drive_ticks.inc()
        if len(artifacts.gt_frames) < ticks:
            scheduler.schedule_in(dt, tick, label="eval.drive")

    with tracer.span(
        "drive.world", track=track_name, vehicles=n_vehicles, ticks=ticks
    ):
        scheduler.schedule_in(dt, tick, label="eval.drive")
        scheduler.run_all()

    artifacts.lap_stats = fleet.lap_stats()
    artifacts.detections = tracker.detections
    artifacts.tracks_spawned = tracker.spawned
    _check_drive(artifacts)
    driving = artifacts.driving
    lines = [
        f"drive scenario {name!r} seed={seed}",
        f"  world     track={track_name} vehicles={n_vehicles} "
        f"ticks={ticks} dt={dt:.3f}s",
        f"  driving   laps={driving['laps']} "
        f"mean_lap={driving['mean_lap_s']:.3f}s "
        f"crashes={driving['crashes']} "
        f"mean_speed={driving['mean_speed_mps']:.3f} m/s",
        f"  quality   cte_mean={driving['cte_mean_m']:.4f}m "
        f"cte_max={driving['cte_max_m']:.4f}m",
        f"  tracking  detections={tracker.detections} "
        f"tracks={tracker.spawned}",
    ]
    return "\n".join(lines) + "\n", artifacts


def _check_drive(artifacts: DriveArtifacts) -> None:
    """Every car recorded every tick, with a finite pose and cte.

    Raises :class:`SimulationError` naming the first broken invariant.
    """
    ticks, n_vehicles = artifacts.ticks, artifacts.n_vehicles
    frames = (len(artifacts.gt_frames), len(artifacts.tracked_frames))
    if frames != (ticks, ticks):
        raise SimulationError(
            f"drive recorded {frames[0]} truth and {frames[1]} tracker "
            f"frames over {ticks} ticks"
        )
    for index, stats in enumerate(artifacts.lap_stats):
        if stats.steps != ticks or stats.laps_completed != len(stats.lap_times):
            raise SimulationError(
                f"drive car {index}: {stats.steps} steps over {ticks} ticks, "
                f"{stats.laps_completed} laps with {len(stats.lap_times)} lap times"
            )
    if len(artifacts.cte_values) != n_vehicles * ticks:
        raise SimulationError(
            f"drive recorded {len(artifacts.cte_values)} cte values for "
            f"{n_vehicles} cars over {ticks} ticks"
        )
    poses = [pose for frame in artifacts.gt_frames for pose in frame.values()]
    if len(poses) != n_vehicles * ticks:
        raise SimulationError(
            f"drive recorded {len(poses)} poses for {n_vehicles} cars over "
            f"{ticks} ticks"
        )
    if not (np.isfinite(poses).all() and np.isfinite(artifacts.cte_values).all()):
        raise SimulationError("drive recorded a non-finite pose or cte")
