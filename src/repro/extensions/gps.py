"""GPS path following (paper §3.3 extension, E10).

"path following (record a path with GPS and have the car follow that
path)" — the car records a GPS trace of a manually driven path, then a
pure-pursuit follower tracks the recorded waypoints instead of the
track centreline.  The GPS receiver model adds bias-random-walk plus
white noise (RTK-grade by default, tunable down to hobby-grade), which
is what makes the exercise interesting: path quality degrades with
receiver quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.sim.session import DrivingSession

__all__ = ["GPSReceiver", "GPSTrace", "record_gps_path", "PathFollower"]


class GPSReceiver:
    """Positions with white noise plus a slow bias random walk."""

    def __init__(
        self,
        white_sigma: float = 0.02,
        bias_walk_sigma: float = 0.002,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if white_sigma < 0 or bias_walk_sigma < 0:
            raise ConfigurationError("noise sigmas must be non-negative")
        self.white_sigma = float(white_sigma)
        self.bias_walk_sigma = float(bias_walk_sigma)
        self.rng = ensure_rng(rng)
        self._bias = np.zeros(2)

    def fix(self, x: float, y: float) -> tuple[float, float]:
        """One position fix."""
        self._bias += self.rng.normal(0.0, self.bias_walk_sigma, 2)
        noise = self.rng.normal(0.0, self.white_sigma, 2)
        return float(x + self._bias[0] + noise[0]), float(y + self._bias[1] + noise[1])


@dataclass(frozen=True)
class GPSTrace:
    """A recorded path: fixes at the drive-loop rate."""

    points: np.ndarray  # (N, 2)
    dt: float

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[1] != 2 or len(self.points) < 2:
            raise ConfigurationError("trace needs at least 2 (x, y) fixes")

    def decimate(self, every: int) -> "GPSTrace":
        """Keep every ``every``-th fix (waypoint thinning)."""
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        return GPSTrace(self.points[::every].copy(), self.dt * every)


def record_gps_path(
    session: DrivingSession,
    driver,
    ticks: int,
    receiver: GPSReceiver | None = None,
) -> GPSTrace:
    """Drive ``ticks`` with ``driver`` while logging GPS fixes."""
    if ticks < 2:
        raise ConfigurationError(f"need at least 2 ticks, got {ticks}")
    receiver = receiver or GPSReceiver()
    fixes = []
    obs = session._observe()
    for _ in range(ticks):
        steering, throttle = driver(obs.image, obs.cte, obs.speed)
        obs = session.step(steering, throttle)
        fixes.append(receiver.fix(obs.state.x, obs.state.y))
    return GPSTrace(np.asarray(fixes), session.dt)


class PathFollower:
    """Pure-pursuit over recorded GPS waypoints.

    Drive-loop part signature: called with (image, cte, speed) like
    other drivers, but steers toward the recorded path using the car's
    (GPS-estimated) pose, not the track.
    """

    def __init__(
        self,
        trace: GPSTrace,
        session: DrivingSession,
        receiver: GPSReceiver | None = None,
        lookahead: float = 0.5,
        speed: float = 1.0,
    ) -> None:
        if lookahead <= 0 or speed <= 0:
            raise ConfigurationError("lookahead and speed must be positive")
        self.trace = trace
        self.session = session
        self.receiver = receiver or GPSReceiver()
        self.lookahead = float(lookahead)
        self.target_speed = float(speed)
        self._nearest = 0

    def cross_track_error(self) -> float:
        """Distance from the true pose to the nearest recorded point."""
        state = self.session.state
        d = np.linalg.norm(self.trace.points - state.position, axis=1)
        return float(d.min())

    def __call__(self, image, cte: float, speed: float) -> tuple[float, float]:
        state = self.session.state
        gx, gy = self.receiver.fix(state.x, state.y)
        pts = self.trace.points
        # Advance the nearest-waypoint cursor monotonically (wrapping).
        n = len(pts)
        window = (self._nearest + np.arange(0, n // 2)) % n
        d = np.linalg.norm(pts[window] - [gx, gy], axis=1)
        self._nearest = int(window[np.argmin(d)])
        # Lookahead target along the recorded path.
        target_idx = self._nearest
        acc = 0.0
        while acc < self.lookahead:
            nxt = (target_idx + 1) % n
            acc += float(np.linalg.norm(pts[nxt] - pts[target_idx]))
            target_idx = nxt
            if target_idx == self._nearest:
                break
        target = pts[target_idx]
        steering = float(
            self.session.model.pursuit_steering(
                target[0] - gx, target[1] - gy, state.heading
            )
        )
        throttle = float(np.clip(0.6 * (self.target_speed - speed) + 0.25, 0.0, 1.0))
        return steering, throttle
