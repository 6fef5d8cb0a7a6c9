"""Scripted drivers: the synthetic students.

The paper's data comes from humans steering with a joystick or the web
UI.  The reproduction replaces them with scripted drivers of calibrated
skill:

* :class:`PurePursuitDriver` — a clean racing-line expert (the
  instructor demo lap).
* :class:`StudentDriver` — the expert plus human imperfection: reaction
  noise, over/under-steer bias, and occasional *distraction events*
  that wander the car off line — producing exactly the crash/off-side
  records tubclean exists to remove (paper §3.3, experiment E8).
* :class:`ReplayDriver` — replays recorded commands (digital-twin
  experiments re-drive a real session in the simulator).

Drivers are callables ``(image, cte, speed) -> (steering, throttle)``
(the controller-part interface).  The scripted "human" also sees the
car pose directly through the session — a stand-in for the human's
out-of-frame situational awareness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.sim.session import DrivingSession

__all__ = ["PurePursuitDriver", "StudentDriver", "ReplayDriver"]


class PurePursuitDriver:
    """Geometric path tracker with curvature-aware speed control."""

    def __init__(
        self,
        session: DrivingSession,
        target_speed: float = 1.6,
        lookahead_base: float = 0.45,
        lookahead_gain: float = 0.35,
        lateral_accel_limit: float = 2.2,
        throttle_gain: float = 0.8,
    ) -> None:
        if target_speed <= 0:
            raise ConfigurationError(f"target_speed must be positive: {target_speed}")
        self.session = session
        self.track = session.track
        self.target_speed = float(target_speed)
        self.lookahead_base = float(lookahead_base)
        self.lookahead_gain = float(lookahead_gain)
        self.lateral_accel_limit = float(lateral_accel_limit)
        self.throttle_gain = float(throttle_gain)
        self._max_angle = session.model.params.max_steering_angle
        self._wheelbase = session.model.params.wheelbase

    # ------------------------------------------------------------ core

    def steer_to(self, s_now: float) -> float:
        """Pure-pursuit steering command toward a lookahead point."""
        state = self.session.state
        lookahead = self.lookahead_base + self.lookahead_gain * state.speed
        target = self.track.point_at(s_now + lookahead)
        dx = target[0] - state.x
        dy = target[1] - state.y
        # Angle to target in the car frame.
        alpha = np.arctan2(dy, dx) - state.heading
        alpha = np.arctan2(np.sin(alpha), np.cos(alpha))
        distance = max(np.hypot(dx, dy), 1e-6)
        wheel_angle = np.arctan2(2.0 * self._wheelbase * np.sin(alpha), distance)
        return float(np.clip(wheel_angle / self._max_angle, -1.0, 1.0))

    def speed_target(self, s_now: float, horizon: float = 1.2) -> float:
        """Curvature-limited speed over the next ``horizon`` metres."""
        ahead = s_now + np.linspace(0.0, horizon, 4)
        kappa = max(float(np.abs(self.track.curvature_at(ahead)).max()), 1e-6)
        v_curve = np.sqrt(self.lateral_accel_limit / kappa)
        return float(min(self.target_speed, v_curve))

    def throttle_to(self, target_speed: float, speed: float) -> float:
        """Proportional speed controller."""
        return float(np.clip(self.throttle_gain * (target_speed - speed) + 0.25, 0.0, 1.0))

    def __call__(
        self, image: np.ndarray, cte: float, speed: float
    ) -> tuple[float, float]:
        s_now = float(self.session.pose_query().arclength[0])
        steering = self.steer_to(s_now)
        throttle = self.throttle_to(self.speed_target(s_now), speed)
        return steering, throttle


class StudentDriver:
    """A human-skill wrapper around the expert.

    Parameters
    ----------
    skill:
        1.0 = expert-clean; 0.0 = maximally sloppy.  Controls noise
        magnitude, reaction smoothing, and distraction frequency.
    distraction_rate:
        Expected distraction events per 1000 ticks at skill 0.5; each
        event holds a wrong steering offset for a short burst (the
        paper's crashes / off-side images).
    """

    def __init__(
        self,
        expert: PurePursuitDriver,
        skill: float = 0.7,
        rng: int | np.random.Generator | None = None,
        distraction_rate: float = 6.0,
    ) -> None:
        if not 0.0 <= skill <= 1.0:
            raise ConfigurationError(f"skill must be in [0, 1], got {skill}")
        self.expert = expert
        self.skill = float(skill)
        self.rng = ensure_rng(rng)
        sloppiness = 1.0 - self.skill
        self.noise_sigma = 0.02 + 0.18 * sloppiness
        self.lag = 0.25 + 0.45 * sloppiness  # EMA smoothing factor
        self.distraction_p = distraction_rate * (0.4 + 1.2 * sloppiness) / 1000.0
        self._last_steering = 0.0
        self._distraction_ticks = 0
        self._distraction_offset = 0.0

    def __call__(
        self, image: np.ndarray, cte: float, speed: float
    ) -> tuple[float, float]:
        steering, throttle = self.expert(image, cte, speed)

        # Reaction lag: humans smooth their corrections.
        steering = (1 - self.lag) * steering + self.lag * self._last_steering
        # Hand noise.
        steering += self.rng.normal(0.0, self.noise_sigma)
        throttle += self.rng.normal(0.0, 0.5 * self.noise_sigma)

        # Distraction events: hold a wrong offset for a burst.  Sloppier
        # drivers stay distracted longer — their tubs carry sustained
        # wrong-label stretches, the data tubclean exists to remove.
        if self._distraction_ticks > 0:
            steering += self._distraction_offset
            self._distraction_ticks -= 1
        elif self.rng.random() < self.distraction_p:
            max_burst = 18 + int(45 * (1.0 - self.skill))
            self._distraction_ticks = int(self.rng.integers(6, max_burst))
            self._distraction_offset = float(
                self.rng.choice([-1.0, 1.0]) * self.rng.uniform(0.3, 0.8)
            )

        steering = float(np.clip(steering, -1.0, 1.0))
        throttle = float(np.clip(throttle, 0.0, 1.0))
        self._last_steering = steering
        return steering, throttle


class ReplayDriver:
    """Replays a fixed command sequence (loops when exhausted)."""

    def __init__(self, commands: Sequence[tuple[float, float]]) -> None:
        if not commands:
            raise ConfigurationError("replay needs at least one command")
        self.commands = [(float(a), float(t)) for a, t in commands]
        self._i = 0

    def __call__(
        self, image: np.ndarray, cte: float, speed: float
    ) -> tuple[float, float]:
        command = self.commands[self._i % len(self.commands)]
        self._i += 1
        return command
