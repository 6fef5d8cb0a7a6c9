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

The expert and student arithmetic is written once, over ``(N,)``
arrays: bound to a :class:`~repro.sim.session.FleetSession`, one
:meth:`PurePursuitDriver.commands` and one :meth:`StudentDriver.commands`
call drive every car of a tick.  ``__call__`` is the one-car entry
point, the same code with ``N = 1``.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.sim.session import DrivingSession, FleetSession

__all__ = ["PurePursuitDriver", "StudentDriver", "ReplayDriver"]


@cache
def _horizon_offsets(horizon: float) -> np.ndarray:
    """The four arclength offsets the speed limit samples, read-only."""
    offsets = np.linspace(0.0, horizon, 4)
    offsets.setflags(write=False)
    return offsets


class PurePursuitDriver:
    """Geometric path tracker with curvature-aware speed control.

    Drives every car of ``session``: the one car of a
    :class:`DrivingSession`, or all of a :class:`FleetSession`.
    """

    def __init__(
        self,
        session: DrivingSession | FleetSession,
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

    # ------------------------------------------------------------ core

    def steer_to(self, s_now: np.ndarray) -> np.ndarray:
        """Pure-pursuit steering commands toward each car's lookahead point."""
        cars = self.session.cars
        lookahead = self.lookahead_base + self.lookahead_gain * cars.speed
        target = self.track.point_at(s_now + lookahead)
        return self.session.model.pursuit_steering(
            target[:, 0] - cars.x, target[:, 1] - cars.y, cars.heading
        )

    def speed_target(
        self, s_now: float | np.ndarray, horizon: float = 1.2
    ) -> float | np.ndarray:
        """Curvature-limited speed over the next ``horizon`` metres.

        A float gives a float and an ``(N,)`` array an ``(N,)`` array.
        """
        ahead = np.add.outer(s_now, _horizon_offsets(horizon))
        curvature = np.abs(self.track.curvature_at(ahead)).max(axis=-1)
        kappa = np.maximum(curvature, 1e-6)
        v_curve = np.sqrt(self.lateral_accel_limit / kappa)
        # Python's min(target_speed, v_curve): v_curve only when smaller.
        limit = np.where(v_curve < self.target_speed, v_curve, self.target_speed)
        return float(limit) if limit.ndim == 0 else limit

    def throttle_to(
        self, target_speed: np.ndarray, speed: np.ndarray
    ) -> np.ndarray:
        """Proportional speed controller."""
        return np.clip(self.throttle_gain * (target_speed - speed) + 0.25, 0.0, 1.0)

    def commands(self, speed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Steering and throttle for every car, as ``(N,)`` arrays.

        ``speed`` is the measured speed of each car, which the throttle
        regulates toward the curvature limit.
        """
        s_now = self.session.pose_query().arclength
        steering = self.steer_to(s_now)
        throttle = self.throttle_to(self.speed_target(s_now), speed)
        return steering, throttle

    def __call__(
        self, image: np.ndarray, cte: float, speed: float
    ) -> tuple[float, float]:
        steering, throttle = self.commands(np.array([speed], dtype=np.float64))
        return steering.item(), throttle.item()


class StudentDriver:
    """A human-skill wrapper around the expert.

    Parameters
    ----------
    skill:
        1.0 = expert-clean; 0.0 = maximally sloppy.  Controls noise
        magnitude, reaction smoothing, and distraction frequency.
    rng:
        The student's random stream, or a sequence of streams: one
        student per car of the expert's session, each drawing from its
        own stream.
    distraction_rate:
        Expected distraction events per 1000 ticks at skill 0.5; each
        event holds a wrong steering offset for a short burst (the
        paper's crashes / off-side images).
    """

    def __init__(
        self,
        expert: PurePursuitDriver,
        skill: float = 0.7,
        rng: int | np.random.Generator | None | Sequence = None,
        distraction_rate: float = 6.0,
    ) -> None:
        if not 0.0 <= skill <= 1.0:
            raise ConfigurationError(f"skill must be in [0, 1], got {skill}")
        self.expert = expert
        self.skill = float(skill)
        streams = rng if isinstance(rng, (list, tuple)) else [rng]
        self.rngs = [ensure_rng(stream) for stream in streams]
        sloppiness = 1.0 - self.skill
        self.noise_sigma = 0.02 + 0.18 * sloppiness
        self.lag = 0.25 + 0.45 * sloppiness  # EMA smoothing factor
        self.distraction_p = distraction_rate * (0.4 + 1.2 * sloppiness) / 1000.0
        self._sigmas = np.array([self.noise_sigma, 0.5 * self.noise_sigma])
        self._max_burst = 18 + int(45 * (1.0 - self.skill))
        n = len(self.rngs)
        self._last_steering = np.zeros(n)
        self._distraction_ticks = np.zeros(n, dtype=np.int64)
        self._distraction_offset = np.zeros(n)

    def commands(
        self, steering: np.ndarray, throttle: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The expert's ``(N,)`` commands as the ``N`` students apply them."""
        # Reaction lag: humans smooth their corrections.
        steering = (1 - self.lag) * steering + self.lag * self._last_steering
        # Hand noise and distraction draws, car by car from each car's
        # own stream: steering noise, throttle noise, then (unless
        # distracted) the distraction roll.
        draws = np.empty((len(self.rngs), 2))
        held = self._distraction_ticks > 0
        for index, (rng, busy) in enumerate(zip(self.rngs, held.tolist())):
            rng.standard_normal(out=draws[index])
            if not busy and rng.random() < self.distraction_p:
                self._distraction_ticks[index] = rng.integers(6, self._max_burst)
                sign = rng.choice([-1.0, 1.0])
                self._distraction_offset[index] = sign * rng.uniform(0.3, 0.8)
        # The noise as Generator.normal(0.0, sigma) forms it: 0.0 + sigma * z.
        noise = 0.0 + self._sigmas * draws
        steering = steering + noise[:, 0]
        throttle = throttle + noise[:, 1]

        # Distraction events: hold a wrong offset for a burst.  Sloppier
        # drivers stay distracted longer — their tubs carry sustained
        # wrong-label stretches, the data tubclean exists to remove.  A
        # burst drawn this tick starts next tick.
        steering = np.where(held, steering + self._distraction_offset, steering)
        self._distraction_ticks -= held

        steering = np.clip(steering, -1.0, 1.0)
        throttle = np.clip(throttle, 0.0, 1.0)
        self._last_steering = steering
        return steering, throttle

    def __call__(
        self, image: np.ndarray, cte: float, speed: float
    ) -> tuple[float, float]:
        steering, throttle = self.expert(image, cte, speed)
        steering, throttle = self.commands(
            np.array([steering], dtype=np.float64),
            np.array([throttle], dtype=np.float64),
        )
        return steering.item(), throttle.item()


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
