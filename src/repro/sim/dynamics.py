"""Kinematic bicycle model for the small-scale car.

The physical platform in the paper is a Waveshare PiRacer Pro — a
1/10-scale Ackermann-steered RC car.  Its drive stack (DonkeyCar)
commands normalised steering and throttle in ``[-1, 1]``; the ESC and
steering servo map those to wheel angle and motor power.  This module
reproduces the *plant*: a kinematic bicycle model with first-order
throttle response and speed-dependent drag, which is the standard
fidelity level for DonkeyCar-style simulators (the Unity sim uses a
similar model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from repro.common.errors import SimulationError

__all__ = ["CarParams", "CarState", "CarArrays", "BicycleModel", "PIRACER_PARAMS"]


@dataclass(frozen=True)
class CarParams:
    """Physical parameters of the car.

    Attributes
    ----------
    wheelbase:
        Distance between axles (m).
    max_steering_angle:
        Wheel angle at steering command 1.0 (radians).
    max_speed:
        Terminal speed at full throttle on flat ground (m/s).
    max_accel:
        Peak acceleration at full throttle from standstill (m/s^2).
    throttle_tau:
        First-order time constant of the ESC/motor response (s).
    steering_tau:
        First-order time constant of the steering servo (s).
    brake_decel:
        Deceleration magnitude at full reverse throttle while moving
        forward (m/s^2).
    """

    wheelbase: float = 0.26
    max_steering_angle: float = np.deg2rad(28.0)
    max_speed: float = 3.5
    max_accel: float = 2.5
    throttle_tau: float = 0.25
    steering_tau: float = 0.08
    brake_decel: float = 4.0

    def __post_init__(self) -> None:
        for name in (
            "wheelbase",
            "max_steering_angle",
            "max_speed",
            "max_accel",
            "throttle_tau",
            "steering_tau",
            "brake_decel",
        ):
            if getattr(self, name) <= 0:
                raise SimulationError(f"CarParams.{name} must be positive")


#: Default parameters approximating the Waveshare PiRacer Pro kit the
#: paper recommends (~$200, §3.1).
PIRACER_PARAMS = CarParams()


@dataclass(frozen=True)
class CarState:
    """Full kinematic state of the car.

    ``steering_angle`` and ``accel_cmd`` carry the lagged actuator
    states so that the model is Markovian in this dataclass.
    """

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0
    steering_angle: float = 0.0
    accel_cmd: float = 0.0

    @property
    def position(self) -> np.ndarray:
        """(x, y) as an array."""
        return np.array([self.x, self.y])

    def with_pose(self, x: float, y: float, heading: float) -> "CarState":
        """Copy of the state teleported to a new pose (speed preserved)."""
        return replace(self, x=x, y=y, heading=heading)


class CarArrays(NamedTuple):
    """The :class:`CarState` fields of ``N`` cars, as ``(N,)`` float arrays.

    Element ``i`` of every array belongs to car ``i``.
    """

    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    steering_angle: np.ndarray
    accel_cmd: np.ndarray

    @classmethod
    def of(cls, states: Sequence[CarState]) -> "CarArrays":
        """One element per state, in order."""
        return cls(
            *(
                np.array([getattr(state, name) for state in states], dtype=np.float64)
                for name in cls._fields
            )
        )

    def car(self, index: int) -> CarState:
        """Car ``index`` as a :class:`CarState` of Python floats."""
        return CarState(*(float(column[index]) for column in self))

    def place(self, index: int, state: CarState) -> None:
        """Overwrite car ``index`` with ``state``, in place."""
        for name, column in zip(self._fields, self):
            column[index] = getattr(state, name)


class BicycleModel:
    """Discrete-time kinematic bicycle with actuator lag.

    The update at each step of duration ``dt``:

    1. The commanded steering angle (command x max angle) is tracked by
       a first-order lag with time constant ``steering_tau``.
    2. Throttle maps to a target acceleration: positive throttle
       produces ``max_accel * throttle`` reduced by drag proportional to
       ``speed / max_speed`` (so full throttle converges to
       ``max_speed``); negative throttle while moving forward brakes.
    3. Pose integrates the standard bicycle kinematics
       ``dheading = speed / wheelbase * tan(steering_angle) * dt``.

    Speed never goes negative: the cars in the module drive forward
    only (the DonkeyCar ESC reverse path is not part of the pipeline).
    """

    def __init__(self, params: CarParams = PIRACER_PARAMS) -> None:
        self.params = params

    def advance(
        self,
        cars: CarArrays,
        steering: np.ndarray,
        throttle: np.ndarray,
        dt: float,
    ) -> CarArrays:
        """Advance every car one control interval, in one array pass.

        ``steering``/``throttle`` hold one normalised command per car,
        clipped to ``[-1, 1]``; ``dt`` must be positive and finite.
        Every element goes through the same IEEE operations in the same
        order, so a car's result does not depend on the other cars.
        """
        if not (math.isfinite(dt) and dt > 0):
            raise SimulationError(f"dt must be positive and finite, got {dt}")
        p = self.params
        steering = np.clip(steering, -1.0, 1.0)
        throttle = np.clip(throttle, -1.0, 1.0)

        # 1. Steering servo lag.
        target_angle = steering * p.max_steering_angle
        alpha_s = 1.0 - np.exp(-dt / p.steering_tau)
        steering_angle = cars.steering_angle + alpha_s * (
            target_angle - cars.steering_angle
        )

        # 2. Longitudinal dynamics with ESC lag and linear drag; negative
        #    throttle brakes.
        target_accel = np.where(
            throttle >= 0,
            p.max_accel * throttle - p.max_accel * (cars.speed / p.max_speed),
            p.brake_decel * throttle,
        )
        alpha_t = 1.0 - np.exp(-dt / p.throttle_tau)
        accel = cars.accel_cmd + alpha_t * (target_accel - cars.accel_cmd)
        speed = cars.speed + accel * dt
        # Python's max(0.0, speed): 0.0 unless positive, NaN included.
        speed = np.where(speed > 0.0, speed, 0.0)

        # 3. Bicycle kinematics (midpoint speed for better energy
        #    behaviour at 20 Hz).
        mid_speed = 0.5 * (cars.speed + speed)
        heading = cars.heading + (mid_speed / p.wheelbase) * np.tan(
            steering_angle
        ) * dt
        heading = np.arctan2(np.sin(heading), np.cos(heading))
        x = cars.x + mid_speed * np.cos(heading) * dt
        y = cars.y + mid_speed * np.sin(heading) * dt
        return CarArrays(x, y, heading, speed, steering_angle, accel)

    def step(
        self,
        state: CarState,
        steering: float,
        throttle: float,
        dt: float,
    ) -> CarState:
        """Advance one car one control interval: :meth:`advance` for one."""
        cars = self.advance(
            CarArrays.of([state]),
            np.array([steering], dtype=np.float64),
            np.array([throttle], dtype=np.float64),
            dt,
        )
        return cars.car(0)

    def pursuit_steering(
        self, dx: np.ndarray, dy: np.ndarray, heading: np.ndarray
    ) -> np.ndarray:
        """Steering commands whose arcs run through target points.

        The pure-pursuit law: ``(dx, dy)`` runs from each car to its
        target and ``heading`` is the car's.  The command is clipped to
        ``[-1, 1]``, element by element like :meth:`advance`.
        """
        p = self.params
        # Angle to target in the car frame.
        alpha = np.arctan2(dy, dx) - heading
        alpha = np.arctan2(np.sin(alpha), np.cos(alpha))
        distance = np.maximum(np.hypot(dx, dy), 1e-6)
        wheel_angle = np.arctan2(2.0 * p.wheelbase * np.sin(alpha), distance)
        return np.clip(wheel_angle / p.max_steering_angle, -1.0, 1.0)

    def stopping_distance(self, speed: float) -> float:
        """Distance to stop from ``speed`` at full brake (analytic)."""
        if speed < 0:
            raise SimulationError(f"speed must be non-negative, got {speed}")
        return speed * speed / (2.0 * self.params.brake_decel)

    def min_turn_radius(self) -> float:
        """Turning radius at full steering lock (m)."""
        return self.params.wheelbase / np.tan(self.params.max_steering_angle)
