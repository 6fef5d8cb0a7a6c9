"""The fleet's array pass drives every car as the per-car loop did.

``reference_drive`` is the ``drive`` loop as it was written per car:
copies of the per-car ``BicycleModel.step``, ``PurePursuitDriver``,
``StudentDriver`` and ``DrivingSession`` step, each car ticked through
its own session.  ``run_drive``, which makes one array pass over the
whole fleet per tick, and the one-car entry points (a
``DrivingSession`` with its own drivers, per car) must reproduce its
poses, cross-track errors and lap statistics bit for bit, sign bits
included, on every registered track, through crashes and respawns.
"""

import struct
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.rng import ensure_rng, seed_from_name
from repro.core.drivers import PurePursuitDriver, StudentDriver
from repro.eval.library import BASE_SPECS
from repro.eval.runner import run_scenario
from repro.sim.dynamics import PIRACER_PARAMS, CarState
from repro.sim.server import AVAILABLE_TRACKS, make_track
from repro.sim.session import DrivingSession, LapStats

DT = 0.05


@cache
def track_named(name):
    return make_track(name)


# ------------------------------------------------- the per-car reference


def reference_bicycle_step(params, state, steering, throttle, dt):
    """``BicycleModel.step`` on Python floats, one car."""
    if dt <= 0:
        raise SimulationError(f"dt must be positive, got {dt}")
    p = params
    steering = float(np.clip(steering, -1.0, 1.0))
    throttle = float(np.clip(throttle, -1.0, 1.0))

    # 1. Steering servo lag.
    target_angle = steering * p.max_steering_angle
    alpha_s = 1.0 - np.exp(-dt / p.steering_tau)
    steering_angle = state.steering_angle + alpha_s * (
        target_angle - state.steering_angle
    )

    # 2. Longitudinal dynamics with ESC lag and linear drag.
    if throttle >= 0:
        target_accel = p.max_accel * throttle - p.max_accel * (
            state.speed / p.max_speed
        )
    else:
        target_accel = p.brake_decel * throttle  # throttle < 0: brake
    alpha_t = 1.0 - np.exp(-dt / p.throttle_tau)
    accel = state.accel_cmd + alpha_t * (target_accel - state.accel_cmd)
    speed = max(0.0, state.speed + accel * dt)

    # 3. Bicycle kinematics (midpoint speed for better energy
    #    behaviour at 20 Hz).
    mid_speed = 0.5 * (state.speed + speed)
    heading = state.heading + (mid_speed / p.wheelbase) * np.tan(
        steering_angle
    ) * dt
    heading = float(np.arctan2(np.sin(heading), np.cos(heading)))
    x = state.x + mid_speed * np.cos(heading) * dt
    y = state.y + mid_speed * np.sin(heading) * dt

    return CarState(
        x=float(x),
        y=float(y),
        heading=heading,
        speed=float(speed),
        steering_angle=float(steering_angle),
        accel_cmd=float(accel),
    )


def reference_pose_at(track, s):
    """``Track.pose_at`` with no lateral offset, one arclength."""
    point = track.point_at(s)
    heading = track.heading_at(s)
    normal = np.array([-np.sin(heading), np.cos(heading)])
    xy = point + 0.0 * normal
    return float(xy[0]), float(xy[1]), heading


@dataclass
class ReferenceObservation:
    state: CarState
    cte: float
    arclength: float
    off_track: bool
    speed: float


@dataclass
class ReferenceStats:
    laps_completed: int = 0
    lap_times: list = field(default_factory=list)
    crashes: int = 0
    steps: int = 0
    distance: float = 0.0
    abs_cte_sum: float = 0.0
    speed_sum: float = 0.0


class ReferenceSession:
    """``DrivingSession`` of one car, without the camera."""

    def __init__(self, track, dt):
        self.track = track
        self.params = PIRACER_PARAMS
        self.dt = dt
        self.reset()

    def reset(self, s=0.0):
        x, y, heading = reference_pose_at(self.track, s)
        self.state = CarState(x=x, y=y, heading=heading)
        self.time = 0.0
        self.stats = ReferenceStats()
        self._prev_s = s % self.track.length
        self._lap_start_time = 0.0
        self._unwrapped_s = 0.0
        self._respawn_pending = False
        return self._observe()

    def step(self, steering, throttle):
        if self._respawn_pending:
            x, y, heading = reference_pose_at(self.track, self._prev_s)
            self.state = CarState(x=x, y=y, heading=heading)
            self._respawn_pending = False
        prev_state = self.state
        self.state = reference_bicycle_step(
            self.params, prev_state, steering, throttle, self.dt
        )
        self.time += self.dt
        self.stats.steps += 1
        self.stats.speed_sum += self.state.speed
        self.stats.distance += float(
            np.hypot(self.state.x - prev_state.x, self.state.y - prev_state.y)
        )

        obs = self._observe()
        self.stats.abs_cte_sum += abs(obs.cte)

        ds = obs.arclength - self._prev_s
        if ds < -self.track.length / 2.0:
            self.stats.laps_completed += 1
            self.stats.lap_times.append(self.time - self._lap_start_time)
            self._lap_start_time = self.time
            ds += self.track.length
        elif ds > self.track.length / 2.0:
            ds -= self.track.length
        self._unwrapped_s += ds
        self._prev_s = obs.arclength

        if obs.off_track:
            self.stats.crashes += 1
            self._respawn_pending = True
        return obs

    def pose_query(self):
        return self.track.query(np.array([[self.state.x, self.state.y]]))

    def _observe(self):
        query = self.pose_query()
        return ReferenceObservation(
            state=self.state,
            cte=float(query.signed_cte[0]),
            arclength=float(query.arclength[0]),
            off_track=not bool(query.on_track[0]),
            speed=self.state.speed,
        )


class ReferencePursuit:
    """``PurePursuitDriver`` of one car."""

    def __init__(self, session):
        self.session = session
        self.track = session.track
        self.target_speed = 1.6
        self.lookahead_base = 0.45
        self.lookahead_gain = 0.35
        self.lateral_accel_limit = 2.2
        self.throttle_gain = 0.8
        self._max_angle = PIRACER_PARAMS.max_steering_angle
        self._wheelbase = PIRACER_PARAMS.wheelbase

    def steer_to(self, s_now):
        state = self.session.state
        lookahead = self.lookahead_base + self.lookahead_gain * state.speed
        target = self.track.point_at(s_now + lookahead)
        dx = target[0] - state.x
        dy = target[1] - state.y
        alpha = np.arctan2(dy, dx) - state.heading
        alpha = np.arctan2(np.sin(alpha), np.cos(alpha))
        distance = max(np.hypot(dx, dy), 1e-6)
        wheel_angle = np.arctan2(2.0 * self._wheelbase * np.sin(alpha), distance)
        return float(np.clip(wheel_angle / self._max_angle, -1.0, 1.0))

    def speed_target(self, s_now, horizon=1.2):
        ahead = s_now + np.linspace(0.0, horizon, 4)
        kappa = max(float(np.abs(self.track.curvature_at(ahead)).max()), 1e-6)
        v_curve = np.sqrt(self.lateral_accel_limit / kappa)
        return float(min(self.target_speed, v_curve))

    def throttle_to(self, target_speed, speed):
        return float(
            np.clip(self.throttle_gain * (target_speed - speed) + 0.25, 0.0, 1.0)
        )

    def __call__(self, cte, speed):
        s_now = float(self.session.pose_query().arclength[0])
        steering = self.steer_to(s_now)
        throttle = self.throttle_to(self.speed_target(s_now), speed)
        return steering, throttle


class ReferenceStudent:
    """``StudentDriver`` of one car."""

    def __init__(self, expert, skill, rng, distraction_rate=6.0):
        self.expert = expert
        self.skill = float(skill)
        self.rng = ensure_rng(rng)
        sloppiness = 1.0 - self.skill
        self.noise_sigma = 0.02 + 0.18 * sloppiness
        self.lag = 0.25 + 0.45 * sloppiness
        self.distraction_p = distraction_rate * (0.4 + 1.2 * sloppiness) / 1000.0
        self._last_steering = 0.0
        self._distraction_ticks = 0
        self._distraction_offset = 0.0

    def __call__(self, cte, speed):
        steering, throttle = self.expert(cte, speed)
        steering = (1 - self.lag) * steering + self.lag * self._last_steering
        steering += self.rng.normal(0.0, self.noise_sigma)
        throttle += self.rng.normal(0.0, 0.5 * self.noise_sigma)
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


def reference_drive(track, n_vehicles, ticks, skill, noise_amp, seed):
    """The per-car drive loop: poses and ctes in (tick, car) order, stats."""
    slots = []
    for index in range(n_vehicles):
        session = ReferenceSession(track, DT)
        last = session.reset(s=track.length * index / n_vehicles)
        driver = ReferenceStudent(
            ReferencePursuit(session),
            skill=skill,
            rng=seed_from_name(f"drive-skill-{index:04d}", seed),
        )
        slots.append([session, last, driver])
    disturbance = ensure_rng(seed_from_name("drive-disturbance", seed))
    poses, ctes = [], []
    for _ in range(ticks):
        for slot in slots:
            session, obs, driver = slot
            steering, throttle = driver(obs.cte, obs.speed)
            if noise_amp:
                steering = float(
                    np.clip(steering + noise_amp * disturbance.normal(), -1.0, 1.0)
                )
            obs = session.step(steering, throttle)
            slot[1] = obs
            poses.append((session.state.x, session.state.y))
            ctes.append(obs.cte)
    return poses, ctes, [slot[0].stats for slot in slots]


# ------------------------------------------------------------ comparisons


def float_bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def pose_bits(poses):
    return float_bits([coordinate for pose in poses for coordinate in pose])


def stats_bits(stats):
    return (
        stats.laps_completed,
        stats.crashes,
        stats.steps,
        float_bits([stats.distance, stats.abs_cte_sum, stats.speed_sum]),
        float_bits(stats.lap_times),
    )


def fleet_run(track_name, n_vehicles, ticks, skill, noise_amp, seed):
    """``run_drive``'s poses and ctes in (tick, car) order, and stats."""
    spec = BASE_SPECS["drive-mot"].with_overrides(
        {
            "track": track_name,
            "n_vehicles": n_vehicles,
            "ticks": ticks,
            "dt": DT,
            "skill": skill,
            "steering_noise": noise_amp,
        }
    )
    artifacts = run_scenario(spec, seed).artifacts["artifacts"]
    poses = [pose for frame in artifacts.gt_frames for pose in frame.values()]
    return poses, artifacts.cte_values, artifacts.lap_stats


def one_car_runs(track, n_vehicles, ticks, skill, noise_amp, seed):
    """Each car alone through the one-car entry points, in (tick, car) order."""
    kicks = ensure_rng(seed_from_name("drive-disturbance", seed)).normal(
        size=n_vehicles * ticks
    )
    poses = [None] * (n_vehicles * ticks)
    ctes = [None] * (n_vehicles * ticks)
    stats = []
    for index in range(n_vehicles):
        session = DrivingSession(track, dt=DT, render=False)
        obs = session.reset(s=track.length * index / n_vehicles)
        driver = StudentDriver(
            PurePursuitDriver(session),
            skill=skill,
            rng=seed_from_name(f"drive-skill-{index:04d}", seed),
        )
        for tick in range(ticks):
            at = tick * n_vehicles + index
            steering, throttle = driver(obs.image, obs.cte, obs.speed)
            if noise_amp:
                steering = float(
                    np.clip(steering + noise_amp * kicks[at], -1.0, 1.0)
                )
            obs = session.step(steering, throttle)
            poses[at] = (session.state.x, session.state.y)
            ctes[at] = obs.cte
        stats.append(session.stats)
    return poses, ctes, stats


def assert_same_drive(got, want):
    (got_poses, got_ctes, got_stats), (want_poses, want_ctes, want_stats) = got, want
    assert pose_bits(got_poses) == pose_bits(want_poses)
    assert float_bits(got_ctes) == float_bits(want_ctes)
    assert all(isinstance(stats, LapStats) for stats in got_stats)
    assert [stats_bits(s) for s in got_stats] == [stats_bits(s) for s in want_stats]


def check_against_reference(track_name, n_vehicles, ticks, skill, noise_amp, seed):
    """Both array paths equal the reference; returns the reference crashes."""
    track = track_named(track_name)
    want = reference_drive(track, n_vehicles, ticks, skill, noise_amp, seed)
    assert_same_drive(
        fleet_run(track_name, n_vehicles, ticks, skill, noise_amp, seed), want
    )
    assert_same_drive(
        one_car_runs(track, n_vehicles, ticks, skill, noise_amp, seed), want
    )
    return sum(stats.crashes for stats in want[2])


class TestFleetMatchesPerCarLoop:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        track_name=st.sampled_from(sorted(AVAILABLE_TRACKS)),
        n_vehicles=st.integers(1, 6),
        ticks=st.integers(1, 90),
        skill=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.1])),
        noise_amp=st.one_of(
            st.just(0.0), st.floats(0.0, 1.5), st.sampled_from([0.8, 1.5])
        ),
        seed=st.integers(0, 2**16),
    )
    def test_bit_for_bit(self, track_name, n_vehicles, ticks, skill, noise_amp, seed):
        check_against_reference(track_name, n_vehicles, ticks, skill, noise_amp, seed)

    @pytest.mark.parametrize("track_name", sorted(AVAILABLE_TRACKS))
    def test_bit_for_bit_through_crashes_and_respawns(self, track_name):
        crashes = check_against_reference(
            track_name, n_vehicles=5, ticks=150, skill=0.0, noise_amp=1.2, seed=7
        )
        assert crashes >= 5
