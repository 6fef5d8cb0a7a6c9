"""Kinematic bicycle model."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.sim.dynamics import PIRACER_PARAMS, BicycleModel, CarParams, CarState


@pytest.fixture()
def model():
    return BicycleModel()


def drive(model, state, steering, throttle, steps, dt=0.05):
    for _ in range(steps):
        state = model.step(state, steering, throttle, dt)
    return state


class TestLongitudinal:
    def test_full_throttle_approaches_max_speed(self, model):
        state = drive(model, CarState(), 0.0, 1.0, steps=600)
        assert state.speed == pytest.approx(PIRACER_PARAMS.max_speed, rel=0.05)

    def test_half_throttle_reaches_half_speed(self, model):
        state = drive(model, CarState(), 0.0, 0.5, steps=600)
        assert state.speed == pytest.approx(0.5 * PIRACER_PARAMS.max_speed, rel=0.1)

    def test_zero_throttle_decays(self, model):
        fast = CarState(speed=2.0)
        state = drive(model, fast, 0.0, 0.0, steps=300)
        assert state.speed < 0.2

    def test_braking_stops_car(self, model):
        fast = CarState(speed=2.0)
        state = drive(model, fast, 0.0, -1.0, steps=60)
        assert state.speed == 0.0

    def test_speed_never_negative(self, model):
        state = drive(model, CarState(speed=0.5), 0.0, -1.0, steps=200)
        assert state.speed == 0.0

    def test_throttle_lag(self, model):
        # One tick of full throttle cannot reach steady-state accel.
        s1 = model.step(CarState(), 0.0, 1.0, 0.05)
        assert 0.0 < s1.speed < PIRACER_PARAMS.max_accel * 0.05


class TestLateral:
    def test_straight_line(self, model):
        state = drive(model, CarState(), 0.0, 0.6, steps=100)
        assert abs(state.y) < 1e-6
        assert state.x > 0

    def test_left_steer_turns_left(self, model):
        state = drive(model, CarState(speed=1.0), 1.0, 0.5, steps=100)
        assert state.heading > 0.2

    def test_right_steer_turns_right(self, model):
        state = drive(model, CarState(speed=1.0), -1.0, 0.5, steps=100)
        assert state.heading < -0.2

    def test_turn_radius_close_to_analytic(self, model):
        # Drive a full circle at constant speed and full lock; the
        # radius of the trajectory should approach the analytic value.
        state = CarState(speed=1.0)
        xs, ys = [], []
        for _ in range(2000):
            state = model.step(state, 1.0, 0.32, 0.02)
            xs.append(state.x)
            ys.append(state.y)
        xs, ys = np.array(xs[1000:]), np.array(ys[1000:])
        cx, cy = xs.mean(), ys.mean()
        radius = np.hypot(xs - cx, ys - cy).mean()
        assert radius == pytest.approx(model.min_turn_radius(), rel=0.15)

    def test_steering_command_clipped(self, model):
        wild = drive(model, CarState(speed=1.0), 5.0, 0.5, steps=50)
        sane = drive(model, CarState(speed=1.0), 1.0, 0.5, steps=50)
        assert wild.heading == pytest.approx(sane.heading, abs=1e-9)

    def test_heading_wraps(self, model):
        state = drive(model, CarState(speed=1.5), 1.0, 0.8, steps=3000)
        assert -np.pi <= state.heading <= np.pi


class TestValidation:
    def test_dt_positive(self, model):
        with pytest.raises(SimulationError):
            model.step(CarState(), 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_dt_finite(self, model, dt):
        with pytest.raises(SimulationError, match="finite"):
            model.step(CarState(), 0.0, 0.0, dt)

    def test_bad_params_rejected(self):
        with pytest.raises(SimulationError):
            CarParams(wheelbase=-1.0)
        with pytest.raises(SimulationError):
            CarParams(max_speed=0.0)

    def test_stopping_distance(self, model):
        d = model.stopping_distance(2.0)
        assert d == pytest.approx(4.0 / (2 * PIRACER_PARAMS.brake_decel))
        with pytest.raises(SimulationError):
            model.stopping_distance(-1.0)

    def test_state_with_pose(self):
        state = CarState(speed=1.2).with_pose(3.0, 4.0, 0.5)
        assert (state.x, state.y, state.heading) == (3.0, 4.0, 0.5)
        assert state.speed == 1.2

    def test_position_property(self):
        assert np.allclose(CarState(x=1, y=2).position, [1, 2])
