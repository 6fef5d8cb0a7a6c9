"""Driving sessions: lap counting, crash handling, observations."""

import numpy as np
import pytest

from repro.common.errors import OffTrackError, SimulationError
from repro.sim import session as session_module
from repro.sim.dynamics import CarState
from repro.sim.renderer import CameraParams
from repro.sim.session import DrivingSession


class TestObservation:
    def test_reset_returns_first_observation(self, session_factory):
        obs = session_factory(seed=0).reset()
        assert obs.time == 0.0
        assert obs.lap == 0
        assert not obs.off_track
        assert obs.image.ndim == 3

    def test_reset_at_offset(self, session_factory, oval_track):
        session = session_factory()
        obs = session.reset(s=2.0, lateral_offset=0.1)
        assert obs.cte == pytest.approx(0.1, abs=0.02)
        assert obs.arclength == pytest.approx(2.0, abs=0.05)

    def test_step_advances_time(self, session_factory):
        session = session_factory()
        session.reset()
        obs = session.step(0.0, 0.5)
        assert obs.time == pytest.approx(session.dt)
        assert obs.speed > 0

    def test_render_disabled_gives_blank(self, session_factory):
        session = session_factory(render=False)
        obs = session.reset()
        assert obs.image.sum() == 0


class TestLaps:
    def test_expert_counts_laps(self, session_factory):
        from repro.core.drivers import PurePursuitDriver

        session = session_factory(render=False)
        driver = PurePursuitDriver(session)
        obs = session.reset()
        for _ in range(700):
            s, t = driver(obs.image, obs.cte, obs.speed)
            obs = session.step(s, t)
            assert obs.lap == session.stats.laps_completed
        assert session.stats.laps_completed >= 2
        assert len(session.stats.lap_times) == session.stats.laps_completed
        assert session.stats.mean_lap_time > 0
        assert session.stats.crashes == 0

    def test_progress_monotone_for_forward_driving(self, session_factory):
        from repro.core.drivers import PurePursuitDriver

        session = session_factory(render=False)
        driver = PurePursuitDriver(session)
        obs = session.reset()
        last = 0.0
        for _ in range(200):
            s, t = driver(obs.image, obs.cte, obs.speed)
            obs = session.step(s, t)
            assert session.progress >= last - 1e-9
            last = session.progress


class TestCrashes:
    def test_hard_left_crashes_and_respawns(self, session_factory):
        session = session_factory(render=False)
        session.reset()
        crashed = False
        for _ in range(300):
            obs = session.step(1.0, 0.8)
            if session.stats.crashes:
                crashed = True
                break
        assert crashed
        # The crash frame itself is observed (tubclean's raw material)...
        assert obs.off_track
        # ...and the next step starts from a centreline respawn, stopped.
        obs = session.step(0.0, 0.0)
        assert not obs.off_track
        assert obs.speed == 0.0

    def test_strict_mode_raises(self, session_factory):
        session = session_factory(render=False, strict=True)
        session.reset()
        with pytest.raises(OffTrackError):
            for _ in range(300):
                session.step(1.0, 0.8)

    def test_stats_track_crash_count(self, session_factory):
        session = session_factory(render=False)
        session.reset()
        for _ in range(400):
            session.step(1.0, 0.9)
        assert session.stats.crashes >= 1


class TestStats:
    def test_mean_speed_and_cte_accumulate(self, session_factory):
        session = session_factory(render=False)
        session.reset()
        for _ in range(50):
            session.step(0.0, 0.5)
        assert session.stats.steps == 50
        assert session.stats.mean_speed > 0
        assert session.stats.distance > 0

    def test_lap_time_std_zero_for_single_lap(self):
        from repro.sim.session import LapStats

        stats = LapStats(lap_times=[10.0], laps_completed=1)
        assert stats.lap_time_std == 0.0
        assert stats.mean_lap_time == 10.0

    def test_run_with_pilot_callable(self, session_factory):
        session = session_factory(render=False)
        session.reset()
        stats = session.run(lambda obs: (0.0, 0.4), steps=30)
        assert stats.steps == 30


class TestPoseQuery:
    """The memoised projection always equals a fresh ``track.query``."""

    @staticmethod
    def assert_fresh(session):
        state = session.state
        fresh = session.track.query(np.array([[state.x, state.y]]))
        memo = session.pose_query()
        for field in ("distance", "arclength", "side", "on_track"):
            assert np.array_equal(getattr(memo, field), getattr(fresh, field))

    def test_after_reset(self, session_factory):
        session = session_factory(render=False)
        session.reset(s=2.0, lateral_offset=0.1)
        self.assert_fresh(session)

    def test_after_step(self, session_factory):
        session = session_factory(render=False)
        session.reset()
        session.step(0.2, 0.6)
        self.assert_fresh(session)

    def test_after_crash_respawn(self, session_factory):
        session = session_factory(render=False)
        session.reset()
        for _ in range(300):
            session.step(1.0, 0.8)
            if session.stats.crashes:
                break
        assert session.stats.crashes
        self.assert_fresh(session)
        obs = session.step(0.0, 0.0)  # respawn on the centreline, then step
        assert not obs.off_track
        self.assert_fresh(session)

    def test_after_state_reassigned_from_outside(self, session_factory, oval_track):
        session = session_factory(render=False)
        session.reset()
        session.step(0.0, 0.5)
        before = session.pose_query()
        x, y, heading = oval_track.pose_at(oval_track.length / 2, 0.1)
        session.state = CarState(x=x, y=y, heading=heading)
        self.assert_fresh(session)
        assert session.pose_query().arclength[0] != before.arclength[0]

    def test_same_state_is_projected_once(self, session_factory, monkeypatch):
        session = session_factory(render=False)
        session.reset()
        calls = []
        real_query = session.track.query

        def counting_query(points):
            calls.append(points)
            return real_query(points)

        monkeypatch.setattr(session.track, "query", counting_query)
        first = session.pose_query()
        assert session.pose_query() is first
        assert not calls  # reset already projected this pose
        session.step(0.0, 0.5)
        session.pose_query()
        assert len(calls) == 1


class TestLazyRenderer:
    def test_render_false_never_builds_a_renderer(self, oval_track, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("CameraRenderer built for a render=False session")

        monkeypatch.setattr(session_module, "CameraRenderer", forbidden)
        camera = CameraParams(height=30, width=44)
        session = DrivingSession(oval_track, camera=camera, render=False)
        obs = session.step(0.0, 0.5)
        # The blank frame still has the camera's shape.
        assert obs.image.shape == (30, 44, 3)
        assert not obs.image.any()

    def test_render_true_builds_one_renderer(self, session_factory, monkeypatch):
        built = []
        real = session_module.CameraRenderer

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "CameraRenderer", counting)
        session = session_factory(render=True)
        session.step(0.0, 0.5)
        assert len(built) == 1

    @pytest.mark.parametrize("render", [False, True])
    def test_bad_renderer_mode_rejected_at_construction(self, oval_track, render):
        with pytest.raises(SimulationError, match="renderer mode"):
            DrivingSession(oval_track, render=render, renderer_mode="fisheye")


class TestValidation:
    def test_bad_dt(self, oval_track):
        with pytest.raises(SimulationError):
            DrivingSession(oval_track, dt=0.0, render=False)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_dt(self, oval_track, dt):
        with pytest.raises(SimulationError, match="finite"):
            DrivingSession(oval_track, dt=dt, render=False)
