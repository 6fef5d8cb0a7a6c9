"""Inference backends, serving staleness, and the speed governor."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.edge.devices import RASPBERRY_PI_4, EdgeDevice
from repro.inference.backends import CloudBackend, EdgeBackend, HybridBackend
from repro.inference.consistency import OpenLoopThrottle, SpeedGovernor
from repro.inference.serving import RemotePilot
from repro.net.links import Link
from repro.net.topology import autolearn_topology
from repro.testbed.hardware import GPU_SPECS


def device():
    return EdgeDevice("dev-1", "car", RASPBERRY_PI_4, "proj-1")


def route(bad=False):
    if bad:
        topo = autolearn_topology(
            wan=Link("wan-bad", 0.15, 1.0, 20e6, loss_rate=0.05)
        )
    else:
        topo = autolearn_topology()
    return topo.route("car-pi", "chi-uc")


SMALL_FLOPS = 1.2e8  # small CNN per frame
BIG_FLOPS = 3.0e9  # 3D/RNN-class per frame


class TestEdgeBackend:
    def test_latency_is_compute_only(self):
        backend = EdgeBackend(device(), SMALL_FLOPS)
        rng = np.random.default_rng(0)
        latency = backend.request_latency(rng)
        assert latency == pytest.approx(
            SMALL_FLOPS / RASPBERRY_PI_4.effective_flops, abs=0.005
        )

    def test_not_pipelined(self):
        assert not EdgeBackend(device(), SMALL_FLOPS).pipelined

    def test_big_model_slow_on_pi(self):
        small = EdgeBackend(device(), SMALL_FLOPS)
        big = EdgeBackend(device(), BIG_FLOPS)
        rng = np.random.default_rng(0)
        assert big.request_latency(rng) > 10 * small.request_latency(rng)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EdgeBackend(device(), 0.0)


class TestCloudBackend:
    def test_latency_includes_rtt(self):
        backend = CloudBackend(GPU_SPECS["V100"], route(), SMALL_FLOPS)
        rng = np.random.default_rng(0)
        latencies = [backend.request_latency(rng) for _ in range(100)]
        assert min(latencies) > backend.route.base_rtt_s

    def test_pipelined(self):
        assert CloudBackend(GPU_SPECS["V100"], route(), SMALL_FLOPS).pipelined

    def test_gpu_compute_negligible_for_small_model(self):
        backend = CloudBackend(GPU_SPECS["A100"], route(), SMALL_FLOPS)
        assert backend.compute_latency() < 0.002

    def test_crossover_big_model_favors_cloud(self):
        # The poster's core tradeoff: the Pi cannot run the big model at
        # control rate, the cloud GPU can — despite the RTT.
        rng = np.random.default_rng(0)
        edge_big = EdgeBackend(device(), BIG_FLOPS)
        cloud_big = CloudBackend(GPU_SPECS["V100"], route(), BIG_FLOPS)
        edge_lat = edge_big.request_latency(rng)
        cloud_lat = np.mean([cloud_big.request_latency(rng) for _ in range(50)])
        assert cloud_lat < edge_lat

    def test_small_model_favors_edge(self):
        rng = np.random.default_rng(0)
        edge_small = EdgeBackend(device(), SMALL_FLOPS)
        cloud_small = CloudBackend(GPU_SPECS["V100"], route(), SMALL_FLOPS)
        edge_lat = edge_small.request_latency(rng)
        cloud_lat = np.mean([cloud_small.request_latency(rng) for _ in range(50)])
        assert edge_lat < cloud_lat


class TestHybridBackend:
    def make(self, policy, bad_net=False, flops=SMALL_FLOPS, **kw):
        return HybridBackend(
            EdgeBackend(device(), flops),
            CloudBackend(GPU_SPECS["V100"], route(bad=bad_net), flops),
            policy=policy,
            **kw,
        )

    def test_adaptive_falls_back_to_edge_on_bad_network(self):
        hybrid = self.make("adaptive", bad_net=True, deadline_s=0.05)
        rng = np.random.default_rng(0)
        for _ in range(100):
            hybrid.request_latency(rng)
        assert hybrid.edge_requests > hybrid.cloud_requests

    def test_adaptive_keeps_probing(self):
        hybrid = self.make("adaptive", bad_net=True, deadline_s=0.05, probe_every=10)
        rng = np.random.default_rng(0)
        for _ in range(100):
            hybrid.request_latency(rng)
        assert hybrid.cloud_requests >= 5  # periodic probes

    def test_deadline_policy_caps_latency(self):
        hybrid = self.make("deadline", bad_net=True, deadline_s=0.06)
        rng = np.random.default_rng(0)
        latencies = [hybrid.request_latency(rng) for _ in range(200)]
        # Latency never greatly exceeds max(edge, deadline).
        edge_latency = hybrid.edge.request_latency(rng)
        assert max(latencies) <= max(edge_latency, 0.06) + 1e-9

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            self.make("ouija")


class TestServingStats:
    def test_fresh_response_ratio_is_dimensionless(self):
        from repro.inference.serving import ServingStats

        stats = ServingStats(requests=40, responses=30)
        assert stats.fresh_response_ratio == pytest.approx(0.75)

    def test_fresh_command_hz_is_a_true_rate(self):
        from repro.inference.serving import ServingStats

        stats = ServingStats(requests=40, responses=30, ticks=40, dt=0.05)
        # 30 fresh commands over 2 s of drive time.
        assert stats.fresh_command_hz == pytest.approx(15.0)
        assert ServingStats().fresh_command_hz == 0.0

    def test_pilot_populates_tick_accounting(self, trained_linear):
        backend = EdgeBackend(device(), SMALL_FLOPS)
        pilot = RemotePilot(trained_linear, backend, dt=0.05, rng=0)
        frame = np.zeros(trained_linear.input_shape, dtype=np.uint8)
        for _ in range(20):
            pilot.run(frame)
        assert pilot.stats.ticks == 20
        assert pilot.stats.dt == pytest.approx(0.05)
        # Fast edge backend sustains nearly the full 20 Hz control rate.
        assert pilot.stats.fresh_command_hz > 15.0


class TestRemotePilot:
    def test_fresh_commands_with_fast_backend(self, trained_linear, session_factory):
        backend = EdgeBackend(device(), SMALL_FLOPS)
        pilot = RemotePilot(trained_linear, backend, dt=0.05, rng=0)
        session = session_factory(seed=31)
        obs = session.reset()
        for _ in range(40):
            steering, throttle = pilot.run(obs.image)
            obs = session.step(steering, throttle)
        assert pilot.stats.responses > 30
        assert pilot.stats.stale_ticks < 10

    def test_slow_backend_goes_stale(self, trained_linear, session_factory):
        slow = EdgeBackend(device(), BIG_FLOPS * 3)  # ~3 s per frame
        pilot = RemotePilot(trained_linear, slow, dt=0.05, rng=0)
        session = session_factory(seed=32)
        obs = session.reset()
        for _ in range(40):
            steering, throttle = pilot.run(obs.image)
            obs = session.step(steering, throttle)
        assert pilot.stats.stale_ticks > 30
        assert pilot.stats.responses <= 2

    def test_safe_command_before_first_response(self, trained_linear):
        backend = CloudBackend(GPU_SPECS["V100"], route(), SMALL_FLOPS)
        pilot = RemotePilot(
            trained_linear, backend, dt=0.05, rng=0, safe_command=(0.0, 0.15)
        )
        frame = np.zeros(trained_linear.input_shape, dtype=np.uint8)
        steering, throttle = pilot.run(frame)
        assert (steering, throttle) == (0.0, 0.15)

    def test_none_image_returns_last(self, trained_linear):
        backend = EdgeBackend(device(), SMALL_FLOPS)
        pilot = RemotePilot(trained_linear, backend, dt=0.05, rng=0)
        assert pilot.run(None) == pilot.safe_command


class TestConsistency:
    @staticmethod
    def steering_source(session):
        """Pure-pursuit steering so the test car stays on the track."""
        from repro.core.drivers import PurePursuitDriver

        driver = PurePursuitDriver(session)

        class Steer:
            def run(self, image):
                return driver(image, 0.0, 0.0)

        return Steer()

    def test_governor_tracks_target_speed(self, session_factory):
        session = session_factory(render=False)
        governor = SpeedGovernor(
            self.steering_source(session), target_speed=1.0, dt=session.dt
        )
        obs = session.reset()
        for _ in range(400):
            angle, throttle = governor.run(obs.image, obs.speed)
            obs = session.step(angle, throttle)
        assert session.stats.crashes == 0
        assert obs.speed == pytest.approx(1.0, abs=0.1)

    def test_open_loop_sags_over_time(self, session_factory):
        session = session_factory(render=False)
        baseline = OpenLoopThrottle(
            self.steering_source(session), throttle=0.5, sag_per_tick=8e-4
        )
        obs = session.reset()
        speeds = []
        for _ in range(800):
            angle, throttle = baseline.run(obs.image, obs.speed)
            obs = session.step(angle, throttle)
            speeds.append(obs.speed)
        assert speeds[-1] < max(speeds) * 0.85

    def test_governor_beats_open_loop_on_consistency(self, session_factory):
        def tail_speeds(controller, session, ticks=600):
            obs = session.reset()
            out = []
            for _ in range(ticks):
                angle, throttle = controller.run(obs.image, obs.speed)
                obs = session.step(angle, throttle)
                out.append(obs.speed)
            return np.array(out[200:])

        gov_session = session_factory(render=False)
        governor = SpeedGovernor(
            self.steering_source(gov_session), target_speed=1.0, dt=gov_session.dt
        )
        governed = tail_speeds(governor, gov_session)

        open_session = session_factory(render=False)
        baseline = OpenLoopThrottle(
            self.steering_source(open_session), throttle=0.42, sag_per_tick=6e-4
        )
        open_loop = tail_speeds(baseline, open_session)

        assert governed.std() < open_loop.std() / 2

    def test_validation(self):
        class Dummy:
            def run(self, image):
                return 0.0, 0.0

        with pytest.raises(ConfigurationError):
            SpeedGovernor(Dummy(), target_speed=0.0)
        with pytest.raises(ConfigurationError):
            OpenLoopThrottle(Dummy(), throttle=0.0)
