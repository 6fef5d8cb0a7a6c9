"""Reinforcement learning in the simulator (paper §3.3/§3.4, E10).

"experiment with reinforcement learning providing the opportunity for
more advanced assignments".  The assignment trains a driving policy
from reward instead of demonstrations, using the gym-style
:class:`~repro.sim.server.SimulatorServer`.

The default policy is *state-based* (cross-track error, heading error
to a lookahead point, speed) trained with the cross-entropy method —
small, deterministic, and converging in seconds, which is what a
classroom exercise needs.  The state features are what a student would
compute from the camera with the line-following utilities; using the
simulator telemetry directly keeps the RL lesson about *learning*, not
perception (the supervised models own the vision problem).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.sim.server import SimulatorServer

__all__ = ["LinearPolicy", "CEMConfig", "train_cem", "RLPilot"]


class LinearPolicy:
    """steering = tanh(w . features + b); throttle fixed.

    Features: [cte, heading error to lookahead, speed].
    """

    N_FEATURES = 3

    def __init__(self, weights: np.ndarray | None = None, throttle: float = 0.45):
        if weights is None:
            weights = np.zeros(self.N_FEATURES + 1)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.N_FEATURES + 1,):
            raise ConfigurationError(
                f"weights must have shape ({self.N_FEATURES + 1},), got {weights.shape}"
            )
        self.weights = weights
        self.throttle = float(throttle)

    def features(self, server: SimulatorServer) -> np.ndarray:
        """Extract the state features from the live session."""
        session = server.session
        state = session.state
        track = session.track
        query = session.pose_query()
        s_now = float(query.arclength[0])
        cte = float(query.signed_cte[0])
        target = track.point_at(s_now + 0.6)
        heading_to = np.arctan2(target[1] - state.y, target[0] - state.x)
        heading_err = np.arctan2(
            np.sin(heading_to - state.heading), np.cos(heading_to - state.heading)
        )
        return np.array([cte, float(heading_err), state.speed])

    def act(self, features: np.ndarray) -> tuple[float, float]:
        """Map features to (steering, throttle)."""
        z = float(self.weights[:-1] @ features + self.weights[-1])
        return float(np.tanh(z)), self.throttle


@dataclass(frozen=True)
class CEMConfig:
    """Cross-entropy method hyperparameters."""

    iterations: int = 12
    population: int = 24
    elite_fraction: float = 0.25
    init_sigma: float = 1.0
    episode_steps: int = 250
    extra_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.population < 2:
            raise ConfigurationError("need iterations >= 1 and population >= 2")
        if not 0.0 < self.elite_fraction <= 1.0:
            raise ConfigurationError("elite_fraction must be in (0, 1]")


def _rollout(
    server: SimulatorServer, policy: LinearPolicy, steps: int
) -> float:
    """One episode; returns the total reward."""
    server.reset()
    total = 0.0
    for _ in range(steps):
        features = policy.features(server)
        action = policy.act(features)
        _obs, reward, done, _info = server.step(action)
        total += reward
        if done:
            break
    return total


def train_cem(
    track_name: str = "default-tape-oval",
    config: CEMConfig | None = None,
    seed: int = 0,
    throttle: float = 0.45,
) -> tuple[LinearPolicy, list[float]]:
    """Cross-entropy method over the linear policy.

    Returns the trained policy and the per-iteration mean elite reward
    (the learning curve the assignment plots).
    """
    config = config or CEMConfig()
    rng = ensure_rng(seed)
    server = SimulatorServer(track_name, seed=seed, render=False,
                             max_episode_steps=config.episode_steps)
    dim = LinearPolicy.N_FEATURES + 1
    mean = np.zeros(dim)
    sigma = np.full(dim, config.init_sigma)
    n_elite = max(1, int(round(config.elite_fraction * config.population)))
    curve: list[float] = []
    for _ in range(config.iterations):
        candidates = mean + sigma * rng.standard_normal((config.population, dim))
        rewards = np.array(
            [
                _rollout(server, LinearPolicy(c, throttle), config.episode_steps)
                for c in candidates
            ]
        )
        elite = candidates[np.argsort(rewards)[-n_elite:]]
        mean = elite.mean(axis=0)
        sigma = elite.std(axis=0) + config.extra_noise
        curve.append(float(rewards[np.argsort(rewards)[-n_elite:]].mean()))
    return LinearPolicy(mean, throttle), curve


class RLPilot:
    """Vehicle part wrapping a trained RL policy.

    Uses the live session telemetry for features (the policy's state
    interface), so it plugs into :class:`DrivingSession.run` as a
    pilot callable.
    """

    def __init__(self, policy: LinearPolicy, server: SimulatorServer) -> None:
        self.policy = policy
        self.server = server

    def __call__(self, observation) -> tuple[float, float]:
        features = self.policy.features(self.server)
        return self.policy.act(features)
