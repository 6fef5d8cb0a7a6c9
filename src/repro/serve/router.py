"""Replica routing: which copy of the model serves this request.

Routers see only replicas that are currently routable (READY); the
fleet can grow and shrink under them as the autoscaler acts.  All three
are deterministic given the same request sequence:

* ``round-robin`` — rotate through the fleet in id order;
* ``least-outstanding`` — fewest queued + in-flight requests (the
  classic load-aware default);
* ``latency-ewma`` — lowest exponentially-weighted recent batch
  latency, exploring unseen replicas first (routes around a slow or
  far-away replica without explicit health checks).
* ``traffic-split`` — weighted split across *model versions* (canary
  rollouts): a deficit counter keeps realised shares within one request
  of the configured weights, and requests with a ``pin_version`` only
  ever reach replicas pinned to that version (shadow traffic).
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.serve.replica import Replica
from repro.serve.request import Request

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "LatencyEwmaRouter",
    "TrafficSplitRouter",
    "ROUTER_NAMES",
    "make_router",
]

ROUTER_NAMES = (
    "round-robin",
    "least-outstanding",
    "latency-ewma",
    "traffic-split",
)


class Router:
    """Routing policy interface."""

    name = "base"

    def route(
        self, replicas: list[Replica], request: Request, now: float
    ) -> Replica | None:
        """Pick a replica for ``request`` (None if none are routable).

        ``replicas`` is the service's kept routable set: read it, never
        modify it.
        """
        raise NotImplementedError

    def observe_batch(self, replica: Replica, latency_s: float) -> None:
        """Feedback hook: a batch completed on ``replica``."""


class RoundRobinRouter(Router):
    """Rotate through routable replicas."""

    name = "round-robin"

    def __init__(self) -> None:
        self._turn = 0

    def route(
        self, replicas: list[Replica], request: Request, now: float
    ) -> Replica | None:
        if not replicas:
            return None
        choice = replicas[self._turn % len(replicas)]
        self._turn += 1
        return choice


class LeastOutstandingRouter(Router):
    """Fewest queued + in-flight requests; first listed wins ties."""

    name = "least-outstanding"

    def route(
        self, replicas: list[Replica], request: Request, now: float
    ) -> Replica | None:
        best = None
        best_load = 0
        for replica in replicas:
            load = len(replica.queue) + len(replica.inflight)  # Replica.load
            if best is None or load < best_load:
                best = replica
                best_load = load
        return best


class LatencyEwmaRouter(Router):
    """Lowest EWMA of observed batch latency; unseen replicas first."""

    name = "latency-ewma"

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0 < alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._ewma: dict[str, float] = {}

    def route(
        self, replicas: list[Replica], request: Request, now: float
    ) -> Replica | None:
        if not replicas:
            return None
        for replica in replicas:
            if replica.replica_id not in self._ewma:
                return replica  # explore before exploiting
        return min(replicas, key=lambda replica: self._ewma[replica.replica_id])

    def observe_batch(self, replica: Replica, latency_s: float) -> None:
        previous = self._ewma.get(replica.replica_id)
        if previous is None:
            self._ewma[replica.replica_id] = latency_s
        else:
            self._ewma[replica.replica_id] = (
                1 - self.alpha
            ) * previous + self.alpha * latency_s


class TrafficSplitRouter(Router):
    """Deterministic weighted split across model versions.

    ``weights`` maps a model-version label to a non-negative share.
    Unpinned requests go to the live weighted version with the largest
    deficit (configured share × requests seen − requests sent), so the
    realised split tracks the weights within one request at any prefix
    of the sequence.  Within the chosen version group, ``inner`` (least
    outstanding by default) balances load.  Pinned requests bypass the
    split entirely: they route only inside their version's group, and
    are lost if that group has no routable replica.
    """

    name = "traffic-split"

    def __init__(
        self, weights: dict[str, float], inner: Router | None = None
    ) -> None:
        if not weights:
            raise ConfigurationError("traffic-split needs at least one weight")
        for version, weight in sorted(weights.items()):
            if weight < 0:
                raise ConfigurationError(
                    f"weight for version {version!r} must be >= 0, got {weight}"
                )
        if sum(weights.values()) <= 0:
            raise ConfigurationError("traffic-split weights must sum > 0")
        self.weights = dict(weights)
        self.inner = inner if inner is not None else LeastOutstandingRouter()
        self._seen = 0
        self._sent: dict[str, int] = {}

    def set_weights(self, weights: dict[str, float]) -> None:
        """Swap the split (a rollout stage change); deficits reset."""
        if not weights or sum(weights.values()) <= 0:
            raise ConfigurationError("traffic-split weights must sum > 0")
        self.weights = dict(weights)
        self._seen = 0
        self._sent = {}

    def route(
        self, replicas: list[Replica], request: Request, now: float
    ) -> Replica | None:
        if not replicas:
            return None
        groups: dict[str, list[Replica]] = {}
        for replica in replicas:
            groups.setdefault(replica.model_version, []).append(replica)
        if request.pin_version:
            pinned = groups.get(request.pin_version)
            if not pinned:
                return None
            return self.inner.route(pinned, request, now)
        live = [v for v in sorted(groups) if self.weights.get(v, 0.0) > 0]
        if not live:
            # No weighted version has a routable replica (e.g. every
            # canary crashed): fail over to the whole fleet.
            return self.inner.route(replicas, request, now)
        total = sum(self.weights[version] for version in live)
        self._seen += 1
        chosen = max(
            live,
            key=lambda v: (self.weights[v] / total) * self._seen
            - self._sent.get(v, 0),
        )
        self._sent[chosen] = self._sent.get(chosen, 0) + 1
        return self.inner.route(groups[chosen], request, now)

    def observe_batch(self, replica: Replica, latency_s: float) -> None:
        self.inner.observe_batch(replica, latency_s)


def make_router(name: str) -> Router:
    """Build a router by policy name."""
    if name == "round-robin":
        return RoundRobinRouter()
    if name == "least-outstanding":
        return LeastOutstandingRouter()
    if name == "latency-ewma":
        return LatencyEwmaRouter()
    if name == "traffic-split":
        # Everything on the default (unpinned) version until a rollout
        # installs real weights via set_weights.
        return TrafficSplitRouter({"": 1.0})
    raise ConfigurationError(
        f"unknown router {name!r}; choose from {ROUTER_NAMES}"
    )
