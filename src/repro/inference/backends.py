"""Inference backends: where the autopilot network runs.

The model-evaluation extensions explore "the edge to cloud interaction
by attempting to run inference models in the cloud, constructing
hybrid edge cloud inference models" (§3.3); the SC'23 student poster
[26] measured exactly this tradeoff.  Experiment E6 reproduces it:

* :class:`EdgeBackend` — the network runs on the car's Pi: no network
  in the loop, but slow silicon.
* :class:`CloudBackend` — frames ship to a GPU over the continuum:
  fast silicon, but every control decision pays an RTT.
* :class:`HybridBackend` — cloud when the network is healthy, edge
  fallback when it is not (deadline or adaptive-EWMA policy).

A backend maps one frame-inference request to a latency in seconds;
:mod:`repro.inference.serving` turns latencies into (possibly stale)
control commands inside the drive loop.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.edge.devices import EdgeDevice
from repro.net.topology import Route
from repro.testbed.hardware import GPUSpec

__all__ = ["EdgeBackend", "CloudBackend", "HybridBackend"]

#: Wire size of one camera frame (JPEG-compressed 120x160x3).
FRAME_WIRE_BYTES = 4_800
#: Wire size of the (angle, throttle) response.
RESPONSE_WIRE_BYTES = 64
#: Fixed software overhead per request (serialisation, framework), s.
SOFTWARE_OVERHEAD_S = 0.002


class EdgeBackend:
    """On-device inference: latency is pure compute."""

    location = "edge"

    def __init__(self, device: EdgeDevice, flops_per_frame: float) -> None:
        if flops_per_frame <= 0:
            raise ConfigurationError("flops_per_frame must be positive")
        self.device = device
        self.flops_per_frame = float(flops_per_frame)

    def request_latency(self, rng: np.random.Generator) -> float:  # reprolint: disable=seed-ignored  (on-device latency is deterministic; rng kept for backend-interface parity)
        """Seconds from frame capture to command, on-device."""
        return (
            self.device.inference_seconds(self.flops_per_frame)
            + SOFTWARE_OVERHEAD_S
        )

    @property
    def pipelined(self) -> bool:
        """The Pi runs inference synchronously: one request in flight."""
        return False


class CloudBackend:
    """Remote inference: frame upload + GPU compute + response."""

    location = "cloud"

    def __init__(
        self,
        gpu: GPUSpec,
        route: Route,
        flops_per_frame: float,
        batch_queue_s: float = 0.001,
    ) -> None:
        if flops_per_frame <= 0:
            raise ConfigurationError("flops_per_frame must be positive")
        self.gpu = gpu
        self.route = route
        self.flops_per_frame = float(flops_per_frame)
        self.batch_queue_s = float(batch_queue_s)

    def compute_latency(self) -> float:
        """GPU-side inference time for one frame."""
        return self.flops_per_frame / self.gpu.effective_flops + self.batch_queue_s

    def request_latency(self, rng: np.random.Generator) -> float:
        """Seconds from frame capture to command arriving back."""
        rtt = float(self.route.sample_rtt(rng)[0])
        upload = 8.0 * FRAME_WIRE_BYTES / self.route.bottleneck_bps
        download = 8.0 * RESPONSE_WIRE_BYTES / self.route.bottleneck_bps
        return rtt + upload + download + self.compute_latency() + SOFTWARE_OVERHEAD_S

    @property
    def pipelined(self) -> bool:
        """Cloud requests overlap: a new frame ships every tick."""
        return True


class HybridBackend:
    """Cloud-first with edge fallback.

    Policies
    --------
    ``deadline``:
        Each request goes to the cloud; if its latency exceeds
        ``deadline_s`` the edge result (computed in parallel) is used —
        latency is ``min(cloud, max(edge, 0))`` capped by the deadline
        race.
    ``adaptive``:
        An EWMA of recent cloud latencies decides *before* each request
        whether to use the cloud at all; while on edge, the cloud is
        re-probed every ``probe_every`` requests so recovery is
        detected.
    """

    location = "hybrid"

    def __init__(
        self,
        edge: EdgeBackend,
        cloud: CloudBackend,
        policy: str = "adaptive",
        deadline_s: float = 0.05,
        ewma_alpha: float = 0.2,
        probe_every: int = 20,
    ) -> None:
        if policy not in ("deadline", "adaptive"):
            raise ConfigurationError(f"unknown hybrid policy {policy!r}")
        if deadline_s <= 0 or not 0 < ewma_alpha <= 1 or probe_every < 1:
            raise ConfigurationError("invalid hybrid parameters")
        self.edge = edge
        self.cloud = cloud
        self.policy = policy
        self.deadline_s = float(deadline_s)
        self.ewma_alpha = float(ewma_alpha)
        self.probe_every = int(probe_every)
        self._ewma: float | None = None
        self._since_probe = 0
        self.cloud_requests = 0
        self.edge_requests = 0

    def request_latency(self, rng: np.random.Generator) -> float:
        edge_latency = self.edge.request_latency(rng)
        if self.policy == "deadline":
            cloud_latency = self.cloud.request_latency(rng)
            self.cloud_requests += 1
            if cloud_latency <= self.deadline_s:
                return cloud_latency
            # Cloud missed the deadline: the edge result (racing in
            # parallel) is used as soon as it is ready.
            self.edge_requests += 1
            return max(edge_latency, min(cloud_latency, self.deadline_s))

        # adaptive: prefer the cloud unless its recent latency exceeds
        # both the control deadline and what the edge can deliver —
        # falling back to a *slower* edge would only add staleness.
        use_cloud = True
        if (
            self._ewma is not None
            and self._ewma > self.deadline_s
            and self._ewma > edge_latency
        ):
            self._since_probe += 1
            use_cloud = self._since_probe >= self.probe_every
            if use_cloud:
                self._since_probe = 0
        if use_cloud:
            cloud_latency = self.cloud.request_latency(rng)
            self.cloud_requests += 1
            self._ewma = (
                cloud_latency
                if self._ewma is None
                else (1 - self.ewma_alpha) * self._ewma
                + self.ewma_alpha * cloud_latency
            )
            if cloud_latency <= self.deadline_s or cloud_latency <= edge_latency:
                return cloud_latency
            self.edge_requests += 1
            return edge_latency
        self.edge_requests += 1
        return edge_latency

    @property
    def pipelined(self) -> bool:
        return True
