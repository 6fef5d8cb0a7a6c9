"""Model replicas: calibrated batch-latency models on real hardware specs.

A replica is one copy of the autopilot pinned to either a testbed GPU
node (:class:`~repro.testbed.hardware.GPUSpec`) or an edge device
(:class:`~repro.edge.devices.DeviceSpec`).  Its cost model is the
affine batch-latency law measured on real serving systems::

    latency(B) = overhead_s + B * per_item_s        (+ network, + jitter)

On a GPU the per-batch overhead (kernel launch + framework dispatch)
dominates small batches — that is the amortisation micro-batching
exploits.  On a serial edge CPU ``per_item_s`` dominates, so batching
buys nothing: the same law captures both regimes.

Replicas placed behind a :class:`~repro.net.topology.Route` additionally
pay the sampled RTT and the serialisation time of the batched frames,
composing the ``net`` link models into fleet latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.common.clock import ScheduledEvent
from repro.common.errors import ConfigurationError, ReplicaStateError
from repro.common.rng import ensure_rng
from repro.edge.devices import DeviceSpec
from repro.faults.breaker import CircuitBreaker
from repro.inference.backends import (
    FRAME_WIRE_BYTES,
    RESPONSE_WIRE_BYTES,
    SOFTWARE_OVERHEAD_S,
)
from repro.net.topology import Route
from repro.obs.span import Span
from repro.serve.batcher import MicroBatcher
from repro.serve.queueing import AdmissionQueue
from repro.serve.request import Request
from repro.testbed.hardware import GPUSpec

__all__ = [
    "BatchLatencyModel",
    "Replica",
    "ReplicaState",
    "BATCH_LAUNCH_S",
    "PER_FRAME_IO_S",
]

#: Kernel-launch + framework dispatch cost paid once per batch on a GPU.
BATCH_LAUNCH_S = 0.003
#: Host-side per-frame marshalling (decode, copy into the batch tensor).
PER_FRAME_IO_S = 1.0e-4


@dataclass(frozen=True)
class BatchLatencyModel:
    """Affine batch-latency law ``overhead + B * per_item`` with jitter.

    ``jitter`` is the sigma of a multiplicative lognormal (mean 1), so
    expected latency equals the deterministic law and ``jitter=0`` is
    exactly reproducible sample-by-sample.
    """

    overhead_s: float
    per_item_s: float
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.overhead_s < 0 or self.per_item_s <= 0 or self.jitter < 0:
            raise ConfigurationError(
                f"invalid batch latency model: overhead={self.overhead_s}, "
                f"per_item={self.per_item_s}, jitter={self.jitter}"
            )

    def mean_latency(self, batch_size: int) -> float:
        """Deterministic latency for a batch of ``batch_size``."""
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        return self.overhead_s + batch_size * self.per_item_s

    def sample(
        self, rng: int | np.random.Generator | None, batch_size: int
    ) -> float:
        """One latency draw for a batch of ``batch_size``."""
        mean = self.mean_latency(batch_size)
        if self.jitter == 0:
            return mean
        gen = ensure_rng(rng)
        return mean * float(gen.lognormal(-0.5 * self.jitter**2, self.jitter))

    def throughput_hz(self, batch_size: int) -> float:
        """Items per second sustained at a fixed batch size."""
        return batch_size / self.mean_latency(batch_size)

    @classmethod
    def from_gpu(
        cls, gpu: GPUSpec, flops_per_frame: float, jitter: float = 0.08
    ) -> "BatchLatencyModel":
        """Calibrate from a testbed GPU spec: launch cost amortises."""
        if flops_per_frame <= 0:
            raise ConfigurationError("flops_per_frame must be positive")
        per_item = flops_per_frame / gpu.effective_flops + PER_FRAME_IO_S
        return cls(SOFTWARE_OVERHEAD_S + BATCH_LAUNCH_S, per_item, jitter)

    @classmethod
    def from_device(
        cls, device: DeviceSpec, flops_per_frame: float, jitter: float = 0.05
    ) -> "BatchLatencyModel":
        """Calibrate from an edge device: serial compute, no amortisation."""
        if flops_per_frame <= 0:
            raise ConfigurationError("flops_per_frame must be positive")
        per_item = flops_per_frame / device.effective_flops + PER_FRAME_IO_S
        return cls(SOFTWARE_OVERHEAD_S, per_item, jitter)


class ReplicaState(enum.Enum):
    """Replica lifecycle driven by the autoscaler (and the fault layer)."""

    PROVISIONING = "provisioning"  # deploy delay still running
    READY = "ready"  # routable
    DRAINING = "draining"  # no new requests; finishing its queue
    RETIRED = "retired"  # gone
    FAILED = "failed"  # crashed by an injected fault; never returns


class Replica:
    """One model replica: bounded queue + micro-batcher + latency model.

    It also holds the serving state the
    :class:`~repro.serve.service.InferenceService` keeps per replica:
    the batch in flight (``inflight``, its sampled latency and the
    ``completion`` event that ends it), the pending batcher ``wake``,
    the circuit ``breaker`` (None without a breaker policy), and the
    spans of its life, its in-flight batch and its hang window.
    """

    def __init__(
        self,
        replica_id: str,
        latency_model: BatchLatencyModel,
        queue: AdmissionQueue,
        batcher: MicroBatcher,
        rng: int | np.random.Generator | None = None,
        route: Route | None = None,
        model=None,
        model_version: str = "",
    ) -> None:
        self.replica_id = replica_id
        self.latency_model = latency_model
        self.queue = queue
        self.batcher = batcher
        self.route = route
        # A Route is frozen, so its RTT floor and bottleneck are constants
        # of the replica; expected_latency reads them on every pump.
        if route is not None:
            self._route_rtt_s = route.base_rtt_s
            self._route_bps = route.bottleneck_bps
        # Per-replica model pinning: a rollout can run different registry
        # versions side by side in one fleet.  ``model=None`` falls back
        # to the service-level model; ``model_version`` is the routing
        # label traffic-split and pinned requests match against.  The
        # service warm-compiles a pinned model's execution plans
        # (``DonkeyModel.compile_plans``) before the replica goes live,
        # so its first batch pays no compile cost.
        self.model = model
        self.model_version = model_version
        self.state = ReplicaState.PROVISIONING
        self.ready_at = -1.0
        self.hung_until = -1.0
        self._rng = ensure_rng(rng)
        self.inflight: tuple[Request, ...] = ()
        self.inflight_latency_s = 0.0
        self.completion: ScheduledEvent | None = None
        self.wake: ScheduledEvent | None = None
        self.breaker: CircuitBreaker | None = None
        self.span: Span | None = None
        self.batch_span: Span | None = None
        self.hang_span: Span | None = None

    # --------------------------------------------------------- lifecycle

    def mark_ready(self, now: float) -> None:
        """Finish provisioning and become routable."""
        if self.state is not ReplicaState.PROVISIONING:
            raise ReplicaStateError(
                f"replica {self.replica_id} cannot become ready from "
                f"{self.state.value}"
            )
        self.state = ReplicaState.READY
        self.ready_at = now

    def drain(self) -> None:
        """Stop accepting work; retire once the queue empties."""
        if self.state is not ReplicaState.READY:
            raise ReplicaStateError(
                f"replica {self.replica_id} cannot drain from {self.state.value}"
            )
        self.state = ReplicaState.DRAINING

    def retire(self) -> None:
        """Leave the fleet (queue must already be empty and idle)."""
        if self.inflight or len(self.queue):
            raise ReplicaStateError(
                f"replica {self.replica_id} still has work; drain first"
            )
        self.state = ReplicaState.RETIRED

    def fail(self) -> None:
        """Crash: drop out of the fleet immediately, work already drained.

        The caller (the service's crash handler) is responsible for
        requeueing the in-flight batch and queued requests *before*
        failing the replica.
        """
        if self.state in (ReplicaState.RETIRED, ReplicaState.FAILED):
            raise ReplicaStateError(
                f"replica {self.replica_id} cannot crash from {self.state.value}"
            )
        self.state = ReplicaState.FAILED
        self.inflight = ()

    def is_hung(self, now: float) -> bool:
        """Whether an injected hang currently freezes this replica."""
        return now < self.hung_until

    @property
    def routable(self) -> bool:
        """Whether the router may send new requests here.

        State-based only; the service additionally excludes hung
        replicas and open circuits via ``routable_replicas``.
        """
        return self.state is ReplicaState.READY

    @property
    def load(self) -> int:
        """Outstanding work: queued plus in-flight requests."""
        return len(self.queue) + len(self.inflight)

    # ----------------------------------------------------------- latency

    def expected_latency(self, batch_size: int) -> float:
        """Deterministic latency estimate for planning (no jitter)."""
        latency = self.latency_model.mean_latency(batch_size)
        if self.route is not None:
            latency += self._route_rtt_s + self._wire_time(batch_size)
        return latency

    def sample_batch_latency(self, batch_size: int) -> float:
        """One end-to-end latency draw for a batch, network included."""
        if self.state not in (ReplicaState.READY, ReplicaState.DRAINING):
            raise ReplicaStateError(
                f"replica {self.replica_id} is {self.state.value}; cannot serve"
            )
        latency = self.latency_model.sample(self._rng, batch_size)
        if self.route is not None:
            latency += float(self.route.sample_rtt(self._rng)[0])
            latency += self._wire_time(batch_size)
        return latency

    def _wire_time(self, batch_size: int) -> float:
        wire_bytes = batch_size * (FRAME_WIRE_BYTES + RESPONSE_WIRE_BYTES)
        return 8.0 * wire_bytes / self._route_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Replica({self.replica_id}, {self.state.value}, load={self.load})"
