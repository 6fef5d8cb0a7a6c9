"""Stage plumbing: per-version scoring and shadow traffic mirroring.

A rollout stage runs the closed vehicle loop against a mixed fleet
(stable + candidate replicas) and must attribute every completion to
the *model version* that served it.  :class:`StageHarness` is a
:class:`~repro.serve.workload.Workload` facade wrapped around a
:class:`~repro.serve.workload.VehicleFleetWorkload`.  It poses as the
service to the inner workload, attaches *labelled* frames from the
world's eval pool to every request (so steering error is measurable),
optionally tees a pinned shadow clone of each request at the candidate
version, keeps shadow responses out of the inner closed loop, and
records each response and loss in ``version=``-labelled series of the
service's registry, from which :func:`version_stats` reads what the
gates judge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.serve.request import Request
from repro.serve.workload import VehicleFleetWorkload, Workload

__all__ = ["VersionStats", "version_stats", "StageHarness", "SHADOW_PREFIX"]

#: Source prefix marking mirrored (non-closed-loop) shadow requests.
SHADOW_PREFIX = "shadow:"

#: The series a stage records, labelled ``version=``.  The latency
#: histogram's count is the version's completions; the steering error is
#: |predicted angle − expert angle|.
LATENCY = "fleet.stage.latency_s"
DEADLINE_MET = "fleet.stage.deadline_met"
LOSSES = "fleet.stage.losses"
STEERING_ERROR_SUM = "fleet.stage.steering_error_sum"
STEERING_ERROR_MAX = "fleet.stage.steering_error_max"


@dataclass(frozen=True)
class VersionStats:
    """Immutable snapshot of one model version's stage measurements.

    ``offered`` is ``completed + losses``.  Every request the harness
    forwards ends in exactly one response or loss before the service's
    run returns (its conservation check raises otherwise), so each offer
    counts once, under the version where its request ended.
    """

    version: str
    offered: int
    completed: int
    deadline_met: int
    losses: int
    p95_ms: float
    mean_ms: float
    mean_cte_m: float
    max_cte_m: float

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completions that blew their deadline."""
        if self.completed == 0:
            return 0.0
        return 1.0 - self.deadline_met / self.completed


def version_stats(
    metrics: MetricsRegistry, version: str, cte_gain_m: float
) -> VersionStats:
    """One version's stats, read from its series in ``metrics``.

    A version with no records reads zeros.  The cross-track-error proxy
    is the steering error times ``cte_gain_m`` metres per unit; a NaN
    error keeps the mean NaN, so the version fails its cte gate.
    """
    latency = metrics.find(LATENCY, version=version)
    completed = latency.hist.count if latency is not None else 0
    losses = metrics.count(LOSSES, version=version)
    error_sum = metrics.find(STEERING_ERROR_SUM, version=version)
    error_max = metrics.find(STEERING_ERROR_MAX, version=version)
    return VersionStats(
        version=version,
        offered=completed + losses,
        completed=completed,
        deadline_met=metrics.count(DEADLINE_MET, version=version),
        losses=losses,
        p95_ms=latency.hist.percentile(0.95) * 1e3 if completed else 0.0,
        mean_ms=latency.hist.mean_s * 1e3 if completed else 0.0,
        mean_cte_m=(
            cte_gain_m * error_sum.value / completed if completed else 0.0
        ),
        max_cte_m=cte_gain_m * error_max.value if completed else 0.0,
    )


class StageHarness(Workload):
    """Labelled-frame + shadow-mirroring facade over a vehicle workload.

    The inner :class:`VehicleFleetWorkload` sees this harness as its
    service: ``submit`` attaches a labelled eval-pool frame, remembers
    the expert angle by request id, optionally mirrors the request as a
    pinned shadow clone at ``shadow_version``, and forwards to the real
    service.  Responses and losses are recorded in the service's
    registry under the request's version (:meth:`_version_for`); only
    primary responses reach the inner closed loop.
    """

    provides_frames = True

    def __init__(
        self,
        inner: VehicleFleetWorkload,
        frames: np.ndarray,
        expert_angles: np.ndarray,
        shadow_version: str = "",
    ) -> None:
        if len(frames) == 0 or len(frames) != len(expert_angles):
            raise ConfigurationError(
                "harness needs a non-empty labelled frame pool"
            )
        self._inner = inner
        self._frames = frames
        self._experts = expert_angles
        self.shadow_version = shadow_version
        self.shadows_sent = 0
        self._service = None
        self._pending: dict[str, float] = {}
        self._versions: dict[str, str] = {}
        self._n = 0

    # ----------------------------------------------- service facade

    @property
    def scheduler(self):
        """The real service's scheduler (inner workload ticks on it)."""
        return self._service.scheduler

    def submit(self, request: Request) -> bool:
        """Attach a labelled frame, mirror a shadow clone, and forward."""
        index = self._n % len(self._frames)
        self._n += 1
        request.frame = self._frames[index]
        expert = float(self._experts[index])
        self._pending[request.request_id] = expert
        admitted = self._service.submit(request)
        if self.shadow_version:
            clone = Request(
                request_id=f"shd-{request.request_id}",
                source=f"{SHADOW_PREFIX}{request.source}",
                arrival_s=request.arrival_s,
                deadline_s=request.deadline_s,
                priority=request.priority,
                frame=request.frame,
                pin_version=self.shadow_version,
            )
            self._pending[clone.request_id] = expert
            self.shadows_sent += 1
            self._service.submit(clone)
        return admitted

    # --------------------------------------------- workload interface

    @property
    def submitted(self) -> int:
        return self._inner.submitted

    @property
    def stale_ticks(self) -> int:
        """Stale-command ticks of the inner closed loop."""
        return self._inner.stale_ticks

    @property
    def stale_ratio(self) -> float:
        """Stale ticks over total ticks of the inner closed loop."""
        return self._inner.stale_ratio

    def start(self, service, until_s: float) -> None:
        self._service = service
        self._inner.start(self, until_s)

    def _version_for(self, request: Request) -> str:
        """The pinned version, else the routed replica's, else unrouted."""
        version = request.pin_version
        if not version and request.replica_id:
            version = self._versions.get(request.replica_id)
            if version is None:
                version = self._service.version_of(request.replica_id)
                self._versions[request.replica_id] = version
        return version if version else "unrouted"

    def on_response(self, request: Request) -> None:
        expert = self._pending.pop(request.request_id, None)
        if expert is not None:
            version = self._version_for(request)
            metrics = self._service.metrics
            metrics.histogram(LATENCY, version=version).observe(
                max(request.latency_s, 0.0)
            )
            metrics.counter(DEADLINE_MET, version=version).inc(
                request.met_deadline
            )
            error = abs(request.angle - expert)
            metrics.counter(STEERING_ERROR_SUM, version=version).inc(error)
            # A NaN error leaves the peak as it was but makes the sum NaN,
            # so the version's mean fails its cte gate.
            peak = metrics.gauge(STEERING_ERROR_MAX, version=version)
            peak.set(max(peak.value, error))
        if not request.source.startswith(SHADOW_PREFIX):
            self._inner.on_response(request)

    def on_loss(self, request: Request) -> None:
        self._pending.pop(request.request_id, None)
        self._service.metrics.counter(
            LOSSES, version=self._version_for(request)
        ).inc()
        if not request.source.startswith(SHADOW_PREFIX):
            self._inner.on_loss(request)
