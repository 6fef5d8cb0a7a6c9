"""Stage plumbing: per-version scoring and shadow traffic mirroring.

A rollout stage runs the closed vehicle loop against a mixed fleet
(stable + candidate replicas) and must attribute every completion to
the *model version* that served it.  Two pieces do that:

* :class:`VersionScoreboard` — streaming per-version accounting of
  completions, deadline attainment, latency, and the cross-track-error
  proxy (|predicted angle − expert angle| × a metres-per-unit gain).
* :class:`StageHarness` — a :class:`~repro.serve.workload.Workload`
  facade wrapped around a :class:`~repro.serve.workload.VehicleFleetWorkload`.
  It poses as the service to the inner workload, attaches *labelled*
  frames from the world's eval pool to every request (so steering error
  is measurable), optionally tees a pinned shadow clone of each request
  at the candidate version, and keeps shadow responses out of the inner
  closed loop so shadow traffic never perturbs vehicle behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.obs.metrics import StreamingHistogram
from repro.serve.request import Request
from repro.serve.workload import VehicleFleetWorkload, Workload

__all__ = ["VersionStats", "VersionScoreboard", "StageHarness", "SHADOW_PREFIX"]

#: Source prefix marking mirrored (non-closed-loop) shadow requests.
SHADOW_PREFIX = "shadow:"


@dataclass(frozen=True)
class VersionStats:
    """Immutable snapshot of one model version's stage measurements."""

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


class _Accumulator:
    """Mutable per-version tallies behind :class:`VersionStats`."""

    def __init__(self) -> None:
        self.offered = 0
        self.completed = 0
        self.deadline_met = 0
        self.losses = 0
        self.err_sum = 0.0
        self.err_max = 0.0
        self.histogram = StreamingHistogram()


class VersionScoreboard:
    """Streaming per-model-version serving + driving-quality stats."""

    def __init__(self, cte_gain_m: float = 0.6) -> None:
        if cte_gain_m <= 0:
            raise ConfigurationError(
                f"cte_gain_m must be positive, got {cte_gain_m}"
            )
        self.cte_gain_m = float(cte_gain_m)
        self._acc: dict[str, _Accumulator] = {}

    def _get(self, version: str) -> _Accumulator:
        acc = self._acc.get(version)
        if acc is None:
            acc = _Accumulator()
            self._acc[version] = acc
        return acc

    def record_offered(self, version: str) -> None:
        """A request was offered to ``version``."""
        self._get(version).offered += 1

    def record_completion(
        self, version: str, request: Request, expert_angle: float
    ) -> None:
        """Score one completed request against the expert label."""
        acc = self._get(version)
        acc.completed += 1
        if request.met_deadline:
            acc.deadline_met += 1
        acc.histogram.record(max(request.latency_s, 0.0))
        err = abs(request.angle - expert_angle)
        acc.err_sum += err
        acc.err_max = max(acc.err_max, err)

    def record_loss(self, version: str) -> None:
        """A request attributed to ``version`` was lost."""
        self._get(version).losses += 1

    def versions(self) -> list[str]:
        """Version labels seen so far, sorted."""
        return sorted(self._acc)

    def stats(self, version: str) -> VersionStats:
        """Snapshot one version's stats (zeros if never seen)."""
        acc = self._acc.get(version)
        if acc is None:
            acc = _Accumulator()
        completed = acc.completed
        return VersionStats(
            version=version,
            offered=acc.offered,
            completed=completed,
            deadline_met=acc.deadline_met,
            losses=acc.losses,
            p95_ms=acc.histogram.percentile(0.95) * 1e3,
            mean_ms=acc.histogram.mean_s * 1e3,
            mean_cte_m=(
                self.cte_gain_m * acc.err_sum / completed if completed else 0.0
            ),
            max_cte_m=self.cte_gain_m * acc.err_max,
        )


class StageHarness(Workload):
    """Labelled-frame + shadow-mirroring facade over a vehicle workload.

    The inner :class:`VehicleFleetWorkload` sees this harness as its
    service: ``submit`` attaches a labelled eval-pool frame, remembers
    the expert angle by request id, optionally mirrors the request as a
    pinned shadow clone at ``shadow_version``, and forwards to the real
    service.  Offers, responses and losses are scored on the scoreboard
    by the request's version (:meth:`_version_for`); only primary
    responses reach the inner closed loop.
    """

    provides_frames = True

    def __init__(
        self,
        inner: VehicleFleetWorkload,
        frames: np.ndarray,
        expert_angles: np.ndarray,
        scoreboard: VersionScoreboard,
        shadow_version: str = "",
    ) -> None:
        if len(frames) == 0 or len(frames) != len(expert_angles):
            raise ConfigurationError(
                "harness needs a non-empty labelled frame pool"
            )
        self._inner = inner
        self._frames = frames
        self._experts = expert_angles
        self.scoreboard = scoreboard
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
        self.scoreboard.record_offered(self._version_for(request))
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
            self.scoreboard.record_offered(self._version_for(clone))
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
        ticks = self._inner.ticks
        return self._inner.stale_ticks / ticks if ticks else 0.0

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
            self.scoreboard.record_completion(
                self._version_for(request), request, expert
            )
        if not request.source.startswith(SHADOW_PREFIX):
            self._inner.on_response(request)

    def on_loss(self, request: Request) -> None:
        self._pending.pop(request.request_id, None)
        self.scoreboard.record_loss(self._version_for(request))
        if not request.source.startswith(SHADOW_PREFIX):
            self._inner.on_loss(request)
