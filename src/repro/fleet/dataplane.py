"""The data plane: vehicles flush driving shards; ingest cleans them.

Edge side of the continuum loop.  Each simulated vehicle owns a seeded
record stream (keyed by its name, so fleet size changes never perturb
another vehicle's data) and periodically flushes one encoded shard into
the ``fleet-raw`` object-store container on scheduler events spread
across the collection window.  The cloud-side :class:`IngestStage` then
scans the raw container, validates + cleans each new shard (non-finite
labels dropped, commands clipped to the actuator range), and writes the
result to ``fleet-clean`` — the accumulating training set.  A shard that
cleaning leaves unchanged is stored as the raw payload itself, so each
flush is encoded exactly once.

Both sides tolerate the fault layer: a flush or ingest hitting an
injected store error (directly or after retries) is counted and
skipped, never fatal — a partitioned store degrades data freshness,
which the trainer's threshold and the rollout gates then see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.clock import EventScheduler
from repro.common.errors import (
    CircuitOpenError,
    FleetError,
    InjectedFaultError,
    RetryExhaustedError,
)
from repro.common.rng import ensure_rng, seed_from_name
from repro.fleet.shards import (
    SHARD_CONTENT_TYPE,
    SHARD_SUFFIX,
    decode_shard,
    encode_shard,
)
from repro.fleet.world import SyntheticTrackWorld
from repro.objectstore.store import ObjectStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, Tracer

__all__ = [
    "RAW_CONTAINER",
    "CLEAN_CONTAINER",
    "CollectReport",
    "IngestReport",
    "FleetDataPlane",
    "IngestStage",
]

#: Container vehicles flush raw shards into.
RAW_CONTAINER = "fleet-raw"
#: Container the ingest stage writes cleaned shards into.
CLEAN_CONTAINER = "fleet-clean"

#: Store failures a flush/ingest survives (counted, not raised).
_STORE_FAILURES = (InjectedFaultError, RetryExhaustedError, CircuitOpenError)


@dataclass(frozen=True)
class CollectReport:
    """One collection round: what the fleet managed to flush."""

    round_no: int
    flushed_shards: int
    flushed_records: int
    failed_flushes: int

    def to_dict(self) -> dict:
        """JSON-ready view."""
        return {
            "round_no": self.round_no,
            "flushed_shards": self.flushed_shards,
            "flushed_records": self.flushed_records,
            "failed_flushes": self.failed_flushes,
        }


@dataclass(frozen=True)
class IngestReport:
    """One ingest pass: fresh training data accumulated."""

    round_no: int
    fresh_shards: int
    fresh_records: int
    dropped_records: int
    skipped_objects: int
    failed_reads: int

    def to_dict(self) -> dict:
        """JSON-ready view."""
        return {
            "round_no": self.round_no,
            "fresh_shards": self.fresh_shards,
            "fresh_records": self.fresh_records,
            "dropped_records": self.dropped_records,
            "skipped_objects": self.skipped_objects,
            "failed_reads": self.failed_reads,
        }


class FleetDataPlane:
    """Vehicle-side shard flushing on the shared event scheduler."""

    def __init__(
        self,
        store: ObjectStore,
        world: SyntheticTrackWorld,
        scheduler: EventScheduler,
        n_vehicles: int,
        flushes_per_round: int,
        records_per_flush: int,
        seed: int = 0,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if n_vehicles < 1:
            raise FleetError(f"need >= 1 vehicle, got {n_vehicles}")
        self.store = store
        self.world = world
        self.scheduler = scheduler
        self.n_vehicles = int(n_vehicles)
        self.flushes_per_round = int(flushes_per_round)
        self.records_per_flush = int(records_per_flush)
        self.seed = int(seed)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics
        self.raw = store.create_container(RAW_CONTAINER)
        # One stream per vehicle, keyed by name: vehicle veh-0003 flushes
        # identical records whether the fleet has 4 vehicles or 4000.
        self._rngs: dict[str, np.random.Generator] = {}
        for index in range(self.n_vehicles):
            name = self._vehicle_name(index)
            self._rngs[name] = ensure_rng(seed_from_name(name, self.seed))

    @staticmethod
    def _vehicle_name(index: int) -> str:
        return f"veh-{index:04d}"

    def collect_round(
        self, round_no: int, window_s: float, poisoned: bool = False
    ) -> CollectReport:
        """Run one collection window; every vehicle flushes on schedule.

        Flush instants are spread deterministically across the window
        (vehicle-staggered), so raw-container object order and any
        store-error fault windows interact reproducibly.
        """
        if window_s <= 0:
            raise FleetError(f"window_s must be positive, got {window_s}")
        start = self.scheduler.clock.now
        tallies = {"shards": 0, "records": 0, "failures": 0}
        with self.tracer.span(
            "fleet.collect", round=round_no, vehicles=self.n_vehicles
        ):
            for index in range(self.n_vehicles):
                name = self._vehicle_name(index)
                for flush in range(self.flushes_per_round):
                    offset = (
                        (flush + (index + 1) / (self.n_vehicles + 1))
                        * window_s
                        / self.flushes_per_round
                    )
                    self.scheduler.schedule_at(
                        start + offset,
                        self._make_flush(
                            name, round_no, flush, poisoned, tallies
                        ),
                        label="fleet.flush",
                    )
            self.scheduler.run_until(start + window_s)
        report = CollectReport(
            round_no=round_no,
            flushed_shards=tallies["shards"],
            flushed_records=tallies["records"],
            failed_flushes=tallies["failures"],
        )
        if self.metrics is not None:
            self.metrics.counter("fleet.flushed_records").inc(report.flushed_records)
            if report.failed_flushes:
                self.metrics.counter("fleet.failed_flushes").inc(
                    report.failed_flushes
                )
        return report

    def _make_flush(
        self,
        vehicle: str,
        round_no: int,
        flush: int,
        poisoned: bool,
        tallies: dict[str, int],
    ):
        def run_flush() -> None:
            frames, labels = self.world.sample(
                self._rngs[vehicle], self.records_per_flush, poisoned=poisoned
            )
            name = f"r{round_no:03d}-{vehicle}-f{flush:02d}{SHARD_SUFFIX}"
            try:
                self.raw.put(
                    name,
                    encode_shard(frames, labels),
                    content_type=SHARD_CONTENT_TYPE,
                    metadata={"vehicle": vehicle, "round": str(round_no)},
                )
            except _STORE_FAILURES:
                # The store is partitioned or flapping: the vehicle keeps
                # driving and the shard is simply lost (freshness drops).
                tallies["failures"] += 1
                return
            tallies["shards"] += 1
            tallies["records"] += int(frames.shape[0])

        return run_flush


class IngestStage:
    """Cloud-side clean/accumulate pass over newly flushed shards."""

    def __init__(
        self,
        store: ObjectStore,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics
        self.raw = store.create_container(RAW_CONTAINER)
        self.clean = store.create_container(CLEAN_CONTAINER)
        self._processed: set[str] = set()

    def run(self, round_no: int) -> IngestReport:
        """Clean every unprocessed raw shard into the clean container."""
        fresh_shards = 0
        fresh_records = 0
        dropped = 0
        skipped = 0
        failed = 0
        with self.tracer.span("fleet.ingest", round=round_no):
            for name in self.raw.list():
                if name in self._processed:
                    continue
                try:
                    payload = self.raw.get(name).data
                except _STORE_FAILURES:
                    # Unreachable this pass; retry next round.
                    failed += 1
                    continue
                try:
                    frames, labels = decode_shard(payload)
                except FleetError:
                    self._processed.add(name)
                    skipped += 1
                    continue
                cleaned = self._clean(frames, labels)
                if cleaned is not None:
                    frames, labels, removed = cleaned
                    dropped += removed
                if frames.shape[0] == 0:
                    self._processed.add(name)
                    skipped += 1
                    continue
                if cleaned is not None:
                    payload = encode_shard(frames, labels)
                try:
                    self.clean.put(
                        name, payload, content_type=SHARD_CONTENT_TYPE
                    )
                except _STORE_FAILURES:
                    failed += 1
                    continue
                self._processed.add(name)
                fresh_shards += 1
                fresh_records += int(frames.shape[0])
        if self.metrics is not None and fresh_records:
            self.metrics.counter("fleet.fresh_records").inc(fresh_records)
        return IngestReport(
            round_no=round_no,
            fresh_shards=fresh_shards,
            fresh_records=fresh_records,
            dropped_records=dropped,
            skipped_objects=skipped,
            failed_reads=failed,
        )

    @staticmethod
    def _clean(
        frames: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Drop non-finite rows; clip commands to the actuator range.

        Returns ``None`` when neither step would change the shard: no
        row is dropped and every label already lies in ``[-1, 1]``.
        """
        finite = np.all(np.isfinite(labels), axis=1)
        if finite.all() and np.all(np.abs(labels) <= 1.0):
            return None
        removed = int(labels.shape[0] - finite.sum())
        frames = frames[finite]
        labels = np.clip(labels[finite], -1.0, 1.0)
        return frames, labels, removed
