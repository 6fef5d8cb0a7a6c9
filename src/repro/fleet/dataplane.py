"""The data plane: vehicles flush driving shards; ingest cleans them.

Edge side of the continuum loop.  Each simulated vehicle owns a seeded
record stream (keyed by its name, so fleet size changes never perturb
another vehicle's data) and periodically flushes one encoded shard into
the ``fleet-raw`` object-store container on scheduler events spread
across the collection window.  The records of one flush of every
vehicle are drawn in one batched call, each vehicle from its own
stream.  The cloud-side :class:`IngestStage` then scans the raw
container, validates + cleans each new shard (non-finite labels
dropped, commands clipped to the actuator range), and writes the result
to ``fleet-clean`` — the accumulating training set.  A shard that
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
from repro.fleet.config import FleetConfig
from repro.fleet.shards import (
    SHARD_CONTENT_TYPE,
    SHARD_SUFFIX,
    decode_shard,
    encode_shard,
)
from repro.fleet.world import SyntheticTrackWorld
from repro.objectstore.store import ObjectStore
from repro.obs.metrics import MetricsRegistry, SeriesHandle, ensure_registry
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


@dataclass(frozen=True)
class IngestReport:
    """One ingest pass: fresh training data accumulated."""

    round_no: int
    fresh_shards: int
    fresh_records: int
    dropped_records: int
    skipped_objects: int
    failed_reads: int


class FleetDataPlane:
    """Vehicle-side shard flushing on the shared event scheduler."""

    def __init__(
        self,
        store: ObjectStore,
        world: SyntheticTrackWorld,
        scheduler: EventScheduler,
        config: FleetConfig,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.world = world
        self.scheduler = scheduler
        self.config = config
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = ensure_registry(metrics)
        self._flushed = SeriesHandle(self.metrics.counter, "fleet.flushed_records")
        self._failed = SeriesHandle(self.metrics.counter, "fleet.failed_flushes")
        self.raw = store.create_container(RAW_CONTAINER)
        # One stream per vehicle, keyed by name: vehicle veh-0003 flushes
        # identical records whether the fleet has 4 vehicles or 4000.
        # Insertion order is vehicle order, which the flushes follow.
        self._rngs: dict[str, np.random.Generator] = {}
        for index in range(config.n_vehicles):
            name = f"veh-{index:04d}"
            self._rngs[name] = ensure_rng(seed_from_name(name, config.seed))

    def collect_round(self, round_no: int, poisoned: bool = False) -> CollectReport:
        """Run one ``data_window_s`` window; every vehicle flushes on schedule.

        Flush instants are spread deterministically across the window
        (vehicle-staggered), so raw-container object order and any
        store-error fault windows interact reproducibly.  Flush ``f`` of
        every vehicle is one wave, and all of a wave's instants precede
        the next wave's; each wave's records are drawn in one batched
        call before anything is scheduled, so a flush event only encodes
        and stores its shard.
        """
        config = self.config
        n_vehicles, flushes = config.n_vehicles, config.flushes_per_round
        window_s = config.data_window_s
        start = self.scheduler.clock.now
        tallies = {"shards": 0, "records": 0, "failures": 0}
        with self.tracer.span("fleet.collect", round=round_no, vehicles=n_vehicles):
            waves = [
                self.world.sample_many(
                    self._rngs.values(), config.records_per_flush, poisoned=poisoned
                )
                for _flush in range(flushes)
            ]
            for index, name in enumerate(self._rngs):
                for flush, (frames, labels) in enumerate(waves):
                    offset = (
                        (flush + (index + 1) / (n_vehicles + 1))
                        * window_s
                        / flushes
                    )
                    self.scheduler.schedule_at(
                        start + offset,
                        self._make_flush(
                            name, round_no, flush, frames[index], labels[index],
                            tallies,
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
        self._flushed.inc(report.flushed_records)
        if report.failed_flushes:
            self._failed.inc(report.failed_flushes)
        return report

    def _make_flush(
        self,
        vehicle: str,
        round_no: int,
        flush: int,
        frames: np.ndarray,
        labels: np.ndarray,
        tallies: dict[str, int],
    ):
        def run_flush() -> None:
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
        self.metrics = ensure_registry(metrics)
        self._fresh = SeriesHandle(self.metrics.counter, "fleet.fresh_records")
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
                removed = 0
                if cleaned is not None:
                    frames, labels, removed = cleaned
                if frames.shape[0] == 0:
                    self._processed.add(name)
                    dropped += removed
                    skipped += 1
                    continue
                if cleaned is not None:
                    payload = encode_shard(frames, labels)
                try:
                    self.clean.put(
                        name, payload, content_type=SHARD_CONTENT_TYPE
                    )
                except _STORE_FAILURES:
                    # Retried next pass, which counts its dropped rows.
                    failed += 1
                    continue
                self._processed.add(name)
                dropped += removed
                fresh_shards += 1
                fresh_records += int(frames.shape[0])
        if fresh_records:
            self._fresh.inc(fresh_records)
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

        Returns ``None`` when neither step would change the shard: every
        label already lies in ``[-1, 1]``, a test that NaN and ±inf fail.
        """
        if (np.abs(labels) <= 1.0).all():
            return None
        finite = np.isfinite(labels).all(axis=1)
        removed = int(labels.shape[0] - finite.sum())
        frames = frames[finite]
        labels = np.clip(labels[finite], -1.0, 1.0)
        return frames, labels, removed
