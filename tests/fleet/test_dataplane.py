"""The fleet data plane: scheduled flushes and the ingest/clean stage."""

import numpy as np
import pytest

from repro.common.clock import EventScheduler
from repro.common.errors import FleetError
from repro.common.rng import seed_from_name
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.fleet.dataplane import (
    CLEAN_CONTAINER,
    RAW_CONTAINER,
    FleetDataPlane,
    IngestStage,
)
from repro.fleet import dataplane
from repro.fleet.shards import SHARD_CONTENT_TYPE, decode_shard, encode_shard
from repro.fleet.world import SyntheticTrackWorld
from repro.objectstore.store import ObjectStore


def make_plane(store=None, scheduler=None, n_vehicles=3, seed=0):
    store = store if store is not None else ObjectStore()
    scheduler = scheduler if scheduler is not None else EventScheduler()
    world = SyntheticTrackWorld(
        frame_hw=(8, 8), seed=seed_from_name("world", seed)
    )
    plane = FleetDataPlane(
        store,
        world,
        scheduler,
        n_vehicles=n_vehicles,
        flushes_per_round=2,
        records_per_flush=4,
        seed=seed,
    )
    return plane, store, scheduler


class TestCollect:
    def test_full_round_flushes_everything(self):
        plane, store, scheduler = make_plane()
        report = plane.collect_round(1, window_s=2.0)
        assert report.flushed_shards == 6
        assert report.flushed_records == 24
        assert report.failed_flushes == 0
        assert len(store.container(RAW_CONTAINER)) == 6
        assert scheduler.clock.now == 2.0

    def test_vehicle_streams_independent_of_fleet_size(self):
        """veh-0000's shards are identical in a 1- and a 3-vehicle fleet."""
        small, store_a, _ = make_plane(n_vehicles=1)
        small.collect_round(1, window_s=2.0)
        big, store_b, _ = make_plane(n_vehicles=3)
        big.collect_round(1, window_s=2.0)
        names = store_a.container(RAW_CONTAINER).list()
        assert names  # the 1-vehicle fleet flushed something
        for name in names:
            assert (
                store_a.container(RAW_CONTAINER).get(name).data
                == store_b.container(RAW_CONTAINER).get(name).data
            )

    def test_store_fault_window_loses_flushes_not_the_round(self):
        plane, store, scheduler = make_plane()
        store.attach_resilience(
            injector=FaultInjector(
                FaultPlan([
                    FaultSpec(
                        FaultKind.STORE_ERROR,
                        f"store:{RAW_CONTAINER}",
                        at_s=0.0,
                        duration_s=1.0,
                        error_rate=1.0,
                    ),
                ])
            ),
            clock=scheduler.clock,
        )
        report = plane.collect_round(1, window_s=2.0)
        assert report.failed_flushes > 0
        assert report.flushed_shards + report.failed_flushes == 6


class TestIngest:
    def test_cleans_new_shards_once(self):
        plane, store, _ = make_plane()
        plane.collect_round(1, window_s=2.0)
        ingest = IngestStage(store)
        first = ingest.run(1)
        assert first.fresh_shards == 6
        assert first.fresh_records == 24
        again = ingest.run(2)
        assert again.fresh_shards == 0  # already processed

    def test_drops_nonfinite_rows_and_clips(self):
        store = ObjectStore()
        raw = store.create_container(RAW_CONTAINER)
        frames = np.zeros((3, 8, 8, 3), dtype=np.uint8)
        labels = np.array(
            [[0.2, 0.5], [np.nan, 0.5], [1.7, -2.0]], dtype=np.float32
        )
        raw.put("r001-veh-0000-f00.shard", encode_shard(frames, labels))
        report = IngestStage(store).run(1)
        assert report.fresh_records == 2
        assert report.dropped_records == 1
        cleaned = store.container(CLEAN_CONTAINER)
        _, out = decode_shard(cleaned.get("r001-veh-0000-f00.shard").data)
        assert np.all(np.abs(out) <= 1.0)

    def test_clip_only_shard_is_reencoded_clipped(self):
        """Every label finite, one out of range: nothing dropped, still cleaned."""
        store = ObjectStore()
        raw = store.create_container(RAW_CONTAINER)
        frames = np.zeros((2, 8, 8, 3), dtype=np.uint8)
        labels = np.array([[0.2, 0.5], [1.7, 0.5]], dtype=np.float32)
        raw.put("r001-veh-0000-f00.shard", encode_shard(frames, labels))
        report = IngestStage(store).run(1)
        assert report.fresh_records == 2
        assert report.dropped_records == 0
        cleaned = store.container(CLEAN_CONTAINER).get("r001-veh-0000-f00.shard")
        assert cleaned.data != raw.get("r001-veh-0000-f00.shard").data
        _, out = decode_shard(cleaned.data)
        assert np.array_equal(
            out, np.array([[0.2, 0.5], [1.0, 0.5]], dtype=np.float32)
        )

    def test_clean_shard_passes_through_encoded_once(self, monkeypatch):
        calls = []

        def counting_encode(frames, labels):
            calls.append(len(frames))
            return encode_shard(frames, labels)

        monkeypatch.setattr(dataplane, "encode_shard", counting_encode)
        plane, store, _ = make_plane()
        collect = plane.collect_round(1, window_s=2.0)
        report = IngestStage(store).run(1)
        assert report.fresh_shards == collect.flushed_shards == 6
        assert len(calls) == collect.flushed_shards
        raw = store.container(RAW_CONTAINER)
        clean = store.container(CLEAN_CONTAINER)
        assert clean.list() == raw.list()
        for name in raw.list():
            assert clean.get(name).data == raw.get(name).data
            assert clean.get(name).etag == raw.get(name).etag
            assert clean.get(name).content_type == SHARD_CONTENT_TYPE

    def test_corrupt_shard_skipped(self):
        store = ObjectStore()
        raw = store.create_container(RAW_CONTAINER)
        raw.put("bad.shard", b"garbage")
        report = IngestStage(store).run(1)
        assert report.skipped_objects == 1
        assert report.fresh_shards == 0


class TestValidation:
    def test_bad_parameters(self):
        store = ObjectStore()
        world = SyntheticTrackWorld(frame_hw=(8, 8), seed=0)
        with pytest.raises(FleetError):
            FleetDataPlane(
                store, world, EventScheduler(),
                n_vehicles=0, flushes_per_round=1, records_per_flush=1,
            )
        plane, _, _ = make_plane()
        with pytest.raises(FleetError):
            plane.collect_round(1, window_s=0.0)
