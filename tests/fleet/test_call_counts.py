"""Calls per collection round: one batched draw per flush wave.

Flush ``f`` of every vehicle is one wave.  The data plane draws each
wave's records for the whole fleet in one ``sample_many`` call, before
it schedules anything, and each flush event then encodes its shard
once.  Counting the calls keeps a per-vehicle draw from coming back
unnoticed: with six vehicles, a per-vehicle count is six times the
per-wave one.
"""

from collections import Counter

import pytest

from repro.fleet import FleetConfig, FleetLoop, dataplane
from repro.fleet.gates import GateThresholds
from repro.fleet.world import SyntheticTrackWorld

N_VEHICLES = 6
FLUSHES = 3
ROUNDS = 2


@pytest.fixture(scope="module")
def calls():
    counts = Counter()
    real_sample = SyntheticTrackWorld.sample
    real_sample_many = SyntheticTrackWorld.sample_many
    real_encode = dataplane.encode_shard

    def sample(self, rng, n, poisoned=False):
        counts["sample"] += 1
        return real_sample(self, rng, n, poisoned=poisoned)

    def sample_many(self, rngs, n, poisoned=False):
        rngs = list(rngs)
        counts["sample_many"] += 1
        counts["streams"] += len(rngs)
        return real_sample_many(self, rngs, n, poisoned=poisoned)

    def encode_shard(frames, labels):
        counts["encode"] += 1
        return real_encode(frames, labels)

    config = FleetConfig(
        n_vehicles=N_VEHICLES,
        flushes_per_round=FLUSHES,
        records_per_flush=4,
        frame_hw=(8, 12),
        epochs=1,
        min_fresh_records=8,
        eval_records=16,
        stage_vehicles=4,
        stage_duration_s=0.6,
        gates=GateThresholds(min_completions=10),
        canary_fraction=0.35,
        rounds=ROUNDS,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SyntheticTrackWorld, "sample", sample)
        patch.setattr(SyntheticTrackWorld, "sample_many", sample_many)
        patch.setattr(dataplane, "encode_shard", encode_shard)
        summary = FleetLoop(config).run()
    counts["flushed"] = sum(r.collect.flushed_shards for r in summary.rounds)
    return counts


def test_every_flush_stored(calls):
    assert calls["flushed"] == ROUNDS * N_VEHICLES * FLUSHES


def test_one_batched_draw_per_wave(calls):
    # The trainer's and the rollout's eval pools are the only one-stream
    # draws; each goes through the batched draw as well.
    assert calls["sample"] == 2
    assert calls["sample_many"] == ROUNDS * FLUSHES + 2
    assert calls["streams"] == ROUNDS * FLUSHES * N_VEHICLES + 2


def test_one_encode_per_flush(calls):
    # Ingest stores a clean shard's raw payload; nothing re-encodes it.
    assert calls["encode"] == ROUNDS * N_VEHICLES * FLUSHES
