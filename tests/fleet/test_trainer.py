"""The incremental trainer's train/validation split."""

import tracemalloc

import numpy as np
import pytest

from repro.artifacts.trovi import TroviHub
from repro.common.clock import EventScheduler
from repro.common.errors import FleetError
from repro.common.rng import ensure_rng, seed_from_name
from repro.fleet import FleetConfig, FleetLoop
from repro.fleet.registry import TAG_STABLE, ModelRegistry
from repro.fleet.trainer import IncrementalTrainer
from repro.fleet.world import SyntheticTrackWorld
from repro.objectstore.store import ObjectStore

SEED = 3


def make_trainer() -> tuple[IncrementalTrainer, SyntheticTrackWorld]:
    store = ObjectStore()
    world = SyntheticTrackWorld(frame_hw=(24, 32), seed=0)
    trainer = IncrementalTrainer(
        store, ModelRegistry(TroviHub(), store), world, EventScheduler(),
        FleetConfig(eval_records=8, seed=SEED),
    )
    return trainer, world


def bits(array: np.ndarray) -> np.ndarray:
    return array.view(np.uint32)


class TestSplit:
    def test_equals_convert_then_shuffle_bit_for_bit(self):
        trainer, world = make_trainer()
        frames, labels = world.sample(ensure_rng(1), 40)
        split = trainer._split(frames, labels, round_no=2)
        # Reference: convert the whole window, then shuffle the floats.
        x = frames.astype(np.float32) / 255.0
        y = labels.astype(np.float32)
        order = ensure_rng(seed_from_name("fleet-split-2", SEED)).permutation(40)
        x, y = x[order], y[order]
        assert np.array_equal(bits(split.x_val), bits(x[:10]))
        assert np.array_equal(bits(split.x_train), bits(x[10:]))
        assert np.array_equal(bits(split.y_val), bits(y[:10]))
        assert np.array_equal(bits(split.y_train), bits(y[10:]))

    def test_holds_one_float_copy_of_the_window(self):
        trainer, world = make_trainer()
        frames, labels = world.sample(ensure_rng(1), 400)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            split = trainer._split(frames, labels, round_no=2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert split.x_train.base is split.x_val.base
        # One float32 window (4 bytes a pixel) and one shuffled uint8 copy
        # (1 byte a pixel); converting before shuffling needs 8.
        assert peak < 6 * frames.nbytes


class TestDivergence:
    def test_non_finite_candidate_is_refused(self):
        """A diverged model raises instead of reaching the registry.

        Round 1 bootstraps the stable tag without a gate, so nothing
        else would stop a NaN candidate from driving the fleet.
        """
        config = FleetConfig(
            n_vehicles=4,
            records_per_flush=8,
            frame_hw=(8, 12),
            epochs=1,
            rounds=2,
            min_fresh_records=8,
            learning_rate=1e6,
            seed=0,
        )
        loop = FleetLoop(config)
        with np.errstate(all="ignore"), pytest.raises(
            FleetError, match="round 1: candidate eval_cte_m is nan"
        ):
            loop.run()
        assert loop.registry.resolve(TAG_STABLE) is None
