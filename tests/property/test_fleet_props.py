"""Property-based invariants for the fleet continuum loop.

Whatever the seed and whatever goes wrong (poisoned data, crashed
canaries), three promises hold:

* the promotion lattice never skips a stage — a candidate reaches
  ``stable`` only through shadow *and* canary, and any failure ends in
  ``rolled-back``;
* a rollback restores the prior stable tag (the fleet never drives on
  an unvetted model);
* the whole run is a pure function of its seed: same seed, byte-equal
  summary.

The batched draw the data plane makes per flush wave also equals one
draw per car, bit for bit.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.fleet import world as world_module
from repro.fleet import (
    OUTCOME_BOOTSTRAPPED,
    OUTCOME_PROMOTED,
    OUTCOME_ROLLED_BACK,
    FleetConfig,
    FleetLoop,
)
from repro.fleet.gates import GateThresholds
from repro.fleet.world import SyntheticTrackWorld

SLOW_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VALID_HISTORIES = {
    OUTCOME_BOOTSTRAPPED: {("candidate", "stable")},
    OUTCOME_PROMOTED: {("candidate", "shadow", "canary", "stable")},
    OUTCOME_ROLLED_BACK: {
        ("candidate", "shadow", "rolled-back"),
        ("candidate", "shadow", "canary", "rolled-back"),
    },
}

CANARY_CRASH = FaultPlan(
    [FaultSpec(FaultKind.REPLICA_CRASH, "replica-0003", at_s=0.1)]
)


def run_loop(seed, poison=False, crash=False):
    config = FleetConfig(
        n_vehicles=3,
        records_per_flush=8,
        frame_hw=(8, 12),
        epochs=3,
        min_fresh_records=48,
        eval_records=32,
        stage_vehicles=4,
        stage_duration_s=0.6,
        gates=GateThresholds(min_completions=10),
        canary_fraction=0.35,
        rounds=2,
        poison_rounds=(2,) if poison else (),
        canary_fault_plans=((2, CANARY_CRASH),) if crash else (),
        seed=seed,
    )
    return FleetLoop(config).run()


class TestLattice:
    @SLOW_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        poison=st.booleans(),
        crash=st.booleans(),
    )
    def test_never_skips_a_stage(self, seed, poison, crash):
        summary = run_loop(seed, poison=poison, crash=crash)
        for report in summary.rounds:
            rollout = report.rollout
            if rollout is None:
                continue
            assert rollout.history in VALID_HISTORIES[rollout.outcome], (
                rollout.outcome, rollout.history,
            )
            # Stage reports mirror the history between the endpoints.
            stages = tuple(stage.stage for stage in rollout.stages)
            assert stages == rollout.history[1:-1]

    @SLOW_SETTINGS
    @given(seed=st.integers(0, 2**16), crash=st.booleans())
    def test_rollback_restores_prior_stable(self, seed, crash):
        summary = run_loop(seed, poison=not crash, crash=crash)
        for report in summary.rounds:
            rollout = report.rollout
            if rollout is None:
                continue
            if rollout.outcome == OUTCOME_ROLLED_BACK:
                assert rollout.new_stable == rollout.prior_stable
                assert report.stable_version == rollout.prior_stable
            else:
                assert rollout.new_stable == rollout.candidate_version
                assert report.stable_version == rollout.candidate_version


class TestDeterminism:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**16))
    def test_same_seed_byte_identical_summary(self, seed):
        first = run_loop(seed)
        second = run_loop(seed)
        assert first.to_text() == second.to_text()
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )


def reference_sample(world, gen, n, poisoned):
    """One car's draw as ``SyntheticTrackWorld.sample`` made it per call."""
    offsets = gen.uniform(-1.0, 1.0, n)
    curvatures = gen.uniform(-1.0, 1.0, n)
    pixels = (
        world._base[None, :, :, :]
        + offsets[:, None, None, None] * world._g_offset[None, :, :, :]
        + curvatures[:, None, None, None] * world._g_curv[None, :, :, :]
    )
    if world.noise > 0:
        pixels = pixels + gen.normal(0.0, world.noise, pixels.shape)
    frames = np.clip(pixels, 0.0, 255.0).astype(np.uint8)
    angles = np.clip(
        -(world.k_offset * offsets + world.k_curv * curvatures), -1.0, 1.0
    )
    if poisoned:
        angles = -angles
    throttles = 0.55 - 0.25 * np.abs(angles)
    labels = np.stack([angles, throttles], axis=1).astype(np.float32)
    return frames, labels


@st.composite
def waves(draw):
    """A world, ``k`` streams and a flush size, large and small.

    A large flush (at least 10 records of 40x56) holds more values than
    the chunk budget, so its car is a chunk alone; a drawn smaller
    budget moves the chunk boundaries between cars.
    """
    large = draw(st.booleans())
    n = draw(st.integers(10, 12) if large else st.integers(1, 12))
    h = draw(st.integers(40, 48) if large else st.integers(5, 48))
    w = draw(st.integers(56, 64) if large else st.integers(5, 64))
    per_car = n * h * w * 3
    k = draw(st.integers(1, max(1, min(150, 400_000 // per_car))))
    return {
        "k": k,
        "n": n,
        "frame_hw": (h, w),
        "noise": draw(st.sampled_from([0.0, 0.5, 6.0, 80.0])),
        "poisoned": (draw(st.booleans()), draw(st.booleans())),
        "budget": draw(st.sampled_from([None, 1, 700, 5000])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestBatchedDraw:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=waves())
    def test_two_waves_equal_one_draw_per_car(self, case):
        world = SyntheticTrackWorld(
            frame_hw=case["frame_hw"], seed=case["seed"], noise=case["noise"]
        )
        seeds = [case["seed"] + index for index in range(case["k"])]
        batched = [np.random.default_rng(seed) for seed in seeds]
        per_car = [np.random.default_rng(seed) for seed in seeds]
        with pytest.MonkeyPatch.context() as patch:
            if case["budget"] is not None:
                patch.setattr(world_module, "_CHUNK_VALUES", case["budget"])
            for poisoned in case["poisoned"]:
                frames, labels = world.sample_many(
                    batched, case["n"], poisoned=poisoned
                )
                assert frames.shape == (case["k"], case["n"]) + world.frame_shape
                assert labels.shape == (case["k"], case["n"], 2)
                for index, gen in enumerate(per_car):
                    want_frames, want_labels = reference_sample(
                        world, gen, case["n"], poisoned
                    )
                    assert frames[index].tobytes() == want_frames.tobytes()
                    assert labels[index].tobytes() == want_labels.tobytes()
        for got, want in zip(batched, per_car):
            assert got.bit_generator.state == want.bit_generator.state

    def test_a_stream_listed_twice_draws_as_two_calls(self):
        world = SyntheticTrackWorld(frame_hw=(6, 7), seed=4)
        shared = np.random.default_rng(11)
        frames, labels = world.sample_many([shared, shared], 3)
        again = np.random.default_rng(11)
        for index in range(2):
            want_frames, want_labels = reference_sample(world, again, 3, False)
            assert frames[index].tobytes() == want_frames.tobytes()
            assert labels[index].tobytes() == want_labels.tobytes()
        assert shared.bit_generator.state == again.bit_generator.state
