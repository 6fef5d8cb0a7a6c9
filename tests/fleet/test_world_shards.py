"""The synthetic world and the shard wire format."""

import io
import struct

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, FleetError
from repro.common.rng import ensure_rng
from repro.fleet.shards import decode_shard, encode_shard, shard_records
from repro.fleet.world import SyntheticTrackWorld


class TestWorld:
    def test_same_seed_same_world(self):
        a = SyntheticTrackWorld(seed=5)
        b = SyntheticTrackWorld(seed=5)
        fa, la = a.sample(ensure_rng(1), 8)
        fb, lb = b.sample(ensure_rng(1), 8)
        assert np.array_equal(fa, fb)
        assert np.array_equal(la, lb)

    def test_shapes_and_ranges(self):
        world = SyntheticTrackWorld(frame_hw=(10, 12), seed=0)
        frames, labels = world.sample(ensure_rng(0), 20)
        assert frames.shape == (20, 10, 12, 3)
        assert frames.dtype == np.uint8
        assert labels.shape == (20, 2)
        assert np.all(np.abs(labels[:, 0]) <= 1.0)
        assert np.all(labels[:, 1] > 0.0)

    def test_poison_inverts_steering_only(self):
        world = SyntheticTrackWorld(seed=3)
        _, clean = world.sample(ensure_rng(9), 16)
        _, poisoned = world.sample(ensure_rng(9), 16)
        # Same stream draw: the frames and throttles match, angles flip.
        assert np.allclose(poisoned[:, 1], clean[:, 1])
        world2 = SyntheticTrackWorld(seed=3)
        _, bad = world2.sample(ensure_rng(9), 16, poisoned=True)
        assert np.allclose(bad[:, 0], -clean[:, 0])

    def test_frames_predict_steering(self):
        """The world is learnable: frames decode to the expert command."""
        world = SyntheticTrackWorld(seed=0, noise=0.0)
        frames, labels = world.sample(ensure_rng(0), 200)
        x = frames.reshape(len(frames), -1).astype(np.float64)
        x = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        coef, *_ = np.linalg.lstsq(x, labels[:, 0], rcond=None)
        residual = x @ coef - labels[:, 0]
        assert float(np.mean(np.abs(residual))) < 0.05

    def test_validation(self):
        for frame_hw in ((2, 24), (8.5, 12), (float("nan"), 12), (8, 12, 3)):
            with pytest.raises(ConfigurationError):
                SyntheticTrackWorld(frame_hw=frame_hw)
        with pytest.raises(ConfigurationError):
            SyntheticTrackWorld(noise=-1.0)
        world = SyntheticTrackWorld()
        with pytest.raises(ConfigurationError):
            world.sample(ensure_rng(0), 0)
        with pytest.raises(ConfigurationError):
            world.sample_many([], 4)

    @pytest.mark.parametrize("param", ["noise", "k_offset", "k_curv"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, param, value):
        with pytest.raises(ConfigurationError, match=param):
            SyntheticTrackWorld(**{param: value})


def small_shard() -> bytes:
    """Three 2x3 records: small enough to corrupt byte by byte."""
    frames, labels = SyntheticTrackWorld(frame_hw=(5, 5), seed=1).sample(
        ensure_rng(2), 3
    )
    return encode_shard(frames[:, :2, :3], labels)


class TestShards:
    def test_round_trip(self):
        world = SyntheticTrackWorld(seed=1)
        frames, labels = world.sample(ensure_rng(2), 12)
        data = encode_shard(frames, labels)
        back_frames, back_labels = decode_shard(data)
        assert np.array_equal(back_frames, frames)
        assert np.array_equal(back_labels, labels)
        assert shard_records(data) == 12

    def test_encoding_is_deterministic(self):
        world = SyntheticTrackWorld(seed=1)
        frames, labels = world.sample(ensure_rng(2), 6)
        assert encode_shard(frames, labels) == encode_shard(frames, labels)

    def test_bad_shapes_rejected(self):
        frames = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        with pytest.raises(FleetError):
            encode_shard(frames.astype(np.float32), np.zeros((4, 2)))
        with pytest.raises(FleetError):
            encode_shard(frames, np.zeros((3, 2)))

    def test_corrupt_payload_is_typed(self):
        with pytest.raises(FleetError):
            decode_shard(b"not a shard at all")
        frames = np.zeros((2, 8, 8, 3), dtype=np.uint8)
        data = encode_shard(frames, np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(FleetError):
            decode_shard(data[: len(data) // 2])

    def test_empty_shard_round_trips(self):
        data = encode_shard(
            np.zeros((0, 5, 7, 3), dtype=np.uint8),
            np.zeros((0, 2), dtype=np.float32),
        )
        frames, labels = decode_shard(data)
        assert frames.shape == (0, 5, 7, 3)
        assert labels.shape == (0, 2)
        assert shard_records(data) == 0

    def test_decode_is_a_read_only_view_of_the_payload(self):
        data = small_shard()
        frames, labels = decode_shard(data)
        assert frames.dtype == np.uint8
        assert labels.dtype == np.float32
        assert not frames.flags.writeable
        assert not labels.flags.writeable
        payload = np.frombuffer(data, dtype=np.uint8)
        assert np.shares_memory(frames, payload)
        assert np.shares_memory(labels, payload)

    def test_every_single_bit_flip_is_rejected(self):
        data = small_shard()
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FleetError):
                decode_shard(bytes(flipped))

    def test_every_proper_prefix_and_a_trailing_byte_are_rejected(self):
        data = small_shard()
        for end in range(len(data)):
            with pytest.raises(FleetError):
                decode_shard(data[:end])
        with pytest.raises(FleetError):
            decode_shard(data + b"\x00")

    def test_bad_magic_and_unknown_version_are_rejected(self):
        data = small_shard()
        with pytest.raises(FleetError, match="magic"):
            decode_shard(b"NPZ!" + data[4:])
        with pytest.raises(FleetError, match="version"):
            decode_shard(data[:4] + struct.pack("<I", 2) + data[8:])

    @pytest.mark.parametrize("field", ["n", "H", "W"])
    def test_header_disagreeing_with_length_is_rejected(self, field):
        data = small_shard()
        magic, version, n, height, width = struct.unpack_from("<4sIIII", data)
        dims = {"n": n, "H": height, "W": width}
        dims[field] += 1
        header = struct.pack(
            "<4sIIII", magic, version, dims["n"], dims["H"], dims["W"]
        )
        with pytest.raises(FleetError, match="header says"):
            decode_shard(header + data[len(header):])

    def test_npz_with_foreign_dtypes_is_rejected(self):
        """An npz that ``encode_shard`` could never write is not a shard."""
        buf = io.BytesIO()
        np.savez(
            buf,
            frames=np.zeros((2, 8, 8, 4), dtype=np.uint8),
            labels=np.zeros((2, 2), dtype=np.int64),
        )
        with pytest.raises(FleetError):
            decode_shard(buf.getvalue())

