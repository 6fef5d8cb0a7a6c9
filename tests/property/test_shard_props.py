"""Property-based checks of the shard wire format.

Whatever bytes arrive from the object store, ``decode_shard`` either
returns a shard or raises :class:`FleetError`: never a ``struct``,
numpy or indexing error.  Every shard ``encode_shard`` writes decodes
back to the same records, as read-only views of the payload.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FleetError
from repro.fleet.shards import decode_shard, encode_shard


@st.composite
def shards(draw):
    """Random records with ``n`` from 0 and small frame sizes."""
    n = draw(st.integers(min_value=0, max_value=5))
    height = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(n, height, width, 3), dtype=np.uint8)
    labels = rng.normal(0.0, 2.0, size=(n, 2)).astype(np.float32)
    return frames, labels


def decode_or_fleet_error(data: bytes) -> None:
    try:
        frames, labels = decode_shard(data)
    except FleetError:
        return
    assert frames.dtype == np.uint8 and frames.ndim == 4
    assert labels.shape == (frames.shape[0], 2)


class TestShardProperties:
    @settings(max_examples=100, deadline=None)
    @given(shards())
    def test_round_trip(self, shard):
        frames, labels = shard
        data = encode_shard(frames, labels)
        back_frames, back_labels = decode_shard(data)
        assert np.array_equal(back_frames, frames)
        assert np.array_equal(back_labels, labels)
        assert not back_frames.flags.writeable
        assert not back_labels.flags.writeable
        payload = np.frombuffer(data, dtype=np.uint8)
        if frames.size:
            assert np.shares_memory(back_frames, payload)
        if labels.size:
            assert np.shares_memory(back_labels, payload)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes_decode_or_raise_fleet_error(self, data):
        decode_or_fleet_error(data)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.binary(max_size=128),
    )
    def test_arbitrary_header_fields_decode_or_raise_fleet_error(
        self, version, n, height, width, rest
    ):
        header = struct.pack("<4sIIII", b"ALSH", version, n, height, width)
        decode_or_fleet_error(header + rest)

    @settings(max_examples=200, deadline=None)
    @given(shards(), st.data())
    def test_any_changed_byte_is_rejected(self, shard, data):
        payload = bytearray(encode_shard(*shard))
        index = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        delta = data.draw(st.integers(min_value=1, max_value=255))
        payload[index] ^= delta
        with pytest.raises(FleetError):
            decode_shard(bytes(payload))
