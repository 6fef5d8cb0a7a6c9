"""Training shards: the wire format between vehicles and the trainer.

A shard is one vehicle flush — a batch of ``(frame, angle, throttle)``
records — serialised as one fixed-layout payload so it can live as one
object-store object.  All integers are little-endian:

=========  ============  ==========================================
offset     size (bytes)  field
=========  ============  ==========================================
0          4             magic ``b"ALSH"``
4          4             format version (``uint32``, currently 1)
8          4             ``n``, the record count (``uint32``)
12         4             ``H``, the frame height (``uint32``)
16         4             ``W``, the frame width (``uint32``)
20         4             CRC32 of every byte except this field
24         ``3nHW``      frames, ``(n, H, W, 3)`` ``uint8``, C order
24 + 3nHW  ``8n``        labels, ``(n, 2)`` ``<f4``, C order
=========  ============  ==========================================

Encoding is deterministic (no timestamps, no padding), so equal records
give equal bytes.  Decoding checks the magic, the version, the exact
length and the CRC before it touches the data, so a corrupt object
surfaces as a typed :class:`~repro.common.errors.FleetError` the ingest
stage can skip, not a crash.  A decoded shard is a pair of read-only
``np.frombuffer`` views of the payload: nothing is copied.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.common.errors import FleetError

__all__ = [
    "SHARD_CONTENT_TYPE",
    "SHARD_SUFFIX",
    "encode_shard",
    "decode_shard",
    "shard_records",
]

#: Object-store content type of an encoded shard.
SHARD_CONTENT_TYPE = "application/x-autolearn-shard"
#: Object-name suffix of an encoded shard.
SHARD_SUFFIX = ".shard"

_MAGIC = b"ALSH"
_VERSION = 1
# Everything in the header before the CRC field, then the CRC itself.
_PREFIX = struct.Struct("<4sIIII")
_CRC = struct.Struct("<I")
_HEADER_SIZE = _PREFIX.size + _CRC.size
_LABELS = np.dtype("<f4")


def encode_shard(frames: np.ndarray, labels: np.ndarray) -> bytes:
    """Serialise ``(n, H, W, 3)`` uint8 frames + ``(n, 2)`` labels."""
    frames = np.ascontiguousarray(frames)
    labels = np.ascontiguousarray(labels, dtype=_LABELS)
    if frames.ndim != 4 or frames.shape[3] != 3 or frames.dtype != np.uint8:
        raise FleetError(
            f"shard frames must be uint8 (n, H, W, 3), got "
            f"{frames.dtype} {frames.shape}"
        )
    if labels.ndim != 2 or labels.shape != (frames.shape[0], 2):
        raise FleetError(
            f"shard labels must be (n, 2) aligned with frames, got "
            f"{labels.shape} for {frames.shape[0]} frames"
        )
    n, height, width, _ = frames.shape
    prefix = _PREFIX.pack(_MAGIC, _VERSION, n, height, width)
    crc = zlib.crc32(labels, zlib.crc32(frames, zlib.crc32(prefix)))
    return b"".join((prefix, _CRC.pack(crc), frames, labels))


def decode_shard(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild ``(frames, labels)`` from :func:`encode_shard` output.

    Both arrays are read-only views of ``data``.  Raises
    :class:`~repro.common.errors.FleetError` for anything
    :func:`encode_shard` could not have written.
    """
    if len(data) < _HEADER_SIZE:
        raise FleetError(
            f"unreadable shard payload: {len(data)} bytes is shorter than "
            f"the {_HEADER_SIZE}-byte header"
        )
    magic, version, n, height, width = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise FleetError(f"unreadable shard payload: bad magic {magic!r}")
    if version != _VERSION:
        raise FleetError(f"unsupported shard format version {version}")
    frame_bytes = n * height * width * 3
    expected = _HEADER_SIZE + frame_bytes + n * _LABELS.itemsize * 2
    if len(data) != expected:
        raise FleetError(
            f"malformed shard: header says {n} records of {height}x{width} "
            f"({expected} bytes), payload has {len(data)}"
        )
    (stored_crc,) = _CRC.unpack_from(data, _PREFIX.size)
    body = memoryview(data)[_HEADER_SIZE:]
    if zlib.crc32(body, zlib.crc32(data[: _PREFIX.size])) != stored_crc:
        raise FleetError("corrupt shard payload: CRC32 mismatch")
    frames = np.frombuffer(
        data, dtype=np.uint8, count=frame_bytes, offset=_HEADER_SIZE
    ).reshape(n, height, width, 3)
    labels = np.frombuffer(
        data, dtype=_LABELS, count=2 * n, offset=_HEADER_SIZE + frame_bytes
    ).reshape(n, 2)
    return frames, labels


def shard_records(data: bytes) -> int:
    """Record count of an encoded shard (decodes and validates)."""
    frames, _ = decode_shard(data)
    return int(frames.shape[0])
