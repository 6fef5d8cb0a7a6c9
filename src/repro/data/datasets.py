"""Dataset views over tubs: arrays, splits, batches, augmentation.

The training stage ("the student copies the training data using rsync
command and can begin the training process", §3.3) consumes tubs as
numpy arrays.  This module provides the loader used by every model in
:mod:`repro.ml.models`, including the sequence windows needed by the
memory/3D/RNN models, plus DonkeyCar's 15-way steering binning used by
the categorical model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.common.errors import DataError
from repro.common.rng import ensure_rng
from repro.data.tub import Tub

__all__ = [
    "TubDataset",
    "ArraySplit",
    "images_to_float",
    "linear_bin",
    "linear_unbin",
    "augment_flip",
    "augment_brightness",
    "N_STEERING_BINS",
]

#: DonkeyCar's categorical head discretises steering into 15 bins.
N_STEERING_BINS = 15


def images_to_float(images: np.ndarray) -> np.ndarray:
    """uint8 HxWx3 frames -> float32 in [0, 1] (Keras-style scaling).

    Scales the float32 copy in place, so a conversion holds one float
    copy of the frames, not two.
    """
    if images.dtype != np.uint8:
        raise DataError(f"expected uint8 images, got {images.dtype}")
    floats = images.astype(np.float32)
    floats /= 255.0
    return floats


def linear_bin(values: np.ndarray, n_bins: int = N_STEERING_BINS) -> np.ndarray:
    """One-hot bin values in [-1, 1] into ``n_bins`` classes.

    Reproduces DonkeyCar's ``linear_bin``: bin k covers the value
    ``-1 + 2k/(n-1)`` with nearest-neighbour assignment.
    """
    vals = np.clip(np.asarray(values, dtype=np.float64), -1.0, 1.0)
    idx = np.round((vals + 1.0) / 2.0 * (n_bins - 1)).astype(np.int64)
    out = np.zeros((len(idx), n_bins), dtype=np.float32)
    out[np.arange(len(idx)), idx] = 1.0
    return out


def linear_unbin(onehot: np.ndarray, n_bins: int = N_STEERING_BINS) -> np.ndarray:
    """Inverse of :func:`linear_bin` (argmax to bin centre)."""
    arr = np.asarray(onehot, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n_bins:
        raise DataError(f"expected (N, {n_bins}) array, got {arr.shape}")
    idx = arr.argmax(axis=1)
    return -1.0 + 2.0 * idx / (n_bins - 1)


def augment_flip(
    images: np.ndarray, angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal flip with steering negation (classic lane augmentation)."""
    return images[:, :, ::-1].copy(), -np.asarray(angles)


def augment_brightness(
    images: np.ndarray,
    rng: int | np.random.Generator | None = None,
    low: float = 0.7,
    high: float = 1.3,
) -> np.ndarray:
    """Random per-frame brightness scaling (uint8 in, uint8 out)."""
    gen = ensure_rng(rng)
    gains = gen.uniform(low, high, size=(len(images), 1, 1, 1)).astype(np.float32)
    return np.clip(images.astype(np.float32) * gains, 0, 255).astype(np.uint8)


@dataclass
class ArraySplit:
    """Train/validation arrays produced by :meth:`TubDataset.split`."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray


class TubDataset:
    """Array view over one or more tubs (deleted records excluded).

    Images are loaded once into a contiguous uint8 block (a 20K-record
    tub at 120x160x3 is ~1.1 GB as float32 but only ~280 MB as uint8 —
    we keep uint8 and convert per batch, the standard trick for fitting
    DonkeyCar datasets in small-GPU memory).
    """

    def __init__(self, tubs: Tub | list[Tub]) -> None:
        self.tubs = [tubs] if isinstance(tubs, Tub) else list(tubs)
        if not self.tubs:
            raise DataError("need at least one tub")
        self._images: np.ndarray | None = None
        self._angles: np.ndarray | None = None
        self._throttles: np.ndarray | None = None

    # ---------------------------------------------------------- loading

    def load_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(images uint8 (N,H,W,3), angles (N,), throttles (N,))."""
        if self._images is None:
            images, angles, throttles = [], [], []
            for tub in self.tubs:
                for index in tub.indexes():
                    fields = tub.read_fields(index)
                    images.append(tub.load_image(index))
                    angles.append(float(fields["user/angle"]))
                    throttles.append(float(fields["user/throttle"]))
            if not images:
                raise DataError("dataset is empty (all records deleted?)")
            self._images = np.stack(images)
            self._angles = np.asarray(angles, dtype=np.float32)
            self._throttles = np.asarray(throttles, dtype=np.float32)
        return self._images, self._angles, self._throttles

    def __len__(self) -> int:
        return sum(len(tub.indexes()) for tub in self.tubs)

    # ----------------------------------------------------------- splits

    def split(
        self,
        val_fraction: float = 0.2,
        rng: int | np.random.Generator | None = None,
        targets: str = "both",
        sequence_length: int = 0,
        flip_augment: bool = False,
    ) -> ArraySplit:
        """Shuffled train/val split as float32 arrays.

        ``targets`` selects the label layout: ``"both"`` gives
        ``(N, 2)`` [angle, throttle]; ``"angle"`` / ``"throttle"`` give
        ``(N, 1)``; ``"categorical"`` gives the one-hot steering bins
        plus a throttle column appended (the categorical model's
        two-head layout is handled model-side).

        ``sequence_length > 0`` returns rolling windows
        ``(N, T, H, W, 3)`` for the memory/3D/RNN models; labels are
        taken at the window's last frame, and windows never span tub
        boundaries.

        ``flip_augment`` doubles the data with horizontally mirrored
        frames and negated steering (the standard lane-symmetric
        augmentation; applied before the train/val split so both sides
        stay balanced).
        """
        if not 0.0 < val_fraction < 1.0:
            raise DataError(f"val_fraction must be in (0, 1), got {val_fraction}")
        images, angles, throttles = self.load_arrays()
        x = images_to_float(images)
        if flip_augment:
            x = np.concatenate([x, x[:, :, ::-1]])
            angles = np.concatenate([angles, -angles])
            throttles = np.concatenate([throttles, throttles])
        if sequence_length > 0:
            if flip_augment:
                raise DataError(
                    "flip_augment is not supported with sequence windows"
                )
            x, keep = self._windows(x, sequence_length)
            angles = angles[keep]
            throttles = throttles[keep]

        if targets == "both":
            y = np.column_stack([angles, throttles]).astype(np.float32)
        elif targets == "angle":
            y = angles[:, None].astype(np.float32)
        elif targets == "throttle":
            y = throttles[:, None].astype(np.float32)
        elif targets == "categorical":
            y = np.column_stack(
                [linear_bin(angles), throttles[:, None]]
            ).astype(np.float32)
        else:
            raise DataError(f"unknown targets spec: {targets!r}")

        gen = ensure_rng(rng)
        order = gen.permutation(len(x))
        n_val = max(1, int(round(val_fraction * len(x))))
        val_idx, train_idx = order[:n_val], order[n_val:]
        if len(train_idx) == 0:
            raise DataError("split left no training samples")
        return ArraySplit(
            x_train=x[train_idx],
            y_train=y[train_idx],
            x_val=x[val_idx],
            y_val=y[val_idx],
        )

    def split_memory(
        self,
        mem_length: int = 3,
        val_fraction: float = 0.2,
        rng: int | np.random.Generator | None = None,
    ) -> ArraySplit:
        """Split for the memory model: x = (images, control history).

        For each record *t* (skipping the first ``mem_length`` of every
        tub), the history input is the ``(angle, throttle)`` commands of
        records ``t-mem_length .. t-1`` and the label is the command at
        ``t``.
        """
        if mem_length < 1:
            raise DataError(f"mem_length must be >= 1, got {mem_length}")
        images, angles, throttles = self.load_arrays()
        controls = np.column_stack([angles, throttles]).astype(np.float32)
        counts = [len(tub.indexes()) for tub in self.tubs]
        keep, histories = [], []
        offset = 0
        for count in counts:
            for t in range(offset + mem_length, offset + count):
                keep.append(t)
                histories.append(controls[t - mem_length : t])
            offset += count
        if not keep:
            raise DataError(f"no tub has > {mem_length} records")
        keep_arr = np.asarray(keep, dtype=np.int64)
        x_img = images_to_float(images[keep_arr])
        x_hist = np.stack(histories)
        y = controls[keep_arr]

        gen = ensure_rng(rng)
        order = gen.permutation(len(keep_arr))
        n_val = max(1, int(round(val_fraction * len(order))))
        val_idx, train_idx = order[:n_val], order[n_val:]
        if len(train_idx) == 0:
            raise DataError("split left no training samples")
        return ArraySplit(
            x_train=(x_img[train_idx], x_hist[train_idx]),
            y_train=y[train_idx],
            x_val=(x_img[val_idx], x_hist[val_idx]),
            y_val=y[val_idx],
        )

    def _windows(
        self, x: np.ndarray, seq_len: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rolling windows per tub; returns (windows, kept label idx)."""
        if seq_len < 2:
            raise DataError(f"sequence_length must be >= 2, got {seq_len}")
        counts = [len(tub.indexes()) for tub in self.tubs]
        windows, keep = [], []
        offset = 0
        for count in counts:
            block = x[offset : offset + count]
            if count >= seq_len:
                # stride-tricks rolling window over the time axis (view,
                # then one copy into the output stack).
                view = np.lib.stride_tricks.sliding_window_view(
                    block, seq_len, axis=0
                )  # (count-T+1, H, W, 3, T)
                windows.append(np.moveaxis(view, -1, 1))
                keep.extend(range(offset + seq_len - 1, offset + count))
            offset += count
        if not windows:
            raise DataError(
                f"no tub has >= {seq_len} records; cannot build sequences"
            )
        return np.concatenate(windows), np.asarray(keep, dtype=np.int64)

    # ---------------------------------------------------------- batches

    @staticmethod
    def batches(
        x,
        y: np.ndarray,
        batch_size: int,
        rng: int | np.random.Generator | None = None,
        shuffle: bool = True,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield mini-batches (one epoch).

        ``x`` may be a single array or a tuple of aligned arrays (the
        memory model's ``(images, history)`` layout); tuples are sliced
        element-wise.
        """
        if batch_size <= 0:
            raise DataError(f"batch_size must be positive, got {batch_size}")
        parts = x if isinstance(x, (tuple, list)) else (x,)
        n = len(parts[0])
        if any(len(p) != n for p in parts) or len(y) != n:
            raise DataError("x parts and y must have equal length")
        order = ensure_rng(rng).permutation(n) if shuffle else np.arange(n)
        for lo in range(0, n, batch_size):
            sel = order[lo : lo + batch_size]
            batch = tuple(p[sel] for p in parts)
            yield (batch if isinstance(x, (tuple, list)) else batch[0]), y[sel]

    # ------------------------------------------------------- statistics

    def statistics(self) -> dict[str, float]:
        """Summary statistics used by the F2/F3 benchmarks."""
        _, angles, throttles = self.load_arrays()
        return {
            "records": float(len(angles)),
            "angle_mean": float(angles.mean()),
            "angle_std": float(angles.std()),
            "throttle_mean": float(throttles.mean()),
            "throttle_std": float(throttles.std()),
        }
