"""Keras3D_CNN equivalent: spatio-temporal convolutions.

Consumes a rolling window of frames ``(T, H, W, 3)`` and convolves over
time and space jointly.  The most compute-hungry of the six — the paper
trains it on datacenter GPUs; experiment E2's GPU cost model charges it
the most FLOPs.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.ml.layers import Conv3D, Dense, Dropout, Flatten
from repro.ml.models.base import DonkeyModel
from repro.ml.network import Sequential

__all__ = ["Conv3DModel"]


class Conv3DModel(DonkeyModel):
    """Frame window -> (angle, throttle) via 3-D convolutions."""

    name = "3d"
    sequence_length = 5
    targets = "both"
    loss_name = "mse"

    def __init__(
        self,
        input_shape: tuple[int, int, int] = (120, 160, 3),
        scale: float = 1.0,
        dropout: float = 0.2,
        seed: int = 0,
        sequence_length: int = 5,
    ) -> None:
        super().__init__(input_shape)
        self.sequence_length = int(sequence_length)
        if self.sequence_length < 5:
            raise ValueError("3d model needs sequence_length >= 5 (two kt=3 convs)")
        self._frame_buffer = deque(maxlen=self.sequence_length)

        def f(n: int) -> int:
            return max(2, int(round(n * scale)))

        layers = [
            Conv3D(f(16), (3, 5, 5), (1, 3, 3), activation="relu"),
            Dropout(dropout, seed=seed + 1),
            Conv3D(f(32), (3, 3, 3), (1, 2, 2), activation="relu"),
            Dropout(dropout, seed=seed + 2),
            Flatten(),
            Dense(max(8, int(100 * scale)), activation="relu"),
            Dropout(dropout, seed=seed + 3),
            Dense(2, activation="linear"),
        ]
        self.net = Sequential(
            layers, (self.sequence_length, *input_shape), seed=seed
        )

    def predict_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = self.net.predict(x, batch_size=32)
        return np.clip(out[:, 0], -1, 1), np.clip(out[:, 1], -1, 1)
