"""KerasRNN_LSTM equivalent: time-distributed CNN feeding an LSTM.

A small conv backbone is applied to each frame of a short window
(time folded into the batch — a reshape, not a copy), the per-frame
features feed an LSTM, and the final hidden state regresses (angle,
throttle).
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import LSTM, Conv2D, Dense, Dropout, Flatten, TimeDistributed
from repro.ml.models.base import DonkeyModel
from repro.ml.network import Sequential

__all__ = ["RNNModel"]


class RNNModel(DonkeyModel):
    """Frame window -> LSTM -> (angle, throttle)."""

    name = "rnn"
    sequence_length = 3
    targets = "both"
    loss_name = "mse"

    def __init__(
        self,
        input_shape: tuple[int, int, int] = (120, 160, 3),
        scale: float = 1.0,
        dropout: float = 0.2,
        seed: int = 0,
        sequence_length: int = 3,
        lstm_units: int | None = None,
    ) -> None:
        super().__init__(input_shape)
        self.sequence_length = int(sequence_length)
        if self.sequence_length < 2:
            raise ValueError("rnn model needs sequence_length >= 2")
        from collections import deque

        self._frame_buffer = deque(maxlen=self.sequence_length)
        units = lstm_units or max(8, int(64 * scale))

        def f(n: int) -> int:
            return max(2, int(round(n * scale)))

        layers = [
            TimeDistributed(Conv2D(f(24), 5, 2, activation="relu")),
            TimeDistributed(Conv2D(f(32), 5, 2, activation="relu")),
            TimeDistributed(Conv2D(f(32), 3, 2, activation="relu")),
            TimeDistributed(Flatten()),
            TimeDistributed(Dense(max(8, int(64 * scale)), activation="relu")),
            LSTM(units, return_sequences=False),
            Dropout(dropout, seed=seed + 1),
            Dense(max(4, int(32 * scale)), activation="relu"),
            Dense(2, activation="linear"),
        ]
        self.net = Sequential(
            layers, (self.sequence_length, *input_shape), seed=seed
        )

    def predict_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = self.net.predict(x, batch_size=32)
        return np.clip(out[:, 0], -1, 1), np.clip(out[:, 1], -1, 1)
