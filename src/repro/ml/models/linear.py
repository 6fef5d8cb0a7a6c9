"""KerasLinear equivalent: the beginner model.

"By default, a learner can start with the Linear model with an easy to
understand pipeline" — paper §3.3.  Standard conv backbone, two dense
layers, two linear outputs (angle, throttle), MSE loss.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Dense, Dropout
from repro.ml.models.base import DonkeyModel, default_backbone_layers
from repro.ml.network import Sequential

__all__ = ["LinearModel"]


class LinearModel(DonkeyModel):
    """Image -> (angle, throttle) regression."""

    name = "linear"
    sequence_length = 0
    targets = "both"
    loss_name = "mse"

    def __init__(
        self,
        input_shape: tuple[int, int, int] = (120, 160, 3),
        scale: float = 1.0,
        dropout: float = 0.2,
        seed: int = 0,
    ) -> None:
        super().__init__(input_shape)
        layers = default_backbone_layers(dropout=dropout, scale=scale, seed=seed, input_shape=input_shape)
        layers += [
            Dense(max(8, int(100 * scale)), activation="relu"),
            Dropout(dropout, seed=seed + 6),
            Dense(max(4, int(50 * scale)), activation="relu"),
            Dropout(dropout, seed=seed + 7),
            Dense(2, activation="linear"),
        ]
        self.net = Sequential(layers, input_shape, seed=seed)

    def predict_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = self.net.predict(x)
        angle = np.clip(out[:, 0], -1.0, 1.0)
        throttle = np.clip(out[:, 1], -1.0, 1.0)
        return angle, throttle
