"""KerasInferred equivalent — the paper's winning model.

"we found that the inferred model was best because it gave the car the
ability to speed fast, while still being accurate" — paper §3.3.

The network predicts *steering only*; throttle is **inferred** from the
steering magnitude at drive time: full commanded speed on straights,
slowing proportionally in curves.  Because the whole network capacity
is devoted to one output, steering is typically more accurate than the
two-output linear model, and the inference rule is what lets the car
"speed fast" — exactly the behaviour the paper reports and experiment
E1 reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.ml.layers import Dense, Dropout
from repro.ml.models.base import DonkeyModel, default_backbone_layers
from repro.ml.network import Sequential

__all__ = ["InferredModel"]


class InferredModel(DonkeyModel):
    """Image -> steering; throttle derived from steering magnitude."""

    name = "inferred"
    sequence_length = 0
    targets = "angle"
    loss_name = "mse"

    def __init__(
        self,
        input_shape: tuple[int, int, int] = (120, 160, 3),
        scale: float = 1.0,
        dropout: float = 0.2,
        seed: int = 0,
        max_throttle: float = 0.85,
        min_throttle: float = 0.35,
    ) -> None:
        super().__init__(input_shape)
        if not -1.0 <= min_throttle <= max_throttle <= 1.0:
            raise ConfigurationError(
                f"need -1 <= min_throttle <= max_throttle <= 1, got "
                f"{min_throttle}, {max_throttle}"
            )
        self.max_throttle = float(max_throttle)
        self.min_throttle = float(min_throttle)
        layers = default_backbone_layers(dropout=dropout, scale=scale, seed=seed, input_shape=input_shape)
        layers += [
            Dense(max(8, int(100 * scale)), activation="relu"),
            Dropout(dropout, seed=seed + 6),
            Dense(max(4, int(50 * scale)), activation="relu"),
            Dropout(dropout, seed=seed + 7),
            Dense(1, activation="linear"),
        ]
        self.net = Sequential(layers, input_shape, seed=seed)

    def infer_throttle(self, angle: np.ndarray) -> np.ndarray:
        """Throttle rule: fast when straight, slower when turning."""
        return self.max_throttle - np.abs(angle) * (
            self.max_throttle - self.min_throttle
        )

    def predict_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        angle = np.clip(self.net.predict(x)[:, 0], -1.0, 1.0)
        return angle, self.infer_throttle(angle)
