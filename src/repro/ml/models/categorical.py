"""KerasCategorical equivalent: 15-way binned steering.

Steering is discretised into 15 bins predicted with softmax +
cross-entropy (more robust to multimodal labels than regression);
throttle keeps a linear regression column.  The combined loss is
``CCE(angle bins) + throttle_weight * MSE(throttle)`` — DonkeyCar's
0.5 angle/throttle loss weighting translated to this two-head layout.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ShapeError
from repro.data.datasets import N_STEERING_BINS, linear_unbin
from repro.ml.layers import Dense, Dropout
from repro.ml.losses import categorical_crossentropy, mse
from repro.ml.models.base import DonkeyModel, default_backbone_layers
from repro.ml.network import Sequential

__all__ = ["CategoricalModel"]


class CategoricalModel(DonkeyModel):
    """Image -> (15-bin steering softmax, linear throttle)."""

    name = "categorical"
    sequence_length = 0
    targets = "categorical"  # y = [15 one-hot columns, throttle]

    def __init__(
        self,
        input_shape: tuple[int, int, int] = (120, 160, 3),
        scale: float = 1.0,
        dropout: float = 0.2,
        seed: int = 0,
        throttle_weight: float = 0.5,
    ) -> None:
        super().__init__(input_shape)
        self.throttle_weight = float(throttle_weight)
        trunk = default_backbone_layers(dropout=dropout, scale=scale, seed=seed, input_shape=input_shape)
        trunk += [
            Dense(max(8, int(100 * scale)), activation="relu"),
            Dropout(dropout, seed=seed + 6),
            Dense(max(4, int(50 * scale)), activation="relu"),
        ]
        self.trunk = Sequential(trunk, input_shape, seed=seed)
        feat = self.trunk.output_shape
        self.angle_head = Sequential(
            [Dense(N_STEERING_BINS, activation="softmax")], feat, seed=seed + 100
        )
        self.throttle_head = Sequential(
            [Dense(1, activation="linear")], feat, seed=seed + 200
        )

    # ------------------------------------------------------------ pass

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        feat = self.trunk.forward(x, training)
        probs = self.angle_head.forward(feat, training)
        throttle = self.throttle_head.forward(feat, training)
        return np.concatenate([probs, throttle], axis=1)

    def compute_loss(self, pred: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        if y.shape[1] != N_STEERING_BINS + 1:
            raise ShapeError(
                f"categorical targets must have {N_STEERING_BINS + 1} columns, "
                f"got {y.shape[1]}"
            )
        probs, throttle = pred[:, :N_STEERING_BINS], pred[:, N_STEERING_BINS:]
        bins, t_true = y[:, :N_STEERING_BINS], y[:, N_STEERING_BINS:]
        ce_val, ce_grad = categorical_crossentropy(probs, bins)
        t_val, t_grad = mse(throttle, t_true)
        grad = np.concatenate([ce_grad, self.throttle_weight * t_grad], axis=1)
        return ce_val + self.throttle_weight * t_val, grad.astype(np.float32)

    def backward(self, grad: np.ndarray) -> None:
        g_angle = self.angle_head.backward(grad[:, :N_STEERING_BINS])
        g_throttle = self.throttle_head.backward(grad[:, N_STEERING_BINS:])
        self.trunk.backward(g_angle + g_throttle)

    def fast_forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            feat = self.trunk.training_plan().forward(x)
            probs = self.angle_head.training_plan().forward(feat)
            throttle = self.throttle_head.training_plan().forward(feat)
        else:
            feat = self.trunk.plan().run(x)
            probs = self.angle_head.plan().run(feat)
            throttle = self.throttle_head.plan().run(feat)
        return np.concatenate([probs, throttle], axis=1)

    def fast_backward(self, grad: np.ndarray) -> None:
        g_angle = self.angle_head.training_plan().backward(grad[:, :N_STEERING_BINS])
        g_throttle = self.throttle_head.training_plan().backward(
            grad[:, N_STEERING_BINS:]
        )
        self.trunk.training_plan().backward(g_angle + g_throttle, input_grad=False)

    @property
    def params(self) -> list[np.ndarray]:
        return self.trunk.params + self.angle_head.params + self.throttle_head.params

    @property
    def grads(self) -> list[np.ndarray]:
        return self.trunk.grads + self.angle_head.grads + self.throttle_head.grads

    def flops_per_sample(self) -> float:
        """Trunk plus both heads."""
        return (
            self.trunk.flops_per_sample()
            + self.angle_head.flops_per_sample()
            + self.throttle_head.flops_per_sample()
        )

    # ------------------------------------------------------- inference

    def predict_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        feat = self.trunk.predict(x)
        probs = self.angle_head.predict(feat)
        throttle = self.throttle_head.predict(feat)
        angle = linear_unbin(probs)
        return angle, np.clip(throttle[:, 0], -1.0, 1.0)
