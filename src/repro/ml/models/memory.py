"""KerasMemory equivalent: image + recent control history.

The memory model conditions on the last ``mem_length`` (angle,
throttle) commands in addition to the current frame — the network
learns temporal smoothness without the cost of sequence convolutions.
Training inputs are ``(images, history)`` tuples; at drive time the
model keeps its own rolling control buffer (seeded with zeros, as the
DonkeyCar part does).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.common.errors import ShapeError
from repro.ml.layers import Dense, Dropout
from repro.ml.models.base import DonkeyModel, default_backbone_layers
from repro.ml.network import Sequential

__all__ = ["MemoryModel"]


class MemoryModel(DonkeyModel):
    """(image, past controls) -> (angle, throttle)."""

    name = "memory"
    sequence_length = 0  # frames are single; history is control-side
    targets = "memory"  # handled by TubDataset.split_memory
    loss_name = "mse"

    def __init__(
        self,
        input_shape: tuple[int, int, int] = (120, 160, 3),
        scale: float = 1.0,
        dropout: float = 0.2,
        seed: int = 0,
        mem_length: int = 3,
    ) -> None:
        super().__init__(input_shape)
        if mem_length < 1:
            raise ShapeError(f"mem_length must be >= 1, got {mem_length}")
        self.mem_length = int(mem_length)
        trunk = default_backbone_layers(dropout=dropout, scale=scale, seed=seed, input_shape=input_shape)
        trunk += [Dense(max(8, int(100 * scale)), activation="relu")]
        self.trunk = Sequential(trunk, input_shape, seed=seed)
        feat_dim = self.trunk.output_shape[0]
        head_in = feat_dim + 2 * self.mem_length
        self.head = Sequential(
            [
                Dense(max(4, int(50 * scale)), activation="relu"),
                Dropout(dropout, seed=seed + 10),
                Dense(2, activation="linear"),
            ],
            (head_in,),
            seed=seed + 300,
        )
        self._feat_dim = feat_dim
        self._control_buffer: deque[tuple[float, float]] = deque(maxlen=self.mem_length)

    # ------------------------------------------------------------ pass

    def forward(
        self, x: tuple[np.ndarray, np.ndarray], training: bool = False
    ) -> np.ndarray:
        images, history = self._unpack(x)
        feat = self._pass(self.trunk, images, training)
        joined = np.concatenate([feat, history.reshape(len(history), -1)], axis=1)
        return self._pass(self.head, joined, training)

    def backward(self, grad: np.ndarray) -> None:
        g_joined = self.head.training_plan().backward(grad)
        self.trunk.training_plan().backward(
            g_joined[:, : self._feat_dim], input_grad=False
        )

    def _unpack(self, x) -> tuple[np.ndarray, np.ndarray]:
        if not (isinstance(x, (tuple, list)) and len(x) == 2):
            raise ShapeError(
                "memory model expects (images, history) input; build it with "
                "TubDataset.split_memory()"
            )
        images, history = x
        history = np.asarray(history, dtype=np.float32)
        if history.reshape(len(history), -1).shape[1] != 2 * self.mem_length:
            raise ShapeError(
                f"history must have {2 * self.mem_length} values per sample, "
                f"got shape {history.shape}"
            )
        return images, history

    # ------------------------------------------------------- inference

    def predict_batch(
        self, x: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        images, history = self._unpack(x)
        feat = self.trunk.predict(images)
        joined = np.concatenate([feat, history.reshape(len(history), -1)], axis=1)
        out = self.head.predict(joined)
        return np.clip(out[:, 0], -1, 1), np.clip(out[:, 1], -1, 1)

    def _serving_batch(self, x: np.ndarray):
        """Serving layout: pair each frame with a zero control history."""
        history = np.zeros((len(x), self.mem_length, 2), dtype=np.float32)
        return (x, history)

    def reset_state(self) -> None:
        super().reset_state()
        self._control_buffer.clear()

    def run(self, image: np.ndarray) -> tuple[float, float]:
        """Drive tick: uses (and updates) the internal control buffer."""
        frame = self._float_frame(image)
        while len(self._control_buffer) < self.mem_length:
            self._control_buffer.append((0.0, 0.0))
        history = np.asarray(self._control_buffer, dtype=np.float32)[None]
        angle, throttle = self.predict_batch((frame[None], history))
        result = float(angle[0]), float(throttle[0])
        self._control_buffer.append(result)
        return result
