"""Base class for the six DonkeyCar autopilot models.

"AutoLearn comes with six tested models, including linear, memory, 3D,
categorical, inferred, and RNN" — paper §3.3.  Every model maps camera
frames to ``(angle, throttle)`` and plugs into three surfaces:

* **training** — ``forward`` / ``compute_loss`` / ``backward`` /
  ``params`` / ``grads``, consumed by :class:`repro.ml.training.Trainer`;
* **batch evaluation** — :meth:`predict_batch` on arrays;
* **driving** — :meth:`run`, the DonkeyCar part interface: one uint8
  frame in, one ``(steering, throttle)`` out, with any sequence/memory
  state kept internally (exactly how the Keras parts behave on the Pi).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.common.errors import ShapeError
from repro.data.datasets import images_to_float
from repro.ml.layers import Conv2D, Dropout, Flatten
from repro.ml.losses import get_loss
from repro.ml.network import Sequential

__all__ = ["DonkeyModel", "default_backbone_layers"]


def default_backbone_layers(
    dropout: float = 0.2,
    scale: float = 1.0,
    seed: int = 0,
    input_shape: tuple[int, int, int] = (120, 160, 3),
):
    """DonkeyCar's standard 5-conv backbone (``core_cnn_layers``).

    ``scale`` multiplies the filter counts — unit tests shrink the
    network (and input) to keep numpy training fast; the default
    matches DonkeyCar (24/32/64/64/64).  Convolutions that would not
    fit the (possibly shrunken) input are dropped from the tail, so the
    same architecture definition adapts to any test image size.
    """

    def f(n: int) -> int:
        return max(2, int(round(n * scale)))

    specs = [
        (f(24), 5, 2),
        (f(32), 5, 2),
        (f(64), 5, 2),
        (f(64), 3, 1),
        (f(64), 3, 1),
    ]
    layers: list = []
    h, w = input_shape[0], input_shape[1]
    for idx, (filters, k, s) in enumerate(specs):
        if h < k or w < k:
            break
        layers.append(Conv2D(filters, k, s, activation="relu"))
        layers.append(Dropout(dropout, seed=seed + 1 + idx))
        h = (h - k) // s + 1
        w = (w - k) // s + 1
    if not layers:
        raise ShapeError(f"input {input_shape} too small for any conv layer")
    layers.append(Flatten())
    return layers


class DonkeyModel:
    """Common protocol for autopilot models.

    Class attributes
    ----------------
    name:
        Registry key (``"linear"``, ``"rnn"``, ...).
    sequence_length:
        0 for single-frame models; T for sequence models (the training
        loader builds rolling windows of this length).
    targets:
        Label layout requested from
        :meth:`repro.data.datasets.TubDataset.split`.
    """

    name: str = "base"
    sequence_length: int = 0
    targets: str = "both"

    def __init__(self, input_shape: tuple[int, int, int] = (120, 160, 3)) -> None:
        if len(input_shape) != 3 or input_shape[2] != 3:
            raise ShapeError(f"input_shape must be (H, W, 3), got {input_shape}")
        self.input_shape = tuple(int(d) for d in input_shape)
        self._frame_buffer: deque[np.ndarray] = deque(
            maxlen=max(1, self.sequence_length)
        )

    # ------------------------------------------------ training surface

    def _networks(self) -> list[Sequential]:
        """Every ``Sequential`` this model owns, in attribute order.

        That order is the parameter order of :attr:`params`,
        :attr:`grads` and so of every checkpoint.
        """
        return [v for v in self.__dict__.values() if isinstance(v, Sequential)]

    @staticmethod
    def _pass(net: Sequential, x, training: bool) -> np.ndarray:
        """``net``'s training plan forward, or its inference plan."""
        return net.training_plan().forward(x) if training else net.plan().run(x)

    def forward(self, x, training: bool = False) -> np.ndarray:
        """One pass through the compiled plans (x layout is model-specific).

        ``training=True`` runs each network's training plan (dropout
        on, activations kept for :meth:`backward`) and matches the layer
        loop, ``Sequential.forward``, bit for bit; ``training=False``
        runs the inference plans (allclose at float32 tolerances).  The
        result may be a plan-owned buffer, valid until the next pass at
        that batch size: copy it to keep it.  Models that compose
        several networks override this pair.
        """
        return self._pass(self.net, x, training)

    def backward(self, grad: np.ndarray) -> None:
        """Backpropagate the loss gradient of the last training pass.

        Must follow ``forward(x, training=True)``.  Fills every layer
        gradient in :attr:`grads`, which the next backward overwrites.
        Nothing reads the gradient with respect to the images, so the
        network that sees them is asked not to compute it.
        """
        self.net.training_plan().backward(grad, input_grad=False)

    @property
    def params(self) -> list[np.ndarray]:
        """Trainable parameters of every network, in :meth:`_networks` order."""
        return [p for net in self._networks() for p in net.params]

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradients aligned with :attr:`params`."""
        return [g for net in self._networks() for g in net.grads]

    @property
    def n_params(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.params)

    loss_name: str = "mse"

    def flops_per_sample(self) -> float:
        """Forward-pass FLOPs per sample, summed over every network."""
        return sum(net.flops_per_sample() for net in self._networks())

    def compute_loss(self, pred: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """(loss value, gradient w.r.t. predictions)."""
        return get_loss(self.loss_name)(pred, y)

    def get_weights(self) -> list[np.ndarray]:
        """Copies of all parameters."""
        return [p.copy() for p in self.params]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Load parameters in place."""
        params = self.params
        if len(weights) != len(params):
            raise ShapeError(
                f"weight count mismatch: model has {len(params)}, got {len(weights)}"
            )
        for param, weight in zip(params, weights):
            if param.shape != weight.shape:
                raise ShapeError(f"shape mismatch: {param.shape} vs {weight.shape}")
            param[...] = np.asarray(weight, dtype=param.dtype)

    def compile_plans(self) -> None:
        """Compile every network's inference plan ahead of time.

        Serving calls this when a model is pinned to a replica, so the
        first request pays no compile cost.
        """
        for net in self._networks():
            net.plan()

    # ---------------------------------------------- evaluation surface

    def predict_batch(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(angles, throttles) for a batch of model-layout inputs."""
        raise NotImplementedError

    def predict_frames(self, frames: np.ndarray) -> np.ndarray:
        """Serving surface: ``(B, H, W, 3)`` frames -> ``(B, 2)`` commands.

        One vectorised forward pass regardless of model family — the
        micro-batching server stacks independent per-vehicle frames, so
        sequence models see each frame tiled into a flat window and the
        memory model a zero control history (the same cold-start
        convention :meth:`run` uses before its buffers fill).  Accepts
        uint8 (converted) or float frames.
        """
        frames = np.asarray(frames)
        if frames.ndim != 4 or frames.shape[1:] != self.input_shape:
            raise ShapeError(
                f"frames must be (B,) + {self.input_shape}, got {frames.shape}"
            )
        if frames.dtype == np.uint8:
            x = images_to_float(frames)
        else:
            x = np.asarray(frames, dtype=np.float32)
        angle, throttle = self.predict_batch(self._serving_batch(x))
        return np.stack(
            [np.asarray(angle), np.asarray(throttle)], axis=1
        ).astype(np.float32)

    def _serving_batch(self, x: np.ndarray):
        """Adapt float frames ``(B, H, W, 3)`` to this model's input layout."""
        if self.sequence_length > 0:
            return np.repeat(x[:, None], self.sequence_length, axis=1)
        return x

    # ------------------------------------------------- driving surface

    def reset_state(self) -> None:
        """Clear sequence/memory buffers (start of a drive)."""
        self._frame_buffer.clear()

    def _float_frame(self, image: np.ndarray) -> np.ndarray:
        if image.shape != self.input_shape:
            raise ShapeError(
                f"frame shape {image.shape} != model input {self.input_shape}"
            )
        if image.dtype == np.uint8:
            return images_to_float(image[None])[0]
        return np.asarray(image, dtype=np.float32)

    def run(self, image: np.ndarray) -> tuple[float, float]:
        """One drive-loop tick: uint8 frame -> (steering, throttle).

        Sequence models replicate the first frame until their buffer
        fills (DonkeyCar behaviour at drive start).
        """
        frame = self._float_frame(image)
        if self.sequence_length > 0:
            while len(self._frame_buffer) < self.sequence_length:
                self._frame_buffer.append(frame)
            self._frame_buffer.append(frame)
            x = np.stack(self._frame_buffer)[None]  # (1, T, H, W, 3)
        else:
            x = frame[None]
        angle, throttle = self.predict_batch(x)
        return float(angle[0]), float(throttle[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(input={self.input_shape}, params={self.n_params})"
