"""Neural-network layers with explicit forward/backward passes.

A deliberately small, Keras-shaped layer zoo covering everything the
six DonkeyCar models need: Dense, Conv2D, Conv3D, MaxPool2D/3D,
Flatten, Dropout, activations, TimeDistributed, and LSTM.

Convolutions use the *offset-accumulation* formulation instead of
im2col: for each kernel offset the contribution is one large matmul
over a strided **view** of the input (no materialised patch matrix).
With <= 5x5 (x3) kernels that is <= 25 (75) BLAS calls per layer and
no memory blow-up — the "vectorise the inner loop, keep views not
copies" idiom from the HPC guides.

All tensors are float32, batch-first, channels-last (Keras layout).

This stack is the *reference* implementation: clear, allocation-happy,
one Python call per layer.  :mod:`repro.ml.plan` compiles a built stack
into the plans every model runs (im2col GEMM convs, preallocated
buffers); their training kernels compute every value they return with
this module's per-element operations in this module's order, gathering
the operands with fewer numpy calls, pinned bitwise by the parity suite
in ``tests/ml/test_plan_parity.py``.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ShapeError
from repro.common.rng import ensure_rng
from repro.ml.initializers import glorot_uniform, orthogonal, zeros

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "Conv3D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
    "Activation",
    "TimeDistributed",
    "LSTM",
]


class Layer:
    """Base layer: stateful forward/backward with parameter lists."""

    def __init__(self) -> None:
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self.built = False

    # Subclasses override these three.
    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:  # reprolint: disable=seed-ignored  (parameterless base layer; weighted subclasses draw from rng)
        """Allocate parameters for the (batchless) ``input_shape``."""
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Batchless output shape for a batchless input shape."""
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> float:
        """Forward-pass FLOPs per sample (default: 2 per parameter)."""
        return 2.0 * self.n_params

    @property
    def n_params(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.params)

    def _check_built(self) -> None:
        if not self.built:
            raise ShapeError(f"{type(self).__name__} used before build()")


# ------------------------------------------------------------- dense


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(self, units: int, activation: str | None = None) -> None:
        super().__init__()
        if units <= 0:
            raise ShapeError(f"units must be positive, got {units}")
        self.units = units
        self.activation = Activation(activation) if activation else None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 1:
            raise ShapeError(f"Dense expects flat input, got shape {input_shape}")
        self.w = glorot_uniform((input_shape[0], self.units), rng)
        self.b = zeros((self.units,))
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self.built = True

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        self._x = x
        out = x @ self.w + self.b
        if self.activation is not None:
            out = self.activation.forward(out, training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.activation is not None:
            grad = self.activation.backward(grad)
        self.grads[0][...] = self._x.T @ grad
        self.grads[1][...] = grad.sum(axis=0)
        return grad @ self.w.T


# ------------------------------------------------------ convolutions


class Conv2D(Layer):
    """2-D convolution, 'valid' padding, channels-last.

    Kernel shape ``(KH, KW, Cin, Cout)``.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int | tuple[int, int],
        strides: int | tuple[int, int] = 1,
        activation: str | None = None,
    ) -> None:
        super().__init__()
        self.filters = int(filters)
        self.kh, self.kw = (
            (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        )
        self.sh, self.sw = (strides, strides) if isinstance(strides, int) else strides
        if min(self.kh, self.kw, self.sh, self.sw, self.filters) <= 0:
            raise ShapeError("kernel size, stride, and filters must be positive")
        self.activation = Activation(activation) if activation else None

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h - self.kh) // self.sh + 1
        ow = (w - self.kw) // self.sw + 1
        if oh <= 0 or ow <= 0:
            raise ShapeError(
                f"Conv2D kernel ({self.kh}x{self.kw}) larger than input ({h}x{w})"
            )
        return oh, ow

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ShapeError(f"Conv2D expects (H, W, C) input, got {input_shape}")
        cin = input_shape[2]
        self.k = glorot_uniform((self.kh, self.kw, cin, self.filters), rng)
        self.b = zeros((self.filters,))
        self.params = [self.k, self.b]
        self.grads = [np.zeros_like(self.k), np.zeros_like(self.b)]
        self.built = True

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        oh, ow = self._out_hw(input_shape[0], input_shape[1])
        return (oh, ow, self.filters)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        oh, ow = self._out_hw(input_shape[0], input_shape[1])
        cin = input_shape[2]
        return 2.0 * self.kh * self.kw * cin * self.filters * oh * ow

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        n, h, w, cin = x.shape
        oh, ow = self._out_hw(h, w)
        self._x = x
        self._oh, self._ow = oh, ow
        out = np.empty((n, oh, ow, self.filters), dtype=np.float32)
        out[:] = self.b
        for i in range(self.kh):
            for j in range(self.kw):
                patch = x[:, i : i + self.sh * oh : self.sh, j : j + self.sw * ow : self.sw]
                out += patch @ self.k[i, j]
        if self.activation is not None:
            out = self.activation.forward(out, training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.activation is not None:
            grad = self.activation.backward(grad)
        x = self._x
        n, h, w, cin = x.shape
        oh, ow = self._oh, self._ow
        grad2 = grad.reshape(-1, self.filters)
        self.grads[1][...] = grad2.sum(axis=0)
        dk = self.grads[0]
        dk[...] = 0.0
        dx = np.zeros_like(x)
        for i in range(self.kh):
            for j in range(self.kw):
                patch = x[:, i : i + self.sh * oh : self.sh, j : j + self.sw * ow : self.sw]
                dk[i, j] = patch.reshape(-1, cin).T @ grad2
                dx[:, i : i + self.sh * oh : self.sh, j : j + self.sw * ow : self.sw] += (
                    grad @ self.k[i, j].T
                )
        return dx


class Conv3D(Layer):
    """3-D convolution over (T, H, W, C), 'valid' padding.

    Used by the DonkeyCar ``3d`` model; kernel shape
    ``(KT, KH, KW, Cin, Cout)``.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: tuple[int, int, int],
        strides: tuple[int, int, int] = (1, 1, 1),
        activation: str | None = None,
    ) -> None:
        super().__init__()
        self.filters = int(filters)
        self.kt, self.kh, self.kw = kernel_size
        self.st, self.sh, self.sw = strides
        if min(self.kt, self.kh, self.kw, self.st, self.sh, self.sw, filters) <= 0:
            raise ShapeError("kernel size, stride, and filters must be positive")
        self.activation = Activation(activation) if activation else None

    def _out_thw(self, t: int, h: int, w: int) -> tuple[int, int, int]:
        ot = (t - self.kt) // self.st + 1
        oh = (h - self.kh) // self.sh + 1
        ow = (w - self.kw) // self.sw + 1
        if min(ot, oh, ow) <= 0:
            raise ShapeError(
                f"Conv3D kernel ({self.kt}x{self.kh}x{self.kw}) larger than "
                f"input ({t}x{h}x{w})"
            )
        return ot, oh, ow

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 4:
            raise ShapeError(f"Conv3D expects (T, H, W, C) input, got {input_shape}")
        cin = input_shape[3]
        self.k = glorot_uniform((self.kt, self.kh, self.kw, cin, self.filters), rng)
        self.b = zeros((self.filters,))
        self.params = [self.k, self.b]
        self.grads = [np.zeros_like(self.k), np.zeros_like(self.b)]
        self.built = True

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        ot, oh, ow = self._out_thw(*input_shape[:3])
        return (ot, oh, ow, self.filters)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        ot, oh, ow = self._out_thw(*input_shape[:3])
        cin = input_shape[3]
        return 2.0 * self.kt * self.kh * self.kw * cin * self.filters * ot * oh * ow

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        n, t, h, w, cin = x.shape
        ot, oh, ow = self._out_thw(t, h, w)
        self._x = x
        self._othw = (ot, oh, ow)
        out = np.empty((n, ot, oh, ow, self.filters), dtype=np.float32)
        out[:] = self.b
        for a in range(self.kt):
            for i in range(self.kh):
                for j in range(self.kw):
                    patch = x[
                        :,
                        a : a + self.st * ot : self.st,
                        i : i + self.sh * oh : self.sh,
                        j : j + self.sw * ow : self.sw,
                    ]
                    out += patch @ self.k[a, i, j]
        if self.activation is not None:
            out = self.activation.forward(out, training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.activation is not None:
            grad = self.activation.backward(grad)
        x = self._x
        ot, oh, ow = self._othw
        cin = x.shape[-1]
        grad2 = grad.reshape(-1, self.filters)
        self.grads[1][...] = grad2.sum(axis=0)
        dk = self.grads[0]
        dk[...] = 0.0
        dx = np.zeros_like(x)
        for a in range(self.kt):
            for i in range(self.kh):
                for j in range(self.kw):
                    sl = (
                        slice(None),
                        slice(a, a + self.st * ot, self.st),
                        slice(i, i + self.sh * oh, self.sh),
                        slice(j, j + self.sw * ow, self.sw),
                    )
                    dk[a, i, j] = x[sl].reshape(-1, cin).T @ grad2
                    dx[sl] += grad @ self.k[a, i, j].T
        return dx


class MaxPool2D(Layer):
    """Non-overlapping max pooling (pool size == stride)."""

    def __init__(self, pool_size: int | tuple[int, int] = 2) -> None:
        super().__init__()
        self.ph, self.pw = (
            (pool_size, pool_size) if isinstance(pool_size, int) else pool_size
        )
        if min(self.ph, self.pw) <= 0:
            raise ShapeError("pool size must be positive")
        self.built = True

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = input_shape
        return (h // self.ph, w // self.pw, c)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        return 0.0

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, h, w, c = x.shape
        oh, ow = h // self.ph, w // self.pw
        trimmed = x[:, : oh * self.ph, : ow * self.pw]
        blocks = trimmed.reshape(n, oh, self.ph, ow, self.pw, c)
        out = blocks.max(axis=(2, 4))
        self._x_shape = x.shape
        self._blocks = blocks
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, h, w, c = self._x_shape
        oh, ow = h // self.ph, w // self.pw
        mask = self._blocks == self._out[:, :, None, :, None, :]
        counts = mask.sum(axis=(2, 4), keepdims=True)
        dblocks = mask * (grad[:, :, None, :, None, :] / counts)
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        dx[:, : oh * self.ph, : ow * self.pw] = dblocks.reshape(
            n, oh * self.ph, ow * self.pw, c
        )
        return dx


# ---------------------------------------------------------- reshaping


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self.built = True

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(len(x), -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at inference."""

    def __init__(self, rate: float, seed: int | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = ensure_rng(seed)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (
            self._rng.random(x.shape) < keep
        ).astype(np.float32) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad if self._mask is None else grad * self._mask


# --------------------------------------------------------- activation


class Activation(Layer):
    """Elementwise activation: relu, tanh, sigmoid, linear, softmax.

    Softmax assumes it feeds a categorical cross-entropy whose
    ``backward`` provides the combined (logits) gradient, so its local
    backward is the identity — the standard fused formulation.
    """

    KNOWN = ("relu", "tanh", "sigmoid", "linear", "softmax")

    def __init__(self, name: str | None) -> None:
        super().__init__()
        name = name or "linear"
        if name not in self.KNOWN:
            raise ShapeError(f"unknown activation {name!r}; known: {self.KNOWN}")
        self.name = name
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if self.name == "relu":
            out = np.maximum(x, 0.0)
            self._cache = out
        elif self.name == "tanh":
            out = np.tanh(x)
            self._cache = out
        elif self.name == "sigmoid":
            out = 1.0 / (1.0 + np.exp(-x))
            self._cache = out
        elif self.name == "softmax":
            shifted = x - x.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            out = e / e.sum(axis=-1, keepdims=True)
            self._cache = out
        else:  # linear
            out = x
            self._cache = None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.name == "relu":
            return grad * (self._cache > 0)
        if self.name == "tanh":
            return grad * (1.0 - self._cache**2)
        if self.name == "sigmoid":
            return grad * self._cache * (1.0 - self._cache)
        # linear and (fused) softmax
        return grad


# --------------------------------------------------------- sequences


class TimeDistributed(Layer):
    """Apply an inner layer independently at every timestep.

    Implemented by folding time into the batch axis — a reshape view,
    no copies — exactly how Keras implements it.
    """

    def __init__(self, inner: Layer) -> None:
        super().__init__()
        self.inner = inner

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        self.inner.build(input_shape[1:], rng)
        self.params = self.inner.params
        self.grads = self.inner.grads
        self.built = True

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[0], *self.inner.output_shape(input_shape[1:]))

    def flops(self, input_shape: tuple[int, ...]) -> float:
        return input_shape[0] * self.inner.flops(input_shape[1:])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, t = x.shape[:2]
        self._nt = (n, t)
        flat = x.reshape(n * t, *x.shape[2:])
        out = self.inner.forward(flat, training)
        return out.reshape(n, t, *out.shape[1:])

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, t = self._nt
        flat = grad.reshape(n * t, *grad.shape[2:])
        dx = self.inner.backward(flat)
        return dx.reshape(n, t, *dx.shape[1:])


class LSTM(Layer):
    """Single-layer LSTM; returns the last hidden state or the sequence.

    Gate order (i, f, g, o) packed in one kernel, as in Keras.  Forget
    bias initialised to 1 (``unit_forget_bias=True``).
    """

    def __init__(self, units: int, return_sequences: bool = False) -> None:
        super().__init__()
        if units <= 0:
            raise ShapeError(f"units must be positive, got {units}")
        self.units = units
        self.return_sequences = return_sequences

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 2:
            raise ShapeError(f"LSTM expects (T, features) input, got {input_shape}")
        d, u = input_shape[1], self.units
        self.wx = glorot_uniform((d, 4 * u), rng)
        self.wh = orthogonal((u, 4 * u), rng)
        self.b = zeros((4 * u,))
        self.b[u : 2 * u] = 1.0  # forget-gate bias
        self.params = [self.wx, self.wh, self.b]
        self.grads = [np.zeros_like(self.wx), np.zeros_like(self.wh), np.zeros_like(self.b)]
        self.built = True

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.return_sequences:
            return (input_shape[0], self.units)
        return (self.units,)

    def flops(self, input_shape: tuple[int, ...]) -> float:
        t, d = input_shape
        return t * 2.0 * 4 * self.units * (d + self.units)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._check_built()
        n, t, d = x.shape
        u = self.units
        h = np.zeros((n, u), dtype=np.float32)
        c = np.zeros((n, u), dtype=np.float32)
        self._x = x
        self._cache = []
        hs = np.empty((n, t, u), dtype=np.float32)
        for step in range(t):
            z = x[:, step] @ self.wx + h @ self.wh + self.b
            i = _sigmoid(z[:, :u])
            f = _sigmoid(z[:, u : 2 * u])
            g = np.tanh(z[:, 2 * u : 3 * u])
            o = _sigmoid(z[:, 3 * u :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            self._cache.append((h, c, i, f, g, o, tanh_c))
            h, c = h_new, c_new
            hs[:, step] = h
        self._hs = hs
        return hs if self.return_sequences else hs[:, -1]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        n, t, d = x.shape
        u = self.units
        dwx, dwh, db = self.grads
        dwx[...] = 0.0
        dwh[...] = 0.0
        db[...] = 0.0
        dx = np.zeros_like(x)
        dh_next = np.zeros((n, u), dtype=np.float32)
        dc_next = np.zeros((n, u), dtype=np.float32)
        for step in range(t - 1, -1, -1):
            h_prev, c_prev, i, f, g, o, tanh_c = self._cache[step]
            dh = dh_next.copy()
            if self.return_sequences:
                dh += grad[:, step]
            elif step == t - 1:
                dh += grad
            do = dh * tanh_c
            dc = dc_next + dh * o * (1.0 - tanh_c**2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            dwx += x[:, step].T @ dz
            dwh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dx[:, step] = dz @ self.wx.T
            dh_next = dz @ self.wh.T
            dc_next = dc * f
        return dx


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable piecewise sigmoid.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
