"""Compiled execution plans: the fast path for a built ``Sequential``.

The layer stack in :mod:`repro.ml.layers` is the *reference*
implementation — readable, allocation-happy, one Python call per layer
per batch.  This module compiles a built :class:`Sequential` into flat
step programs that run a whole pass with minimal Python dispatch:

* :class:`InferencePlan` — forward only.  Activation buffers are
  preallocated per batch size (re-keyed transparently when the batch
  size changes), convolutions run as a single im2col GEMM over an
  ``as_strided`` patch view copied into a cached column buffer, affine
  + activation kernels are fused in place, and every op is an
  ``out=``-style float32 numpy call.  Output parity with the reference
  stack is *allclose* at float32 tolerances (the GEMM changes the
  accumulation order).
* :class:`TrainingPlan` — forward + backward.  Every value a caller
  reads comes from the same per-element float32 operations, in the same
  order, as in the reference layers, so a training step through the
  plan produces **identical** post-step weights to the reference stack —
  the parity suite pins this exactly, not just approximately.  The
  operands are gathered differently: a convolution copies each tap's
  input patch once per forward, laid out as the reference lays out its
  weight-gradient operand, and multiplies a tap with one GEMM where
  that rounds as the reference's one-GEMM-per-output-row products do
  (checked per shape against the BLAS in use).  The gradient with
  respect to the plan's input is optional, because the network that
  sees the images never needs it.

Plans hold *views* of the layer parameters, so in-place weight updates
(``Sequential.set_weights``, optimizer steps) are visible without
recompiling.  Compiling a stack that contains an unsupported (custom)
layer type raises :class:`~repro.common.errors.PlanError`.

Arrays returned by ``run``/``forward``/``backward`` are workspace
buffers owned by the plan: they are overwritten by the next call at the
same batch size.  Copy them if they must outlive the next pass.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import sgemm

from repro.common.errors import PlanError, ShapeError
from repro.common.rng import ensure_rng
from repro.ml.layers import (
    LSTM,
    Activation,
    Conv2D,
    Conv3D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    TimeDistributed,
    _sigmoid,
)

__all__ = ["InferencePlan", "TrainingPlan", "MAX_BATCH_KEYS"]

#: Distinct batch sizes whose workspaces a plan keeps alive (LRU).
MAX_BATCH_KEYS = 16

_F32 = np.float32


# ------------------------------------------------------- activations


def _activate_inplace(name: str, buf: np.ndarray) -> None:
    """Fast fused activation, in place (inference: allclose parity)."""
    if name == "relu":
        np.maximum(buf, 0.0, out=buf)
    elif name == "tanh":
        np.tanh(buf, out=buf)
    elif name == "sigmoid":
        # Stable without the piecewise split: clip first (exp(60) is
        # finite in float64 scratch, the result rounds to 0/1 anyway).
        np.clip(buf, -60.0, 60.0, out=buf)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        buf += 1.0
        np.divide(1.0, buf, out=buf)
    elif name == "softmax":
        m = buf.max(axis=-1, keepdims=True)
        np.subtract(buf, m, out=buf)
        np.exp(buf, out=buf)
        s = buf.sum(axis=-1, keepdims=True)
        np.divide(buf, s, out=buf)
    # linear: nothing to do


def _affine_gemm(cols2: np.ndarray, k2: np.ndarray, b: np.ndarray, out2: np.ndarray) -> None:
    """``out2 = cols2 @ k2 + b`` with the bias fused into the GEMM.

    The broadcast bias becomes BLAS ``sgemm``'s ``beta=1`` accumulator
    (written via the F-contiguous transpose views), saving one full pass
    over the output.  An empty batch, which ``sgemm`` refuses, takes
    matmul + add.
    """
    if len(cols2):
        out2[:] = b
        sgemm(1.0, k2.T, cols2.T, beta=1.0, c=out2.T, overwrite_c=1)
    else:
        np.matmul(cols2, k2, out=out2)
        out2 += b


def _activate_mirror(name: str, buf: np.ndarray) -> None:
    """Activation bitwise-identical to ``Activation.forward``, in place."""
    if name == "relu":
        np.maximum(buf, 0.0, out=buf)
    elif name == "tanh":
        np.tanh(buf, out=buf)
    elif name == "sigmoid":
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        np.add(buf, 1.0, out=buf)
        np.divide(1.0, buf, out=buf)
    elif name == "softmax":
        m = buf.max(axis=-1, keepdims=True)
        np.subtract(buf, m, out=buf)
        np.exp(buf, out=buf)
        s = buf.sum(axis=-1, keepdims=True)
        np.divide(buf, s, out=buf)


def _act_backward_mirror(
    name: str, grad: np.ndarray, cache: np.ndarray, ws: dict
) -> np.ndarray:
    """Activation backward bitwise-identical to ``Activation.backward``."""
    if name in ("linear", "softmax"):
        return grad
    g = ws["gact"]
    t = ws["tact"]
    if name == "relu":
        np.greater(cache, 0, out=ws["mact"])
        np.multiply(grad, ws["mact"], out=g)
    elif name == "tanh":
        np.power(cache, 2, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(grad, t, out=g)
    else:  # sigmoid
        np.multiply(grad, cache, out=g)
        np.subtract(1.0, cache, out=t)
        g *= t
    return g


def _act_backward_buffers(name: str | None, shape: tuple[int, ...]) -> dict:
    if name in (None, "linear", "softmax"):
        return {}
    ws = {"gact": np.empty(shape, _F32), "tact": np.empty(shape, _F32)}
    if name == "relu":
        ws["mact"] = np.empty(shape, bool)
    return ws


@lru_cache(maxsize=1024)
def _merged_gemm_is_exact(
    calls: int, rows: int, inner: int, cols: int, lda: int, rhs_t: bool
) -> bool:
    """Whether one stacked GEMM rounds as the reference's per-row GEMMs do.

    For a 4-D operand numpy makes ``calls`` separate ``(rows, inner) @
    (inner, cols)`` BLAS calls, with the left rows ``lda`` floats apart
    (``rhs_t``: the right operand is a transposed view).  BLAS libraries
    pick kernels and row blocking by size, so one ``(calls * rows,
    inner)`` GEMM reproduces those bits for some shapes and not others.
    This runs both on three random draws, once per shape, with the BLAS
    in use.  A dimension of 1 makes numpy call matrix-vector kernels,
    which can differ from the merged call in a single element, too few
    for a probe to catch: those shapes keep the per-row calls.
    """
    if min(rows, inner, cols) == 1:
        return False
    rng = ensure_rng(0)
    for _draw in range(3):
        lhs = rng.standard_normal((calls, rows, lda), dtype=_F32)[:, :, :inner]
        if rhs_t:
            rhs = rng.standard_normal((cols, inner), dtype=_F32).T
        else:
            rhs = rng.standard_normal((inner, cols), dtype=_F32)
        per_row = np.matmul(lhs, rhs)
        merged = np.matmul(np.ascontiguousarray(lhs).reshape(-1, inner), rhs)
        if not np.array_equal(merged.reshape(per_row.shape), per_row):
            return False
    return True


# -------------------------------------------------------------- steps


class _Step:
    """One compiled layer: allocation + kernels for both plans."""

    #: Batchless input/output shapes, filled by the compiler.
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]

    def alloc_infer(self, n: int) -> dict:
        return {}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        raise NotImplementedError

    def alloc_train(self, n: int) -> dict:
        return {}

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        raise NotImplementedError


class _DenseStep(_Step):
    def __init__(self, layer: Dense) -> None:
        self.layer = layer
        self.act = layer.activation.name if layer.activation is not None else None

    def alloc_infer(self, n: int) -> dict:
        return {"out": np.empty((n, self.layer.units), _F32)}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.matmul(x, self.layer.w, out=out)
        out += self.layer.b
        if self.act is not None:
            _activate_inplace(self.act, out)
        return out

    def alloc_train(self, n: int) -> dict:
        shape = (n, self.layer.units)
        ws = {"out": np.empty(shape, _F32), "dx": np.empty((n, *self.in_shape), _F32)}
        ws.update(_act_backward_buffers(self.act, shape))
        return ws

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.matmul(x, self.layer.w, out=out)
        np.add(out, self.layer.b, out=out)
        if self.act is not None:
            _activate_mirror(self.act, out)
        ws["x"] = x
        return out

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        lay = self.layer
        if self.act is not None:
            grad = _act_backward_mirror(self.act, grad, ws["out"], ws)
        np.matmul(ws["x"].T, grad, out=lay.grads[0])
        np.sum(grad, axis=0, out=lay.grads[1])
        if not input_grad:
            return None
        return np.matmul(grad, lay.w.T, out=ws["dx"])


class _Conv2DStep(_Step):
    def __init__(self, layer: Conv2D, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        self.cin = in_shape[2]
        self.oh, self.ow = layer._out_hw(in_shape[0], in_shape[1])
        self.act = layer.activation.name if layer.activation is not None else None
        # Flat (KH*KW*Cin, F) view of the kernel for the im2col GEMM;
        # stays live across in-place weight updates.
        self.k2 = layer.k.reshape(-1, layer.filters)
        self.taps = list(product(range(layer.kh), range(layer.kw)))
        # Stride phase (p, q) of the input: rows p, p + SH, ... and
        # columns q, q + SW, ..., (h, w) of them, as many as its taps
        # read.  Tap (i, j) reads phase (i % SH, j % SW) from row i // SH
        # and column j // SW.
        self.phases = [
            (
                p,
                q,
                (layer.kh - 1 - p) // layer.sh + self.oh,
                (layer.kw - 1 - q) // layer.sw + self.ow,
            )
            for p in range(min(layer.sh, layer.kh))
            for q in range(min(layer.sw, layer.kw))
        ]

    def _patch_view(self, x: np.ndarray) -> np.ndarray:
        lay = self.layer
        sn, sh, sw, sc = x.strides
        return as_strided(
            x,
            shape=(len(x), self.oh, self.ow, lay.kh, lay.kw, self.cin),
            strides=(sn, lay.sh * sh, lay.sw * sw, sh, sw, sc),
        )

    def alloc_infer(self, n: int) -> dict:
        lay = self.layer
        cols = np.empty((n, self.oh, self.ow, lay.kh, lay.kw, self.cin), _F32)
        out = np.empty((n, self.oh, self.ow, lay.filters), _F32)
        return {
            "cols": cols,
            "cols2": cols.reshape(n * self.oh * self.ow, -1),
            "out": out,
            "out2": out.reshape(n * self.oh * self.ow, lay.filters),
        }

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.copyto(ws["cols"], self._patch_view(x))
        _affine_gemm(ws["cols2"], self.k2, self.layer.b, ws["out2"])
        if self.act is not None:
            _activate_inplace(self.act, out)
        return out

    def _patch_row_stride(self, n: int) -> int:
        """Row stride, in floats, of the reference's ``x[sl].reshape(-1, cin)``.

        numpy returns a view when the patch's image, row and column axes
        merge into one evenly strided axis, and a contiguous copy
        otherwise.  Matrix-vector BLAS kernels round by that stride.
        """
        lay = self.layer
        h, w, cin = self.in_shape
        axes = [
            (size, stride)
            for size, stride in (
                (n, h * w * cin), (self.oh, lay.sh * w * cin), (self.ow, lay.sw * cin)
            )
            if size > 1
        ]
        if axes and all(
            outer == size * inner for (_, outer), (size, inner) in zip(axes, axes[1:])
        ):
            return axes[-1][1]
        return cin

    def alloc_train(self, n: int) -> dict:
        lay = self.layer
        f, cin = lay.filters, self.cin
        shape = (n, self.oh, self.ow, f)
        rows = n * self.oh * self.ow
        # Tap (i, j) laid out as the reference's ``x[sl].reshape(-1, cin)``.
        taps2 = np.empty((lay.kh, lay.kw, rows, self._patch_row_stride(n)), _F32)
        taps2 = taps2[..., :cin]
        taps = taps2.reshape(lay.kh, lay.kw, n, self.oh, self.ow, cin)
        out = np.empty(shape, _F32)
        dx = np.empty((n, *self.in_shape), _F32)
        tmp_b = np.empty((n, self.oh, self.ow, cin), _F32)
        # The forward splits its input into these stride phases; the
        # backward reuses them to sum the input gradient.
        phases = {(p, q): np.empty((n, h, w, cin), _F32) for p, q, h, w in self.phases}
        # The reference multiplies 4-D operands: numpy makes one BLAS
        # call per (image, output row), n * OH per tap.  Where one GEMM
        # per tap rounds the same, the forward multiplies the gathered
        # patches, else the reference's own view of x; likewise the
        # input gradient's ``grad @ k[i, j].T``.
        calls = n * self.oh
        fwd_merged = _merged_gemm_is_exact(calls, self.ow, cin, f, lay.sw * cin, False)
        ws = {
            "out": out,
            "taps2": taps2,
            "taps3t": taps2.reshape(lay.kh * lay.kw, rows, cin).transpose(0, 2, 1),
            "dk3": lay.grads[0].reshape(lay.kh * lay.kw, cin, f),
            "fwd_merged": fwd_merged,
            "acc": out.reshape(rows, f) if fwd_merged else out,
            "dx_merged": _merged_gemm_is_exact(calls, self.ow, f, cin, f, True),
            "dx": dx,
            "tmp_b": tmp_b,
            "tmp_b2": tmp_b.reshape(rows, cin),
            "phases": list(phases.values()),
            # Per phase: the taps it fills, read through a strided view.
            "phase_taps": [],
            # Per phase: where it sits in dx.
            "phase_dx": [
                dx[:, p :: lay.sh, q :: lay.sw][:, :h, :w] for p, q, h, w in self.phases
            ],
            # Per tap: where its input-gradient term lands in its phase.
            "tap_dx": [
                phases[i % lay.sh, j % lay.sw][
                    :, i // lay.sh : i // lay.sh + self.oh, j // lay.sw : j // lay.sw + self.ow
                ]
                for i, j in self.taps
            ],
        }
        ws["prod"] = np.empty_like(ws["acc"])
        for (p, q), phase in phases.items():
            dst = taps[p :: lay.sh, q :: lay.sw]
            sn, sh, sw, sc = phase.strides
            src = as_strided(phase, shape=dst.shape, strides=(sh, sw, sn, sh, sw, sc))
            ws["phase_taps"].append((dst, src))
        ws.update(_act_backward_buffers(self.act, shape))
        return ws

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        lay = self.layer
        # Gather every tap's patch once.  The input is split into its
        # stride phases first so that each tap copies whole output rows.
        for (p, q, h, w), phase, (dst, src) in zip(
            self.phases, ws["phases"], ws["phase_taps"]
        ):
            np.copyto(phase, x[:, p :: lay.sh, q :: lay.sw][:, :h, :w])
            np.copyto(dst, src)
        if ws["fwd_merged"]:
            lhs = ws["taps2"]
        else:  # lhs[i, j] is the reference's x[sl], strides and all
            lhs = self._patch_view(x).transpose(3, 4, 0, 1, 2, 5)
        acc, prod = ws["acc"], ws["prod"]
        acc[:] = lay.b
        for i, j in self.taps:
            np.matmul(lhs[i, j], lay.k[i, j], out=prod)
            acc += prod
        out = ws["out"]
        if self.act is not None:
            _activate_mirror(self.act, out)
        return out

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        lay = self.layer
        if self.act is not None:
            grad = _act_backward_mirror(self.act, grad, ws["out"], ws)
        grad2 = grad.reshape(-1, lay.filters)
        np.sum(grad2, axis=0, out=lay.grads[1])
        # One call for every tap: numpy still makes the reference's
        # ``x[sl].reshape(-1, cin).T @ grad2`` BLAS call for each.
        np.matmul(ws["taps3t"], grad2, out=ws["dk3"])
        if not input_grad:
            return None
        tmp = ws["tmp_b"]
        g, prod = (grad2, ws["tmp_b2"]) if ws["dx_merged"] else (grad, tmp)
        for phase in ws["phases"]:
            phase[...] = 0.0
        # Each phase element sums its taps' terms in the reference's
        # (i, j) order, starting from zero, as ``dx[sl] += tmp`` does.
        for (i, j), site in zip(self.taps, ws["tap_dx"]):
            np.matmul(g, lay.k[i, j].T, out=prod)
            site += tmp
        dx = ws["dx"]
        dx[...] = 0.0
        for phase, site in zip(ws["phases"], ws["phase_dx"]):
            site[...] = phase
        return dx


class _Conv3DStep(_Step):
    def __init__(self, layer: Conv3D, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        self.cin = in_shape[3]
        self.ot, self.oh, self.ow = layer._out_thw(*in_shape[:3])
        self.act = layer.activation.name if layer.activation is not None else None
        self.k2 = layer.k.reshape(-1, layer.filters)
        self.taps = list(product(range(layer.kt), range(layer.kh), range(layer.kw)))

    def _patch_view(self, x: np.ndarray) -> np.ndarray:
        lay = self.layer
        sn, st, sh, sw, sc = x.strides
        return as_strided(
            x,
            shape=(len(x), self.ot, self.oh, self.ow, lay.kt, lay.kh, lay.kw, self.cin),
            strides=(sn, lay.st * st, lay.sh * sh, lay.sw * sw, st, sh, sw, sc),
        )

    def alloc_infer(self, n: int) -> dict:
        lay = self.layer
        rows = n * self.ot * self.oh * self.ow
        cols = np.empty(
            (n, self.ot, self.oh, self.ow, lay.kt, lay.kh, lay.kw, self.cin), _F32
        )
        out = np.empty((n, self.ot, self.oh, self.ow, lay.filters), _F32)
        return {
            "cols": cols,
            "cols2": cols.reshape(rows, -1),
            "out": out,
            "out2": out.reshape(rows, lay.filters),
        }

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.copyto(ws["cols"], self._patch_view(x))
        _affine_gemm(ws["cols2"], self.k2, self.layer.b, ws["out2"])
        if self.act is not None:
            _activate_inplace(self.act, out)
        return out

    def alloc_train(self, n: int) -> dict:
        lay = self.layer
        shape = (n, self.ot, self.oh, self.ow, lay.filters)
        ws = {
            "out": np.empty(shape, _F32),
            "tmp_f": np.empty(shape, _F32),
            "tmp_b": np.empty((n, self.ot, self.oh, self.ow, self.cin), _F32),
            "dx": np.empty((n, *self.in_shape), _F32),
        }
        ws.update(_act_backward_buffers(self.act, shape))
        return ws

    def _slices(self, a: int, i: int, j: int) -> tuple:
        lay = self.layer
        return (
            slice(None),
            slice(a, a + lay.st * self.ot, lay.st),
            slice(i, i + lay.sh * self.oh, lay.sh),
            slice(j, j + lay.sw * self.ow, lay.sw),
        )

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        lay = self.layer
        out = ws["out"]
        tmp = ws["tmp_f"]
        out[:] = lay.b
        for a in range(lay.kt):
            for i in range(lay.kh):
                for j in range(lay.kw):
                    np.matmul(x[self._slices(a, i, j)], lay.k[a, i, j], out=tmp)
                    out += tmp
        if self.act is not None:
            _activate_mirror(self.act, out)
        ws["x"] = x
        return out

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        lay = self.layer
        if self.act is not None:
            grad = _act_backward_mirror(self.act, grad, ws["out"], ws)
        x = ws["x"]
        grad2 = grad.reshape(-1, lay.filters)
        np.sum(grad2, axis=0, out=lay.grads[1])
        dk = lay.grads[0]
        for a, i, j in self.taps:
            sl = self._slices(a, i, j)
            np.matmul(x[sl].reshape(-1, self.cin).T, grad2, out=dk[a, i, j])
        if not input_grad:
            return None
        dx = ws["dx"]
        dx[...] = 0.0
        tmp = ws["tmp_b"]
        for a, i, j in self.taps:
            np.matmul(grad, lay.k[a, i, j].T, out=tmp)
            dx[self._slices(a, i, j)] += tmp
        return dx


class _MaxPool2DStep(_Step):
    def __init__(self, layer: MaxPool2D, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        h, w, c = in_shape
        self.oh, self.ow, self.c = h // layer.ph, w // layer.pw, c

    def _blocks_view(self, x: np.ndarray) -> np.ndarray:
        lay = self.layer
        sn, sh, sw, sc = x.strides
        return as_strided(
            x,
            shape=(len(x), self.oh, lay.ph, self.ow, lay.pw, self.c),
            strides=(sn, lay.ph * sh, sh, lay.pw * sw, sw, sc),
        )

    def alloc_infer(self, n: int) -> dict:
        return {"out": np.empty((n, self.oh, self.ow, self.c), _F32)}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.amax(self._blocks_view(x), axis=(2, 4), out=out)
        return out

    def alloc_train(self, n: int) -> dict:
        return {
            "out": np.empty((n, self.oh, self.ow, self.c), _F32),
            "dx": np.empty((n, *self.in_shape), _F32),
        }

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        blocks = self._blocks_view(x)
        np.amax(blocks, axis=(2, 4), out=out)
        ws["blocks"] = blocks
        return out

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        lay = self.layer
        out = ws["out"]
        mask = ws["blocks"] == out[:, :, None, :, None, :]
        counts = mask.sum(axis=(2, 4), keepdims=True)
        dblocks = mask * (grad[:, :, None, :, None, :] / counts)
        dx = ws["dx"]
        dx[...] = 0.0
        n = len(grad)
        dx[:, : self.oh * lay.ph, : self.ow * lay.pw] = dblocks.reshape(
            n, self.oh * lay.ph, self.ow * lay.pw, self.c
        )
        return dx


class _FlattenStep(_Step):
    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        return x.reshape(len(x), -1)

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        ws["shape"] = x.shape
        return x.reshape(len(x), -1)

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        return grad.reshape(ws["shape"])


class _DropoutStep(_Step):
    def __init__(self, layer: Dropout) -> None:
        self.layer = layer

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        return x

    def alloc_train(self, n: int) -> dict:
        shape = (n, *self.in_shape)
        return {"out": np.empty(shape, _F32), "dgrad": np.empty(shape, _F32)}

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        lay = self.layer
        if lay.rate == 0.0:
            ws["mask"] = None
            return x
        keep = 1.0 - lay.rate
        # Same draw, order, and expression as the reference layer so a
        # shared rng stream stays in lockstep with ``Dropout.forward``.
        mask = (lay._rng.random(x.shape) < keep).astype(np.float32) / keep
        ws["mask"] = mask
        return np.multiply(x, mask, out=ws["out"])

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        mask = ws["mask"]
        if mask is None:
            return grad
        return np.multiply(grad, mask, out=ws["dgrad"])


class _ActivationStep(_Step):
    def __init__(self, layer: Activation) -> None:
        self.layer = layer
        self.name = layer.name

    def alloc_infer(self, n: int) -> dict:
        if self.name == "linear":
            return {}
        return {"out": np.empty((n, *self.out_shape), _F32)}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        if self.name == "linear":
            return x
        out = ws["out"]
        np.copyto(out, x)
        _activate_inplace(self.name, out)
        return out

    def alloc_train(self, n: int) -> dict:
        if self.name == "linear":
            return {}
        shape = (n, *self.out_shape)
        ws = {"out": np.empty(shape, _F32)}
        ws.update(_act_backward_buffers(self.name, shape))
        return ws

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        if self.name == "linear":
            return x
        out = ws["out"]
        np.copyto(out, x)
        _activate_mirror(self.name, out)
        return out

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        if self.name == "linear":
            return grad
        return _act_backward_mirror(self.name, grad, ws["out"], ws)


class _TimeDistributedStep(_Step):
    def __init__(self, layer: TimeDistributed, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        self.t = in_shape[0]
        self.inner = _compile_layer(layer.inner, in_shape[1:])

    def alloc_infer(self, n: int) -> dict:
        return {"inner": self.inner.alloc_infer(n * self.t)}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        n = len(x)
        flat = x.reshape(n * self.t, *x.shape[2:])
        out = self.inner.infer(flat, ws["inner"])
        return out.reshape(n, self.t, *out.shape[1:])

    def alloc_train(self, n: int) -> dict:
        return {"inner": self.inner.alloc_train(n * self.t)}

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        n = len(x)
        flat = x.reshape(n * self.t, *x.shape[2:])
        out = self.inner.train_forward(flat, ws["inner"])
        return out.reshape(n, self.t, *out.shape[1:])

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        n = len(grad)
        flat = grad.reshape(n * self.t, *grad.shape[2:])
        dx = self.inner.backward(flat, ws["inner"], input_grad)
        if dx is None:
            return None
        return dx.reshape(n, self.t, *dx.shape[1:])


class _LSTMStep(_Step):
    def __init__(self, layer: LSTM, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        self.t, self.d = in_shape

    def alloc_infer(self, n: int) -> dict:
        u = self.layer.units
        ws = {
            "zx": np.empty((n * self.t, 4 * u), _F32),
            "z": np.empty((n, 4 * u), _F32),
            "h": np.empty((n, u), _F32),
            "c": np.empty((n, u), _F32),
            "tmp": np.empty((n, u), _F32),
        }
        if self.layer.return_sequences:
            ws["hs"] = np.empty((n, self.t, u), _F32)
        return ws

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        lay = self.layer
        n = len(x)
        u = lay.units
        zx = ws["zx"]
        np.matmul(x.reshape(n * self.t, self.d), lay.wx, out=zx)
        zx3 = zx.reshape(n, self.t, 4 * u)
        h, c, z, tmp = ws["h"], ws["c"], ws["z"], ws["tmp"]
        h[...] = 0.0
        c[...] = 0.0
        for step in range(self.t):
            np.matmul(h, lay.wh, out=z)
            z += zx3[:, step]
            z += lay.b
            i, f = z[:, :u], z[:, u : 2 * u]
            g, o = z[:, 2 * u : 3 * u], z[:, 3 * u :]
            _activate_inplace("sigmoid", i)
            _activate_inplace("sigmoid", f)
            np.tanh(g, out=g)
            _activate_inplace("sigmoid", o)
            c *= f
            np.multiply(i, g, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(o, tmp, out=h)
            if lay.return_sequences:
                ws["hs"][:, step] = h
        return ws["hs"] if lay.return_sequences else h

    def alloc_train(self, n: int) -> dict:
        u = self.layer.units
        t, d = self.t, self.d
        lay = self.layer
        return {
            "hs_all": np.empty((t + 1, n, u), _F32),
            "cs_all": np.empty((t + 1, n, u), _F32),
            "gates": np.empty((t, n, 4 * u), _F32),
            "tanh_cs": np.empty((t, n, u), _F32),
            "hs": np.empty((n, t, u), _F32),
            "z2": np.empty((n, 4 * u), _F32),
            "dz": np.empty((n, 4 * u), _F32),
            "dh": np.empty((n, u), _F32),
            "dh_next": np.empty((n, u), _F32),
            "dc_next": np.empty((n, u), _F32),
            "dc": np.empty((n, u), _F32),
            "do": np.empty((n, u), _F32),
            "di": np.empty((n, u), _F32),
            "df": np.empty((n, u), _F32),
            "dg": np.empty((n, u), _F32),
            "t1": np.empty((n, u), _F32),
            "dx": np.empty((n, t, d), _F32),
            "dxs": np.empty((n, d), _F32),
            "dwx_t": np.empty_like(lay.grads[0]),
            "dwh_t": np.empty_like(lay.grads[1]),
            "db_t": np.empty_like(lay.grads[2]),
        }

    def train_forward(self, x: np.ndarray, ws: dict) -> np.ndarray:
        lay = self.layer
        u = lay.units
        hs_all, cs_all = ws["hs_all"], ws["cs_all"]
        gates, tanh_cs, hs, z2 = ws["gates"], ws["tanh_cs"], ws["hs"], ws["z2"]
        hs_all[0] = 0.0
        cs_all[0] = 0.0
        for step in range(self.t):
            h_prev, c_prev = hs_all[step], cs_all[step]
            z = gates[step]
            np.matmul(x[:, step], lay.wx, out=z)
            np.matmul(h_prev, lay.wh, out=z2)
            z += z2
            z += lay.b
            # Gate activations via the reference's own stable sigmoid so
            # cached values are bitwise identical to ``LSTM.forward``.
            i = _sigmoid(z[:, :u])
            f = _sigmoid(z[:, u : 2 * u])
            g = np.tanh(z[:, 2 * u : 3 * u])
            o = _sigmoid(z[:, 3 * u :])
            z[:, :u] = i
            z[:, u : 2 * u] = f
            z[:, 2 * u : 3 * u] = g
            z[:, 3 * u :] = o
            c_new = cs_all[step + 1]
            np.multiply(f, c_prev, out=c_new)
            np.multiply(i, g, out=ws["t1"])
            c_new += ws["t1"]
            np.tanh(c_new, out=tanh_cs[step])
            np.multiply(o, tanh_cs[step], out=hs_all[step + 1])
            hs[:, step] = hs_all[step + 1]
        ws["x"] = x
        return hs if lay.return_sequences else hs[:, -1]

    def backward(
        self, grad: np.ndarray, ws: dict, input_grad: bool = True
    ) -> np.ndarray | None:
        lay = self.layer
        u = lay.units
        x = ws["x"]
        dwx, dwh, db = lay.grads
        dwx[...] = 0.0
        dwh[...] = 0.0
        db[...] = 0.0
        dx = ws["dx"]
        dx[...] = 0.0
        dh_next, dc_next = ws["dh_next"], ws["dc_next"]
        dh_next[...] = 0.0
        dc_next[...] = 0.0
        dh, dc, do, di, df, dg = (
            ws["dh"], ws["dc"], ws["do"], ws["di"], ws["df"], ws["dg"],
        )
        dz, t1 = ws["dz"], ws["t1"]
        for step in range(self.t - 1, -1, -1):
            h_prev, c_prev = ws["hs_all"][step], ws["cs_all"][step]
            zg = ws["gates"][step]
            i, f = zg[:, :u], zg[:, u : 2 * u]
            g, o = zg[:, 2 * u : 3 * u], zg[:, 3 * u :]
            tanh_c = ws["tanh_cs"][step]
            np.copyto(dh, dh_next)
            if lay.return_sequences:
                dh += grad[:, step]
            elif step == self.t - 1:
                dh += grad
            np.multiply(dh, tanh_c, out=do)
            # dc = dc_next + dh * o * (1 - tanh_c**2)
            np.multiply(dh, o, out=dc)
            np.power(tanh_c, 2, out=t1)
            np.subtract(1.0, t1, out=t1)
            dc *= t1
            dc += dc_next
            np.multiply(dc, g, out=di)
            np.multiply(dc, c_prev, out=df)
            np.multiply(dc, i, out=dg)
            # dz slots mirror the reference concatenate, slot by slot.
            s = dz[:, :u]
            np.multiply(di, i, out=s)
            np.subtract(1.0, i, out=t1)
            s *= t1
            s = dz[:, u : 2 * u]
            np.multiply(df, f, out=s)
            np.subtract(1.0, f, out=t1)
            s *= t1
            s = dz[:, 2 * u : 3 * u]
            np.power(g, 2, out=t1)
            np.subtract(1.0, t1, out=t1)
            np.multiply(dg, t1, out=s)
            s = dz[:, 3 * u :]
            np.multiply(do, o, out=s)
            np.subtract(1.0, o, out=t1)
            s *= t1
            np.matmul(x[:, step].T, dz, out=ws["dwx_t"])
            dwx += ws["dwx_t"]
            np.matmul(h_prev.T, dz, out=ws["dwh_t"])
            dwh += ws["dwh_t"]
            np.sum(dz, axis=0, out=ws["db_t"])
            db += ws["db_t"]
            np.matmul(dz, lay.wx.T, out=ws["dxs"])
            dx[:, step] = ws["dxs"]
            np.matmul(dz, lay.wh.T, out=dh_next)
            np.multiply(dc, f, out=dc_next)
        return dx


# ----------------------------------------------------------- compiler


def _compile_layer(layer: Layer, in_shape: tuple[int, ...]) -> _Step:
    if not layer.built:
        raise PlanError(f"cannot compile unbuilt layer {type(layer).__name__}")
    if isinstance(layer, Dense):
        step: _Step = _DenseStep(layer)
    elif isinstance(layer, Conv2D):
        step = _Conv2DStep(layer, in_shape)
    elif isinstance(layer, Conv3D):
        step = _Conv3DStep(layer, in_shape)
    elif isinstance(layer, MaxPool2D):
        step = _MaxPool2DStep(layer, in_shape)
    elif isinstance(layer, Flatten):
        step = _FlattenStep()
    elif isinstance(layer, Dropout):
        step = _DropoutStep(layer)
    elif isinstance(layer, TimeDistributed):
        step = _TimeDistributedStep(layer, in_shape)
    elif isinstance(layer, LSTM):
        step = _LSTMStep(layer, in_shape)
    elif isinstance(layer, Activation):
        step = _ActivationStep(layer)
    else:
        raise PlanError(f"no compiled kernel for layer type {type(layer).__name__}")
    step.in_shape = in_shape
    step.out_shape = layer.output_shape(in_shape)
    return step


def _compile_steps(
    layers: list[Layer], input_shape: tuple[int, ...]
) -> tuple[list[_Step], tuple[int, ...]]:
    steps = []
    shape = tuple(input_shape)
    for layer in layers:
        step = _compile_layer(layer, shape)
        steps.append(step)
        shape = step.out_shape
    return steps, shape


class _PlanBase:
    """Shared compile + batch-size-keyed workspace management."""

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...]) -> None:
        self.input_shape = tuple(int(d) for d in input_shape)
        self.steps, self.output_shape = _compile_steps(layers, self.input_shape)
        self._ws: dict[int, list[dict]] = {}

    def _alloc(self, step: _Step, n: int) -> dict:
        raise NotImplementedError

    def _workspaces(self, n: int) -> list[dict]:
        ws = self._ws.pop(n, None)
        if ws is None:
            ws = [self._alloc(step, n) for step in self.steps]
            while len(self._ws) >= MAX_BATCH_KEYS:
                del self._ws[next(iter(self._ws))]
        self._ws[n] = ws  # re-insert: dict order doubles as LRU order
        return ws

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"expected input shape (N, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}"
            )
        return np.ascontiguousarray(x, dtype=np.float32)

    @property
    def batch_keys(self) -> tuple[int, ...]:
        """Batch sizes with live workspaces (oldest first)."""
        return tuple(self._ws)


class InferencePlan(_PlanBase):
    """Forward-only compiled program for a built ``Sequential``.

    ``run`` returns a workspace buffer owned by the plan — it is
    overwritten by the next ``run`` at the same batch size.
    """

    def _alloc(self, step: _Step, n: int) -> dict:
        return step.alloc_infer(n)

    def run(self, x: np.ndarray) -> np.ndarray:
        """One whole forward pass with minimal Python dispatch."""
        out = self._check_input(x)
        for step, ws in zip(self.steps, self._workspaces(len(out))):
            out = step.infer(out, ws)
        return out


class TrainingPlan(_PlanBase):
    """Forward+backward compiled program with preallocated grad buffers.

    One ``forward``/``backward`` pair writes gradients into the
    *layers'* ``grads`` arrays with values identical to the reference
    stack's: each value is computed by the reference's per-element
    operations in the reference's order, from operands gathered with
    fewer numpy calls.  ``backward(grad, input_grad=False)`` skips the
    gradient with respect to the plan's input and returns ``None``.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...]) -> None:
        super().__init__(layers, input_shape)
        self._last: list[dict] | None = None

    def _alloc(self, step: _Step, n: int) -> dict:
        return step.alloc_train(n)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Training-mode forward; caches activations for ``backward``."""
        out = self._check_input(x)
        ws = self._workspaces(len(out))
        for step, w in zip(self.steps, ws):
            out = step.train_forward(out, w)
        self._last = ws
        return out

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backprop through the cached forward; fills layer grads.

        Returns the gradient with respect to the plan's input, or
        ``None`` with ``input_grad=False``, in which case the first step
        skips computing it.
        """
        if self._last is None:
            raise PlanError("TrainingPlan.backward called before forward")
        first = len(self.steps) - 1
        for k, (step, w) in enumerate(zip(reversed(self.steps), reversed(self._last))):
            grad = step.backward(grad, w, input_grad or k < first)
        return grad if input_grad else None
