"""Numeric parity: compiled execution plans vs the reference layer stack.

The contract under test (see ``repro.ml.plan``):

* **Inference** — ``InferencePlan.run`` matches ``Sequential.forward``
  at float32 tolerances (the im2col GEMM changes floating-point
  accumulation order, so bitwise equality is not promised).
* **Training** — ``TrainingPlan`` does the reference's per-element
  float32 operations in the reference's order: forward activations,
  gradients, and therefore post-optimizer-step weights are **bitwise
  identical** to training on the layers directly, with or without the
  gradient with respect to the plan's input.

Every layer type with a compiled kernel is covered alone and inside
full DonkeyModel-shaped stacks, at batch sizes 1 / 7 / 32 including
batch-size changes against a warm plan (workspace re-keying).
"""

import numpy as np
import pytest

from repro.common.errors import PlanError
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
)
from repro.ml.models.base import default_backbone_layers
from repro.ml.models.factory import MODEL_NAMES, create_model
from repro.ml.network import Sequential
from repro.ml.optimizers import Adam
from repro.ml.plan import MAX_BATCH_KEYS, InferencePlan, TrainingPlan

RTOL, ATOL = 1e-4, 1e-5
BATCH_SIZES = (1, 7, 32)


def _input(shape, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, *shape)).astype(np.float32)


def _assert_inference_parity(net, shape, batch, seed=0):
    x = _input(shape, batch, seed)
    ref = net.forward(x, training=False)
    got = net.plan().run(x)
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)


# --------------------------------------------------------- per-layer


LAYER_CASES = [
    ("dense-relu", lambda: [Dense(13, activation="relu")], (9,)),
    ("dense-linear", lambda: [Dense(4, activation="linear")], (17,)),
    ("dense-tanh", lambda: [Dense(6, activation="tanh")], (5,)),
    ("dense-sigmoid", lambda: [Dense(6, activation="sigmoid")], (5,)),
    ("dense-softmax", lambda: [Dense(15, activation="softmax")], (11,)),
    ("conv2d", lambda: [Conv2D(8, 5, 2, activation="relu")], (20, 26, 3)),
    ("conv2d-stride1", lambda: [Conv2D(4, 3, 1, activation="linear")], (9, 9, 2)),
    ("conv3d", lambda: [Conv3D(6, (3, 5, 5), (1, 2, 2), activation="relu")], (5, 16, 20, 3)),
    ("maxpool", lambda: [MaxPool2D(2)], (8, 10, 4)),
    ("flatten", lambda: [Flatten()], (4, 5, 2)),
    ("dropout", lambda: [Dropout(0.4, seed=3)], (23,)),
    ("activation", lambda: [Activation("tanh")], (7,)),
    ("timedistributed", lambda: [TimeDistributed(Conv2D(5, 3, 2, activation="relu"))], (3, 11, 13, 2)),
    ("lstm-last", lambda: [LSTM(10, return_sequences=False)], (4, 6)),
    ("lstm-seq", lambda: [LSTM(10, return_sequences=True)], (4, 6)),
]


@pytest.mark.parametrize(
    "make_layers,shape", [(m, s) for _, m, s in LAYER_CASES],
    ids=[n for n, _, _ in LAYER_CASES],
)
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_single_layer_inference_parity(make_layers, shape, batch):
    net = Sequential(make_layers(), shape, seed=1)
    _assert_inference_parity(net, shape, batch)


# ------------------------------------------------------- full stacks


def _stacks():
    return {
        "linear-backbone": (
            [
                Conv2D(6, 5, 2, activation="relu"),
                Dropout(0.2, seed=1),
                Conv2D(8, 5, 2, activation="relu"),
                Dropout(0.2, seed=2),
                Flatten(),
                Dense(16, activation="relu"),
                Dropout(0.2, seed=3),
                Dense(2, activation="linear"),
            ],
            (24, 32, 3),
        ),
        "categorical-head": (
            [
                Conv2D(4, 5, 2, activation="relu"),
                Flatten(),
                Dense(12, activation="relu"),
                Dense(15, activation="softmax"),
            ],
            (20, 24, 3),
        ),
        "pooled": (
            [
                Conv2D(5, 3, 1, activation="relu"),
                MaxPool2D(2),
                Flatten(),
                Dense(8, activation="tanh"),
                Dense(2, activation="linear"),
            ],
            (12, 14, 3),
        ),
        "rnn": (
            [
                TimeDistributed(Conv2D(4, 5, 2, activation="relu")),
                TimeDistributed(Flatten()),
                TimeDistributed(Dense(10, activation="relu")),
                LSTM(8, return_sequences=True),
                LSTM(6, return_sequences=False),
                Dropout(0.1, seed=4),
                Dense(2, activation="linear"),
            ],
            (3, 16, 20, 3),
        ),
        "conv3d": (
            [
                Conv3D(4, (3, 5, 5), (1, 2, 2), activation="relu"),
                Dropout(0.2, seed=5),
                Flatten(),
                Dense(10, activation="relu"),
                Dense(2, activation="linear"),
            ],
            (5, 16, 20, 3),
        ),
    }


@pytest.mark.parametrize("name", sorted(_stacks()))
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_stack_inference_parity(name, batch):
    layers, shape = _stacks()[name]
    net = Sequential(layers, shape, seed=2)
    _assert_inference_parity(net, shape, batch)


def test_warm_plan_batch_size_changes():
    """A warm plan re-keys its workspaces when the batch size changes."""
    layers, shape = _stacks()["linear-backbone"]
    net = Sequential(layers, shape, seed=3)
    plan = net.plan()
    for batch in (32, 1, 7, 32, 1):  # revisit warm keys in mixed order
        x = _input(shape, batch, seed=batch)
        ref = net.forward(x, training=False)
        np.testing.assert_allclose(plan.run(x), ref, rtol=RTOL, atol=ATOL)
    assert set(plan.batch_keys) == {1, 7, 32}


def test_workspace_lru_eviction():
    net = Sequential([Dense(3, activation="relu")], (5,), seed=4)
    plan = net.plan()
    for batch in range(1, MAX_BATCH_KEYS + 4):
        plan.run(_input((5,), batch))
    assert len(plan.batch_keys) == MAX_BATCH_KEYS
    # Oldest keys were evicted; the most recent survive.
    assert plan.batch_keys[-1] == MAX_BATCH_KEYS + 3
    assert 1 not in plan.batch_keys


def test_plan_output_is_plan_owned():
    """run() returns a workspace buffer: the next run at the same batch
    size overwrites it (callers that keep results must copy)."""
    net = Sequential([Dense(4, activation="linear")], (6,), seed=5)
    plan = net.plan()
    first = plan.run(_input((6,), 3, seed=1))
    kept = first.copy()
    second = plan.run(_input((6,), 3, seed=2))
    assert second is first  # same buffer object
    assert not np.array_equal(kept, first)  # ... overwritten in place


def test_unsupported_layer_raises_plan_error():
    class Custom(Layer):
        def build(self, input_shape, rng):
            self.built = True

        def output_shape(self, input_shape):
            return input_shape

        def forward(self, x, training=False):
            return x

        def backward(self, grad):
            return grad

    net = Sequential([Dense(3), Custom()], (4,), seed=6)
    with pytest.raises(PlanError, match="no compiled kernel"):
        net.plan()
    # predict still works through the reference fallback.
    out = net.predict(_input((4,), 5))
    assert out.shape == (5, 3)


def test_plan_tracks_in_place_weight_updates():
    """Compiled plans share parameter storage with the layers, so
    set_weights / optimizer steps take effect without recompiling."""
    net = Sequential([Dense(4, activation="relu")], (6,), seed=7)
    plan = net.plan()
    x = _input((6,), 5)
    before = plan.run(x).copy()
    net.set_weights([w * 2.0 for w in net.get_weights()])
    after = plan.run(x)
    np.testing.assert_allclose(after, net.forward(x), rtol=RTOL, atol=ATOL)
    assert not np.array_equal(before, after)


# ------------------------------------------------- training parity


def _train_steps(net_layers, shape, batch, steps, use_plan, seed):
    """Run a few optimizer steps; returns (predictions, losses, weights)."""
    net = Sequential(net_layers(), shape, seed=seed)
    opt = Adam(learning_rate=1e-3)
    plan = net.training_plan() if use_plan else None
    rng = np.random.default_rng(seed + 100)
    losses = []
    for _ in range(steps):
        x = rng.standard_normal((batch, *shape)).astype(np.float32)
        y = rng.standard_normal((batch, *net.output_shape)).astype(np.float32)
        if use_plan:
            pred = plan.forward(x)
        else:
            pred = net.forward(x, training=True)
        diff = pred - y
        loss = float(np.mean(diff**2))
        grad = (2.0 / diff.size) * diff
        if use_plan:
            plan.backward(grad)
        else:
            net.backward(grad)
        opt.step(net.params, net.grads)
        losses.append(loss)
    return losses, net.get_weights()


TRAIN_CASES = [
    ("dense", lambda: [Dense(8, activation="relu"), Dropout(0.3, seed=2), Dense(2, activation="linear")], (7,)),
    ("conv", lambda: [Conv2D(4, 3, 2, activation="relu"), Dropout(0.2, seed=3), Flatten(), Dense(2, activation="linear")], (10, 12, 3)),
    ("pool", lambda: [Conv2D(3, 3, 1, activation="relu"), MaxPool2D(2), Flatten(), Dense(2, activation="tanh")], (9, 11, 2)),
    ("softmax", lambda: [Dense(6, activation="relu"), Dense(15, activation="softmax")], (5,)),
    ("rnn", lambda: [
        TimeDistributed(Conv2D(3, 3, 2, activation="relu")),
        TimeDistributed(Flatten()),
        TimeDistributed(Dense(6, activation="relu")),
        LSTM(5, return_sequences=True),
        LSTM(4, return_sequences=False),
        Dense(2, activation="linear"),
    ], (3, 9, 11, 3)),
    ("conv3d", lambda: [Conv3D(3, (3, 3, 3), (1, 2, 2), activation="relu"), Flatten(), Dense(2, activation="linear")], (5, 9, 11, 3)),
]


@pytest.mark.parametrize(
    "make_layers,shape", [(m, s) for _, m, s in TRAIN_CASES],
    ids=[n for n, _, _ in TRAIN_CASES],
)
@pytest.mark.parametrize("batch", (1, 7))
def test_training_plan_bitwise_parity(make_layers, shape, batch):
    """Same seed, same data: the fast path reproduces the reference
    losses AND post-step weights exactly (not just approximately)."""
    losses_fast, weights_fast = _train_steps(
        make_layers, shape, batch, steps=3, use_plan=True, seed=11
    )
    losses_ref, weights_ref = _train_steps(
        make_layers, shape, batch, steps=3, use_plan=False, seed=11
    )
    assert losses_fast == losses_ref
    assert len(weights_fast) == len(weights_ref)
    for wf, wr in zip(weights_fast, weights_ref):
        assert np.array_equal(wf, wr)


@pytest.mark.parametrize(
    "make_layers,shape", [(m, s) for _, m, s in TRAIN_CASES],
    ids=[n for n, _, _ in TRAIN_CASES],
)
@pytest.mark.parametrize("batch", (1, 7))
def test_backward_without_input_grad_matches_reference(make_layers, shape, batch):
    """``input_grad=False`` returns None and still fills every layer
    gradient with the reference's exact values."""
    net_ref = Sequential(make_layers(), shape, seed=12)
    net_fast = Sequential(make_layers(), shape, seed=12)
    x = _input(shape, batch, seed=5)
    ref_out = net_ref.forward(x, training=True)
    grad = _input(net_ref.output_shape, batch, seed=6)
    net_ref.backward(grad)
    plan = net_fast.training_plan()
    assert np.array_equal(plan.forward(x), ref_out)
    assert plan.backward(grad, input_grad=False) is None
    for ga, gb in zip(net_fast.grads, net_ref.grads):
        assert np.array_equal(ga, gb)


#: Conv shapes where one GEMM per tap over the gathered patches does not
#: reproduce the reference's per-(image, output row) products, where the
#: reference's ``x[sl].reshape(-1, cin)`` is a strided view rather than
#: a copy, or where the stride exceeds the kernel, so some input rows
#: feed no tap.  (input shape, filters, kernel, stride, batch)
CONV_CORNERS = [
    ("one-filter", (24, 32, 3), 1, 5, 2, 16),
    ("one-output-column", (14, 2, 3), 4, 2, 2, 7),
    ("one-channel-one-column", (14, 2, 1), 8, 2, 2, 7),
    ("32-channels", (9, 9, 32), 2, 3, 1, 7),
    ("64-channels", (11, 19, 64), 6, 5, 3, 1),
    ("stride-over-kernel", (10, 11, 2), 3, 1, 3, 4),
]


@pytest.mark.parametrize(
    "shape,filters,kernel,stride,batch",
    [c[1:] for c in CONV_CORNERS],
    ids=[c[0] for c in CONV_CORNERS],
)
@pytest.mark.parametrize("act", ["linear", "tanh"])
def test_conv_corner_shapes_bitwise(shape, filters, kernel, stride, batch, act):
    net = Sequential([Conv2D(filters, kernel, stride, activation=act)], shape, seed=13)
    x = _input(shape, batch, seed=7)
    ref_out = net.forward(x, training=True).copy()
    grad = _input(ref_out.shape[1:], batch, seed=8)
    ref_dx = net.backward(grad).copy()
    ref_grads = [g.copy() for g in net.grads]
    plan = net.training_plan()
    assert np.array_equal(plan.forward(x), ref_out)
    assert np.array_equal(plan.backward(grad), ref_dx)
    for ga, gb in zip(net.grads, ref_grads):
        assert np.array_equal(ga, gb)
    for g in net.grads:
        g[...] = np.nan
    plan.forward(x)
    assert plan.backward(grad, input_grad=False) is None
    for ga, gb in zip(net.grads, ref_grads):
        assert np.array_equal(ga, gb)


def test_fleet_training_shape_is_bitwise():
    """The shape the fleet trains: a (24, 32, 3) linear model at scale
    0.25, whose backbone is two 5x5 stride-2 convs, in batches of 16,
    through ``fast_forward``/``fast_backward`` and Adam."""
    shape = (24, 32, 3)
    convs = [
        layer for layer in default_backbone_layers(scale=0.25, input_shape=shape)
        if isinstance(layer, Conv2D)
    ]
    assert [(c.kh, c.kw, c.sh, c.sw) for c in convs] == [(5, 5, 2, 2)] * 2
    runs = []
    for fast in (True, False):
        model = create_model("linear", input_shape=shape, scale=0.25, seed=4)
        opt = Adam(learning_rate=1e-3)
        rng = np.random.default_rng(21)
        losses = []
        for _ in range(3):
            x = rng.random((16, *shape), dtype=np.float32)
            y = rng.uniform(-1, 1, (16, 2)).astype(np.float32)
            if fast:
                pred = model.fast_forward(x, training=True)
            else:
                pred = model.forward(x, training=True)
            loss, grad = model.compute_loss(pred, y)
            if fast:
                model.fast_backward(grad)
            else:
                model.backward(grad)
            opt.step(model.params, model.grads)
            losses.append(loss)
        runs.append((losses, model.get_weights()))
    (losses_fast, weights_fast), (losses_ref, weights_ref) = runs
    assert losses_fast == losses_ref
    for wf, wr in zip(weights_fast, weights_ref):
        assert np.array_equal(wf, wr)


def test_training_plan_backward_requires_forward():
    net = Sequential([Dense(3)], (4,), seed=8)
    with pytest.raises(PlanError, match="before forward"):
        net.training_plan().backward(np.zeros((2, 3), dtype=np.float32))


def test_training_plan_input_grad_matches_reference():
    layers, shape = _stacks()["pooled"]
    net = Sequential(layers, shape, seed=9)
    x = _input(shape, 4, seed=3)
    ref_out = net.forward(x, training=True)
    ref_gin = net.backward(np.ones_like(ref_out))
    # Fresh net with identical weights: dropout RNG must restart too.
    net2 = Sequential(_stacks()["pooled"][0], shape, seed=9)
    net2.set_weights(net.get_weights())
    plan = net2.training_plan()
    out = plan.forward(x)
    assert np.array_equal(out, ref_out)
    gin = plan.backward(np.ones_like(out))
    assert np.array_equal(gin, ref_gin)


# ------------------------------------------- DonkeyModel-shaped nets


def _reference_commands(model, frames):
    """predict_frames semantics routed through the reference layers:
    same model-specific head post-processing, no compiled plans."""
    from repro.data.datasets import N_STEERING_BINS, images_to_float, linear_unbin

    x = model._serving_batch(images_to_float(frames))
    pred = model.forward(x, training=False)
    if model.name == "categorical":
        angle = linear_unbin(pred[:, :N_STEERING_BINS])
        throttle = np.clip(pred[:, N_STEERING_BINS], -1.0, 1.0)
    elif model.name == "inferred":
        angle = np.clip(pred[:, 0], -1.0, 1.0)
        throttle = model.infer_throttle(angle)
    else:
        angle = np.clip(pred[:, 0], -1, 1)
        throttle = np.clip(pred[:, 1], -1, 1)
    return np.stack([np.asarray(angle), np.asarray(throttle)], axis=1)


def _model_batch(model, n, seed=0):
    """A training-layout input batch for ``model``."""
    rng = np.random.default_rng(seed)
    frames = (n, model.sequence_length) if model.sequence_length else (n,)
    x = rng.random((*frames, *model.input_shape), dtype=np.float32)
    if model.targets == "memory":
        return x, rng.uniform(-1, 1, (n, model.mem_length, 2)).astype(np.float32)
    return x


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_fast_backward_skips_only_the_image_input_grad(name, monkeypatch):
    """Nothing reads the gradient with respect to the images, so the
    network that sees them is asked not to compute it; every head
    network's input gradient feeds the trunk, so it is asked for."""
    model = create_model(name, input_shape=(24, 32, 3), scale=0.25)
    nets = {attr: net for attr, net in vars(model).items() if isinstance(net, Sequential)}
    image_net = "trunk" if "trunk" in nets else "net"
    requested = []
    backward = TrainingPlan.backward

    def spy(plan, grad, input_grad=True):
        requested.append((plan, input_grad))
        return backward(plan, grad, input_grad)

    monkeypatch.setattr(TrainingPlan, "backward", spy)
    pred = model.fast_forward(_model_batch(model, 4), training=True)
    model.fast_backward(np.ones_like(pred))
    by_net = {
        attr: [flag for plan, flag in requested if plan is net.training_plan()]
        for attr, net in nets.items()
    }
    assert by_net == {attr: [attr != image_net] for attr in nets}


@pytest.mark.parametrize(
    "name", ["linear", "categorical", "inferred", "memory", "rnn", "3d"]
)
def test_model_fast_forward_matches_reference(name):
    model = create_model(name, input_shape=(24, 32, 3), scale=0.25)
    assert model.supports_fast_path()
    rng = np.random.default_rng(17)
    for batch in BATCH_SIZES:
        frames = rng.integers(0, 255, (batch, 24, 32, 3), dtype=np.uint8)
        ref = _reference_commands(model, frames)
        got = model.predict_frames(frames)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)
