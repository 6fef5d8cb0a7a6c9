"""Property-based tests for the compiled execution plans.

Hypothesis draws random stack *recipes* (layer kinds + hyperparameters,
not instances, so a recipe can build identical fresh networks) and
random inputs, then checks the plan contract from ``repro.ml.plan``:

* inference parity holds for every generatable stack (float32
  tolerances — the plan reorders floating-point accumulation);
* ``run`` never mutates its input array;
* repeated ``run`` on the same input is byte-identical (the plan's
  buffer reuse is deterministic);
* the training plan reproduces reference forward activations, layer
  gradients and the input gradient bitwise, and with
  ``input_grad=False`` returns None and the same layer gradients.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.layers import (
    Activation,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
)
from repro.ml.network import Sequential

RTOL, ATOL = 1e-4, 1e-5

activations = st.sampled_from(["relu", "tanh", "sigmoid", "linear"])


@st.composite
def dense_recipes(draw):
    """(recipe, input_shape) for a random dense stack."""
    width = draw(st.integers(2, 24))
    recipe = []
    for i in range(draw(st.integers(1, 4))):
        recipe.append(("dense", draw(st.integers(2, 16)), draw(activations)))
        if draw(st.booleans()):
            recipe.append(("dropout", draw(st.floats(0.1, 0.6)), i))
    recipe.append(("dense", draw(st.integers(1, 4)), "linear"))
    return recipe, (width,)


@st.composite
def conv_recipes(draw):
    """(recipe, input_shape) for a random small conv stack."""
    h = draw(st.integers(8, 16))
    w = draw(st.integers(8, 16))
    c = draw(st.integers(1, 3))
    recipe = [
        (
            "conv2d",
            # One filter is drawn too: BLAS multiplies it matrix-vector.
            draw(st.integers(1, 6)),
            draw(st.sampled_from([3, 5])),
            draw(st.sampled_from([1, 2])),
            draw(activations),
        )
    ]
    if draw(st.booleans()):
        recipe.append(("maxpool", 2))
    recipe.append(("flatten",))
    if draw(st.booleans()):
        recipe.append(("activation", "tanh"))
    if draw(st.booleans()):
        recipe.append(("dropout", draw(st.floats(0.1, 0.5)), 9))
    recipe.append(("dense", draw(st.integers(1, 4)), "linear"))
    return recipe, (h, w, c)


def build(recipe):
    """Fresh layer instances from a recipe (identical every call)."""
    layers = []
    for spec in recipe:
        kind = spec[0]
        if kind == "dense":
            layers.append(Dense(spec[1], activation=spec[2]))
        elif kind == "dropout":
            layers.append(Dropout(spec[1], seed=spec[2]))
        elif kind == "conv2d":
            layers.append(Conv2D(spec[1], spec[2], spec[3], activation=spec[4]))
        elif kind == "maxpool":
            layers.append(MaxPool2D(spec[1]))
        elif kind == "flatten":
            layers.append(Flatten())
        elif kind == "activation":
            layers.append(Activation(spec[1]))
    return layers


recipes = st.one_of(dense_recipes(), conv_recipes())


def _x(shape, batch, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, *shape)).astype(np.float32)


class TestInferencePlanProperties:
    @given(recipe=recipes, batch=st.integers(1, 9), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_random_stack_parity(self, recipe, batch, seed):
        spec, shape = recipe
        net = Sequential(build(spec), shape, seed=seed % 1000)
        x = _x(shape, batch, seed)
        ref = net.forward(x, training=False)
        got = net.plan().run(x)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)

    @given(recipe=recipes, batch=st.integers(1, 6), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_run_is_side_effect_free_on_input(self, recipe, batch, seed):
        spec, shape = recipe
        net = Sequential(build(spec), shape, seed=3)
        x = _x(shape, batch, seed)
        snapshot = x.copy()
        net.plan().run(x)
        assert np.array_equal(x, snapshot)
        assert x.dtype == snapshot.dtype

    @given(recipe=recipes, batch=st.integers(1, 6), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_repeated_run_is_byte_identical(self, recipe, batch, seed):
        spec, shape = recipe
        net = Sequential(build(spec), shape, seed=5)
        plan = net.plan()
        x = _x(shape, batch, seed)
        first = plan.run(x).tobytes()
        # Interleave another batch size to exercise workspace re-keying.
        plan.run(_x(shape, batch + 1, seed + 1))
        second = plan.run(x).tobytes()
        assert first == second


class TestTrainingPlanProperties:
    @given(recipe=recipes, batch=st.integers(1, 6), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_forward_and_gradients_bitwise_equal_reference(
        self, recipe, batch, seed
    ):
        spec, shape = recipe
        net_ref = Sequential(build(spec), shape, seed=7)
        x = _x(shape, batch, seed)

        ref_out = net_ref.forward(x, training=True)
        ref_dx = net_ref.backward(np.ones_like(ref_out))

        for input_grad in (True, False):
            # A fresh twin per pass, so dropout draws the same masks.
            net_fast = Sequential(build(spec), shape, seed=7)
            net_fast.set_weights(net_ref.get_weights())
            plan = net_fast.training_plan()
            out = plan.forward(x)
            assert np.array_equal(out, ref_out)
            dx = plan.backward(np.ones_like(out), input_grad=input_grad)
            if input_grad:
                assert np.array_equal(dx, ref_dx)
            else:
                assert dx is None
            for ga, gb in zip(net_ref.grads, net_fast.grads):
                assert np.array_equal(ga, gb)
