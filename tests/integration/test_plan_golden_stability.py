"""Determinism locks for the compiled fast path in serve and fleet.

The compiled plans reuse preallocated buffers across calls, which is
exactly the kind of optimisation that turns nondeterministic if a
buffer leaks state between batches.  These tests pin the system-level
guarantee: on the plans, the only engine, serve and fleet runs are
byte-identical per seed, and training on the plans
leaves checkpoint bytes unchanged relative to the reference layers
(the ``layer_loop`` fixture) for every model.
"""

import json

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetLoop
from repro.fleet.gates import GateThresholds
from repro.ml import MODEL_NAMES, Adam, Trainer, create_model, save_model_bytes
from repro.data.datasets import ArraySplit, linear_bin
from repro.serve import BatchLatencyModel, InferenceService, PoissonWorkload

LATENCY = BatchLatencyModel(overhead_s=0.002, per_item_s=0.0004)


def _serve_summary(seed):
    model = create_model("linear", input_shape=(24, 32, 3), scale=0.25)
    service = InferenceService(
        LATENCY, model=model, n_replicas=2, seed=seed
    )
    workload = PoissonWorkload(
        80.0, deadline_s=0.2, seed=seed, frame_shape=(24, 32, 3)
    )
    summary = service.run(workload, 1.0)
    return json.dumps(summary.to_dict(), sort_keys=True)


def test_serve_summary_byte_identical_per_seed():
    """Two identical real-model serve runs (plans warm-compiled at pin
    time) must serialise to the same bytes."""
    assert _serve_summary(11) == _serve_summary(11)


def test_fleet_loop_byte_identical_with_plans():
    """The full continuous-learning loop — fast-path training, plan
    recompiles at every stage's model pin — stays deterministic."""
    config = dict(
        n_vehicles=4,
        records_per_flush=12,
        stage_vehicles=4,
        stage_duration_s=0.5,
        min_fresh_records=48,
        eval_records=48,
        gates=GateThresholds(min_completions=10),
        rounds=2,
    )
    a = json.dumps(FleetLoop(FleetConfig(seed=3, **config)).run().to_dict(),
                   sort_keys=True)
    b = json.dumps(FleetLoop(FleetConfig(seed=3, **config)).run().to_dict(),
                   sort_keys=True)
    assert a == b


def _model_split(model, n=16, n_val=4, seed=2):
    """``n`` random samples in ``model``'s input and target layout; the
    first ``n_val`` of them double as the validation set."""
    rng = np.random.default_rng(seed)
    frames = (n, model.sequence_length) if model.sequence_length else (n,)
    x = rng.random((*frames, *model.input_shape)).astype(np.float32)
    x_val = x[:n_val]
    if model.targets == "memory":
        history = rng.uniform(-1, 1, (n, model.mem_length, 2)).astype(np.float32)
        x, x_val = (x, history), (x_val, history[:n_val])
    y = rng.uniform(-1, 1, (n, 2)).astype(np.float32)
    if model.targets == "angle":
        y = y[:, :1]
    elif model.targets == "categorical":
        y = np.column_stack([linear_bin(y[:, 0]), y[:, 1:]]).astype(np.float32)
    return ArraySplit(x_train=x, y_train=y, x_val=x_val, y_val=y[:n_val])


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_checkpoint_bytes_independent_of_fast_path(name, layer_loop):
    """Training with and without the compiled plans gives identical
    train losses and checkpoint payloads for every model — the
    serialized-model goldens any downstream system holds cannot shift
    with the engine that trained them."""

    def train():
        model = create_model(name, input_shape=(24, 32, 3), scale=0.25)
        history = Trainer(
            optimizer=Adam(), batch_size=4, epochs=2, shuffle_seed=4,
        ).fit(model, _model_split(model))
        return history.train_loss, save_model_bytes(model)

    losses_fast, payload_fast = train()
    with layer_loop():
        losses_ref, payload_ref = train()
    assert losses_fast == losses_ref
    assert payload_fast == payload_ref
