"""The trainer loop: threshold-gated incremental retraining.

Cloud side of the continuum loop.  Each round the trainer wakes, checks
whether enough *fresh* cleaned records accumulated (data threshold),
and if so retrains the autopilot — warm-starting from the current
``stable`` checkpoint via :mod:`repro.ml.serialize`, so learning is
incremental rather than from scratch — on a sliding window of the most
recent cleaned shards.  Training cost is charged to the simulated clock
through the testbed GPU cost model (FLOPs / effective FLOPS), and the
new checkpoint is published to the registry with its validation loss
and held-out cross-track error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.clock import EventScheduler
from repro.common.errors import FleetError
from repro.common.rng import ensure_rng, seed_from_name
from repro.data.datasets import ArraySplit, images_to_float
from repro.fleet.dataplane import CLEAN_CONTAINER
from repro.fleet.registry import TAG_STABLE, ModelRegistry
from repro.fleet.shards import decode_shard
from repro.fleet.world import SyntheticTrackWorld
from repro.ml.models.factory import create_model
from repro.ml.optimizers import Adam
from repro.ml.training import Trainer, estimate_flops_per_sample
from repro.objectstore.store import ObjectStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, Tracer
from repro.testbed.hardware import gpu_spec

__all__ = ["TrainReport", "IncrementalTrainer"]


@dataclass(frozen=True)
class TrainReport:
    """One completed training wake: the published candidate."""

    round_no: int
    version: int
    samples: int
    epochs: int
    val_loss: float
    eval_cte_m: float
    train_s: float
    warm_start: int  # version warm-started from, 0 = cold start
    published_at_s: float

    def to_dict(self) -> dict:
        """JSON-ready view."""
        return {
            "round_no": self.round_no,
            "version": self.version,
            "samples": self.samples,
            "epochs": self.epochs,
            "val_loss": self.val_loss,
            "eval_cte_m": self.eval_cte_m,
            "train_s": self.train_s,
            "warm_start": self.warm_start,
            "published_at_s": self.published_at_s,
        }


class IncrementalTrainer:
    """Retrains and publishes candidates when fresh data warrants it."""

    def __init__(
        self,
        store: ObjectStore,
        registry: ModelRegistry,
        world: SyntheticTrackWorld,
        scheduler: EventScheduler,
        model_name: str = "linear",
        model_scale: float = 0.25,
        epochs: int = 6,
        batch_size: int = 16,
        learning_rate: float = 0.003,
        val_fraction: float = 0.25,
        min_fresh_records: int = 32,
        max_train_shards: int = 64,
        gpu: str = "RTX6000",
        eval_records: int = 64,
        cte_gain_m: float = 0.6,
        seed: int = 0,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.registry = registry
        self.world = world
        self.scheduler = scheduler
        self.model_name = model_name
        self.model_scale = float(model_scale)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.val_fraction = float(val_fraction)
        self.min_fresh_records = int(min_fresh_records)
        self.max_train_shards = int(max_train_shards)
        self.gpu = gpu_spec(gpu)
        self.eval_records = int(eval_records)
        self.cte_gain_m = float(cte_gain_m)
        self.seed = int(seed)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics
        self.clean = store.create_container(CLEAN_CONTAINER)
        self._pending_fresh = 0
        # Held-out eval pool: the same labelled frames judge every
        # candidate, so per-round cte values are directly comparable.
        self._eval_frames, self._eval_labels = world.eval_pool(
            self.eval_records, seed_from_name("fleet-eval", self.seed)
        )

    # ------------------------------------------------------------- wake

    def should_train(self, fresh_records: int) -> bool:
        """Data threshold: enough new records since the last checkpoint?

        The first checkpoint (no stable yet) trains on whatever exists —
        an empty fleet must still bootstrap.
        """
        self._pending_fresh += int(fresh_records)
        if self.registry.resolve(TAG_STABLE) is None:
            return True
        return self._pending_fresh >= self.min_fresh_records

    def train_round(self, round_no: int) -> TrainReport:
        """Retrain on the shard window and publish the candidate."""
        frames, labels = self._load_window()
        if frames.shape[0] < 4:
            raise FleetError(
                f"round {round_no}: only {frames.shape[0]} cleaned records; "
                "cannot train"
            )
        with self.tracer.span(
            "fleet.train", round=round_no, samples=int(frames.shape[0])
        ):
            split = self._split(frames, labels, round_no)
            model, warm_start = self._warm_start_model()
            trainer = Trainer(
                optimizer=Adam(learning_rate=self.learning_rate),
                batch_size=self.batch_size,
                epochs=self.epochs,
                shuffle_seed=seed_from_name(f"fleet-train-{round_no}", self.seed),
                # Compiled training plans are bitwise-identical to the
                # reference layers, so checkpoints do not depend on it.
                use_plan=True,
            )
            history = trainer.fit(model, split)
            train_s = self._charge_train_time(model, history.samples_seen)
            eval_cte_m = self.cte_gain_m * self.world.steering_error(
                model, self._eval_frames, self._eval_labels
            )
            val_loss = history.val_loss[-1] if history.val_loss else 0.0
            version = self.registry.publish(
                model,
                metrics={
                    "round": round_no,
                    "samples": int(frames.shape[0]),
                    "epochs": history.epochs,
                    "val_loss": round(float(val_loss), 6),
                    "eval_cte_m": round(float(eval_cte_m), 6),
                    "warm_start": warm_start,
                },
                changelog=f"round {round_no} retrain",
            )
        self._pending_fresh = 0
        if self.metrics is not None:
            self.metrics.counter("fleet.candidates").inc()
            self.metrics.histogram("fleet.train_s").observe(train_s)
        return TrainReport(
            round_no=round_no,
            version=version,
            samples=int(frames.shape[0]),
            epochs=history.epochs,
            val_loss=float(val_loss),
            eval_cte_m=float(eval_cte_m),
            train_s=train_s,
            warm_start=warm_start,
            published_at_s=self.scheduler.clock.now,
        )

    # ---------------------------------------------------------- internals

    def _load_window(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate the newest ``max_train_shards`` cleaned shards."""
        names = self.clean.list()[-self.max_train_shards:]
        frame_parts: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        for name in names:
            frames, labels = decode_shard(self.clean.get(name).data)
            frame_parts.append(frames)
            label_parts.append(labels)
        if not frame_parts:
            return (
                np.zeros((0,) + self.world.frame_shape, dtype=np.uint8),
                np.zeros((0, 2), dtype=np.float32),
            )
        return np.concatenate(frame_parts), np.concatenate(label_parts)

    def _split(
        self, frames: np.ndarray, labels: np.ndarray, round_no: int
    ) -> ArraySplit:
        # Shuffle the uint8 frames before converting, so the window
        # exists as float32 only once.
        rng = ensure_rng(seed_from_name(f"fleet-split-{round_no}", self.seed))
        order = rng.permutation(len(frames))
        x = images_to_float(frames[order])
        y = labels[order].astype(np.float32)
        n_val = max(1, int(len(x) * self.val_fraction))
        return ArraySplit(
            x_train=x[n_val:], y_train=y[n_val:], x_val=x[:n_val], y_val=y[:n_val]
        )

    def _warm_start_model(self):
        stable = self.registry.resolve(TAG_STABLE)
        if stable is not None:
            return self.registry.load(stable), stable
        model = create_model(
            self.model_name,
            input_shape=self.world.frame_shape,
            scale=self.model_scale,
            seed=seed_from_name("fleet-model-init", self.seed),
        )
        return model, 0

    def _charge_train_time(self, model, samples_seen: int) -> float:
        """Advance the simulated clock by the GPU-model training cost."""
        flops = estimate_flops_per_sample(model) * max(samples_seen, 1)
        train_s = flops / self.gpu.effective_flops
        self.scheduler.run_until(self.scheduler.clock.now + train_s)
        return train_s
