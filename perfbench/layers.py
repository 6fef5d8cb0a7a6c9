"""Per-layer tracing from outside the program.

:class:`Recorder` replaces each layer's public call, at the place its
callers look it up, with a wrapper that keeps one span in memory:
name, start, end, parent span and repetition id, in flat ``array``
columns so a repetition's ~10^5 spans stay small.  A few wrappers also
tally counts at the same boundary (shard bytes, samples trained,
scheduler events).  Wrappers exist only between :meth:`install` and
:meth:`uninstall`; the untraced run never sees them.

Self time is a span's duration minus the durations of its direct child
spans.  Inclusive time is counted only for a name's outermost calls, so
a call nested in a call of the same name is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

#: (span name, module the callers import it from, attribute path there)
SITES = (
    ("fleet.collect", "repro.fleet.dataplane", "FleetDataPlane.collect_round"),
    ("fleet.ingest", "repro.fleet.dataplane", "IngestStage.run"),
    ("fleet.train", "repro.fleet.trainer", "IncrementalTrainer.train_round"),
    ("fleet.rollout", "repro.fleet.rollout", "RolloutController.run_round"),
    ("fleet.encode", "repro.fleet.dataplane", "encode_shard"),
    ("fleet.decode", "repro.fleet.dataplane", "decode_shard"),
    ("fleet.decode", "repro.fleet.trainer", "decode_shard"),
    ("fleet.sample", "repro.fleet.world", "SyntheticTrackWorld.sample"),
    ("objectstore.put", "repro.objectstore.store", "Container.put"),
    ("objectstore.get", "repro.objectstore.store", "Container.get"),
    ("objectstore.list", "repro.objectstore.store", "Container.list"),
    ("ml.fit", "repro.ml.training", "Trainer.fit"),
    ("ml.predict", "repro.ml.models.base", "DonkeyModel.predict_frames"),
    ("ml.step", "repro.ml.optimizers", "Optimizer.step"),
    ("sim.step", "repro.sim.session", "DrivingSession.step"),
    ("sim.point_at", "repro.sim.tracks", "Track.point_at"),
    ("sim.heading_at", "repro.sim.tracks", "Track.heading_at"),
    ("sim.project", "repro.sim.tracks", "project_points"),
    ("core.driver", "repro.core.drivers", "StudentDriver.__call__"),
    ("eval.tracker", "repro.eval.drive", "GreedyTracker.observe"),
    ("eval.evaluate", "repro.eval.scorecard", "Evaluator.evaluate"),
    ("serve.submit", "repro.serve.service", "InferenceService.submit"),
    ("serve.slo", "repro.serve.slo", "SloTracker.record_completion"),
    ("serve.run", "repro.serve.service", "InferenceService.run"),
    ("net.latency", "repro.net.links", "Link.sample_latency"),
    ("obs.observe", "repro.obs.metrics", "Histogram.observe"),
    ("obs.inc", "repro.obs.metrics", "Counter.inc"),
    ("common.sched", "repro.common.clock", "EventScheduler.run_until"),
    ("common.sched", "repro.common.clock", "EventScheduler.run_all"),
)

#: Span names whose self time, calls and p99 are reported, in order.
SPAN_NAMES = tuple(dict.fromkeys(name for name, _module, _path in SITES))


def _tally_encode(recorder, args, result) -> None:
    frames = args[0]
    recorder.tally("fleet.shard_bytes", len(result))
    # Labels are stored as (n, 2) float32 next to the uint8 frames.
    recorder.tally("fleet.payload_bytes", frames.nbytes + 8 * len(frames))


def _tally_collect(recorder, _args, result) -> None:
    recorder.tally("fleet.shards_flushed", result.flushed_shards)


def _tally_fit(recorder, _args, result) -> None:
    recorder.tally("ml.fit.samples", result.samples_seen)


def _tally_evaluate(recorder, args, _result) -> None:
    run = args[1]
    recorder.tally("obs.spans", len(run.tracer.spans))
    recorder.tally("obs.series", len(run.metrics))


def _tally_sched(recorder, _args, result) -> None:
    # Only the outermost run_until/run_all: a nested drain's events are
    # already inside its caller's return value.
    if not recorder.inside("common.sched"):
        recorder.tally("common.events", result)


TALLIES = {
    "fleet.encode": _tally_encode,
    "fleet.collect": _tally_collect,
    "ml.fit": _tally_fit,
    "eval.evaluate": _tally_evaluate,
    "common.sched": _tally_sched,
}


class Recorder:
    """Spans and boundary counts of the traced repetitions."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.name_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.rep = array("q")
        self.rep_id = -1
        self.counts: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrappers

    def install(self) -> None:
        """Wrap every site; :meth:`uninstall` puts the originals back."""
        for name, module_name, path in SITES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(name, original, TALLIES.get(name)))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped site."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, tally):
        name_id = self._ids[name]
        ids, starts, ends = self.name_id, self.start_ns, self.end_ns
        parents, reps, stack = self.parent, self.rep, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            reps.append(self.rep_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                tally(self, args, result)
            return result

        return traced

    def tally(self, key: str, amount: float) -> None:
        """Add ``amount`` to this repetition's count ``key``."""
        slot = (self.rep_id, key)
        self.counts[slot] = self.counts.get(slot, 0) + amount

    def inside(self, name: str) -> bool:
        """Whether a call named ``name`` is open on the span stack."""
        name_id = self._ids[name]
        return any(self.name_id[index] == name_id for index in self._stack)

    # ----------------------------------------------------------- analysis

    def summarize(self, n_reps: int) -> tuple[dict[str, dict], dict[str, dict]]:
        """Per span name and per layer, over repetitions ``0..n_reps-1``.

        Per name: ``calls`` per repetition (``steady`` says whether
        every repetition made the same number), self and inclusive
        seconds per repetition, and ``p99_us`` over every call.  Per
        layer (the name's first part): self seconds and the inclusive
        seconds of the layer's outermost calls, per repetition.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        rep = np.frombuffer(self.rep, dtype=np.int64)
        dur = np.frombuffer(self.end_ns, dtype=np.int64) - np.frombuffer(
            self.start_ns, dtype=np.int64
        )
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child
        ancestors = self._ancestor_bits()
        per_name = {}
        for index, name in enumerate(self.names):
            mask = name_id == index
            calls = np.bincount(rep[mask], minlength=n_reps)
            outer = mask & ((ancestors >> index) & 1 == 0)
            durations = dur[mask]
            per_name[name] = {
                "calls": int(calls[0]),
                "steady": bool((calls == calls[0]).all()),
                "self_s": float(self_ns[mask].sum()) / 1e9 / n_reps,
                "incl_s": float(dur[outer].sum()) / 1e9 / n_reps,
                "p99_us": (
                    float(np.percentile(durations, 99)) / 1e3
                    if durations.size
                    else 0.0
                ),
            }
        per_layer = {}
        for layer in dict.fromkeys(name.split(".")[0] for name in self.names):
            bits = sum(
                1 << index
                for index, name in enumerate(self.names)
                if name.split(".")[0] == layer
            )
            mask = ((1 << name_id) & bits) != 0
            outer = mask & ((ancestors & bits) == 0)
            per_layer[layer] = {
                "self_s": float(self_ns[mask].sum()) / 1e9 / n_reps,
                "incl_s": float(dur[outer].sum()) / 1e9 / n_reps,
            }
        return per_name, per_layer

    def _ancestor_bits(self) -> np.ndarray:
        """Per span: a bit set of the name ids on its ancestor chain."""
        bits = [0] * len(self.parent)
        ids = self.name_id
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                bits[index] = bits[parent] | (1 << ids[parent])
        return np.array(bits, dtype=np.int64)

    def count(self, key: str, n_reps: int) -> float:
        """Per-repetition mean of boundary count ``key``."""
        return sum(self.counts.get((r, key), 0) for r in range(n_reps)) / n_reps

    def write(self, path: Path, env: dict) -> None:
        """Write every span, the names and the environment to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                names=np.array(self.names),
                name_id=np.frombuffer(self.name_id, dtype=np.int64),
                start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
                end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                rep=np.frombuffer(self.rep, dtype=np.int64),
                env=np.array(json.dumps(env, sort_keys=True)),
            )
