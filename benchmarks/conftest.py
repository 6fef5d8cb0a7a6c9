"""Shared benchmark fixtures and result emission.

Every benchmark regenerates one of the paper's figures or quantitative
claims (see DESIGN.md §4).  Reproduced tables are printed *and* written
to ``benchmarks/results/<name>.txt`` so the artifacts survive pytest's
output capture; EXPERIMENTS.md summarises them against the paper.

Scale note: tubs here are hundreds-to-thousands of records rather than
the paper's 10-50 K, and camera frames are 48x64 rather than 120x160 —
numpy training must fit the benchmark budget.  The *shapes* under test
(who wins, orderings, crossovers) are scale-stable; the F3 benchmark
demonstrates the record-count scaling explicitly.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.core.collection import collect_via_simulator
from repro.data.datasets import TubDataset
from repro.data.tubclean import TubCleaner
from repro.ml.models.factory import create_model
from repro.ml.training import EarlyStopping, Trainer
from repro.sim.renderer import CameraParams
from repro.sim.tracks import default_tape_oval

BENCH_H, BENCH_W = 48, 64
RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a reproduced table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")


def bench_env() -> dict:
    """What a result depends on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }


def emit_json(name: str, payload: dict) -> None:
    """Persist machine-readable benchmark results under results/.

    Every file carries an ``env`` block (:func:`bench_env`), so a
    number can be compared only with one taken on a like host.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps({**payload, "env": bench_env()}, indent=2, sort_keys=True)
        + "\n"
    )


def bench_camera() -> CameraParams:
    """The benchmark camera (smaller than DonkeyCar's 120x160)."""
    return CameraParams(height=BENCH_H, width=BENCH_W)


@pytest.fixture(scope="session")
def oval():
    """The paper's default tape oval."""
    return default_tape_oval()


@pytest.fixture(scope="session")
def bench_tubs(tmp_path_factory, oval):
    """Two cleaned driving sessions on the oval (shared across benches)."""
    root = tmp_path_factory.mktemp("bench-tubs")
    reports = [
        collect_via_simulator(
            oval, root / f"tub{i}", n_records=1250, skill=skill,
            seed=7 + i, camera_hw=(BENCH_H, BENCH_W),
        )
        for i, skill in enumerate((0.95, 0.85))
    ]
    for report in reports:
        TubCleaner(report.tub).clean(half_width=oval.half_width)
    return [report.tub for report in reports]


def train_bench_model(name: str, tubs, seed: int = 3, epochs: int = 10):
    """Train one of the six models on the shared tubs (bench recipe)."""
    dataset = TubDataset(tubs)
    kwargs = {}
    if name == "inferred":
        # Throttle rule tuned to the oval: full pace on the straights,
        # corner speed matching the expert's lateral-accel limit.
        kwargs = {"max_throttle": 0.6, "min_throttle": 0.3}
    model = create_model(
        name, input_shape=(BENCH_H, BENCH_W, 3), scale=0.5, seed=seed, **kwargs
    )
    if model.targets == "memory":
        split = dataset.split_memory(model.mem_length, rng=2)
    elif model.sequence_length > 0:
        split = dataset.split(
            rng=2, targets=model.targets, sequence_length=model.sequence_length
        )
    else:
        split = dataset.split(rng=2, targets=model.targets, flip_augment=True)
    trainer = Trainer(
        batch_size=64, epochs=epochs,
        early_stopping=EarlyStopping(patience=3), shuffle_seed=2,
    )
    history = trainer.fit(model, split)
    return model, history, split


@pytest.fixture(scope="session")
def bench_linear(bench_tubs):
    """A trained linear model shared by E6/E8/E9 and the ablations."""
    model, history, _ = train_bench_model("linear", bench_tubs)
    return model
