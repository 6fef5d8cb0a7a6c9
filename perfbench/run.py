"""Repo benchmark: scored scenarios end to end, and per layer when traced.

    python3 perfbench/run.py --workload fleet-ingest --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  One repetition is exactly what
``autolearn eval`` does for a scenario: ``run_scenario(spec, seed)``
with its default ``instrument=True``, then
``Evaluator().evaluate(run).to_json()``.  Repetitions run back to back
in this one process and thread: a closed loop with one client.  Every
scorecard is checked against the sha256 recorded in ``digests.json``
for the workload and seed; for a seed without one, against the first
repetition's bytes and the scorecard's own conservation checks.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several cold starts of a fresh interpreter), ``wall_ref_s`` (median
repetition after one warm-up), both at the reference host speed of
:mod:`speed`, and ``peak_rss_mb``; the error rate is the result's
``failed`` / ``attempted``.  The plain medians in host seconds are
printed too, the repetitions' as ``wall_s``.  ``--trace 1`` spends
half of ``--seconds`` on untraced repetitions and half on repetitions
traced by :mod:`layers`, prints the per-layer metrics and the
layer-share report, and writes every span to ``perfbench/out/``.  The
last line of output is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh interpreters timed for ``setup_s`` in every run.
COLD_STARTS = 5
#: Timed repetitions a run makes even when ``--seconds`` is shorter.
MIN_REPS = 3
#: Untraced and traced repetitions a traced run makes at least.
MIN_TRACE_REPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------- environment


def environment(seed: int) -> dict:
    """What a result depends on besides the code: stamped on every run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        cpu = platform.processor() or "unknown"
    commit = None  # a checkout without git history is named by its source
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def cold_starts(workload: str) -> tuple[list[float], dict]:
    """Time ``COLD_STARTS`` fresh interpreters, in host seconds.

    Also returns the setup layer's figures: the children's median import
    seconds and their module count after the import.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, reports = [], []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    imports = {
        "import_s": statistics.median(r["import_s"] for r in reports),
        "modules": reports[-1]["modules"],
    }
    return samples, imports


# ------------------------------------------------------------- correctness


def conserved(spec, card: dict) -> bool:
    """Checks any seed's scorecard must pass (no faults lose data here).

    The command takes any seed, but ``digests.json`` holds only the
    seeds ``digests.py`` records; a seed outside them is checked by
    these and by every repetition repeating the first one's bytes.
    """
    params, metrics = spec.params, card["metrics"]
    if spec.kind == "fleet":
        fleet = metrics["fleet"]
        flushed = (
            params["n_vehicles"] * params["flushes_per_round"]
            * params["records_per_flush"] * params["rounds"]
        )
        return (
            fleet["rounds"] == params["rounds"]
            and fleet["records_flushed"] == flushed
            and fleet["records_ingested"] == flushed
        )
    if spec.kind == "serve":
        return metrics["losses"]["conserved"] is True and metrics["slo"]["offered"] > 0
    driving, mot = metrics["driving"], metrics["mot"]
    return (
        driving["ticks"] == mot["frames"] == params["ticks"]
        and mot["gt_total"] == params["ticks"] * params["n_vehicles"]
        and mot["matches"] + mot["misses"] == mot["gt_total"]
    )


class Scorer:
    """Runs, times and checks repetitions; counts attempts and failures."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.eval.runner import run_scenario
        from repro.eval.scorecard import Evaluator
        from workloads import build_spec

        self._run_scenario = run_scenario
        self._evaluator = Evaluator
        self.spec = build_spec(workload)
        self.seed = seed
        recorded = json.loads((HERE / "digests.json").read_text())
        self.expected = recorded.get(workload, {}).get(str(seed))
        self.first: str | None = None
        self.attempted = 0
        self.failed = 0

    def repetition(self) -> float:
        """One scored repetition; returns its host seconds."""
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            card = self._evaluator().evaluate(
                self._run_scenario(self.spec, self.seed)
            ).to_json()
        except Exception:  # a failed repetition is counted, not fatal
            card = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if card is None or not self._check(card):
            self.failed += 1
        return elapsed

    def _check(self, card: str) -> bool:
        digest = hashlib.sha256(card.encode("utf-8")).hexdigest()
        if self.first is None:
            self.first = digest
        if self.expected is not None:
            ok = digest == self.expected
        else:
            ok = digest == self.first and conserved(self.spec, json.loads(card))
        if not ok:
            print(f"scorecard mismatch: sha256 {digest}", file=sys.stderr)
        return ok

    def timed(self, seconds: float, min_reps: int, before) -> list[float]:
        """Repetitions while the next is predicted to end within ``seconds``.

        ``before(i)`` runs ahead of repetition ``i``, outside its timer
        but inside ``seconds``.
        """
        times: list[float] = []
        begin = time.perf_counter()
        while True:
            spent = time.perf_counter() - begin
            if len(times) >= min_reps and spent + spent / len(times) > seconds:
                return times
            before(len(times))
            times.append(self.repetition())


# ------------------------------------------------------------------ output


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:28s} {value:14.6f} {unit:6s} {note}")


def per_layer_metrics(recorder, names, n_reps, wall_s, traced_s, imports, warmup_s):
    """Every ``per_layer`` metric of BENCHMARK.json, from one traced run."""
    count = recorder.count
    values: dict[str, float] = {
        "setup.import_s": imports["import_s"],
        "setup.modules": imports["modules"],
        "setup.warmup_excess_s": warmup_s - wall_s,
    }
    for name in ("fleet.collect", "fleet.ingest", "fleet.train", "fleet.rollout"):
        values[f"{name}.s"] = names[name]["self_s"]
    for name in (
        "fleet.encode", "fleet.decode", "fleet.sample",
        "objectstore.put", "objectstore.get", "objectstore.list",
        "ml.predict", "ml.step", "sim.step", "sim.point_at",
        "sim.heading_at", "sim.project", "core.driver", "eval.tracker",
        "serve.submit", "serve.slo", "net.latency", "obs.observe", "obs.inc",
    ):
        values[f"{name}.calls"] = names[name]["calls"]
        values[f"{name}.s"] = names[name]["self_s"]
    for name in ("fleet.encode", "fleet.decode", "sim.step", "serve.submit"):
        values[f"{name}.p99_us"] = names[name]["p99_us"]
    shards = count("fleet.shards_flushed", n_reps)
    shard_bytes = count("fleet.shard_bytes", n_reps)
    values["fleet.encodes_per_flush"] = (
        names["fleet.encode"]["calls"] / shards if shards else 0.0
    )
    values["fleet.shard_bytes"] = shard_bytes
    values["fleet.payload_ratio"] = (
        count("fleet.payload_bytes", n_reps) / shard_bytes if shard_bytes else 0.0
    )
    fit = names["ml.fit"]
    samples = count("ml.fit.samples", n_reps)
    values["ml.fit.s"] = fit["self_s"]
    values["ml.fit.samples"] = samples
    values["ml.fit.samples_per_s"] = samples / fit["incl_s"] if fit["incl_s"] else 0.0
    values["eval.evaluate.s"] = names["eval.evaluate"]["self_s"]
    values["serve.run.s"] = names["serve.run"]["self_s"]
    values["obs.spans"] = count("obs.spans", n_reps)
    values["obs.series"] = count("obs.series", n_reps)
    events = count("common.events", n_reps)
    values["common.events"] = events
    values["common.host_us_per_event"] = wall_s / events * 1e6 if events else 0.0
    values["common.sched.s"] = names["common.sched"]["self_s"]
    values["trace.overhead"] = traced_s / wall_s
    return values


def share_report(workload, names, layers, traced_s) -> None:
    """Share of a traced repetition per span name and per layer."""
    print(f"layer share of a traced {workload} repetition ({traced_s:.3f} s)")
    print(f"  {'span':18s} {'calls':>8s} {'incl%':>7s} {'self%':>7s}")
    for name, stat in names.items():
        if stat["calls"]:
            print(
                f"  {name:18s} {stat['calls']:8d} "
                f"{100 * stat['incl_s'] / traced_s:7.2f} "
                f"{100 * stat['self_s'] / traced_s:7.2f}"
            )
    print(f"  {'layer':18s} {'':8s} {'incl%':>7s} {'self%':>7s}")
    for layer, stat in layers.items():
        if stat["incl_s"]:
            print(
                f"  {layer:18s} {'':8s} "
                f"{100 * stat['incl_s'] / traced_s:7.2f} "
                f"{100 * stat['self_s'] / traced_s:7.2f}"
            )
    print("  (incl%: outermost calls, span to span; self%: minus traced children)")


def declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = bench["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def traced_repetitions(scorer, seconds: float):
    """Repetitions under :class:`layers.Recorder`; wrappers removed after."""
    from layers import Recorder

    recorder = Recorder()
    recorder.install()
    try:
        traced = scorer.timed(
            seconds, MIN_TRACE_REPS, lambda i: setattr(recorder, "rep_id", i)
        )
    finally:
        recorder.uninstall()
    return recorder, traced


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads, here and in children
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # setup_s times interpreters that find the program's bytecode cached,
    # as an installed program's are, whatever the calling environment says.
    sys.dont_write_bytecode = False
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.path.insert(0, str(SRC))
    import speed  # numpy loads only now, with the thread pools pinned

    units = declared(args.trace)
    scorer = Scorer(args.workload, args.seed)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    setup_probes = [speed.probe()]
    setup, imports = cold_starts(args.workload)
    setup_probes.append(speed.probe())
    warmup_s = scorer.repetition()
    seconds = args.seconds / 2 if args.trace else args.seconds
    probes: list[float] = []
    times = scorer.timed(
        seconds, MIN_TRACE_REPS if args.trace else MIN_REPS,
        lambda _i: probes.append(speed.probe()),
    )
    probes.append(speed.probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = speed.at_reference_speed([statistics.median(setup)], setup_probes)[0]
    wall_s = statistics.median(times)
    wall_ref_s = statistics.median(speed.at_reference_speed(times, probes))

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    show("setup_s", setup_s, "s", f"median of {len(setup)} cold starts at reference "
         f"speed; {statistics.median(setup):.3f} host s")
    show("wall_ref_s", wall_ref_s, "s", f"median of {len(times)} repetitions "
         f"at reference speed, after a {warmup_s:.3f} s warm-up")
    show("wall_s", wall_s, "s", f"the same in host seconds; median probe "
         f"{statistics.median(probes):.3f} s against {speed.REFERENCE_S} s")
    show("peak_rss_mb", peak_rss_mb, "MiB")
    metrics = {"setup_s": setup_s, "wall_ref_s": wall_ref_s, "peak_rss_mb": peak_rss_mb}
    unsteady: list[str] = []

    if args.trace:
        recorder, traced = traced_repetitions(scorer, seconds)
        traced_s = statistics.median(traced)
        names, layers = recorder.summarize(len(traced))
        share_report(args.workload, names, layers, traced_s)
        metrics = per_layer_metrics(
            recorder, names, len(traced), wall_s, traced_s, imports, warmup_s
        )
        for name, value in metrics.items():
            show(name, value, units.get(name, ""))
        unsteady = [n for n, s in names.items() if not s["steady"]]
        if unsteady:
            print(f"call counts differ between repetitions: {unsteady}",
                  file=sys.stderr)
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz", env)

    error_rate = scorer.failed / scorer.attempted
    show("error_rate", error_rate, "ratio",
         f"{scorer.failed} of {scorer.attempted} repetitions failed")
    if set(units) != set(metrics):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}"
        )
    correct = scorer.failed == 0 and not unsteady
    print(json.dumps({
        "correct": correct,
        "attempted": scorer.attempted,
        "failed": scorer.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
