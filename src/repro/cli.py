"""``autolearn`` command-line interface.

A thin operational wrapper over the library for the common module
steps — mirroring the ``donkey`` CLI the paper's students use:

* ``autolearn tracks`` — list the registered tracks and their geometry.
* ``autolearn collect`` — drive the simulator into a tub.
* ``autolearn clean`` — run tubclean over a tub.
* ``autolearn train`` — train one of the six models on a tub.
* ``autolearn evaluate`` — drive a trained model and report qualities.
* ``autolearn pipeline`` — run a full pathway end to end.
* ``autolearn serve`` — run a fleet inference-serving experiment.
* ``autolearn chaos`` — ``serve`` with the stock fault plan and the
  autoscaler on.
* ``autolearn fleet`` — run the continuous-learning continuum loop.
* ``autolearn trace`` — run a library scenario with tracing attached.
* ``autolearn eval`` — score declarative scenarios against goldens.
* ``autolearn lint`` — run the reprolint invariant checker.

``pipeline``, ``serve``, ``chaos``, ``fleet`` and ``trace`` turn their
flags into a :class:`~repro.eval.spec.ScenarioSpec` and run it through
:func:`~repro.eval.runner.run_scenario`, the one front door every
scenario takes.  Bad outside input (a malformed flag value or file, a
spec the runner rejects) prints one ``error:`` line on stderr and exits
2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.common.errors import ConfigurationError, SimulationError

__all__ = ["main", "build_parser", "default_plan"]


def _add_serve_arguments(p: argparse.ArgumentParser) -> None:
    """The flags of ``serve`` (and of ``chaos``, which is ``serve``)."""
    p.add_argument("--vehicles", type=int, default=256,
                   help="closed-loop fleet size (20 Hz control loops)")
    p.add_argument("--rate", type=float, default=0.0,
                   help="open-loop Poisson rate in Hz (any nonzero rate "
                        "overrides --vehicles)")
    p.add_argument("--replicas", type=int, default=4)
    p.add_argument("--batch", default="adaptive",
                   choices=["single", "size", "wait", "adaptive"])
    p.add_argument("--router", default="least-outstanding",
                   choices=["round-robin", "least-outstanding", "latency-ewma"])
    p.add_argument("--queue-capacity", type=int, default=256)
    p.add_argument("--queue-policy", default="drop",
                   choices=["drop", "shed", "backpressure"])
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--max-wait-ms", type=float, default=8.0)
    p.add_argument("--deadline-ms", type=float, default=100.0)
    p.add_argument("--duration", type=float, default=10.0,
                   help="simulated seconds of offered load")
    p.add_argument("--gpu", default="V100",
                   help="testbed GPU spec the replicas are pinned to")
    p.add_argument("--model", default="none",
                   choices=["none", "linear", "memory", "3d", "categorical",
                            "inferred", "rnn"],
                   help="run real batched forward passes ('none' = "
                        "latency-only simulation)")
    p.add_argument("--model-flops", type=float, default=1e8,
                   help="forward-pass FLOPs per frame for the cost model")
    p.add_argument("--faults", default="",
                   help="JSON file holding a list of fault specs to play "
                        "against the replicas")
    p.add_argument("--autoscale", action="store_true",
                   help="enable the reactive autoscaler")
    p.add_argument("--max-replicas", type=int, default=8)
    p.add_argument("--provision-delay", type=float, default=5.0,
                   help="autoscale provisioning delay in seconds")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autolearn",
        description="AutoLearn: Learning in the Edge to Cloud Continuum",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tracks", help="list registered tracks")

    p = sub.add_parser("collect", help="collect driving data in the simulator")
    p.add_argument("tub", help="tub directory to create")
    p.add_argument("--track", default="default-tape-oval")
    p.add_argument("--records", type=int, default=2000)
    p.add_argument("--skill", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--camera", default="48x64")

    p = sub.add_parser("clean", help="run tubclean over a tub")
    p.add_argument("tub", help="tub directory")
    p.add_argument("--dry-run", action="store_true",
                   help="report spans without marking them")

    p = sub.add_parser("train", help="train a model on a tub")
    p.add_argument("tub", help="tub directory")
    p.add_argument("model_out", help="output .npz path")
    p.add_argument("--model", default="linear",
                   choices=["linear", "memory", "3d", "categorical",
                            "inferred", "rnn"])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="drive a trained model on a track")
    p.add_argument("model", help="trained .npz path")
    p.add_argument("--track", default="default-tape-oval")
    p.add_argument("--ticks", type=int, default=800)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pipeline", help="run a full learning pathway")
    p.add_argument("pathway", choices=["regular", "classroom", "digital"])
    p.add_argument("--workdir", default="./autolearn-run")
    p.add_argument("--records", type=int, default=1200)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "serve", help="run a deterministic fleet inference-serving experiment"
    )
    _add_serve_arguments(p)

    p = sub.add_parser(
        "chaos",
        help="serve under the stock fault plan (or --faults) with the "
             "autoscaler on",
    )
    _add_serve_arguments(p)
    # The fleet shape the stock plan was written for: a replacement
    # replica provisions in time to serve before the run ends.
    p.set_defaults(vehicles=64, replicas=3, provision_delay=1.0)

    p = sub.add_parser(
        "fleet",
        help="run the fleet continuous-learning loop (collect -> retrain "
             "-> shadow/canary rollout)",
    )
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--vehicles", type=int, default=8,
                   help="data-collection fleet size")
    p.add_argument("--stage-vehicles", type=int, default=6,
                   help="closed-loop vehicles driving each rollout stage")
    p.add_argument("--canary-fraction", type=float, default=0.3,
                   help="fraction of stage traffic sent to the canary")
    p.add_argument("--poison-round", type=int, default=0,
                   help="invert steering labels collected in this round "
                        "(the degraded candidate must roll back)")
    p.add_argument("--crash-canary-round", type=int, default=0,
                   help="crash the canary replica in this round's canary "
                        "stage (the candidate must roll back)")
    p.add_argument("--json", action="store_true",
                   help="emit the full summary as JSON")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "trace",
        help="run a library scenario with deterministic tracing attached",
    )
    p.add_argument("scenario", metavar="NAME",
                   help="a repro.eval.library scenario (see autolearn eval "
                        "--list)")
    p.add_argument("--out", default="./autolearn-trace",
                   help="directory for trace.json / trace.txt / metrics.json")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "eval",
        help="run declarative scenarios and diff canonical scorecards "
             "against the checked-in goldens",
    )
    from repro.eval.cli import add_eval_arguments

    add_eval_arguments(p)

    p = sub.add_parser(
        "lint", help="run reprolint, the AST-based invariant checker"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p)
    return parser


def _camera_hw(spec: str) -> tuple[int, int]:
    try:
        h, w = (int(v) for v in spec.split("x"))
    except ValueError:
        raise ConfigurationError(
            f"--camera takes HEIGHTxWIDTH, like 48x64; got {spec!r}"
        ) from None
    return h, w


def _run(name: str, kind: str, params: dict, seed: int, **kwargs):
    """Run a spec built from command-line flags."""
    from repro.eval.runner import run_scenario
    from repro.eval.spec import ScenarioSpec

    return run_scenario(ScenarioSpec(name, kind, params), seed=seed, **kwargs)


def _cmd_tracks(_args) -> int:
    from repro.sim.server import AVAILABLE_TRACKS, make_track

    print(f"{'name':20s} {'length(m)':>10s} {'width(m)':>9s} {'min radius':>11s}")
    for name in sorted(AVAILABLE_TRACKS):
        track = make_track(name)
        print(f"{name:20s} {track.length:10.2f} {track.width:9.2f} "
              f"{track.minimum_radius():11.2f}")
    return 0


def _track(name: str):
    """The registered track ``name``; an unknown name is a bad flag."""
    from repro.sim.server import make_track

    try:
        return make_track(name)
    except SimulationError as exc:
        raise ConfigurationError(f"--track: {exc.args[0]}") from None


def _cmd_collect(args) -> int:
    from repro.core.collection import collect_via_simulator

    track = _track(args.track)
    report = collect_via_simulator(
        track, args.tub, n_records=args.records, skill=args.skill,
        seed=args.seed, camera_hw=_camera_hw(args.camera),
    )
    print(f"collected {report.records} records in {report.wall_seconds:.0f} "
          f"sim-seconds ({report.laps} laps, {report.crashes} crashes) "
          f"-> {args.tub}")
    return 0


def _cmd_clean(args) -> int:
    from repro.data.tub import Tub
    from repro.data.tubclean import TubCleaner

    tub = Tub(args.tub)
    cleaner = TubCleaner(tub)
    spans = cleaner.find_bad_spans()
    for span in spans:
        print(f"  [{span.reason:8s}] records {span.start}..{span.stop - 1}")
    if args.dry_run:
        print(f"dry run: {len(spans)} bad spans found")
        return 0
    marked = cleaner.clean()
    print(f"marked {marked} records for deletion; {tub.active_count} remain")
    return 0


def _cmd_train(args) -> int:
    from repro.data.datasets import TubDataset
    from repro.data.tub import Tub
    from repro.ml import EarlyStopping, Trainer, create_model, save_model

    tub = Tub(args.tub)
    image = tub.load_image(tub.indexes()[0])
    dataset = TubDataset(tub)
    model = create_model(
        args.model, input_shape=image.shape, scale=args.scale, seed=args.seed
    )
    split = dataset.split_for(model, rng=args.seed, flip_augment=True)
    history = Trainer(
        batch_size=64, epochs=args.epochs,
        early_stopping=EarlyStopping(patience=3), shuffle_seed=args.seed,
        verbose=True,
    ).fit(model, split)
    save_model(model, args.model_out)
    print(f"best val loss {history.best_val_loss:.4f} "
          f"after {history.epochs} epochs -> {args.model_out}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core.evaluation import evaluate_model
    from repro.ml import load_model
    from repro.sim.renderer import CameraParams

    track = _track(args.track)
    model = load_model(args.model)
    h, w, _ = model.input_shape
    report = evaluate_model(
        model, track, ticks=args.ticks, seed=args.seed,
        camera=CameraParams(height=h, width=w),
    )
    print(f"model:      {report.model_name}")
    print(f"laps:       {report.laps} (mean lap {report.mean_lap_time:.2f} s)")
    print(f"errors:     {report.errors}")
    print(f"mean speed: {report.mean_speed:.2f} m/s")
    print(f"mean |cte|: {report.mean_abs_cte:.3f} m")
    print(f"score:      {report.combined_score():.2f}")
    return 0


def _cmd_pipeline(args) -> int:
    report = _run("pipeline", "pipeline", {
        "pathway": args.pathway,
        "n_records": args.records,
        "epochs": args.epochs,
        # Full-size frames, model and evaluation, not the library's toy.
        "camera_hw": [60, 80],
        "model_scale": 0.5,
        "eval_ticks": 800,
    }, args.seed, work_dir=args.workdir, instrument=False).artifacts["report"]
    for stage in report.stages:
        print(f"{stage.stage:12s} {stage.alternative:14s} "
              f"{stage.sim_seconds:9.1f} s  {stage.details}")
    evaluation = report.evaluation
    print(f"evaluation: laps={evaluation.laps} errors={evaluation.errors} "
          f"speed={evaluation.mean_speed:.2f} m/s")
    return 0


def _serve_params(args, faults: list) -> dict:
    deadline_s = args.deadline_ms / 1e3
    if not 0 < deadline_s < math.inf:
        raise ConfigurationError(
            f"--deadline-ms must be finite and positive, got {args.deadline_ms}"
        )
    if args.rate != 0:
        workload = {
            "shape": "poisson", "rate_hz": args.rate, "deadline_s": deadline_s,
        }
    else:
        workload = {
            "shape": "vehicles",
            "n_vehicles": args.vehicles,
            # Vehicles tick at 20 Hz: the deadline in whole ticks.
            "deadline_ticks": max(1, round(deadline_s / 0.05)),
        }
    params = {
        "duration_s": args.duration,
        "service": {
            "replicas": args.replicas,
            "router": args.router,
            "batch_policy": args.batch,
            "max_batch": args.max_batch,
            "max_wait_s": args.max_wait_ms / 1e3,
            "queue_capacity": args.queue_capacity,
            "queue_policy": args.queue_policy,
            "gpu": args.gpu,
            "flops_per_frame": args.model_flops,
            "model": args.model,
        },
        "workload": workload,
        "faults": faults,
    }
    if args.autoscale:
        params["autoscale"] = {
            "min_replicas": args.replicas,
            "max_replicas": args.max_replicas,
            "p95_target_s": deadline_s,
            "provision_delay_s": args.provision_delay,
        }
    return params


def _read_faults(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read --faults {path!r}: {exc}") from None


def _cmd_serve(args, faults: list | None = None) -> int:
    if args.faults:
        faults = _read_faults(args.faults)
    run = _run(args.command, "serve", _serve_params(args, faults or []),
               args.seed, instrument=False)
    print(run.summary, end="")
    return 0


def default_plan(replicas: int):
    """The stock chaos plan: one slow-node window, one hang, one crash."""
    from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

    if replicas < 1:
        raise ConfigurationError(f"need >= 1 replica, got {replicas}")
    specs = [
        FaultSpec(FaultKind.SLOW_NODE, "replica-*", at_s=2.0,
                  duration_s=2.0, factor=4.0),
        FaultSpec(FaultKind.REPLICA_HANG, "replica:any", at_s=3.0,
                  duration_s=1.5),
    ]
    if replicas > 1:
        specs.append(FaultSpec(FaultKind.REPLICA_CRASH, "replica:any", at_s=5.0))
    return FaultPlan(specs)


def _cmd_chaos(args) -> int:
    args.autoscale = True
    return _cmd_serve(args, default_plan(args.replicas).to_dicts())


def _cmd_fleet(args) -> int:
    from repro.fleet import FleetConfig

    params = {
        "rounds": args.rounds,
        "n_vehicles": args.vehicles,
        "stage_vehicles": args.stage_vehicles,
        "canary_fraction": args.canary_fraction,
        "poison_rounds": [args.poison_round] if args.poison_round > 0 else [],
    }
    if args.crash_canary_round > 0:
        # The canary replica is the one added after the stable replicas;
        # with the default two stable replicas that is replica-0003.
        stable = FleetConfig().stable_replicas
        params["canary_fault_plans"] = [{
            "round": args.crash_canary_round,
            "faults": [{
                "kind": "replica-crash",
                "target": f"replica-{stable + 1:04d}",
                "at_s": 0.1,
            }],
        }]
    run = _run("fleet", "fleet", params, args.seed, instrument=False)
    if args.json:
        print(json.dumps(
            run.artifacts["summary"].to_dict(), indent=2, sort_keys=True
        ))
    else:
        print(run.summary, end="")
    return 0


def _cmd_trace(args) -> int:
    from repro.eval.library import scenario_spec
    from repro.eval.runner import run_scenario
    from repro.obs.export import chrome_trace, text_tree

    spec = scenario_spec(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run = run_scenario(spec, seed=args.seed, work_dir=out / "work")
    (out / "trace.json").write_text(chrome_trace(run.tracer))
    (out / "trace.txt").write_text(text_tree(run.tracer))
    (out / "metrics.json").write_text(run.metrics.to_json())
    print(run.summary, end="")
    print(f"spans={len(run.tracer.spans)} "
          f"events={len(run.tracer.events)} -> {out}")
    return 0


def _cmd_eval(args) -> int:
    from repro.eval.cli import run_eval_command

    return run_eval_command(args)


def _cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint_command

    return run_lint_command(args)


_COMMANDS = {
    "tracks": _cmd_tracks,
    "collect": _cmd_collect,
    "clean": _cmd_clean,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
    "trace": _cmd_trace,
    "eval": _cmd_eval,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
