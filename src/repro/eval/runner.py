"""Interpret a :class:`~repro.eval.spec.ScenarioSpec`: build, wire, run.

One generic runner per scenario *kind*, and the one front door every
scenario takes: the library's named specs, the ``autolearn`` commands
that turn their flags into a spec, and the benchmark all call
:func:`run_scenario`.

Each kind declares its params once, names and defaults in one table
(:data:`PIPELINE_PARAMS`, :data:`SERVE_PARAMS`,
:data:`~repro.eval.drive.DRIVE_PARAMS`, and for ``fleet`` the fields of
:class:`~repro.fleet.FleetConfig` itself).  A key the table does not
know, at any nesting level, raises
:class:`~repro.common.errors.ConfigurationError` before anything runs,
so a misspelled key never silently runs the default.  So does a
number that is NaN, infinite, negative, or a fraction where a count is
due, or one out of its setting's range.  A table param is checked by
:func:`~repro.eval.spec.resolve_params` against its default's type
(``drive`` also refuses a zero where it needs a positive number); the
``fleet`` params and the ``autoscale`` group are checked by the config
they build, and the runner prefixes its message with the spec, so each
reads ``'<spec>' params.<key> ...``.

Every run records into its own
:class:`~repro.obs.metrics.MetricsRegistry`.  ``instrument`` only picks
the tracer: a :class:`~repro.obs.tracer.Tracer` when true, a
:class:`~repro.obs.tracer.NullTracer` when false.  Neither the run's
*behavior* (and hence its scorecard) nor its metrics may change with
it, which the property suite pins.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError, NoSuchResourceError
from repro.common.params import frame_hw_param
from repro.eval.drive import run_drive
from repro.eval.library import net_route
from repro.eval.spec import ScenarioSpec, check_keys, resolve_params
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, Tracer

__all__ = ["PIPELINE_PARAMS", "SERVE_PARAMS", "ScenarioRun", "run_scenario"]

#: ``pipeline`` params: name -> default.
PIPELINE_PARAMS: dict[str, Any] = {
    "pathway": "digital",
    "n_records": 80,
    "epochs": 1,
    "camera_hw": [24, 32],
    "model_scale": 0.25,
    "eval_ticks": 60,
}

#: ``serve`` params: name -> default; a dict default is a nested group.
#: ``workload`` holds the keys of both shapes (``poisson`` reads
#: ``rate_hz``/``deadline_s``, ``vehicles`` reads ``n_vehicles``/
#: ``deadline_ticks``).  ``service.model`` names a :mod:`repro.ml` model
#: whose real batched forward passes answer the requests (``"none"``
#: simulates latency only).  ``autoscale`` holds
#: :class:`~repro.serve.autoscale.AutoscalePolicy` fields; the
#: autoscaler is off while it is ``None``.
SERVE_PARAMS: dict[str, Any] = {
    "duration_s": 1.0,
    "service": {
        "replicas": 1,
        "router": "least-outstanding",
        "batch_policy": "adaptive",
        "max_batch": 32,
        "max_wait_s": 0.008,
        "queue_capacity": 256,
        "queue_policy": "drop",
        "gpu": "V100",
        "flops_per_frame": 1e8,
        "model": "none",
    },
    "workload": {
        "shape": "poisson",
        "rate_hz": 50.0,
        "deadline_s": 0.1,
        "n_vehicles": 16,
        "deadline_ticks": 2,
    },
    "net": "lan",
    "faults": [],
    "trace_requests": False,
    "autoscale": None,
}

#: Frames a serve run with a real ``service.model`` feeds it.
_MODEL_FRAME_SHAPE = (48, 64, 3)


@dataclass
class ScenarioRun:
    """One finished scenario: instrumentation, summary, artifacts."""

    spec: ScenarioSpec
    seed: int
    tracer: Tracer | NullTracer
    metrics: MetricsRegistry
    summary: str
    artifacts: dict[str, Any] = field(default_factory=dict)


def _instrumentation(clock, instrument: bool):
    """The run's tracer (a no-op one unless ``instrument``) and registry."""
    if instrument:
        return Tracer(clock), MetricsRegistry()
    return NullTracer(), MetricsRegistry()


def _where(spec: ScenarioSpec) -> str:
    return f"{spec.kind} spec {spec.name!r} params"


def _build(cls, values, where: str, **fixed):
    """``cls(**values, **fixed)``; a key ``cls`` does not declare raises.

    So does any value ``cls`` itself refuses, its message prefixed with
    ``where``: each config checks its own numbers and ranges.
    """
    check_keys(values, {f.name for f in fields(cls)} - set(fixed), where)
    try:
        return cls(**values, **fixed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}.{exc}") from None


def _run_pipeline(
    spec: ScenarioSpec, seed: int, work_dir: Path, instrument: bool
) -> ScenarioRun:
    from repro.core.pipeline import AutoLearnPipeline
    from repro.testbed.chameleon import Chameleon

    params = resolve_params(spec.params, PIPELINE_PARAMS, _where(spec))
    camera_hw = frame_hw_param(params["camera_hw"], f"{_where(spec)}.camera_hw")
    chameleon = Chameleon()
    tracer, metrics = _instrumentation(chameleon.clock, instrument)
    pathway = str(params["pathway"])
    pipeline = AutoLearnPipeline(
        pathway,
        work_dir,
        n_records=params["n_records"],
        epochs=params["epochs"],
        camera_hw=camera_hw,
        model_scale=params["model_scale"],
        eval_ticks=params["eval_ticks"],
        seed=seed,
        chameleon=chameleon,
        tracer=tracer,
        metrics=metrics,
    )
    report = pipeline.run()
    tracer.close_all()
    lines = [f"{spec.name} pathway={pathway} seed={seed}"]
    for stage in report.stages:
        lines.append(
            f"  {stage.stage:12s} {stage.alternative:12s} "
            f"{stage.sim_seconds:12.4f} s"
        )
    lines.append(f"  total        {report.total_sim_seconds:25.4f} s")
    return ScenarioRun(
        spec, seed, tracer, metrics, "\n".join(lines) + "\n",
        {"report": report},
    )


def _make_workload(workload_params: dict, seed: int, frame_shape):
    from repro.serve.workload import PoissonWorkload, VehicleFleetWorkload

    shape = str(workload_params["shape"])
    if shape == "poisson":
        return PoissonWorkload(
            workload_params["rate_hz"],
            deadline_s=workload_params["deadline_s"],
            seed=seed,
            frame_shape=frame_shape,
        )
    if shape == "vehicles":
        return VehicleFleetWorkload(
            workload_params["n_vehicles"],
            deadline_ticks=workload_params["deadline_ticks"],
            seed=seed,
            frame_shape=frame_shape,
        )
    raise ConfigurationError(
        f"unknown workload shape {shape!r}; choose poisson or vehicles"
    )


def _run_serve(spec: ScenarioSpec, seed: int, instrument: bool) -> ScenarioRun:
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.serve.autoscale import AutoscalePolicy, Autoscaler
    from repro.serve.replica import BatchLatencyModel
    from repro.serve.service import InferenceService
    from repro.testbed.hardware import gpu_spec

    where = _where(spec)
    params = resolve_params(spec.params, SERVE_PARAMS, where)
    service_params = params["service"]
    scheduler = EventScheduler()
    tracer, metrics = _instrumentation(scheduler.clock, instrument)
    plan = FaultPlan.from_dicts(params["faults"])
    injector = None
    if len(plan):
        injector = FaultInjector(plan, seed=seed, tracer=tracer)
    try:
        gpu = gpu_spec(str(service_params["gpu"]))
    except NoSuchResourceError as exc:
        raise ConfigurationError(f"{where}.service: {exc.args[0]}") from None
    latency_model = BatchLatencyModel.from_gpu(
        gpu, flops_per_frame=service_params["flops_per_frame"]
    )
    model = frame_shape = None
    if service_params["model"] != "none":
        from repro.ml import create_model

        frame_shape = _MODEL_FRAME_SHAPE
        model = create_model(
            str(service_params["model"]), input_shape=frame_shape,
            scale=0.25, seed=seed,
        )
    service = InferenceService(
        latency_model,
        scheduler=scheduler,
        model=model,
        n_replicas=service_params["replicas"],
        router=str(service_params["router"]),
        batch_policy=str(service_params["batch_policy"]),
        max_batch=service_params["max_batch"],
        max_wait_s=service_params["max_wait_s"],
        queue_capacity=service_params["queue_capacity"],
        queue_policy=str(service_params["queue_policy"]),
        route=net_route(str(params["net"])),
        seed=seed,
        injector=injector,
        tracer=tracer,
        metrics=metrics,
        trace_requests=bool(params["trace_requests"]),
    )
    workload = _make_workload(params["workload"], seed, frame_shape)
    autoscaler = None
    if params["autoscale"] is not None:
        policy = _build(AutoscalePolicy, params["autoscale"], f"{where}.autoscale")
        autoscaler = Autoscaler(service, policy)
    summary = service.run(
        workload, params["duration_s"], autoscaler=autoscaler
    )
    tracer.close_all()
    return ScenarioRun(
        spec, seed, tracer, metrics, summary.to_text(),
        {"summary": summary, "workload": workload},
    )


def _run_fleet(spec: ScenarioSpec, seed: int, instrument: bool) -> ScenarioRun:
    from repro.faults.plan import FaultPlan
    from repro.fleet import FleetConfig, FleetLoop, GateThresholds

    where = _where(spec)
    params = dict(spec.params)
    params["gates"] = _build(
        GateThresholds, params.get("gates", {}), f"{where}.gates"
    )
    plans = []
    for index, entry in enumerate(params.get("canary_fault_plans", [])):
        entry_where = f"{where}.canary_fault_plans[{index}]"
        check_keys(entry, ("round", "faults"), entry_where)
        if set(entry) != {"round", "faults"}:
            raise ConfigurationError(f"{entry_where} needs both round and faults")
        plans.append((entry["round"], FaultPlan.from_dicts(entry["faults"])))
    params["canary_fault_plans"] = tuple(plans)
    if params.get("store_fault_plan") is not None:
        params["store_fault_plan"] = FaultPlan.from_dicts(params["store_fault_plan"])
    config = _build(FleetConfig, params, where, seed=seed)
    scheduler = EventScheduler()
    tracer, metrics = _instrumentation(scheduler.clock, instrument)
    loop = FleetLoop(config, scheduler=scheduler, tracer=tracer, metrics=metrics)
    summary = loop.run()
    tracer.close_all()
    return ScenarioRun(
        spec, seed, tracer, metrics, summary.to_text(), {"summary": summary}
    )


def _run_drive(spec: ScenarioSpec, seed: int, instrument: bool) -> ScenarioRun:
    scheduler = EventScheduler()
    tracer, metrics = _instrumentation(scheduler.clock, instrument)
    summary, artifacts = run_drive(
        spec.name, spec.params, seed, scheduler, tracer, metrics
    )
    tracer.close_all()
    return ScenarioRun(
        spec, seed, tracer, metrics, summary, {"artifacts": artifacts}
    )


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    work_dir: str | Path | None = None,
    instrument: bool = True,
) -> ScenarioRun:
    """Run one spec to completion on the simulated clock.

    ``work_dir`` holds scratch artifacts for filesystem-using kinds
    (``pipeline``); when omitted a temporary directory is created and —
    because the scenario body runs inside the ``with`` block — removed
    even when the scenario raises.  Nothing in the returned run depends
    on the path, so outputs are byte-identical per seed either way.
    """
    seed = int(seed)
    if spec.kind == "pipeline":
        if work_dir is not None:
            return _run_pipeline(spec, seed, Path(work_dir), instrument)
        with tempfile.TemporaryDirectory() as tmp:
            return _run_pipeline(spec, seed, Path(tmp), instrument)
    if spec.kind == "serve":
        return _run_serve(spec, seed, instrument)
    if spec.kind == "fleet":
        return _run_fleet(spec, seed, instrument)
    if spec.kind == "drive":
        return _run_drive(spec, seed, instrument)
    raise ConfigurationError(f"unknown scenario kind {spec.kind!r}")
