"""The AutoLearn pipeline: Fig. 1 as an executable object.

Runs the complete loop — data collection -> cleaning -> transfer ->
training -> deployment -> evaluation — with the alternatives selected
by a :class:`~repro.core.pathways.LearningPathway`, over the full
substrate stack (simulator, tubs, Chameleon, CHI@Edge, network,
object store).  Every stage contributes a :class:`StageReport` with
the simulated time a student would spend in it; the F1 benchmark
prints the resulting per-stage table for all three pathways.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.common.errors import ConfigurationError, ObjectStoreError
from repro.core.collection import (
    CollectionReport,
    collect_sample_dataset,
    collect_via_physical_car,
    collect_via_simulator,
    generate_sample_datasets,
)
from repro.core.evaluation import EvaluationReport, evaluate_model
from repro.core.pathways import LearningPathway, pathway as lookup_pathway
from repro.data.datasets import TubDataset
from repro.data.tubclean import TubCleaner
from repro.edge.byod import CHIEdge
from repro.ml.models.factory import create_model
from repro.ml.serialize import save_model_bytes
from repro.ml.training import EarlyStopping, Trainer, estimate_flops_per_sample
from repro.net.topology import Topology, autolearn_topology
from repro.net.transfer import scp_bytes
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    SeriesHandle,
    ensure_registry,
)
from repro.obs.tracer import NullTracer, Tracer
from repro.sim.renderer import CameraParams
from repro.sim.tracks import Track, default_tape_oval
from repro.testbed.chameleon import Chameleon
from repro.testbed.compute import TrainingJob

__all__ = ["StageReport", "PipelineReport", "AutoLearnPipeline"]

#: Student-laptop sustained FLOP/s (the "local" training alternative).
LAPTOP_FLOPS = 1.5e11


@dataclass(frozen=True)
class StageReport:
    """One pipeline stage's outcome."""

    stage: str
    alternative: str
    sim_seconds: float
    details: dict[str, Any] = field(default_factory=dict)


@dataclass
class PipelineReport:
    """Full pipeline outcome (the F1 payload)."""

    pathway: str
    stages: list[StageReport] = field(default_factory=list)
    evaluation: EvaluationReport | None = None

    @property
    def total_sim_seconds(self) -> float:
        """End-to-end simulated student time."""
        return sum(s.sim_seconds for s in self.stages)

    def stage(self, name: str) -> StageReport:
        """Fetch a stage by name."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(name)


class AutoLearnPipeline:
    """Executable Fig. 1 for one student and one pathway."""

    def __init__(
        self,
        pathway: str | LearningPathway,
        work_dir: str | Path,
        track: Track | None = None,
        model_name: str = "linear",
        n_records: int = 1500,
        epochs: int = 6,
        camera_hw: tuple[int, int] = (60, 80),
        model_scale: float = 0.5,
        seed: int = 0,
        chameleon: Chameleon | None = None,
        topology: Topology | None = None,
        gpu_node_type: str = "gpu_v100",
        eval_ticks: int = 800,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.pathway = (
            pathway if isinstance(pathway, LearningPathway) else lookup_pathway(pathway)
        )
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.track = track if track is not None else default_tape_oval()
        self.model_name = model_name
        self.n_records = int(n_records)
        self.epochs = int(epochs)
        self.camera_hw = camera_hw
        self.model_scale = float(model_scale)
        self.seed = int(seed)
        self.gpu_node_type = gpu_node_type
        self.eval_ticks = int(eval_ticks)
        self.chameleon = chameleon if chameleon is not None else Chameleon()
        self.topology = topology if topology is not None else autolearn_topology()
        self.edge_service = CHIEdge(self.chameleon.scheduler, self.chameleon.identity)
        self.model = None
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = ensure_registry(metrics)
        self._runs = SeriesHandle(
            self.metrics.counter, "pipeline.runs", pathway=self.pathway.name
        )
        self._stage_seconds: dict[str, Histogram] = {}  # bound once per stage
        if self.tracer.enabled:
            self.chameleon.object_store.attach_tracer(self.tracer)

    # ------------------------------------------------------------- run

    def run(self, student: str = "student01") -> PipelineReport:
        """Execute every stage for one student; returns the report."""
        report = PipelineReport(pathway=self.pathway.name)
        with self.tracer.span(
            "pipeline.run",
            pathway=self.pathway.name,
            student=student,
            seed=self.seed,
        ):
            with self.tracer.span(
                "pipeline.setup", alternative=self.pathway.name
            ):
                session = self._setup(student, report)
            with self.tracer.span(
                "pipeline.collection", alternative=self.pathway.collection
            ):
                collection = self._collect(report)
            with self.tracer.span("pipeline.cleaning", alternative="tubclean"):
                self._clean(collection, report)
            with self.tracer.span(
                "pipeline.training", alternative=self.pathway.training
            ):
                split = self._train(collection, session, report)
            with self.tracer.span(
                "pipeline.deployment", alternative="object-store"
            ):
                self._deploy(session, report)
            with self.tracer.span(
                "pipeline.evaluation", alternative=self.pathway.evaluation
            ):
                self._evaluate(report, split)
        self._runs.inc()
        for stage in report.stages:
            series = self._stage_seconds.get(stage.stage)
            if series is None:
                series = self._stage_seconds[stage.stage] = self.metrics.histogram(
                    "pipeline.stage_seconds", stage=stage.stage
                )
            series.observe(stage.sim_seconds)
        return report

    # ---------------------------------------------------------- stages

    def _setup(self, student: str, report: PipelineReport):
        chi = self.chameleon
        start = chi.clock.now
        project, _ = chi.onboard_class("instructor", "university", [student])
        session = chi.login(student, project.project_id)
        details: dict[str, Any] = {"project": project.project_id}
        if self.pathway.needs_car:
            device = self.edge_service.enroll(session, "car-01")
            self.edge_service.allocate(session, device.device_id)
            deploy = self.edge_service.launch_container(session, device.device_id)
            details["device"] = device.device_id
            details["container_deploy_s"] = deploy.total_s
            self._device = device
        report.stages.append(
            StageReport("setup", self.pathway.name, chi.clock.now - start, details)
        )
        return session

    def _collect(self, report: PipelineReport) -> CollectionReport:
        alternative = self.pathway.collection
        route = self.topology.route("car-pi", "chi-uc")
        if alternative == "simulator":
            result = collect_via_simulator(
                self.track,
                self.work_dir / "tub",
                n_records=self.n_records,
                seed=self.seed,
                camera_hw=self.camera_hw,
            )
        elif alternative == "physical":
            result = collect_via_physical_car(
                self.track,
                self.work_dir / "tub",
                route_to_cloud=route,
                n_records=self.n_records,
                seed=self.seed,
                camera_hw=self.camera_hw,
            )
        elif alternative == "sample":
            store = self.chameleon.object_store
            try:
                store.container("sample-datasets").get(
                    f"sample-{self.track.name}.tar"
                )
            except ObjectStoreError:
                # Sample tarball not published yet: generate and publish it.
                generate_sample_datasets(
                    store,
                    [self.track],
                    self.work_dir / "publish",
                    n_records=self.n_records,
                    camera_hw=self.camera_hw,
                )
            result = collect_sample_dataset(
                store,
                self.track.name,
                self.work_dir / "download",
                route=self.topology.route("laptop", "chi-uc"),
            )
        else:  # pragma: no cover - guarded by pathway validation
            raise ConfigurationError(f"unknown collection path {alternative!r}")
        self.chameleon.clock.advance(result.wall_seconds)
        report.stages.append(
            StageReport(
                "collection",
                alternative,
                result.wall_seconds,
                {
                    "records": result.records,
                    "laps": result.laps,
                    "crashes": result.crashes,
                },
            )
        )
        return result

    def _clean(self, collection: CollectionReport, report: PipelineReport) -> None:
        cleaner = TubCleaner(collection.tub)
        marked = cleaner.clean(half_width=self.track.half_width)
        # Reviewing the video takes ~1 s per 10 records plus selection.
        review_s = len(collection.tub) / 10.0 + 30.0
        self.chameleon.clock.advance(review_s)
        report.stages.append(
            StageReport(
                "cleaning",
                "tubclean",
                review_s,
                {"marked": marked, "active": collection.tub.active_count},
            )
        )

    def _train(self, collection: CollectionReport, session, report: PipelineReport):
        alternative = self.pathway.training
        dataset = TubDataset(collection.tub)
        model = create_model(
            self.model_name,
            input_shape=(self.camera_hw[0], self.camera_hw[1], 3),
            scale=self.model_scale,
            seed=self.seed,
        )
        split = dataset.split_for(model, rng=self.seed)

        trainer = Trainer(
            batch_size=64,
            epochs=self.epochs,
            early_stopping=EarlyStopping(patience=4),
            shuffle_seed=self.seed,
        )
        history = trainer.fit(model, split)
        self.model = model

        job = TrainingJob(
            flops_per_sample=estimate_flops_per_sample(model),
            n_samples=len(split.y_train),
            epochs=history.epochs,
        )
        details: dict[str, Any] = {
            "epochs": history.epochs,
            "best_val_loss": history.best_val_loss,
        }
        start = self.chameleon.clock.now
        if alternative == "cloud-gpu":
            lease = self.chameleon.reserve_gpu_node(session, self.gpu_node_type)
            instance = self.chameleon.deploy_training_server(lease)
            run = self.chameleon.provisioning.run_training_job(instance, job)
            details["gpu"] = run.gpu_name
            details["gpu_seconds"] = run.simulated_seconds
            self.chameleon.leases.terminate(lease.lease_id)
        elif alternative == "local":
            laptop_s = job.total_flops / LAPTOP_FLOPS
            self.chameleon.clock.advance(laptop_s)
            details["laptop_seconds"] = laptop_s
        elif alternative == "pretrained":
            details["source"] = "object-store"
        else:  # pragma: no cover - guarded by pathway validation
            raise ConfigurationError(f"unknown training path {alternative!r}")
        report.stages.append(
            StageReport(
                "training", alternative, self.chameleon.clock.now - start, details
            )
        )
        return split

    def _deploy(self, session, report: PipelineReport) -> None:
        payload = save_model_bytes(self.model)
        store = self.chameleon.object_store
        store.create_container("models").put(
            f"{self.pathway.name}-{self.model_name}.npz", payload
        )
        seconds = 0.0
        details: dict[str, Any] = {"model_bytes": len(payload)}
        if self.pathway.evaluation == "physical":
            route = self.topology.route("chi-uc", "car-pi")
            transfer = scp_bytes(
                len(payload),
                route,
                clock=self.chameleon.clock,
                rng=self.seed + 3,
                tracer=self.tracer,
            )
            seconds = transfer.seconds
            details["scp_seconds"] = transfer.seconds
        report.stages.append(StageReport("deployment", "object-store", seconds, details))

    def _evaluate(self, report: PipelineReport, split) -> None:
        camera = CameraParams(height=self.camera_hw[0], width=self.camera_hw[1])
        evaluation = evaluate_model(
            self.model,
            self.track,
            ticks=self.eval_ticks,
            seed=self.seed + 11,
            camera=camera,
        )
        self.chameleon.clock.advance(evaluation.sim_seconds)
        report.evaluation = evaluation
        report.stages.append(
            StageReport(
                "evaluation",
                self.pathway.evaluation,
                evaluation.sim_seconds,
                {
                    "laps": evaluation.laps,
                    "errors": evaluation.errors,
                    "mean_speed": evaluation.mean_speed,
                },
            )
        )
