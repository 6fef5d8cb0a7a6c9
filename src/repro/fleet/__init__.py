"""Fleet continuous learning: the closed edge-to-cloud continuum loop.

The paper's central claim is a *loop*, not a pipeline: vehicles at the
edge generate driving data, the cloud retrains the autopilot on it, and
improved models flow back to the edge — continuously and safely.  This
package closes that loop on the repo's deterministic substrate:

* :mod:`repro.fleet.world` — a synthetic, learnable driving world;
* :mod:`repro.fleet.shards` / :mod:`repro.fleet.dataplane` — vehicles
  flushing training shards into the object store, plus the ingest stage
  that cleans them;
* :mod:`repro.fleet.trainer` — threshold-gated incremental retraining,
  warm-started from the stable checkpoint;
* :mod:`repro.fleet.registry` — TroviHub-backed model registry with
  mutable ``candidate`` / ``canary`` / ``stable`` stage tags;
* :mod:`repro.fleet.stage` / :mod:`repro.fleet.gates` /
  :mod:`repro.fleet.rollout` — shadow → canary → stable rollouts gated
  on serving SLOs and driving quality, with automatic rollback;
* :mod:`repro.fleet.loop` — the round-by-round orchestrator.
"""

from repro.fleet.config import FleetConfig
from repro.fleet.dataplane import (
    CLEAN_CONTAINER,
    RAW_CONTAINER,
    CollectReport,
    FleetDataPlane,
    IngestReport,
    IngestStage,
)
from repro.fleet.gates import GateDecision, GateThresholds, evaluate_gate
from repro.fleet.loop import FleetLoop, FleetSummary, RoundReport
from repro.fleet.registry import (
    TAG_CANARY,
    TAG_CANDIDATE,
    TAG_STABLE,
    ModelRegistry,
)
from repro.fleet.rollout import (
    OUTCOME_BOOTSTRAPPED,
    OUTCOME_PROMOTED,
    OUTCOME_ROLLED_BACK,
    RolloutController,
    RolloutReport,
    StageReport,
)
from repro.fleet.shards import decode_shard, encode_shard, shard_records
from repro.fleet.stage import StageHarness, VersionStats
from repro.fleet.trainer import IncrementalTrainer, TrainReport
from repro.fleet.world import SyntheticTrackWorld

__all__ = [
    "FleetConfig",
    "CLEAN_CONTAINER",
    "RAW_CONTAINER",
    "CollectReport",
    "FleetDataPlane",
    "IngestReport",
    "IngestStage",
    "GateDecision",
    "GateThresholds",
    "evaluate_gate",
    "FleetLoop",
    "FleetSummary",
    "RoundReport",
    "TAG_CANARY",
    "TAG_CANDIDATE",
    "TAG_STABLE",
    "ModelRegistry",
    "OUTCOME_BOOTSTRAPPED",
    "OUTCOME_PROMOTED",
    "OUTCOME_ROLLED_BACK",
    "RolloutController",
    "RolloutReport",
    "StageReport",
    "decode_shard",
    "encode_shard",
    "shard_records",
    "StageHarness",
    "VersionStats",
    "IncrementalTrainer",
    "TrainReport",
    "SyntheticTrackWorld",
]
