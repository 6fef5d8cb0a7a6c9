"""Configuration for the fleet continuous-learning loop.

One frozen dataclass holds every knob of the loop — data plane, trainer
thresholds, rollout stages, gates, and per-round fault plans — so a
whole experiment is a value that can be logged, varied in benchmarks,
and replayed byte-identically from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.params import check_numbers, frame_hw_param, number_param
from repro.common.rng import DEFAULT_SEED
from repro.faults.plan import FaultPlan
from repro.fleet.gates import GateThresholds

__all__ = ["FleetConfig"]

#: Fields that count something the loop needs at least one of.
_COUNTS = (
    "n_vehicles",
    "flushes_per_round",
    "records_per_flush",
    "epochs",
    "batch_size",
    "max_train_shards",
    "eval_records",
    "stage_vehicles",
    "deadline_ticks",
    "stable_replicas",
    "canary_replicas",
    "rounds",
)
#: Fields that must be above zero.
_POSITIVE = (
    "data_window_s",
    "learning_rate",
    "stage_duration_s",
    "stage_dt",
    "cte_gain_m",
)


@dataclass(frozen=True)
class FleetConfig:
    """Everything one continuum-loop run depends on.

    Times are simulated seconds.  ``poison_rounds`` lists data-collection
    rounds whose steering labels are inverted (degraded candidates);
    ``canary_fault_plans`` maps a round number to a fault plan whose
    times are *relative to that round's canary stage start* (crashed
    canaries); ``store_fault_plan`` uses absolute loop times against
    ``store:<container>`` targets (partitioned ingest).

    This is the only declaration and the only check of each setting:
    the data plane, trainer and rollout read it, and every int or float
    field is refused at construction unless finite, ``>= 0`` and, for a
    count, whole (:func:`~repro.common.params.check_numbers`), as is a
    ``frame_hw`` that is not two whole numbers ``>= 5``
    (:func:`~repro.common.params.frame_hw_param`, the world's own check)
    and a poison or canary round that is not a whole number in
    ``1..rounds``.
    """

    # ------------------------------------------------------- data plane
    n_vehicles: int = 8
    flushes_per_round: int = 2
    records_per_flush: int = 16
    frame_hw: tuple[int, int] = (16, 24)
    data_window_s: float = 4.0
    # ---------------------------------------------------------- trainer
    model_name: str = "linear"
    model_scale: float = 0.25
    epochs: int = 6
    batch_size: int = 16
    learning_rate: float = 0.003
    val_fraction: float = 0.25
    min_fresh_records: int = 32
    max_train_shards: int = 64
    gpu: str = "RTX6000"
    eval_records: int = 64
    # ---------------------------------------------------------- serving
    stage_vehicles: int = 6
    stage_duration_s: float = 1.0
    stage_dt: float = 0.05
    deadline_ticks: int = 2
    stable_replicas: int = 2
    canary_replicas: int = 1
    canary_fraction: float = 0.3
    # ------------------------------------------------- rounds and gates
    rounds: int = 3
    gates: GateThresholds = field(default_factory=GateThresholds)
    cte_gain_m: float = 0.6
    seed: int = DEFAULT_SEED
    # ------------------------------------------------------- fault dials
    poison_rounds: tuple[int, ...] = ()
    canary_fault_plans: tuple[tuple[int, FaultPlan], ...] = ()
    store_fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        check_numbers(self)
        object.__setattr__(
            self, "frame_hw", frame_hw_param(self.frame_hw, "frame_hw")
        )
        for name in _COUNTS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        for name in _POSITIVE:
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        for name in ("val_fraction", "canary_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1), got {value}")
        poison = tuple(
            self._round(round_no, f"poison_rounds[{index}]")
            for index, round_no in enumerate(self.poison_rounds)
        )
        plans = tuple(
            (self._round(round_no, f"canary_fault_plans[{index}].round"), plan)
            for index, (round_no, plan) in enumerate(self.canary_fault_plans)
        )
        object.__setattr__(self, "poison_rounds", poison)
        object.__setattr__(self, "canary_fault_plans", plans)

    def _round(self, value, name: str) -> int:
        """``value`` as a round number, refused unless whole and in
        ``1..rounds``."""
        round_no = number_param(value, name, whole=True, positive=True)
        if round_no > self.rounds:
            raise ConfigurationError(
                f"{name} must be in 1..{self.rounds}, got {round_no}"
            )
        return round_no

    def canary_plan_for(self, round_no: int) -> FaultPlan | None:
        """The stage-relative canary fault plan for ``round_no``."""
        for entry_round, plan in self.canary_fault_plans:
            if entry_round == round_no:
                return plan
        return None
