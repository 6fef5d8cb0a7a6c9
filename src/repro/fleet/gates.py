"""Promotion gates: the quality bar a rollout stage must clear.

A gate turns one stage's measured serving behaviour (the per-version
series the stage records, read back as :class:`VersionStats`) into a
deterministic pass/fail verdict with explicit reasons.  Thresholds
combine classic serving SLOs (tail latency, deadline attainment) with
the driving metrics the paper cares about: cross-track error (how far
off the racing line the model's steering would put the car) and the
stale-command ratio of the closed vehicle loop.  Every bound fails
closed: a measurement passes only when it is ``<=`` its bound, so a NaN
measurement fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.params import check_numbers
from repro.fleet.stage import VersionStats

__all__ = ["GateThresholds", "GateDecision", "evaluate_gate"]


@dataclass(frozen=True)
class GateThresholds:
    """Pass/fail bounds for one promotion gate.

    ``max_cte_m`` is an absolute cross-track-error ceiling;
    ``max_cte_regression_m`` additionally bounds how much worse than the
    concurrently-measured stable version a candidate may drive.  Each
    bound is refused at construction unless finite and ``>= 0``
    (:func:`~repro.common.params.check_numbers`) and in its range.
    """

    min_completions: int = 20
    max_p95_ms: float = 80.0
    max_deadline_miss: float = 0.15
    max_stale_ratio: float = 0.45
    max_cte_m: float = 0.28
    max_cte_regression_m: float = 0.08

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.min_completions < 1:
            raise ConfigurationError(
                f"min_completions must be >= 1, got {self.min_completions}"
            )
        for name in ("max_p95_ms", "max_cte_m"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        for name in ("max_deadline_miss", "max_stale_ratio"):
            value = getattr(self, name)
            if value > 1.0:
                raise ConfigurationError(f"{name} must be <= 1, got {value}")


@dataclass(frozen=True)
class GateDecision:
    """One gate verdict: stage, version under test, and why it failed."""

    stage: str
    version: str
    passed: bool
    reasons: tuple[str, ...]


def evaluate_gate(
    stage: str,
    candidate: VersionStats,
    baseline: VersionStats | None,
    stale_ratio: float,
    thresholds: GateThresholds,
) -> GateDecision:
    """Judge one stage's candidate measurements against the thresholds.

    Checks run in a fixed order so ``reasons`` is deterministic.  A
    candidate that served too few requests fails outright — a crashed
    canary must not pass a gate by silence — and a measurement fails
    unless it is ``<=`` its bound, so NaN fails too.
    """
    reasons: list[str] = []
    if candidate.completed < thresholds.min_completions:
        reasons.append(
            f"completions {candidate.completed} < {thresholds.min_completions}"
        )
    else:
        if not candidate.p95_ms <= thresholds.max_p95_ms:
            reasons.append(
                f"p95 {candidate.p95_ms:.3f}ms > {thresholds.max_p95_ms:.3f}ms"
            )
        if not candidate.deadline_miss_rate <= thresholds.max_deadline_miss:
            reasons.append(
                f"deadline_miss {candidate.deadline_miss_rate:.4f} > "
                f"{thresholds.max_deadline_miss:.4f}"
            )
        if not candidate.mean_cte_m <= thresholds.max_cte_m:
            reasons.append(
                f"cte {candidate.mean_cte_m:.4f}m > {thresholds.max_cte_m:.4f}m"
            )
        if (
            baseline is not None
            and baseline.completed >= thresholds.min_completions
            and not candidate.mean_cte_m
            <= baseline.mean_cte_m + thresholds.max_cte_regression_m
        ):
            reasons.append(
                f"cte regression {candidate.mean_cte_m - baseline.mean_cte_m:.4f}m"
                f" > {thresholds.max_cte_regression_m:.4f}m vs stable"
            )
    if not stale_ratio <= thresholds.max_stale_ratio:
        reasons.append(
            f"stale_ratio {stale_ratio:.4f} > {thresholds.max_stale_ratio:.4f}"
        )
    return GateDecision(
        stage=stage,
        version=candidate.version,
        passed=not reasons,
        reasons=tuple(reasons),
    )
