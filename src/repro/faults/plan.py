"""Typed fault plans: what breaks, where, and when.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries —
typed faults (replica crash/hang, link partition/degradation, transient
object-store errors, slow-node latency inflation) aimed at named
targets at absolute simulated times.  Plans are pure data: a spec
answers "is this fault active at time *t* against target *x*?" without
any scheduler involvement, so retry loops that advance a bare
:class:`~repro.common.clock.Clock` observe partitions clearing exactly
when the plan says they do.

Targets are plain strings (replica ids, ``"src->dst"`` route names,
``"store:<container>"``); a trailing ``*`` makes a prefix wildcard, and
``"replica:any"`` asks the serving layer to pick one routable replica
from the fault's own seeded stream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "WINDOW_KINDS", "ACTION_KINDS"]


class FaultKind(enum.Enum):
    """The typed faults the injector knows how to schedule."""

    REPLICA_CRASH = "replica-crash"  # permanent loss of one replica
    REPLICA_HANG = "replica-hang"  # replica frozen for duration_s
    LINK_PARTITION = "link-partition"  # route unusable for duration_s
    LINK_DEGRADE = "link-degrade"  # route latency x factor for duration_s
    STORE_ERROR = "store-error"  # objectstore ops fail w.p. error_rate
    SLOW_NODE = "slow-node"  # node latency x factor for duration_s


#: Kinds that are pure time-windows, queried by components mid-operation.
WINDOW_KINDS = frozenset(
    {
        FaultKind.REPLICA_HANG,
        FaultKind.LINK_PARTITION,
        FaultKind.LINK_DEGRADE,
        FaultKind.STORE_ERROR,
        FaultKind.SLOW_NODE,
    }
)

#: Kinds that require a registered handler to take an action at start.
ACTION_KINDS = frozenset({FaultKind.REPLICA_CRASH, FaultKind.REPLICA_HANG})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault against one (possibly wildcarded) target.

    Attributes
    ----------
    kind:
        The :class:`FaultKind`.
    target:
        Exact target name, prefix wildcard (``"replica-*"``), or
        ``"replica:any"`` (serving layer picks from the fault's stream).
    at_s:
        Absolute simulated start time.
    duration_s:
        Window length for :data:`WINDOW_KINDS`; ignored for crashes
        (a crash is permanent).
    factor:
        Latency multiplier for degrade / slow-node faults (>= 1).
    error_rate:
        Per-operation failure probability for store-error faults.
    """

    kind: FaultKind
    target: str
    at_s: float
    duration_s: float = 0.0
    factor: float = 1.0
    error_rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.target:
            raise ConfigurationError("fault target must be non-empty")
        if not 0 <= self.at_s < math.inf:
            raise ConfigurationError(
                f"fault at_s must be finite and >= 0, got {self.at_s}"
            )
        if not 0 <= self.duration_s < math.inf:
            raise ConfigurationError(
                f"fault duration_s must be finite and >= 0, got {self.duration_s}"
            )
        if self.kind in WINDOW_KINDS and self.duration_s <= 0:
            raise ConfigurationError(
                f"{self.kind.value} fault needs a positive duration_s"
            )
        if not 1.0 <= self.factor < math.inf:
            raise ConfigurationError(
                f"fault factor must be finite and >= 1, got {self.factor}"
            )
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigurationError(
                f"error_rate must be in [0, 1], got {self.error_rate}"
            )

    @property
    def end_s(self) -> float:
        """Absolute end of the fault window (== ``at_s`` for crashes)."""
        return self.at_s + self.duration_s

    def matches(self, target: str) -> bool:
        """Whether this spec covers ``target`` (exact or prefix wildcard)."""
        if self.target.endswith("*"):
            return target.startswith(self.target[:-1])
        return self.target == target

    def active_at(self, now: float) -> bool:
        """Whether the fault window covers simulated time ``now``."""
        return self.kind in WINDOW_KINDS and self.at_s <= now < self.end_s

    def to_dict(self) -> dict:
        """JSON-ready view (scenario files)."""
        return {
            "kind": self.kind.value,
            "target": self.target,
            "at_s": self.at_s,
            "duration_s": self.duration_s,
            "factor": self.factor,
            "error_rate": self.error_rate,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Parse one spec from a scenario-file entry (unknown keys rejected)."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(f"a fault spec must be a mapping: {payload!r}")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(
                f"unknown fault spec key(s) {unknown} in {payload!r}"
            )
        try:
            kind = FaultKind(payload["kind"])
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"unknown fault kind in {payload!r}; choose from "
                f"{sorted(k.value for k in FaultKind)}"
            ) from None
        if "target" not in payload or "at_s" not in payload:
            raise ConfigurationError(f"fault spec needs target and at_s: {payload!r}")
        try:
            return cls(
                kind=kind,
                target=str(payload["target"]),
                at_s=float(payload["at_s"]),
                duration_s=float(payload.get("duration_s", 0.0)),
                factor=float(payload.get("factor", 1.0)),
                error_rate=float(payload.get("error_rate", 1.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad fault spec {payload!r}: {exc}") from None


class FaultPlan:
    """An ordered, immutable schedule of :class:`FaultSpec` entries."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        indexed = sorted(enumerate(specs), key=lambda pair: (pair[1].at_s, pair[0]))
        self._specs: tuple[FaultSpec, ...] = tuple(spec for _, spec in indexed)

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        """The scheduled faults in (start time, insertion) order."""
        return self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self._specs)

    @property
    def last_clear_s(self) -> float:
        """Latest instant any fault in the plan is still active (0 if empty)."""
        return max((spec.end_s for spec in self._specs), default=0.0)

    def to_dicts(self) -> list[dict]:
        """JSON-ready view of the whole plan."""
        return [spec.to_dict() for spec in self._specs]

    @classmethod
    def from_dicts(cls, payload: Sequence[dict]) -> "FaultPlan":
        """Parse a plan from a scenario file's ``faults`` list."""
        if not isinstance(payload, (list, tuple)):
            raise ConfigurationError(
                f"a fault plan must be a list of fault specs, got "
                f"{type(payload).__name__}"
            )
        return cls([FaultSpec.from_dict(entry) for entry in payload])

    @classmethod
    def randomized(
        cls,
        targets: Sequence[str],
        duration_s: float,
        rng: int | np.random.Generator | None = None,
        n_faults: int = 4,
        kinds: Sequence[FaultKind] = (
            FaultKind.REPLICA_HANG,
            FaultKind.SLOW_NODE,
            FaultKind.REPLICA_CRASH,
        ),
        max_crashes: int = 1,
        quiet_tail_frac: float = 0.35,
    ) -> "FaultPlan":
        """Seeded random plan for soak tests.

        Fault starts land in the first ``1 - quiet_tail_frac`` of the
        run and every window clears before the quiet tail, so recovery
        is observable.  At most ``max_crashes`` permanent crashes are
        drawn (the rest degrade to hangs) to keep the fleet survivable.
        """
        if not targets:
            raise ConfigurationError("randomized plan needs at least one target")
        if duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {duration_s}"
            )
        if not 0.0 < quiet_tail_frac < 1.0:
            raise ConfigurationError(
                f"quiet_tail_frac must be in (0, 1), got {quiet_tail_frac}"
            )
        gen = ensure_rng(rng)
        window_end = duration_s * (1.0 - quiet_tail_frac)
        specs: list[FaultSpec] = []
        crashes = 0
        for _ in range(int(n_faults)):
            kind = kinds[int(gen.integers(len(kinds)))]
            if kind is FaultKind.REPLICA_CRASH:
                if crashes >= max_crashes:
                    kind = FaultKind.REPLICA_HANG
                else:
                    crashes += 1
            target = targets[int(gen.integers(len(targets)))]
            at = float(gen.uniform(0.1, 0.7) * window_end)
            if kind is FaultKind.REPLICA_CRASH:
                specs.append(FaultSpec(kind, target, at_s=at))
                continue
            dur = float(gen.uniform(0.05, 0.25) * window_end)
            dur = min(dur, window_end - at)
            factor = float(gen.uniform(2.0, 6.0))
            specs.append(
                FaultSpec(kind, target, at_s=at, duration_s=dur, factor=factor)
            )
        return cls(specs)
