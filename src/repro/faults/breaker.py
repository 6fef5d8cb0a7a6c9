"""Per-target circuit breaker on simulated time.

The classic three-state machine, driven entirely by timestamps the
caller supplies (no wall clock, no scheduler):

* **CLOSED** — calls flow; ``failure_threshold`` consecutive failures
  trip it OPEN.
* **OPEN** — calls are refused fast.  After ``open_s`` of simulated
  time the next :meth:`allow` moves to HALF_OPEN.
* **HALF_OPEN** — up to ``half_open_probes`` probe calls are admitted;
  one success closes the circuit, one failure re-opens it.

The only path back to CLOSED runs through a HALF_OPEN probe success —
an invariant the property suite checks against the recorded
:attr:`CircuitBreaker.transitions` for arbitrary operation sequences.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.common.errors import ConfigurationError

__all__ = ["BreakerState", "BreakerPolicy", "CircuitBreaker"]


class BreakerState(enum.Enum):
    """Circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds and timing for one :class:`CircuitBreaker`."""

    failure_threshold: int = 3
    open_s: float = 1.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.open_s <= 0:
            raise ConfigurationError(f"open_s must be positive, got {self.open_s}")
        if self.half_open_probes < 1:
            raise ConfigurationError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


class CircuitBreaker:
    """Closed / open / half-open failure gate for one named target."""

    def __init__(self, policy: BreakerPolicy | None = None, name: str = "") -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self.name = name
        self.transitions: list[tuple[float, BreakerState, BreakerState]] = []
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_used = 0

    @property
    def state(self) -> BreakerState:
        """Current state (as of the last operation's timestamp)."""
        return self._state

    def _move(self, now: float, to: BreakerState) -> None:
        self.transitions.append((now, self._state, to))
        self._state = to

    @property
    def half_open_at(self) -> float:
        """When an open circuit starts admitting probes (inf unless OPEN).

        :meth:`peek` answers False exactly while ``now`` is below it.
        """
        if self._state is BreakerState.OPEN:
            return self._opened_at + self.policy.open_s
        return math.inf

    # -------------------------------------------------------------- gate

    def peek(self, now: float) -> bool:
        """Whether :meth:`allow` would admit a call now (no side effects)."""
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            return now >= self._opened_at + self.policy.open_s
        return self._probes_used < self.policy.half_open_probes

    def allow(self, now: float) -> bool:
        """Gate one call at time ``now``; half-open admits count as probes."""
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            if now < self._opened_at + self.policy.open_s:
                return False
            self._move(now, BreakerState.HALF_OPEN)
            self._probes_used = 0
        if self._probes_used >= self.policy.half_open_probes:
            return False
        self._probes_used += 1
        return True

    # ---------------------------------------------------------- feedback

    def record_success(self, now: float) -> None:
        """A gated call succeeded; a half-open probe success closes."""
        if self._state is BreakerState.HALF_OPEN:
            self._move(now, BreakerState.CLOSED)
        self._failures = 0

    def record_failure(self, now: float) -> None:
        """A gated call failed; trips at the threshold or on a probe."""
        if self._state is BreakerState.HALF_OPEN:
            self._trip(now)
            return
        if self._state is BreakerState.CLOSED:
            self._failures += 1
            if self._failures >= self.policy.failure_threshold:
                self._trip(now)

    def trip(self, now: float) -> None:
        """Force the circuit open (e.g. the injector crashed the target)."""
        if self._state is not BreakerState.OPEN:
            self._trip(now)
        else:
            self._opened_at = now

    def _trip(self, now: float) -> None:
        self._move(now, BreakerState.OPEN)
        self._opened_at = now
        self._failures = 0
        self._probes_used = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.name!r}, {self._state.value})"
