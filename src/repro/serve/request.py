"""Request lifecycle records for the serving subsystem.

A :class:`Request` is one inference call travelling through the fleet:
born at a workload generator, admitted (or not) into a replica's
bounded queue, dispatched inside a micro-batch, and completed when the
batch's simulated latency elapses.  Every transition stamps the
simulated time, so latency decomposition (queue wait vs batch compute)
and the no-loss/no-double-serve invariants are checkable after the
fact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["Request", "RequestStatus", "TERMINAL_STATUSES"]


class RequestStatus(enum.Enum):
    """Lifecycle of one inference request."""

    PENDING = "pending"  # created, not yet offered to a queue
    QUEUED = "queued"  # admitted into a replica's queue
    DISPATCHED = "dispatched"  # inside a micro-batch on a replica
    COMPLETED = "completed"  # response delivered
    DROPPED = "dropped"  # rejected or displaced at admission
    REJECTED = "rejected"  # backpressure: sender told to back off
    EXPIRED = "expired"  # deadline passed while still queued


#: Statuses a request can end in (exactly one per request).
TERMINAL_STATUSES = frozenset(
    {
        RequestStatus.COMPLETED,
        RequestStatus.DROPPED,
        RequestStatus.REJECTED,
        RequestStatus.EXPIRED,
    }
)


@dataclass
class Request:
    """One inference request with its lifecycle timestamps.

    Attributes
    ----------
    request_id:
        Deterministic id (``req-0001`` style).
    source:
        Originating entity (vehicle id or generator label).
    arrival_s:
        Simulated time the request entered the system.
    deadline_s:
        Absolute simulated deadline; completions after it count as
        deadline misses, and requests still queued past it expire.
    priority:
        Smaller is more important; FIFO order holds within a class.
    frame:
        Optional camera frame for real model forward passes.
    pin_version:
        When non-empty, only replicas pinned to this model version may
        serve the request (shadow traffic uses this to hit candidates).
    """

    request_id: str
    source: str
    arrival_s: float
    deadline_s: float
    priority: int = 0
    frame: np.ndarray | None = None
    pin_version: str = ""
    status: RequestStatus = RequestStatus.PENDING
    admitted_s: float = -1.0
    dispatched_s: float = -1.0
    completed_s: float = -1.0
    replica_id: str = ""
    batch_id: str = ""
    angle: float = 0.0
    throttle: float = 0.0

    @property
    def latency_s(self) -> float:
        """End-to-end latency (arrival to completion), -1 if unfinished."""
        if self.completed_s < 0:
            return -1.0
        return self.completed_s - self.arrival_s

    @property
    def met_deadline(self) -> bool:
        """Completed at or before the absolute deadline."""
        return (
            self.status is RequestStatus.COMPLETED
            and self.completed_s <= self.deadline_s
        )
