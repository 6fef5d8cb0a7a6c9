"""File-transfer emulation: the ``rsync``/``scp`` step.

"all data is stored on the Raspberry Pi /car/data and can be manually
transferred to the cloud using SSH" ... "the student copies the
training data using rsync command and can begin the training process"
— §3.3.  The emulation charges simulated time for moving tub bytes
over a route, models rsync's delta behaviour (unchanged files are
skipped after the checksum exchange), and provides the SSH tunnel the
Jupyter server on the Pi is reached through (§3.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.clock import Clock
from repro.common.errors import LinkPartitionError, ReproError, TransferError
from repro.common.rng import ensure_rng
from repro.data.tub import Tub
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind
from repro.faults.retry import RetryPolicy, call_with_resilience
from repro.net.topology import Route
from repro.obs.span import STATUS_ERROR
from repro.obs.tracer import NullTracer, Tracer

__all__ = [
    "TransferResult",
    "route_target",
    "rsync_tub",
    "scp_bytes",
    "SSHTunnel",
]

#: rsync per-file checksum negotiation cost (seconds per file).
_RSYNC_PER_FILE_S = 0.002

#: DonkeyCar stores JPEGs; this repo stores raw .npy frames.  Transfer
#: sizing converts to the wire bytes the paper's students would move
#: (JPEG at quality ~80 compresses the 120x160 frames ~12x).
JPEG_COMPRESSION_RATIO = 12.0


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one emulated transfer."""

    nbytes_logical: int  # bytes the tub occupies locally
    nbytes_wire: int  # bytes actually sent
    files: int
    seconds: float
    route_rtt_s: float

    @property
    def throughput_bps(self) -> float:
        """Effective wire throughput (bits/second)."""
        return 8.0 * self.nbytes_wire / self.seconds if self.seconds > 0 else 0.0


def route_target(route: Route) -> str:
    """Fault-plan target name for a route (``"src->dst"``)."""
    return f"{route.src}->{route.dst}"


def _wire_seconds(
    nbytes: int,
    route: Route,
    gen,
    injector: FaultInjector | None,
    now: float,
) -> float:
    """One transfer attempt: partition check, then degraded wire time."""
    target = route_target(route)
    if injector is not None and injector.active(
        FaultKind.LINK_PARTITION, target, now
    ):
        raise LinkPartitionError(f"route {target} is partitioned")
    seconds = route.transfer_time(nbytes, gen)
    if injector is not None:
        seconds *= injector.latency_factor(target, now)
    return seconds


def _tub_wire_bytes(tub: Tub, as_jpeg: bool) -> tuple[int, int, int]:
    """(logical bytes, wire bytes, file count) for a tub transfer."""
    logical = tub.size_bytes()
    files = sum(1 for _ in tub.path.rglob("*") if _.is_file())
    if not as_jpeg:
        return logical, logical, files
    # Only image payloads compress; catalogs/manifests are small text.
    image_bytes = sum(
        p.stat().st_size for p in tub.images_dir.glob("*.npy")
    )
    wire = int(logical - image_bytes + image_bytes / JPEG_COMPRESSION_RATIO)
    return logical, wire, files


def _transfer(
    name: str,
    nbytes: int,
    route: Route,
    clock: Clock | None,
    gen,
    injector: FaultInjector | None,
    retry: RetryPolicy | None,
    breaker: CircuitBreaker | None,
    deadline_s: float | None,
    tracer: Tracer | None,
    extra_s: float = 0.0,
    **attrs,
) -> float:
    """Move ``nbytes`` over ``route`` inside a ``net.*`` span; its seconds.

    The span opens on ``tracer`` (a null tracer when None) as a child of
    the caller's open span (a pipeline stage, say): the transfer ends
    before the caller returns, so containment holds in call structure
    and in simulated time.  It covers retries and backoff (the clock
    advances inside the loop) and records the attempt count and, when a
    breaker guards the route, its state at exit.  When the loop gives
    up, the span ends in error with the exception type.  Otherwise
    ``extra_s`` (rsync's per-file checksum cost) is added and the clock
    advances by the total, which the span records as ``seconds``.
    """
    trc = tracer if tracer is not None else NullTracer()
    target = route_target(route)
    span = trc.start(name, parent=trc.current(), target=target, **attrs)
    attempts = 0

    def attempt() -> float:
        nonlocal attempts
        attempts += 1
        now = clock.now if clock is not None else 0.0
        return _wire_seconds(nbytes, route, gen, injector, now)

    def record_exit() -> None:
        span.attrs["attempts"] = attempts
        if breaker is not None:
            span.attrs["breaker"] = breaker.state

    try:
        seconds = call_with_resilience(
            attempt, retry=retry, breaker=breaker, clock=clock, rng=gen,
            deadline_s=deadline_s, target=target,
        )
    except ReproError as exc:
        record_exit()
        trc.end(span, status=STATUS_ERROR, error=type(exc).__name__)
        raise
    record_exit()
    seconds += extra_s
    if clock is not None:
        clock.advance(seconds)
    span.attrs["seconds"] = seconds
    trc.end(span)
    return seconds


def rsync_tub(
    tub: Tub,
    route: Route,
    clock: Clock | None = None,
    already_synced_fraction: float = 0.0,
    as_jpeg: bool = True,
    rng: int | np.random.Generator | None = None,
    injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    deadline_s: float | None = None,
    tracer: Tracer | None = None,
) -> TransferResult:
    """Emulate ``rsync -a <tub> cloud:`` over a route.

    ``already_synced_fraction`` models incremental syncs (rsync skips
    unchanged files after the checksum pass).  If a ``clock`` is given,
    simulated time advances by the transfer duration.

    With an ``injector``, the route's fault-plan target
    (``"src->dst"``) is consulted: a partition raises
    :class:`LinkPartitionError` (retried under ``retry``, with backoff
    sleeps charged to ``clock`` so the window can clear mid-loop), and
    degradation inflates the wire time.  ``breaker`` and ``deadline_s``
    compose as in :func:`repro.faults.call_with_resilience`.

    With a ``tracer``, the transfer runs inside a ``net.rsync`` span
    carrying route target, file count, wire bytes, attempt count, and
    breaker state.
    """
    if not 0.0 <= already_synced_fraction <= 1.0:
        raise TransferError(
            f"already_synced_fraction must be in [0, 1]: {already_synced_fraction}"
        )
    logical, wire, files = _tub_wire_bytes(tub, as_jpeg)
    wire = int(wire * (1.0 - already_synced_fraction))
    seconds = _transfer(
        "net.rsync", wire, route, clock, ensure_rng(rng), injector, retry,
        breaker, deadline_s, tracer, extra_s=files * _RSYNC_PER_FILE_S,
        files=files, nbytes_wire=wire,
    )
    return TransferResult(
        nbytes_logical=logical,
        nbytes_wire=wire,
        files=files,
        seconds=seconds,
        route_rtt_s=route.base_rtt_s,
    )


def scp_bytes(
    nbytes: int,
    route: Route,
    clock: Clock | None = None,
    rng: int | np.random.Generator | None = None,
    injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    deadline_s: float | None = None,
    tracer: Tracer | None = None,
) -> TransferResult:
    """Emulate ``scp`` of a single blob (e.g. trained model weights).

    Fault handling matches :func:`rsync_tub`: partitions on the route
    raise :class:`LinkPartitionError` and are retried under ``retry``.
    With a ``tracer``, the transfer runs inside a ``net.scp`` span.
    """
    if nbytes < 0:
        raise TransferError(f"negative payload: {nbytes}")
    seconds = _transfer(
        "net.scp", nbytes, route, clock, ensure_rng(rng), injector, retry,
        breaker, deadline_s, tracer, nbytes_wire=nbytes,
    )
    return TransferResult(
        nbytes_logical=nbytes,
        nbytes_wire=nbytes,
        files=1,
        seconds=seconds,
        route_rtt_s=route.base_rtt_s,
    )


class SSHTunnel:
    """An SSH tunnel pinning a route (laptop -> Jupyter on the Pi).

    "this allows students to access the Jupyter Notebook executing on
    the Raspberry Pi ... from their own laptops using an SSH tunnel"
    — §3.5.  The tunnel adds an encryption overhead factor to payloads
    and exposes per-request round trips for interactive latency
    accounting.
    """

    ENCRYPTION_OVERHEAD = 1.03

    def __init__(self, route: Route, rng: int | np.random.Generator | None = None):
        self.route = route
        self._rng = ensure_rng(rng)
        self.requests = 0

    def request(self, nbytes: int = 1024) -> float:
        """One interactive request/response; returns seconds."""
        self.requests += 1
        padded = int(nbytes * self.ENCRYPTION_OVERHEAD)
        return self.route.transfer_time(padded, self._rng)
