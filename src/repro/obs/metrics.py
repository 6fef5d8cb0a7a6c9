"""Labelled metrics with deterministic snapshots.

A :class:`MetricsRegistry` holds named series — :class:`Counter`
(monotone), :class:`Gauge` (set/inc/dec), :class:`Histogram` (log-spaced
:class:`StreamingHistogram` buckets) — keyed by name plus sorted labels,
Prometheus-style: ``serve.requests{outcome=completed}``.  Snapshots and
exports sort every key, so the same run produces byte-identical output.
A component records through one :class:`SeriesHandle` per series, which
looks the series up at its first record and holds it, so no hot path
formats a key.  :meth:`MetricsRegistry.child` gives one component its
own view: each record lands in the child's series and, through that
series' ``parent``, in the parent registry's series with the same key,
so the parent keeps the run totals and the child only that component's
records.  Outside a child view every ``parent`` is None.

:class:`StreamingHistogram` is a generic streaming-percentile structure,
not a serving detail: log-spaced buckets with constant relative error
~6%, O(1) record, O(buckets) percentile.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from typing import Any, Callable, TypeVar

import numpy as np

from repro.common.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SeriesHandle",
    "StreamingHistogram",
    "ensure_registry",
    "series_key",
]


class StreamingHistogram:
    """Log-spaced latency histogram with O(1) record, O(B) percentiles."""

    def __init__(
        self,
        low_s: float = 1e-4,
        high_s: float = 60.0,
        buckets_per_decade: int = 40,
    ) -> None:
        if low_s <= 0 or high_s <= low_s or buckets_per_decade < 1:
            raise ConfigurationError(
                f"invalid histogram range [{low_s}, {high_s}] "
                f"x{buckets_per_decade}/decade"
            )
        self.low_s = float(low_s)
        self.high_s = float(high_s)
        decades = np.log10(high_s / low_s)
        n_buckets = int(np.ceil(decades * buckets_per_decade)) + 1
        # Upper edge of bucket i: low * 10**(i / buckets_per_decade),
        # kept as Python floats so record() can bisect them directly.
        self._edges = tuple(
            (
                self.low_s
                * np.power(10.0, np.arange(1, n_buckets + 1) / buckets_per_decade)
            ).tolist()
        )
        self._counts = np.zeros(n_buckets + 2, dtype=np.int64)  # +under/over
        self.count = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def record(self, value_s: float) -> None:
        """Fold one finite, non-negative latency sample into the histogram.

        A NaN would poison ``sum_s`` while the percentiles still looked
        sane, and an infinity would read as p99, so both are refused.
        """
        if not 0 <= value_s < math.inf:
            raise ConfigurationError(
                f"latency must be finite and non-negative: {value_s}"
            )
        self.count += 1
        self.sum_s += value_s
        self.max_s = max(self.max_s, value_s)
        if value_s < self.low_s:
            self._counts[0] += 1
        else:
            idx = bisect.bisect_left(self._edges, value_s)
            self._counts[min(idx + 1, len(self._counts) - 1)] += 1

    def percentile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (bucket upper edge)."""
        if not 0 <= q <= 1:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for idx, bucket_count in enumerate(self._counts):
            cumulative += int(bucket_count)
            if cumulative >= target and bucket_count:
                if idx == 0:
                    return self.low_s
                if idx >= len(self._edges):
                    return self.max_s
                return float(min(self._edges[idx - 1], self.max_s))
        return self.max_s

    @property
    def mean_s(self) -> float:
        """Mean recorded latency."""
        return self.sum_s / self.count if self.count else 0.0


def series_key(name: str, labels: dict[str, str]) -> str:
    """Canonical series key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotone non-decreasing count."""

    __slots__ = ("key", "value", "parent")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0.0
        self.parent: Counter | None = None

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative — counters never go down)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.key} cannot decrease (inc by {amount})"
            )
        self.value += float(amount)
        if self.parent is not None:
            self.parent.inc(amount)


class Gauge:
    """A value that can move both ways (fleet size, queue depth)."""

    __slots__ = ("key", "value", "parent")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0.0
        self.parent: Gauge | None = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)
        if self.parent is not None:
            self.parent.set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        self.value += float(amount)
        if self.parent is not None:
            self.parent.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.inc(-amount)


class Histogram:
    """A labelled series over a :class:`StreamingHistogram`."""

    __slots__ = ("key", "hist", "parent")

    def __init__(
        self,
        key: str,
        low_s: float = 1e-4,
        high_s: float = 60.0,
        buckets_per_decade: int = 40,
    ) -> None:
        self.key = key
        self.hist = StreamingHistogram(low_s, high_s, buckets_per_decade)
        self.parent: Histogram | None = None

    def observe(self, value: float) -> None:
        """Fold one sample into the histogram."""
        self.hist.record(value)
        if self.parent is not None:
            self.parent.observe(value)

    def summary(self) -> dict[str, float]:
        """Deterministic digest: count, sum, mean, max, p50/p95/p99."""
        hist = self.hist
        return {
            "count": float(hist.count),
            "sum": hist.sum_s,
            "mean": hist.mean_s,
            "max": hist.max_s,
            "p50": hist.percentile(0.50),
            "p95": hist.percentile(0.95),
            "p99": hist.percentile(0.99),
        }


_SeriesT = TypeVar("_SeriesT", Counter, Gauge, Histogram)


class SeriesHandle:
    """One series, looked up at its first record and held after that.

    ``SeriesHandle(registry.counter, "serve.requests", outcome="shed")``
    records into the series ``registry.counter("serve.requests",
    outcome="shed")`` returns, but formats its key once, not at every
    record.  The series joins the registry at that first record, never
    earlier, so a snapshot lists the same series either way.
    """

    __slots__ = ("_lookup", "_series")

    def __init__(
        self,
        get: Callable[..., Counter | Gauge | Histogram],
        name: str,
        **labels: str,
    ) -> None:
        self._lookup = functools.partial(get, name, **labels)
        self._series: Any = None

    def _bind(self) -> Any:
        self._series = self._lookup()
        return self._series

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter or gauge."""
        series = self._series
        if series is None:
            series = self._bind()
        series.inc(amount)

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        series = self._series
        if series is None:
            series = self._bind()
        series.set(value)

    def observe(self, value: float) -> None:
        """Fold one sample into the histogram."""
        series = self._series
        if series is None:
            series = self._bind()
        series.observe(value)


class MetricsRegistry:
    """Get-or-create home for every metric series in a run."""

    def __init__(self) -> None:
        self._series: dict[str, Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, type] = {}
        self._parent: MetricsRegistry | None = None

    def child(self) -> MetricsRegistry:
        """A view for one component whose every record also lands here.

        Each series of the view is created at its first record and binds
        this registry's series with the same key, creating it if need
        be; every record then goes to both.  This registry therefore
        sees the same records in the same order as if the component
        recorded here directly, while the view holds only the
        component's own.
        """
        view = MetricsRegistry()
        view._parent = self
        return view

    def _get(
        self,
        name: str,
        labels: dict[str, str],
        kind: type[_SeriesT],
        factory: Callable[[str], _SeriesT],
    ) -> _SeriesT:
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        registered = self._kinds.setdefault(name, kind)
        if registered is not kind:
            raise ConfigurationError(
                f"metric {name!r} is already a {registered.__name__}, "
                f"not a {kind.__name__}"
            )
        key = series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = factory(key)
            if self._parent is not None:
                series.parent = self._parent._get(name, labels, kind, factory)
            self._series[key] = series
        return series

    def find(self, name: str, **labels: str) -> Counter | Gauge | Histogram | None:
        """The series ``name`` + ``labels``, or None before its first record.

        Unlike :meth:`counter` and its kin this never creates a series,
        so reading leaves the snapshot as it was.
        """
        return self._series.get(series_key(name, labels))

    def count(self, name: str, **labels: str) -> int:
        """Counter ``name`` + ``labels`` as an int; 0 before its first record."""
        series = self.find(name, **labels)
        return int(series.value) if series is not None else 0

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter series ``name`` + ``labels``."""
        return self._get(name, labels, Counter, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge series ``name`` + ``labels``."""
        return self._get(name, labels, Gauge, Gauge)

    def histogram(
        self,
        name: str,
        low_s: float = 1e-4,
        high_s: float = 60.0,
        buckets_per_decade: int = 40,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram series ``name`` + ``labels``."""
        return self._get(
            name,
            labels,
            Histogram,
            lambda key: Histogram(key, low_s, high_s, buckets_per_decade),
        )

    def __len__(self) -> int:
        return len(self._series)

    # ----------------------------------------------------------- export

    def snapshot(self) -> dict[str, Any]:
        """Deterministic point-in-time view of every series."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for key in sorted(self._series):
            series = self._series[key]
            if isinstance(series, Counter):
                counters[key] = series.value
            elif isinstance(series, Gauge):
                gauges[key] = series.value
            else:
                histograms[key] = series.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self) -> str:
        """Stable JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        """Fixed-format text rendering, one series per line."""
        snap = self.snapshot()
        lines = []
        for key, value in snap["counters"].items():
            lines.append(f"counter   {key} {value:.6g}")
        for key, value in snap["gauges"].items():
            lines.append(f"gauge     {key} {value:.6g}")
        for key, digest in snap["histograms"].items():
            lines.append(
                f"histogram {key} count={digest['count']:.0f} "
                f"mean={digest['mean']:.6g} p50={digest['p50']:.6g} "
                f"p95={digest['p95']:.6g} p99={digest['p99']:.6g} "
                f"max={digest['max']:.6g}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


def ensure_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """``registry``, or a fresh one for a component built without one.

    Like a ``NullTracer`` default, this keeps recording unconditional:
    a component always has a registry, so no record site branches.
    """
    return registry if registry is not None else MetricsRegistry()
