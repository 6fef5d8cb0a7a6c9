"""``repro.obs`` — deterministic tracing and metrics on simulated time.

The paper's evaluation hinges on cross-layer measurements (training
time per model, inference latency edge-vs-cloud, laps/errors); the
reproduction likewise needs one place where a whole run's behaviour is
*visible*.  This package provides it without breaking determinism:

* :class:`Tracer` produces nested :class:`Span` records (name, attrs,
  start/end in **simulated** seconds, parent links, ok/error status)
  with a context-manager API, plus zero-duration :class:`TraceEvent`
  instants; :class:`NullTracer` is the free no-op default every
  instrumented component falls back to.
* :class:`MetricsRegistry` holds labelled :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` series (the histogram reuses
  :class:`StreamingHistogram`, lifted here from ``serve/slo.py``) and
  snapshots deterministically.  :meth:`MetricsRegistry.child` gives one
  component a view of its own records whose every record also reaches
  the run's registry.
* :mod:`repro.obs.export` renders traces to Chrome ``trace_event``
  JSON, a stable text tree, and the normalised form the golden-trace
  regression suite pins.

Everything is keyed off a :class:`~repro.common.clock.Clock` and the
deterministic :class:`~repro.common.ids.IdFactory`, so the same seed
yields byte-identical trace and metrics artifacts.
"""

from repro.obs.export import chrome_trace, normalized_trace, text_tree
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.obs.sched import instrument_scheduler
from repro.obs.span import STATUS_ERROR, STATUS_OK, Span, TraceEvent
from repro.obs.tracer import NullTracer, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "STATUS_ERROR",
    "STATUS_OK",
    "Span",
    "StreamingHistogram",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "instrument_scheduler",
    "normalized_trace",
    "text_tree",
]
