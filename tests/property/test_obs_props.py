"""Property-based invariants for the observability layer.

Hypothesis drives random span programs (arbitrary nesting, clock
advances, manual interleavings) and random metric update sequences;
the structural invariants — child containment, non-negative durations,
resolvable parents, unique ids, counter monotonicity, byte-identical
same-seed exports — must hold for all of them.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.clock import Clock
from repro.common.errors import ConfigurationError
from repro.obs.export import chrome_trace, normalized_trace, span_children, text_tree
from repro.obs.metrics import MetricsRegistry, StreamingHistogram
from repro.obs.tracer import Tracer

SLOW_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One instruction of a random span program.
#:   ("push", dt)  — advance dt, open a nested span
#:   ("pop", dt)   — advance dt, close the innermost span (if any)
#:   ("event", dt) — advance dt, record an instant
program_steps = st.lists(
    st.tuples(
        st.sampled_from(["push", "pop", "event"]),
        st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


def run_program(steps) -> Tracer:
    """Execute one random span program; all spans closed at the end."""
    clock = Clock()
    tracer = Tracer(clock)
    stack = []
    for index, (op, dt) in enumerate(steps):
        clock.advance(dt)
        if op == "push":
            cm = tracer.span(f"op.{index}", step=index)
            cm.__enter__()
            stack.append(cm)
        elif op == "pop" and stack:
            stack.pop().__exit__(None, None, None)
        elif op == "event":
            tracer.event(f"tick.{index}", step=index)
    while stack:
        stack.pop().__exit__(None, None, None)
    return tracer


class TestSpanStructure:
    @SLOW_SETTINGS
    @given(steps=program_steps)
    def test_children_are_contained_in_their_parents(self, steps):
        tracer = run_program(steps)
        by_id = {span.span_id: span for span in tracer.spans}
        for span in tracer.spans:
            assert not span.open
            if span.parent_id:
                parent = by_id[span.parent_id]
                assert parent.start_s <= span.start_s
                assert span.end_s <= parent.end_s

    @SLOW_SETTINGS
    @given(steps=program_steps)
    def test_durations_are_non_negative(self, steps):
        tracer = run_program(steps)
        for span in tracer.spans:
            assert span.duration_s >= 0.0

    @SLOW_SETTINGS
    @given(steps=program_steps)
    def test_no_orphan_parents_and_unique_ids(self, steps):
        tracer = run_program(steps)
        ids = [span.span_id for span in tracer.spans]
        assert len(ids) == len(set(ids))
        # span_children raises on an unresolvable parent; reaching the
        # return means every tree edge resolves.
        roots, children = span_children(tracer)
        reachable = sum(1 for _ in roots)

        def count(span):
            return 1 + sum(count(c) for c in children.get(span.span_id, []))

        assert sum(count(root) for root in roots) == len(tracer.spans)

    @SLOW_SETTINGS
    @given(steps=program_steps)
    def test_exports_are_deterministic_functions_of_the_program(self, steps):
        first = run_program(steps)
        second = run_program(steps)
        assert chrome_trace(first) == chrome_trace(second)
        assert text_tree(first) == text_tree(second)
        assert normalized_trace(first) == normalized_trace(second)


class TestMetricsInvariants:
    @SLOW_SETTINGS
    @given(increments=st.lists(st.floats(0.0, 1e6), max_size=50))
    def test_counter_is_monotone(self, increments):
        registry = MetricsRegistry()
        counter = registry.counter("prop.count")
        seen = []
        for value in increments:
            counter.inc(value)
            seen.append(counter.value)
        assert seen == sorted(seen)
        assert counter.value == pytest.approx(sum(increments))

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("prop.count")
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)

    @SLOW_SETTINGS
    @given(
        values=st.lists(
            st.floats(1e-4, 60.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=80,
        )
    )
    def test_histogram_percentiles_are_bounded_and_ordered(self, values):
        histogram = StreamingHistogram()
        for value in values:
            histogram.record(value)
        p50, p95, p99 = (
            histogram.percentile(0.50),
            histogram.percentile(0.95),
            histogram.percentile(0.99),
        )
        assert p50 <= p95 <= p99
        # Percentiles report a bucket upper edge clamped to the observed
        # max, so they never exceed it — and never undershoot the min.
        assert p99 <= max(values)
        assert p50 >= min(values) * 0.9

    @SLOW_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        labels=st.lists(
            st.sampled_from(["a", "b", "c"]), min_size=1, max_size=8
        ),
    )
    def test_registry_snapshot_is_deterministic(self, seed, labels):
        def build():
            registry = MetricsRegistry()
            for index, label in enumerate(labels):
                registry.counter("prop.events", kind=label).inc()
                registry.gauge("prop.level", kind=label).set(seed + index)
                registry.histogram("prop.size").observe(index + 1.0)
            return registry

        assert build().to_json() == build().to_json()
        assert build().to_text() == build().to_text()


#: (kind, name, labels) of the series a random record program writes.
CHILD_SERIES = [
    ("counter", "prop.events", {"kind": "a"}),
    ("counter", "prop.events", {"kind": "b"}),
    ("gauge", "prop.level", {}),
    ("histogram", "prop.latency", {}),
    ("histogram", "prop.latency", {"stage": "x"}),
]

#: One record: (which view, series index, operation, value).
child_records = st.lists(
    st.tuples(
        st.sampled_from(["parent", "left", "right"]),
        st.integers(0, len(CHILD_SERIES) - 1),
        st.sampled_from(["inc", "set", "dec"]),
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=60,
)


def make_record(registry, index, op, value):
    """Apply one record to ``registry`` (gauges take every op)."""
    kind, name, labels = CHILD_SERIES[index]
    if kind == "counter":
        registry.counter(name, **labels).inc(value)
    elif kind == "histogram":
        registry.histogram(name, **labels).observe(value)
    else:
        getattr(registry.gauge(name, **labels), op)(value)


class TestChildViews:
    @SLOW_SETTINGS
    @given(records=child_records)
    def test_parent_holds_every_record_and_children_their_own(self, records):
        parent = MetricsRegistry()
        views = {"parent": parent, "left": parent.child(), "right": parent.child()}
        merged = MetricsRegistry()
        alone = {"left": MetricsRegistry(), "right": MetricsRegistry()}
        for who, index, op, value in records:
            make_record(views[who], index, op, value)
            make_record(merged, index, op, value)
            if who in alone:
                make_record(alone[who], index, op, value)
        assert parent.to_json() == merged.to_json()
        for who, registry in alone.items():
            assert views[who].to_json() == registry.to_json()

    def test_reading_creates_no_series(self):
        parent = MetricsRegistry()
        child = parent.child()
        assert child.find("prop.events", kind="a") is None
        assert child.count("prop.events", kind="a") == 0
        assert len(child) == len(parent) == 0
        child.counter("prop.events", kind="a").inc(2.0)
        assert child.count("prop.events", kind="a") == 2
        assert parent.count("prop.events", kind="a") == 2
        assert parent.find("prop.events", kind="b") is None

    def test_a_child_cannot_change_a_parent_series_kind(self):
        parent = MetricsRegistry()
        parent.gauge("prop.level").set(1.0)
        with pytest.raises(ConfigurationError):
            parent.child().counter("prop.level")


class TestSameSeedSameBytes:
    @SLOW_SETTINGS
    @given(seed=st.integers(0, 2**16), rate=st.floats(20.0, 400.0))
    def test_traced_serve_run_exports_identically(self, seed, rate):
        from repro.common.clock import EventScheduler
        from repro.serve.replica import BatchLatencyModel
        from repro.serve.service import InferenceService
        from repro.serve.workload import PoissonWorkload

        def run():
            scheduler = EventScheduler()
            tracer = Tracer(scheduler.clock)
            metrics = MetricsRegistry()
            service = InferenceService(
                BatchLatencyModel(0.004, 0.0002),
                scheduler=scheduler,
                n_replicas=2,
                seed=seed,
                tracer=tracer,
                metrics=metrics,
                trace_requests=True,
            )
            service.run(PoissonWorkload(rate, deadline_s=0.05, seed=seed), 0.5)
            tracer.close_all()
            return chrome_trace(tracer), metrics.to_json()

        assert run() == run()
