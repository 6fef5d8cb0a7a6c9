"""Clock and discrete-event scheduler."""

import pytest

from repro.common.clock import Clock, EventScheduler
from repro.common.errors import ClockError


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            Clock(-1.0)

    def test_advance(self):
        clock = Clock()
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.5) == 3.0

    def test_advance_zero_is_ok(self):
        clock = Clock(1.0)
        assert clock.advance(0.0) == 1.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            Clock().advance(-0.1)

    def test_advance_to(self):
        clock = Clock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_rejected(self):
        clock = Clock(5.0)
        with pytest.raises(ClockError):
            clock.advance_to(4.9)


class TestEventScheduler:
    def test_fires_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(3.0, lambda: fired.append("c"))
        sched.schedule_at(1.0, lambda: fired.append("a"))
        sched.schedule_at(2.0, lambda: fired.append("b"))
        sched.run_until(5.0)
        assert fired == ["a", "b", "c"]
        assert sched.clock.now == 5.0

    def test_fifo_for_same_timestamp(self):
        sched = EventScheduler()
        fired = []
        for tag in ("x", "y", "z"):
            sched.schedule_at(1.0, lambda t=tag: fired.append(t))
        sched.run_until(1.0)
        assert fired == ["x", "y", "z"]

    def test_schedule_in(self):
        sched = EventScheduler()
        sched.clock.advance(10.0)
        event = sched.schedule_in(5.0, lambda: None)
        assert event.time == 15.0

    def test_schedule_in_past_rejected(self):
        sched = EventScheduler()
        sched.clock.advance(10.0)
        with pytest.raises(ClockError):
            sched.schedule_at(9.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ClockError):
            EventScheduler().schedule_in(-1.0, lambda: None)

    def test_cancelled_event_skipped(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule_at(1.0, lambda: fired.append("no"))
        event.cancel()
        sched.schedule_at(2.0, lambda: fired.append("yes"))
        assert sched.run_until(3.0) == 1
        assert fired == ["yes"]

    def test_callback_may_schedule_more(self):
        sched = EventScheduler()
        fired = []

        def chain():
            fired.append(sched.clock.now)
            if len(fired) < 3:
                sched.schedule_in(1.0, chain)

        sched.schedule_at(1.0, chain)
        sched.run_all()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_does_not_fire_future(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(10.0, lambda: fired.append("late"))
        sched.run_until(5.0)
        assert fired == []
        assert sched.pending == 1

    def test_overdue_event_fires_at_current_time(self):
        # Someone advances the shared clock directly past a queued event.
        sched = EventScheduler()
        seen = []
        sched.schedule_at(1.0, lambda: seen.append(sched.clock.now))
        sched.clock.advance(5.0)
        sched.run_until(6.0)
        assert seen == [5.0]

    def test_next_event_time(self):
        sched = EventScheduler()
        assert sched.next_event_time() is None
        event = sched.schedule_at(4.0, lambda: None)
        assert sched.next_event_time() == 4.0
        event.cancel()
        assert sched.next_event_time() is None

    def test_run_all_bounded(self):
        sched = EventScheduler()

        def forever():
            sched.schedule_in(1.0, forever)

        sched.schedule_at(1.0, forever)
        with pytest.raises(ClockError):
            sched.run_all(max_events=50)

    def test_run_all_bound_is_per_event(self):
        # Regression: events sharing one instant used to fire past the
        # bound (run_until drained the whole instant after the check).
        sched = EventScheduler()
        fired = []
        for i in range(10):
            sched.schedule_at(1.0, lambda i=i: fired.append(i))
        with pytest.raises(ClockError):
            sched.run_all(max_events=4)
        assert fired == [0, 1, 2, 3]
        assert sched.pending == 6

    def test_run_all_exact_bound_drains_cleanly(self):
        sched = EventScheduler()
        fired = []
        for i in range(4):
            sched.schedule_at(1.0, lambda i=i: fired.append(i))
        assert sched.run_all(max_events=4) == 4
        assert fired == [0, 1, 2, 3]

    def test_run_all_fires_overdue_events(self):
        # The shared clock moved past a queued event; run_all delivers
        # it at the current time instead of refusing to run.
        sched = EventScheduler()
        seen = []
        sched.schedule_at(1.0, lambda: seen.append(sched.clock.now))
        sched.clock.advance(5.0)
        assert sched.run_all() == 1
        assert seen == [5.0]


class TestExceptionSafety:
    """Failure contract: clock rests at the failing event's time, the
    failing event is consumed, later events stay queued, and the final
    jump to the target timestamp is skipped."""

    def test_raising_callback_contract(self):
        sched = EventScheduler()
        fired = []

        def boom():
            raise RuntimeError("callback failed")

        sched.schedule_at(1.0, lambda: fired.append("a"))
        sched.schedule_at(2.0, boom)
        sched.schedule_at(3.0, lambda: fired.append("c"))
        with pytest.raises(RuntimeError):
            sched.run_until(10.0)
        assert fired == ["a"]
        assert sched.clock.now == 2.0  # not 10.0: final advance skipped
        assert sched.pending == 1  # the 3.0 event survived intact
        # The scheduler stays usable: resume and drain the survivor.
        assert sched.run_until(10.0) == 1
        assert fired == ["a", "c"]
        assert sched.clock.now == 10.0

    def test_counters_consistent_after_raise(self):
        sched = EventScheduler()

        def boom():
            raise ValueError("nope")

        sched.schedule_at(1.0, boom)
        keep = sched.schedule_at(2.0, lambda: None)
        with pytest.raises(ValueError):
            sched.run_all()
        assert sched.pending == 1
        keep.cancel()
        assert sched.pending == 0


class TestBookkeeping:
    def test_pending_is_a_counter_not_a_scan(self):
        sched = EventScheduler()
        events = [sched.schedule_at(float(i + 1), lambda: None) for i in range(100)]
        assert sched.pending == 100
        for event in events[:40]:
            event.cancel()
        assert sched.pending == 60
        sched.run_until(50.0)
        assert sched.pending == 50

    def test_cancel_is_idempotent(self):
        sched = EventScheduler()
        event = sched.schedule_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sched.pending == 0

    def test_cancel_after_fire_is_noop(self):
        # serve's _pump cancels the wake event that is currently firing;
        # this must not corrupt the live count.
        sched = EventScheduler()
        holder = {}

        def wake():
            holder["event"].cancel()

        holder["event"] = sched.schedule_at(1.0, wake)
        sched.schedule_at(2.0, lambda: None)
        assert sched.run_until(1.0) == 1
        assert sched.pending == 1

    def test_compaction_evicts_tombstones(self):
        sched = EventScheduler()
        doomed = [sched.schedule_at(1000.0, lambda: None) for _ in range(500)]
        live = [sched.schedule_at(float(i + 1), lambda: None) for i in range(10)]
        for event in doomed:
            event.cancel()
        # Compaction keeps tombstones <= max(floor, live): the 500
        # cancels cannot leave 500 dead slots in the heap.
        floor = EventScheduler._COMPACT_FLOOR
        assert len(sched._heap) <= len(live) + max(floor, len(live)) + 1
        assert sched.pending == 10
        assert sched.run_until(2000.0) == 10

    def test_compaction_during_drain_never_double_fires(self):
        # Regression: a cancel inside a callback can trigger compaction
        # while run_until is mid-drain.  Compaction must mutate the heap
        # in place — rebinding it would leave the drain loop on a stale
        # list and re-deliver already-fired events on the next run.
        sched = EventScheduler()
        sched._COMPACT_FLOOR = 0  # compact on every cancel
        fired = []
        timeouts = []

        def tick(i):
            fired.append(i)
            if timeouts:
                timeouts.pop(0).cancel()
            timeouts.append(sched.schedule_in(60.0, lambda: None))
            if i < 40:
                sched.schedule_in(0.05, lambda: tick(i + 1))

        sched.schedule_at(0.0, lambda: tick(0))
        for step in range(1, 60):
            sched.run_until(step * 0.05)
        assert fired == list(range(41))

    def test_compaction_preserves_order(self):
        sched = EventScheduler()
        fired = []
        for i in range(200):
            sched.schedule_at(float(i % 7), lambda i=i: fired.append(i))
        victims = [sched.schedule_at(500.0, lambda: None) for _ in range(300)]
        for event in victims:
            event.cancel()
        sched.run_all()
        # FIFO within each instant, instants in timestamp order.
        expected = sorted(range(200), key=lambda i: (i % 7, i))
        assert fired == expected


class TestReschedule:
    """reschedule(): the allocation-free cancel-and-replace primitive."""

    def test_moves_a_live_event(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule_at(1.0, lambda: fired.append("x"))
        moved = sched.reschedule(event, 5.0)
        assert moved is event  # same object, new incarnation
        assert sched.pending == 1
        sched.run_until(2.0)
        assert fired == []  # old slot is a tombstone, not a firing
        sched.run_until(5.0)
        assert fired == ["x"]
        assert sched.pending == 0

    def test_ordering_matches_cancel_plus_schedule(self):
        # A rescheduled event takes a fresh seq: it fires after events
        # already queued at the same instant, exactly like cancel+schedule.
        sched = EventScheduler()
        fired = []
        moved = sched.schedule_at(1.0, lambda: fired.append("moved"))
        sched.schedule_at(3.0, lambda: fired.append("sibling"))
        sched.reschedule(moved, 3.0)
        sched.run_until(3.0)
        assert fired == ["sibling", "moved"]

    def test_revives_a_cancelled_event(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule_at(1.0, lambda: fired.append("x"))
        event.cancel()
        assert sched.pending == 0
        sched.reschedule(event, 2.0)
        assert sched.pending == 1
        sched.run_until(3.0)
        assert fired == ["x"]

    def test_reuses_a_fired_event(self):
        # The watchdog-rotation pattern: the callback re-arms its own
        # event with no new allocation.
        sched = EventScheduler()
        fired = []
        holder = {}

        def beat():
            fired.append(sched.clock.now)
            if len(fired) < 3:
                sched.reschedule(holder["event"], sched.clock.now + 1.0)

        holder["event"] = sched.schedule_at(1.0, beat)
        sched.run_all()
        assert fired == [1.0, 2.0, 3.0]

    def test_fresh_event_requires_callback(self):
        sched = EventScheduler()
        with pytest.raises(ClockError):
            sched.reschedule(None, 1.0)
        event = sched.reschedule(None, 1.0, lambda: None, "fresh")
        assert event.label == "fresh"
        assert sched.pending == 1

    def test_callback_and_label_override(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule_at(1.0, lambda: fired.append("old"), "old")
        sched.reschedule(event, 1.0, lambda: fired.append("new"), "new")
        sched.run_until(1.0)
        assert fired == ["new"]
        assert event.label == "new"

    def test_past_timestamp_rejected(self):
        sched = EventScheduler()
        event = sched.schedule_at(5.0, lambda: None)
        sched.clock.advance(3.0)
        with pytest.raises(ClockError):
            sched.reschedule(event, 2.0)

    def test_foreign_event_rejected(self):
        a, b = EventScheduler(), EventScheduler()
        event = a.schedule_at(1.0, lambda: None)
        with pytest.raises(ClockError):
            b.reschedule(event, 1.0)

    def test_heavy_rotation_keeps_heap_compact(self):
        sched = EventScheduler()
        watchdog = None
        for i in range(5000):
            watchdog = sched.reschedule(watchdog, float(i) + 60.0, lambda: None)
            sched.run_until(float(i) * 0.01)
        assert sched.pending == 1
        assert sched.heap_size <= EventScheduler._COMPACT_FLOOR * 2 + 2


class TestFireHook:
    def test_hook_sees_every_fired_event_in_order(self):
        sched = EventScheduler()
        seen = []
        sched.set_fire_hook(lambda event: seen.append((event.time, event.label)))
        sched.schedule_at(2.0, lambda: None, label="b")
        sched.schedule_at(1.0, lambda: None, label="a")
        skipped = sched.schedule_at(1.5, lambda: None, label="x")
        skipped.cancel()
        sched.run_all()
        assert seen == [(1.0, "a"), (2.0, "b")]

    def test_hook_clears(self):
        sched = EventScheduler()
        seen = []
        sched.set_fire_hook(seen.append)
        sched.set_fire_hook(None)
        sched.schedule_at(1.0, lambda: None)
        sched.run_all()
        assert seen == []


NON_FINITE = pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
)


class TestNonFiniteTimes:
    """A NaN or infinite time or delay is refused and changes nothing.

    NaN compares false against everything, so a plain ``t < now`` check
    let it through: a NaN event never became due and ``run_all`` never
    returned, and a NaN or infinite clock reading admitted no later
    time.
    """

    @NON_FINITE
    def test_clock_start(self, value):
        with pytest.raises(ClockError):
            Clock(value)

    @NON_FINITE
    def test_clock_advance(self, value):
        clock = Clock(2.0)
        with pytest.raises(ClockError):
            clock.advance(value)
        assert clock.now == 2.0

    @NON_FINITE
    def test_clock_advance_to(self, value):
        clock = Clock(2.0)
        with pytest.raises(ClockError):
            clock.advance_to(value)
        assert clock.now == 2.0

    @NON_FINITE
    def test_schedule_at(self, value):
        sched = EventScheduler()
        with pytest.raises(ClockError):
            sched.schedule_at(value, lambda: None)
        assert sched.pending == 0 and sched.heap_size == 0
        assert sched.run_all() == 0

    @NON_FINITE
    def test_schedule_in(self, value):
        sched = EventScheduler()
        sched.clock.advance(1.0)
        with pytest.raises(ClockError):
            sched.schedule_in(value, lambda: None)
        assert sched.pending == 0 and sched.heap_size == 0

    @NON_FINITE
    def test_reschedule(self, value):
        sched = EventScheduler()
        fired = []
        event = sched.schedule_at(1.0, lambda: fired.append(sched.clock.now))
        with pytest.raises(ClockError):
            sched.reschedule(event, value)
        with pytest.raises(ClockError):
            sched.reschedule(None, value, lambda: None)
        assert sched.pending == 1
        assert sched.run_all() == 1
        assert fired == [1.0]

    @NON_FINITE
    def test_run_until(self, value):
        sched = EventScheduler()
        fired = []
        sched.schedule_at(1.0, lambda: fired.append("x"))
        with pytest.raises(ClockError):
            sched.run_until(value)
        assert fired == [] and sched.clock.now == 0.0
        assert sched.pending == 1
