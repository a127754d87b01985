"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(10, fired.append, "b")
        engine.schedule(5, fired.append, "a")
        engine.schedule(20, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        engine = Engine()
        fired = []
        for name in "abcde":
            engine.schedule(7, fired.append, name)
        engine.run()
        assert fired == list("abcde")

    def test_now_advances(self):
        engine = Engine()
        seen = []
        engine.schedule(5, lambda: seen.append(engine.now))
        engine.schedule(9, lambda: seen.append(engine.now))
        final = engine.run()
        assert seen == [5, 9]
        assert final == 9

    def test_schedule_at_absolute(self):
        engine = Engine()
        seen = []
        engine.schedule(5, lambda: engine.schedule_at(30, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [30]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1, lambda: None)

    def test_nested_scheduling(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append(("outer", engine.now))
            engine.schedule(3, inner)

        def inner():
            fired.append(("inner", engine.now))

        engine.schedule(2, outer)
        engine.run()
        assert fired == [("outer", 2), ("inner", 5)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        token = engine.schedule(5, fired.append, "x")
        engine.cancel(token)
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        token = engine.schedule(5, lambda: None)
        engine.cancel(token)
        engine.cancel(token)
        engine.run()

    def test_pending_counts_live_events_only(self):
        engine = Engine()
        tokens = [engine.schedule(5, lambda: None) for _ in range(3)]
        assert engine.pending() == 3
        engine.cancel(tokens[1])
        assert engine.pending() == 2
        engine.cancel(tokens[0])
        engine.cancel(tokens[2])
        assert engine.pending() == 0


class TestRunBounds:
    def test_until_bound(self):
        engine = Engine()
        fired = []
        engine.schedule(5, fired.append, "early")
        engine.schedule(50, fired.append, "late")
        engine.run(until=10)
        assert fired == ["early"]
        assert engine.pending() == 1

    def test_bounded_run_advances_clock_to_bound(self):
        """Back-to-back bounded runs must observe a consistent clock:
        run(until=N) leaves now == N, not at the last processed event."""
        engine = Engine()
        engine.schedule(5, lambda: None)
        assert engine.run(until=10) == 10
        assert engine.now == 10

    def test_bounded_run_on_drained_queue_advances(self):
        engine = Engine()
        assert engine.run(until=7) == 7
        assert engine.now == 7

    def test_bounded_runs_are_monotonic(self):
        engine = Engine()
        engine.schedule(12, lambda: None)
        engine.run()
        assert engine.now == 12
        # A stale bound must not rewind the clock.
        assert engine.run(until=5) == 12

    def test_back_to_back_bounded_runs_consistent(self):
        engine = Engine()
        seen = []
        engine.schedule(3, lambda: seen.append(engine.now))
        engine.schedule(25, lambda: seen.append(engine.now))
        engine.run(until=10)
        assert engine.now == 10
        engine.schedule(5, lambda: seen.append(engine.now))  # fires at 15
        engine.run(until=20)
        assert engine.now == 20
        engine.run(until=30)
        assert seen == [3, 15, 25]

    def test_cancelled_head_does_not_leak_past_bound(self):
        """A cancelled event before the bound must not let a live event
        beyond the bound fire."""
        engine = Engine()
        fired = []
        token = engine.schedule(5, fired.append, "cancelled")
        engine.schedule(50, fired.append, "late")
        engine.cancel(token)
        engine.run(until=10)
        assert fired == []
        assert engine.pending() == 1

    def test_max_events_raises(self):
        engine = Engine()

        def loop():
            engine.schedule(1, loop)

        engine.schedule(0, loop)
        with pytest.raises(RuntimeError, match="livelock"):
            engine.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_events_processed_counter(self):
        engine = Engine()
        for _ in range(7):
            engine.schedule(1, lambda: None)
        engine.run()
        assert engine.events_processed == 7


class TestDeterminism:
    @given(
        delays=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40)
    )
    def test_same_schedule_same_order(self, delays):
        def trace(ds):
            engine = Engine()
            out = []
            for i, d in enumerate(ds):
                engine.schedule(d, out.append, (d, i))
            engine.run()
            return out

        assert trace(delays) == trace(delays)

    @given(
        delays=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30)
    )
    def test_order_is_stable_sort_by_time(self, delays):
        engine = Engine()
        out = []
        for i, d in enumerate(delays):
            engine.schedule(d, out.append, (d, i))
        engine.run()
        # Events must be ordered by (time, insertion order).
        assert out == sorted(out, key=lambda pair: (pair[0], pair[1]))


class TestFastLanes:
    """Ordering across the zero-delay, next-cycle, and bucket paths."""

    def test_delay_one_fires_after_same_cycle_bucket_entries(self):
        # An entry scheduled two cycles early (bucket path) must fire
        # before a delay-1 entry for the same cycle (next-lane path):
        # bucket entries are always globally older.
        engine = Engine()
        order = []
        engine.schedule(2, order.append, "bucket")

        def at_cycle_one():
            engine.schedule(1, order.append, "next-lane")

        engine.schedule(1, at_cycle_one)
        engine.run()
        assert order == ["bucket", "next-lane"]

    def test_mixed_delays_interleave_in_schedule_order(self):
        engine = Engine()
        order = []
        # All three paths targeting the same cycle, scheduled from
        # different origins; global schedule order must win.
        engine.schedule(3, order.append, "a")  # bucket for cycle 3

        def at_two():
            engine.schedule(1, order.append, "b")  # next-lane for cycle 3

        engine.schedule(2, at_two)

        def at_three_first(tag):
            order.append(tag)
            engine.schedule(0, order.append, "d")  # zero-lane, cycle 3

        engine.schedule(3, at_three_first, "c")
        engine.run()
        assert order == ["a", "c", "b", "d"]

    def test_delay_one_respects_until(self):
        engine = Engine()
        fired = []
        engine.schedule(1, fired.append, 1)
        assert engine.run(until=0) == 0
        assert fired == []
        engine.run()
        assert fired == [1]

    def test_delay_one_chain_advances_one_cycle_at_a_time(self):
        engine = Engine()
        cycles = []

        def tick(n):
            cycles.append(engine.now)
            if n:
                engine.schedule(1, tick, n - 1)

        engine.schedule(1, tick, 4)
        engine.run()
        assert cycles == [1, 2, 3, 4, 5]


class TestCancellationLeak:
    """A workload that arms and cancels timers forever must keep the
    queue bounded (regression test for the cancelled-event leak)."""

    def test_cancelled_events_are_reclaimed(self):
        engine = Engine()
        rounds = 5_000

        def arm_and_cancel(n):
            # Arm a far-future timer, then immediately cancel it — the
            # validation-controller pattern that used to accumulate dead
            # entries until the far-future cycle drained.
            token = engine.schedule(10_000, lambda: None)
            engine.cancel(token)
            if n:
                engine.schedule(1, arm_and_cancel, n - 1)

        engine.schedule(1, arm_and_cancel, rounds)
        engine.run(until=rounds + 10)
        # Live queue is empty; the dead backlog must stay below the
        # compaction threshold (plus the live count at trigger time),
        # not grow with the number of cancelled timers.
        assert engine.pending() == 0
        queued = sum(len(b) for b in engine._buckets.values())
        queued += len(engine._lane) + len(engine._next)
        assert queued <= 2 * Engine.COMPACT_THRESHOLD, (
            f"{queued} dead entries retained after {rounds} cancels"
        )

    def test_cancel_in_next_lane_is_reclaimed(self):
        engine = Engine()
        for _ in range(1_000):
            engine.cancel(engine.schedule(1, lambda: None))
        assert engine.pending() == 0
        assert len(engine._next) <= 2 * Engine.COMPACT_THRESHOLD

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        token = engine.schedule(1, lambda: None)
        engine.run()
        live = engine.pending()
        engine.cancel(token)  # already fired: must not corrupt the counters
        engine.cancel(token)
        assert engine.pending() == live == 0
        engine.schedule(1, lambda: None)
        assert engine.pending() == 1
