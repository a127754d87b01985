"""Discrete-event simulation engine.

A single event queue drives the whole machine.  Events scheduled for the
same cycle fire in FIFO order, which makes every simulation run fully
deterministic for a given workload seed.

Hot-path design (this module is the innermost loop of every experiment):

* One allocation per event.  An event is a plain list
  ``[when, fn, args]`` (a list literal is the cheapest record CPython
  builds); it is both the queue entry and the handle that
  :meth:`Engine.cancel` takes.
* Calendar-bucket queue.  Future events live in a per-cycle FIFO bucket
  (``dict`` keyed by absolute cycle); the heap orders only the *distinct*
  cycle numbers.  Typical workloads schedule many events per cycle, so
  heap traffic drops from one push+pop per event to one per populated
  cycle.  Bucket append order *is* schedule order, so draining a bucket
  FIFO reproduces the exact deterministic order with zero comparisons
  and no per-event sequence counter.
* Zero-delay fast lane.  ``schedule(0, ...)`` appends straight to the
  current cycle's run list.  Same-cycle events scheduled *while the cycle
  executes* always follow the bucket entries that matured at that cycle
  (the bucket was sealed when the cycle began), so lane order stays
  exact.
* Next-cycle fast lane.  ``delay == 1`` dominates real machines (link
  and L1 hit latencies are one cycle), so those events go to a dedicated
  ``_next`` list and never touch the bucket dict or the heap.  Order is
  preserved because a bucket for cycle ``T+1`` can only receive entries
  *before* cycle ``T`` runs (a delay-1 schedule during ``T`` goes to
  ``_next``, anything longer lands past ``T+1``), so draining the bucket
  first and ``_next`` second is exactly global schedule order.
* O(1) ``pending()`` via a live-event counter maintained on schedule,
  cancel, and fire.
* Cancelled entries are dropped lazily when their cycle drains, and the
  buckets are compacted in place once dead entries outnumber live ones,
  so a workload that arms and cancels millions of timers keeps a bounded
  queue.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, List, Optional


class Engine:
    """Minimal deterministic discrete-event engine."""

    __slots__ = (
        "_buckets",
        "_cycles",
        "_lane",
        "_next",
        "_now",
        "_live",
        "_dead",
        "events_processed",
    )

    #: Dead entries tolerated before an in-place compaction (also requires
    #: dead >= live, so lightly-cancelled queues never churn).
    COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        # Future events: absolute cycle -> FIFO list of events, plus a heap
        # of the distinct cycle keys.  A key is pushed exactly once, when
        # its bucket is created, and popped when the clock reaches it.
        self._buckets: Dict[int, List[list]] = {}
        self._cycles: List[int] = []
        # Events runnable at the current cycle, in FIFO order.
        self._lane: deque = deque()
        # Events for cycle ``_now + 1`` (the dominant delay), bypassing
        # the bucket dict and the cycle heap entirely.
        self._next: List[list] = []
        self._now = 0
        self._live = 0
        self._dead = 0
        self.events_processed = 0

    @property
    def now(self) -> int:
        """Current simulated cycle."""
        return self._now

    def schedule(self, delay: int, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` cycles; returns the event
        ``[when, fn, args]``, the handle :meth:`cancel` takes."""
        if delay == 1:
            event = [self._now + 1, fn, args]
            self._next.append(event)
        elif delay:
            if delay < 0:
                raise ValueError("cannot schedule into the past")
            when = self._now + delay
            event = [when, fn, args]
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [event]
                heapq.heappush(self._cycles, when)
            else:
                bucket.append(event)
        else:
            event = [self._now, fn, args]
            self._lane.append(event)
        self._live += 1
        return event

    def schedule_at(self, cycle: int, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` at absolute ``cycle``."""
        return self.schedule(cycle - self._now, fn, *args)

    def cancel(self, event: list) -> None:
        """Mark ``event`` dead in place; the queue drops it lazily or
        during compaction.  A no-op once the event has fired or been
        cancelled (firing clears ``fn`` too)."""
        if event[1] is None:
            return
        event[1] = None
        event[2] = ()
        self._live -= 1
        self._dead += 1
        if self._dead >= self.COMPACT_THRESHOLD and self._dead >= self._live:
            self._compact()

    # ------------------------------------------------------------------
    def _advance(self, until: Optional[int]) -> bool:
        """Seed the empty lane with the next populated cycle's events.

        Returns False when there is nothing left (or the next cycle lies
        beyond ``until``).  Invariant: every ``_next`` entry matures at
        exactly ``_now + 1`` (entries are appended only while the current
        cycle fires, and the clock cannot move before the lane drains),
        so the bucket for that cycle — sealed strictly earlier — drains
        first and ``_next`` second, preserving global schedule order.
        """
        cycles = self._cycles
        nxt = self._next
        target = self._now + 1
        if cycles:
            cycle = cycles[0]
            if nxt and target < cycle:
                cycle = target
        elif nxt:
            cycle = target
        else:
            return False
        if until is not None and cycle > until:
            return False
        lane = self._lane
        if cycles and cycles[0] == cycle:
            heapq.heappop(cycles)
            lane.extend(self._buckets.pop(cycle))
        if nxt and cycle == target:
            lane.extend(nxt)
            nxt.clear()
        return True

    def _next_event(self) -> Optional[list]:
        """Pop the next live event in deterministic order, or None."""
        lane = self._lane
        while True:
            while lane:
                event = lane.popleft()
                if event[1] is None:
                    self._dead -= 1
                    continue
                return event
            if not self._advance(None):
                return None

    def step(self) -> bool:
        """Process one event.  Returns False when the queue is empty."""
        event = self._next_event()
        if event is None:
            return False
        fn = event[1]
        args = event[2]
        event[1] = None  # consumed: a late cancel() must be a no-op
        event[2] = ()
        self._now = event[0]
        self._live -= 1
        self.events_processed += 1
        fn(*args)
        return True

    def run(self, *, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue.

        ``until`` bounds simulated time; ``max_events`` bounds host work
        (a deadlock/livelock backstop for tests).  Returns the final cycle.

        Contract for bounded runs: after ``run(until=N)`` the clock reads
        ``N`` (unless it was already past ``N``) even when the queue
        drained early, so back-to-back bounded runs observe a consistent,
        monotonic clock.
        """
        if until is not None and until < self._now:
            return self._now
        lane = self._lane
        processed = 0
        try:
            while True:
                if lane:
                    # Peek-then-pop so an event is never lost to the
                    # ``max_events`` backstop.  ``_compact`` mutates the
                    # containers in place, so the local binding stays
                    # valid even when a callback triggers compaction.
                    event = lane[0]
                    fn = event[1]
                    if fn is None:
                        lane.popleft()
                        self._dead -= 1
                        continue
                    if max_events is not None and processed >= max_events:
                        raise RuntimeError(
                            f"engine exceeded {max_events} events at cycle "
                            f"{self._now}; likely livelock in the simulated "
                            "machine"
                        )
                    lane.popleft()
                    args = event[2]
                    event[1] = None
                    event[2] = ()
                    self._now = event[0]
                    self._live -= 1
                    processed += 1
                    fn(*args)
                    continue
                if not self._advance(until):
                    break
        finally:
            self.events_processed += processed
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) queued events — O(1)."""
        return self._live

    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries, in place (callers hold aliases to the
        containers), preserving the deterministic order.

        Emptied buckets stay registered (their cycle key is already in the
        heap); the drain loop skips them for free.
        """
        for bucket in self._buckets.values():
            bucket[:] = [event for event in bucket if event[1] is not None]
        nxt = self._next
        nxt[:] = [event for event in nxt if event[1] is not None]
        lane = self._lane
        for _ in range(len(lane)):
            event = lane.popleft()
            if event[1] is not None:
                lane.append(event)
        self._dead = 0
