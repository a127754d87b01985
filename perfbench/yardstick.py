"""Frozen host-speed yardstick for the end-to-end benchmark.

Why it exists: the benchmark's host (a 2-vCPU VM) drifts in speed.  Two
sets of runs of identical code once differed by 10% in median sweep
throughput (2.46 vs 2.71 cells/s) and by 8% in events per CPU-second
(138k vs 127k/s); one simulation cell repeated in one process for five
minutes had 10-s window medians between 140 and 228 ms of *CPU* time,
and 60-s window medians still spread 1.29x.  Neither ``process_time``
nor longer runs remove that drift, and the VM exposes no PMU, so
instruction counts are not available.

The cure is a fixed reference workload timed next to every measured
operation: an op's seconds are scaled by ``(Y_NOMINAL / mean(adjacent
yardstick runs)) ** SENSITIVITY`` (``normalize``), so a slow phase of
the host slows the op and the yardstick alike and cancels out.  For that to hold, the yardstick runs
the simulator's own instruction mix -- a heap-scheduled discrete-event
loop, slotted message records recycled through a free list, generator
coroutines and dict caches -- but imports nothing from ``repro``, so no
change to the program under test can change it.

Do not edit this module: ``run`` checks its result against
``EXPECTED`` and raises on any mismatch, and ``Y_NOMINAL`` is the
yardstick's time on the reference host, so every normalized time in
the benchmark's history is in the same units.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Reference duration of one yardstick run (seconds).  Normalized op
#: times read as "seconds on a host where the yardstick takes this long".
Y_NOMINAL = 0.120

#: How strongly the program's ops follow the host's speed, relative to
#: the yardstick: the log-log slope of a run's raw op time against its
#: mean yardstick time, across runs on the reference host.  Four sets of
#: ten runs gave 0.83, 0.92, 0.82 and 0.79.  The full ratio (exponent 1)
#: overcorrects, so a run in a fast phase of the host reads slow.
SENSITIVITY = 0.85

#: (events, checksum) the frozen loop must produce.
EXPECTED = (49_383, 943_400_758)

_CORES = 8
_BLOCKS = 64
_OPS_PER_THREAD = 3_500
_LINK = 3


class _Msg:
    __slots__ = ("kind", "src", "dst", "block", "data", "_next")

    def __init__(self):
        self._next = None


class _Loop:
    """A tiny directory-coherence machine: cores run generator threads
    that read and write blocks, misses travel as messages through a
    heap-scheduled event queue to a directory and back."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.heap = []
        self.events = 0
        self.free = None
        self.caches = [dict() for _ in range(_CORES)]
        self.owner = {}
        self.memory = dict.fromkeys(range(_BLOCKS), 0)
        self.checksum = 0

    def schedule(self, delay, fn, arg):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, arg))

    def alloc(self, kind, src, dst, block, data):
        msg = self.free
        if msg is None:
            msg = _Msg()
        else:
            self.free = msg._next
        msg.kind = kind
        msg.src = src
        msg.dst = dst
        msg.block = block
        msg.data = data
        return msg

    def release(self, msg):
        msg.data = None
        msg._next = self.free
        self.free = msg

    def run(self):
        heap = self.heap
        pop = heapq.heappop
        while heap:
            when, _, fn, arg = pop(heap)
            self.now = when
            self.events += 1
            fn(arg)

    # -- threads -------------------------------------------------------
    def start(self, core):
        thread = self._thread(core)
        self.schedule(core, self._resume, (core, thread, None))

    def _thread(self, core):
        rng = core * 7919 + 17
        total = 0
        for i in range(_OPS_PER_THREAD):
            rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
            block = (rng >> 8) % _BLOCKS
            if rng & 3:
                value = yield ("read", block)
                total = (total + value * (i + 1)) & 0xFFFFFFF
            else:
                yield ("write", block, (total + i) & 0xFFFF)
        self.checksum = (self.checksum * 31 + total + core) & 0x7FFFFFFF

    def _resume(self, arg):
        core, thread, value = arg
        try:
            op = thread.send(value)
        except StopIteration:
            return
        cache = self.caches[core]
        block = op[1]
        line = cache.get(block)
        if op[0] == "read":
            if line is not None:
                self.schedule(1, self._resume, (core, thread, line[1]))
                return
            msg = self.alloc("gets", core, -1, block, None)
        else:
            if line is not None and line[0] == "M":
                cache[block] = ("M", op[2])
                self.schedule(1, self._resume, (core, thread, None))
                return
            msg = self.alloc("getx", core, -1, block, op[2])
        self.schedule(_LINK, self._directory, (msg, thread))

    def _directory(self, arg):
        msg, thread = arg
        block = msg.block
        owner = self.owner.get(block)
        if owner is not None and owner != msg.src:
            value = self.caches[owner].pop(block, ("I", 0))[1]
            self.memory[block] = value
            self.owner.pop(block)
        value = self.memory[block]
        if msg.kind == "getx":
            for cache in self.caches:
                cache.pop(block, None)
            self.owner[block] = msg.src
            self.memory[block] = msg.data
            state, value = "M", msg.data
        else:
            state = "S"
        reply = self.alloc("data", -1, msg.src, block, (state, value))
        self.release(msg)
        self.schedule(_LINK, self._deliver, (reply, thread))

    def _deliver(self, arg):
        msg, thread = arg
        core = msg.dst
        state, value = msg.data
        self.caches[core][msg.block] = (state, value)
        self.release(msg)
        self._resume((core, thread, value if state == "S" else None))


def normalize(raw_s: float, y_before_s: float, y_after_s: float) -> float:
    """An op's raw seconds in normalized seconds, from the yardstick runs
    on either side of it."""
    y = (y_before_s + y_after_s) / 2
    return raw_s * (Y_NOMINAL / y) ** SENSITIVITY


def run() -> float:
    """Run the yardstick once with the garbage collector paused (so the
    heap the program under test leaves behind cannot change its time);
    return its wall-clock seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        loop = _Loop()
        for core in range(_CORES):
            loop.start(core)
        loop.run()
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    got = (loop.events, loop.checksum)
    if got != EXPECTED:
        raise RuntimeError(f"yardstick result {got} != frozen {EXPECTED}")
    return seconds


if __name__ == "__main__":
    samples = sorted(run() for _ in range(9))
    print(f"yardstick median {samples[4] * 1000:.1f} ms "
          f"(min {samples[0] * 1000:.1f}, max {samples[-1] * 1000:.1f}); "
          f"Y_NOMINAL {Y_NOMINAL * 1000:.1f} ms")
