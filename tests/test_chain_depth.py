"""Deep-chain scenarios: many transactions chained through forwarding,
and the PiC range limit that caps chain growth."""

import pytest

from repro.sim.config import SystemConfig, SystemKind, table2_config
from repro.sim.ops import Read, Txn, Work, Write
from repro.sim.simulator import Simulator
from repro.obs.tracer import Tracer
from repro.workloads.scripted import ScriptedWorkload

BASE = 0x30_0000


def relay_threads(n, *, hold=500, stagger=150):
    """Thread i first publishes its own value into block i (write-first,
    so the block is final immediately), then reads block i-1 — mid-flight
    in thread i-1's lingering transaction, so the value arrives as a
    speculative forward — and records what it saw.  A chain of
    producer→consumer pairs on *different* blocks, which CHATS supports
    at any length (Section III)."""

    def make(i):
        mine = BASE + i * 0x1000

        def thread():
            yield Work(stagger * i)

            def body():
                yield Write(mine, i + 10)
                if i > 0:
                    seen = yield Read(BASE + (i - 1) * 0x1000)
                    yield Write(mine + 8, seen)
                yield Work(hold)

            yield Txn(body, ())

        return thread

    return [make(i) for i in range(n)]


def relay_check(n):
    def check(m):
        for i in range(n):
            if m.read_word(BASE + i * 0x1000) != i + 10:
                return False
            if i > 0 and m.read_word(BASE + i * 0x1000 + 8) != i + 9:
                return False
        return True

    return check


class TestRelayChains:
    @pytest.mark.parametrize("depth", [2, 4, 8])
    def test_chain_of_depth(self, depth):
        wl = ScriptedWorkload(relay_threads(depth), check=relay_check(depth))
        sim = Simulator(
            wl,
            htm=table2_config(SystemKind.CHATS),
            config=SystemConfig(num_cores=max(2, depth)),
        )
        with Tracer(sim, kinds={"forward", "commit"}) as trace:
            result = sim.run()
        # Values relayed correctly through the chain (the check above) and
        # forwarding actually connected consecutive stages.
        assert result.total_commits == depth
        if depth >= 4:
            assert len(trace.of_kind("forward")) >= depth // 2

    def test_commit_order_follows_chain(self):
        depth = 5
        wl = ScriptedWorkload(relay_threads(depth))
        sim = Simulator(
            wl,
            htm=table2_config(SystemKind.CHATS),
            config=SystemConfig(num_cores=depth),
        )
        with Tracer(sim, kinds={"commit"}) as trace:
            sim.run()
        commit_order = [e.core for e in trace.of_kind("commit")]
        # A consumer can never commit before the producer it consumed
        # from; with this stagger the order must be monotonically
        # increasing along the chain.
        assert commit_order == sorted(commit_order)

    def test_narrow_pic_still_correct_on_deep_chain(self):
        """A 3-bit PiC (range 0..6) cannot hold a 10-deep chain; overflow
        resolves to requester-wins but the relay must still complete with
        correct values."""
        depth = 10
        htm = table2_config(SystemKind.CHATS).replace(pic_bits=3)

        def check(m):
            # All writes must land; a reader past the PiC range may have
            # been serialized *before* its producer (underflow resolves to
            # requester-wins), legitimately observing 0.
            for i in range(depth):
                if m.read_word(BASE + i * 0x1000) != i + 10:
                    return False
                if i > 0 and m.read_word(BASE + i * 0x1000 + 8) not in (0, i + 9):
                    return False
            return True

        wl = ScriptedWorkload(relay_threads(depth), check=check)
        sim = Simulator(
            wl, htm=htm, config=SystemConfig(num_cores=max(16, depth))
        )
        result = sim.run()
        assert result.total_commits >= depth


class TestFanOut:
    def test_producer_with_many_consumers(self):
        """One producer, six read-only consumers: CHATS places no limit on
        the number of sharers of forwarded data (unlike LEVC)."""
        HOT = BASE

        def producer():
            def body():
                yield Write(HOT, 9)
                yield Work(900)

            yield Txn(body, ())

        def consumer(i):
            def thread():
                yield Work(100 + i * 17)

                def body():
                    v = yield Read(HOT)
                    yield Write(BASE + (i + 1) * 0x1000, v)

                yield Txn(body, ())

            return thread

        n = 6
        wl = ScriptedWorkload(
            [producer] + [consumer(i) for i in range(n)],
            check=lambda m: all(
                m.read_word(BASE + (i + 1) * 0x1000) == 9 for i in range(n)
            ),
        )
        sim = Simulator(
            wl,
            htm=table2_config(SystemKind.CHATS),
            config=SystemConfig(num_cores=n + 1),
        )
        result = sim.run()
        assert result.total_commits == n + 1
        assert sim.stats.spec_forwards >= n

    def test_levc_single_consumer_contrast(self):
        """The same fan-out under LEVC: one SpecResp per producer, the
        rest resolved by stall/abort — still correct, less concurrent."""
        HOT = BASE

        def producer():
            def body():
                yield Write(HOT, 9)
                yield Work(900)

            yield Txn(body, ())

        def consumer(i):
            def thread():
                yield Work(100 + i * 17)

                def body():
                    v = yield Read(HOT)
                    yield Write(BASE + (i + 1) * 0x1000, v)

                yield Txn(body, ())

            return thread

        n = 4
        wl = ScriptedWorkload(
            [producer] + [consumer(i) for i in range(n)],
            check=lambda m: all(
                m.read_word(BASE + (i + 1) * 0x1000) == 9 for i in range(n)
            ),
        )
        sim = Simulator(
            wl,
            htm=table2_config(SystemKind.LEVC),
            config=SystemConfig(num_cores=n + 1),
        )
        result = sim.run()
        assert result.total_commits == n + 1
        # At most one consumer got the speculative copy from the producer
        # while its transaction ran (subsequent ones may chain later after
        # validation transfers ownership).
        assert sim.stats.spec_forwards <= n
