"""Tests for the benchmark workloads: registry, determinism, oracles."""

import pytest

import repro
from repro.sim.config import SystemKind
from repro.workloads.base import make_workload, workload_names


class TestRegistry:
    def test_all_benchmarks_registered(self):
        names = workload_names()
        for expected in (
            "genome",
            "intruder",
            "kmeans-h",
            "kmeans-l",
            "labyrinth",
            "ssca2",
            "vacation",
            "yada",
            "llb-l",
            "llb-h",
            "cadd",
            "counter",
        ):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            make_workload("nope")

    def test_factory_parameters(self):
        wl = make_workload("counter", threads=4, seed=7, scale=0.5)
        assert wl.num_threads == 4
        assert wl.seed == 7

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_workload("counter", threads=0)
        with pytest.raises(ValueError):
            make_workload("counter", scale=0)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["counter", "kmeans-h", "genome", "llb-l"])
    def test_same_seed_same_cycles(self, name):
        a = repro.run_workload(name, SystemKind.CHATS, threads=4, seed=3, scale=0.15)
        b = repro.run_workload(name, SystemKind.CHATS, threads=4, seed=3, scale=0.15)
        assert a.cycles == b.cycles
        assert a.total_aborts == b.total_aborts
        assert a.flits == b.flits

    def test_different_seed_different_schedule(self):
        a = make_workload("counter", threads=4, seed=1, scale=0.5)
        b = make_workload("counter", threads=4, seed=2, scale=0.5)
        assert a.schedule != b.schedule or a.num_counters == 1


class TestOraclesCatchCorruption:
    """Each workload's verify() is the serializability oracle of the
    integration tests — prove it actually rejects corrupted state."""

    def _run_and_corrupt(self, name, corrupt):
        wl = make_workload(name, threads=4, seed=1, scale=0.15)
        from repro.sim.simulator import Simulator

        sim = Simulator(wl)
        for tid in range(wl.num_threads):
            sim.cores[tid].start(wl.thread_body(tid))
            sim._started += 1
        sim.engine.run(max_events=5_000_000)
        corrupt(wl, sim.memory)
        with pytest.raises(AssertionError):
            wl.verify(sim.memory)

    def test_counter_oracle(self):
        self._run_and_corrupt(
            "counter",
            lambda wl, m: m.write_word(wl.counters[0].addr, 10_000),
        )

    def test_kmeans_oracle(self):
        self._run_and_corrupt(
            "kmeans-h",
            lambda wl, m: m.write_word(wl.centers[0].addr(0), 999_999),
        )

    def test_ssca2_oracle(self):
        self._run_and_corrupt(
            "ssca2",
            lambda wl, m: m.write_word(wl._degree_addr(0), 77),
        )

    def test_vacation_oracle(self):
        self._run_and_corrupt(
            "vacation",
            lambda wl, m: m.write_word(wl.successes.addr(0), 999),
        )

    def test_yada_oracle(self):
        self._run_and_corrupt(
            "yada",
            lambda wl, m: m.write_word(wl._gen_addr(0), 500),
        )

    def test_genome_oracle(self):
        def corrupt(wl, m):
            m.write_word(wl.chain_tails.addr(0), 0)

        self._run_and_corrupt("genome", corrupt)

    def test_intruder_oracle(self):
        def corrupt(wl, m):
            m.write_word(wl.packet_queue.head_addr, 0)

        self._run_and_corrupt("intruder", corrupt)

    def test_intruder_oracle_counts_deposits_exactly(self):
        def corrupt(wl, m):
            # One deposit more than the per-thread packet counts allow.
            tail = wl.result_queue.tail_addr
            m.write_word(tail, m.read_word(tail) + 1)

        self._run_and_corrupt("intruder", corrupt)

    def test_labyrinth_oracle(self):
        def corrupt(wl, m):
            # Claim a random cell for a route that never committed it.
            m.write_word(wl.grid.addr(0), 1)
            m.write_word(wl.grid.addr(1), 10_000)

        self._run_and_corrupt("labyrinth", corrupt)

    def test_cadd_oracle(self):
        self._run_and_corrupt(
            "cadd",
            lambda wl, m: m.write_word(wl.sums.addr(0), 1),
        )

    def test_llb_oracle(self):
        def corrupt(wl, m):
            node = m.read_word(wl.list.head_addr)
            m.write_word(wl.list.pool.field(node, 1), 31337)

        self._run_and_corrupt("llb-l", corrupt)


class TestWorkloadScaling:
    def test_scale_changes_input_size(self):
        small = make_workload("kmeans-h", scale=0.25)
        large = make_workload("kmeans-h", scale=1.0)
        assert large.points_per_thread > small.points_per_thread

    def test_floor_respected(self):
        tiny = make_workload("yada", threads=4, scale=0.01)
        assert tiny.num_records >= 4 * tiny.cavity_size

    def test_thread_count_respected(self):
        wl = make_workload("genome", threads=3, scale=0.2)
        assert len(wl.segments) == 3


def test_intruder_oracle_holds_when_no_thread_completes_a_flow():
    """``repro report --scale 0.1``'s intruder/naive-rs cell: with 35
    packets over 16 threads, this schedule gives no thread a multiple of
    ``fragments_per_flow`` packets, so zero deposits is the right count."""
    result = repro.run_workload(
        "intruder", "naive-rs", threads=16, seed=1, scale=0.1
    )
    assert result.total_commits > 0
