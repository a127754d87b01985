"""Tests for the experiment runner: cache-key completeness (the
system/max_events collision regression), the persistent disk cache, and
the parallel ``run_many`` fan-out."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pickle

import pytest

from repro import store as store_pkg
from repro.experiments import runner
from repro.experiments.figures import fig1
from repro.experiments.registry import experiment_configs
from repro.experiments.runner import (
    RunConfig,
    cache_size,
    clear_cache,
    counters,
    run_cached,
    run_many,
)
from repro.sim.config import SystemKind, table2_config
from repro.sim.results import SimulationResult
from repro.systems import registered_systems

FAST = dict(threads=2, scale=0.1)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a fresh tmp dir and zero all counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(runner, "_cache_dir_override", None)
    monkeypatch.setattr(runner, "_disk_cache_override", None)
    monkeypatch.setattr(runner, "_default_progress", None)
    store_pkg.drop_cached_instances()
    clear_cache()
    counters().reset()
    yield
    store_pkg.drop_cached_instances()
    clear_cache()
    counters().reset()


class TestKeyCompleteness:
    """Regression: the pre-fix key was (workload, htm, threads, seed,
    scale) — omitting ``system`` and ``max_events``."""

    def test_same_htm_different_system_does_not_collide(self):
        htm = table2_config(SystemKind.CHATS)
        a = run_cached("counter", SystemKind.CHATS, htm=htm, **FAST)
        b = run_cached("counter", SystemKind.LEVC, htm=htm, **FAST)
        # Two distinct cache entries, two real simulations — with the old
        # key the second call silently returned the first call's result.
        assert cache_size() == 2
        assert counters().simulations == 2
        assert a is not b

    def test_different_max_events_reruns(self):
        run_cached("counter", SystemKind.BASELINE, **FAST)
        run_cached(
            "counter", SystemKind.BASELINE, max_events=10_000_000, **FAST
        )
        assert counters().simulations == 2
        assert cache_size() == 2

    def test_identical_calls_still_hit(self):
        a = run_cached("counter", SystemKind.BASELINE, **FAST)
        b = run_cached("counter", SystemKind.BASELINE, **FAST)
        assert a is b
        assert counters().simulations == 1
        assert counters().memory_hits == 1


class TestKeyMemo:
    """``RunConfig.key()`` is computed once per instance; the memo must
    never leak into equality, hashing, copies or the serialized form."""

    @staticmethod
    def _fresh_key(cfg: RunConfig) -> str:
        payload = json.dumps(
            {
                "schema": runner.SCHEMA_VERSION,
                "code": runner._code_fingerprint(),
                **cfg.to_dict(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def test_memoized_key_equals_fresh_computation(self):
        cfg = RunConfig.make("counter", "chats", **FAST)
        first = cfg.key()
        assert first == self._fresh_key(cfg)
        assert cfg.key() is first

    @pytest.mark.parametrize("memoized", [False, True])
    def test_pickle_round_trip_keeps_key(self, memoized):
        cfg = RunConfig.make("llb-l", "pchats", **FAST)
        if memoized:
            cfg.key()
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert clone.key() == cfg.key() == self._fresh_key(clone)

    def test_replace_does_not_inherit_the_memo(self):
        cfg = RunConfig.make("counter", "baseline", **FAST)
        cfg.key()
        other = dataclasses.replace(cfg, seed=cfg.seed + 1)
        assert other.key() == self._fresh_key(other)
        assert other.key() != cfg.key()

    @pytest.mark.parametrize("system", registered_systems())
    def test_to_dict_matches_the_asdict_reference(self, system):
        cfg = RunConfig.make("counter", system, **FAST)
        reference = dataclasses.asdict(cfg.htm)
        reference["system"] = cfg.htm.system.value
        if cfg.htm.forward_class is not None:
            reference["forward_class"] = cfg.htm.forward_class.value
        assert cfg.to_dict()["htm"] == reference

    def test_equality_hash_and_dict_ignore_the_memo(self):
        a = RunConfig.make("counter", "chats", **FAST)
        b = RunConfig.make("counter", "chats", **FAST)
        a.key()
        assert a == b and hash(a) == hash(b)
        assert a.to_dict() == b.to_dict()
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestDiskCache:
    def test_round_trip_equality(self):
        """A result reloaded from disk equals the original in every
        stats field (dataclass equality covers all counters)."""
        original = run_cached("counter", SystemKind.CHATS, **FAST)
        clear_cache()  # simulate a fresh process
        reloaded = run_cached("counter", SystemKind.CHATS, **FAST)
        assert counters().simulations == 1
        assert counters().disk_hits == 1
        assert reloaded == original
        assert reloaded.stats == original.stats
        assert reloaded.to_dict() == original.to_dict()

    def test_serialization_is_lossless(self):
        result = run_cached("llb-l", SystemKind.PCHATS, **FAST)
        assert SimulationResult.from_dict(result.to_dict()) == result

    def test_schema_version_bump_invalidates(self, monkeypatch):
        run_cached("counter", SystemKind.BASELINE, **FAST)
        clear_cache()
        monkeypatch.setattr(runner, "SCHEMA_VERSION", 999)
        run_cached("counter", SystemKind.BASELINE, **FAST)
        assert counters().simulations == 2
        assert counters().disk_hits == 0

    def test_no_cache_env_disables_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_cached("counter", SystemKind.BASELINE, **FAST)
        clear_cache()
        run_cached("counter", SystemKind.BASELINE, **FAST)
        assert counters().simulations == 2
        assert counters().disk_hits == 0

    def test_corrupt_entry_is_a_miss(self, recwarn):
        """An unparsable store entry is a warn-once miss — never an
        exception, never a stale result."""
        cfg = RunConfig.make("counter", SystemKind.BASELINE, **FAST)
        run_cached("counter", SystemKind.BASELINE, **FAST)
        store = runner.result_store()
        # Overwrite the entry with bytes that are not JSON.
        store.put(runner.result_key(cfg.key()), b"{not json")
        clear_cache()
        run_cached("counter", SystemKind.BASELINE, **FAST)
        assert counters().simulations == 2
        assert store.counters.corrupt == 1
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "cache miss" in str(w.message)
            for w in recwarn.list
        )

    def test_legacy_cache_migrates_on_first_touch(self, tmp_path, monkeypatch):
        """A pre-store flat-JSON cache is migrated once, when the store
        first opens it, and then serves every key without simulating."""
        from repro.store import looks_like_legacy_cache, migrate
        from repro.store.legacy import LegacyJsonStore

        sweep = SWEEP[:3]
        seeded = tmp_path / "seed"
        runner.configure(cache_dir=str(seeded))
        expected = run_many(sweep, workers=1)
        legacy_root = tmp_path / "legacy"
        legacy = LegacyJsonStore(legacy_root)
        source = runner.result_store()
        for key in source.keys("result/"):
            legacy.put(key, source.get(key))
        assert looks_like_legacy_cache(legacy_root)

        calls = []
        real = migrate.migrate_cache
        monkeypatch.setattr(
            migrate, "migrate_cache", lambda root: calls.append(root) or real(root)
        )
        runner.configure(cache_dir=str(legacy_root))
        store_pkg.drop_cached_instances()
        clear_cache()
        counters().reset()
        results = run_many(sweep, workers=1)
        assert counters().simulations == 0
        assert counters().disk_hits == len(sweep)
        assert results == expected
        assert calls == [legacy_root]
        assert list(legacy_root.glob("*.json")) == []
        assert not looks_like_legacy_cache(legacy_root)
        # A fresh open finds the sharded store and does not migrate again.
        store_pkg.drop_cached_instances()
        assert sorted(runner.result_store().keys("result/")) == sorted(
            source.keys("result/")
        )
        assert calls == [legacy_root]


SWEEP = [
    RunConfig.make(w, s, **FAST)
    for w in ("counter", "llb-l")
    for s in (SystemKind.BASELINE, SystemKind.CHATS, SystemKind.PCHATS)
]


class TestRunMany:
    def test_parallel_matches_serial_bit_identical(self):
        """workers=2 must produce byte-identical results to the serial
        path on two workloads x three systems (acceptance criterion)."""
        serial = run_many(SWEEP, workers=1, use_cache=False)
        parallel = run_many(SWEEP, workers=2, use_cache=False)
        assert [r.to_dict() for r in serial] == [
            r.to_dict() for r in parallel
        ]

    def test_finished_machine_is_freed(self):
        """A finished machine is cyclic garbage; run_many frees it at
        once instead of leaving it to the next automatic full collection
        (automatic collection is off here, so only the runner's counts)."""
        from repro.sim.simulator import Simulator

        gc.disable()
        try:
            run_many(SWEEP[:1], workers=1, use_cache=False)
            alive = [o for o in gc.get_objects() if isinstance(o, Simulator)]
        finally:
            gc.enable()
        assert alive == []

    def test_deduplicates_before_dispatch(self):
        cfg = SWEEP[0]
        results = run_many([cfg, cfg, cfg], workers=2, use_cache=False)
        assert counters().simulations == 1
        assert len(results) == 3
        assert results[0] is results[1] is results[2]

    def test_results_in_input_order(self):
        results = run_many(SWEEP, workers=2)
        for cfg, result in zip(SWEEP, results):
            assert result.workload == cfg.workload
            assert result.system == cfg.system.value

    def test_populates_shared_cache(self):
        run_many(SWEEP[:3], workers=2)
        assert counters().simulations == 3
        for cfg in SWEEP[:3]:
            run_cached(
                cfg.workload,
                cfg.system,
                threads=cfg.threads,
                seed=cfg.seed,
                scale=cfg.scale,
            )
        assert counters().simulations == 3  # all warm

    def test_failure_surfaces_offending_config(self):
        bad = RunConfig.make("no-such-workload", SystemKind.BASELINE, **FAST)
        with pytest.raises(RuntimeError, match="no-such-workload"):
            run_many([bad] + SWEEP[:2], workers=2, use_cache=False)

    def test_serial_failure_surfaces_too(self):
        bad = RunConfig.make("no-such-workload", SystemKind.BASELINE, **FAST)
        with pytest.raises(RuntimeError, match="no-such-workload"):
            run_many([bad], workers=1, use_cache=False)

    def test_progress_streamed(self):
        seen = []
        run_many(
            SWEEP[:2],
            workers=1,
            progress=lambda done, total, cfg, src: seen.append(
                (done, total, src)
            ),
        )
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
        # Re-run: both cells now arrive from the cache.
        seen.clear()
        run_many(
            SWEEP[:2],
            workers=1,
            progress=lambda done, total, cfg, src: seen.append(src),
        )
        assert seen == ["cached", "cached"]


class TestFigureSweepCaching:
    """Acceptance: a figure sweep run twice is a cache hit the second
    time — zero simulations re-executed, verified by the counter."""

    def test_second_figure_run_is_free(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        fig1(workloads=("counter", "llb-l"))
        first = counters().simulations
        assert first > 0
        fig1(workloads=("counter", "llb-l"))
        assert counters().simulations == first

    def test_second_run_from_disk_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        fig1(workloads=("counter",))
        first = counters().simulations
        clear_cache()  # fresh process: only the disk cache survives
        fig1(workloads=("counter",))
        assert counters().simulations == first
        assert counters().disk_hits > 0


class TestExperimentConfigs:
    def test_main_sweep_declares_all_cells(self):
        cfgs = experiment_configs("fig4", workloads=("counter", "llb-l"))
        assert len(cfgs) == 2 * 6  # workloads x six systems
        assert len({c.key() for c in cfgs}) == len(cfgs)

    def test_fig9_sweep_parameterized(self):
        cfgs = experiment_configs(
            "fig9", workloads=("counter",), retries=(2, 32)
        )
        assert len(cfgs) == 4 * 2  # four systems x two retry values
        assert {c.htm.retries for c in cfgs} == {2, 32}

    def test_tables_have_no_cells(self):
        assert experiment_configs("table1") == []

    def test_figure_prefetch_covers_figure_needs(self, monkeypatch):
        """The declared set must be a superset of what the figure
        actually consumes: after run_many(configs), assembling the
        figure triggers zero additional simulations."""
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_THREADS", "4")
        run_many(experiment_configs("fig11", workloads=("counter",)))
        ran = counters().simulations
        fig11 = __import__(
            "repro.experiments.figures", fromlist=["fig11"]
        ).fig11
        fig11(workloads=("counter",))
        assert counters().simulations == ran
