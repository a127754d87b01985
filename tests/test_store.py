"""Tests for the result store (``repro.store``): byte-plane round-trips
of the sharded store and of the legacy layout migration reads, store
opening and init failures, corruption handling, compaction/eviction, the
in-place and first-touch migrations, claims, and the N-process
concurrent-writer guarantee."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
import zlib
from pathlib import Path

import pytest

from repro import store as store_pkg
from repro.store import ShardedStore, StoreInitError, looks_like_legacy_cache
from repro.store.base import CLAIM_TTL_SECONDS, STORE_SCHEMA
from repro.store.legacy import LegacyJsonStore
from repro.store.migrate import MigrationError, migrate_cache
from repro.store.sharded import _shard_of

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


@pytest.fixture(autouse=True)
def isolated_instances():
    """No shared store instances between tests."""
    store_pkg.drop_cached_instances()
    yield
    store_pkg.drop_cached_instances()


@pytest.fixture(params=["legacy", "sharded"])
def kind(request):
    """Both layouts for the byte-plane tests (migration reads legacy
    entries through the same API); a test that covers only the sharded
    store overrides this with its own parametrization."""
    return request.param


def make_store(kind: str, root: Path):
    return LegacyJsonStore(root) if kind == "legacy" else ShardedStore(root)


# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_put_get_bytes(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "ab" * 32, b"payload-bytes")
        assert store.get("result/" + "ab" * 32) == b"payload-bytes"
        assert store.counters.puts == 1
        assert store.counters.hits == 1

    def test_missing_key_is_counted_miss(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        assert store.get("result/" + "00" * 32) is None
        assert store.counters.misses == 1

    def test_peek_does_not_count(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("manifest/M1", b"x")
        assert store.peek("manifest/M1") == b"x"
        assert store.peek("manifest/M2") is None
        assert store.counters.hits == 0
        assert store.counters.misses == 0

    def test_overwrite_returns_newest(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "cd" * 32, b"old")
        store.put("result/" + "cd" * 32, b"new")
        assert store.get("result/" + "cd" * 32) == b"new"
        assert store.keys() == ["result/" + "cd" * 32]

    def test_json_round_trip(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        doc = {"schema": "x/1", "values": [1, 2.5, None], "nested": {"a": 1}}
        store.put_json("forensics/" + "ee" * 32, doc)
        assert store.get_json("forensics/" + "ee" * 32) == doc

    def test_delete(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "0f" * 32, b"x")
        assert store.delete("result/" + "0f" * 32) is True
        assert store.delete("result/" + "0f" * 32) is False
        assert store.get("result/" + "0f" * 32) is None

    def test_keys_prefix(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "aa" * 32, b"1")
        store.put("manifest/MANIFEST_r1_abc", b"2")
        store.put("figure/fig4/" + "bb" * 32, b"3")
        assert sorted(store.keys()) == sorted(
            ["result/" + "aa" * 32, "manifest/MANIFEST_r1_abc",
             "figure/fig4/" + "bb" * 32]
        )
        assert store.keys("manifest/") == ["manifest/MANIFEST_r1_abc"]

    def test_unparsable_entry_is_warn_once_miss(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "11" * 32, b"{not json")
        store.put("result/" + "22" * 32, b"also not }")
        with pytest.warns(RuntimeWarning, match="cache miss"):
            assert store.get_json("result/" + "11" * 32) is None
        # Second corrupt read: counted, but silent.
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            assert store.get_json("result/" + "22" * 32) is None
        assert store.counters.corrupt == 2

    @pytest.mark.parametrize("kind", ["sharded"])
    def test_stats_document_shape(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.put("result/" + "aa" * 32, b'{"pad": "%s"}' % (b"x" * 100))
        store.put("manifest/MANIFEST_r1_abc", b"{}")
        doc = store.stats()
        assert doc["schema"] == STORE_SCHEMA
        assert doc["kind"] == kind
        assert doc["entries"] == 2
        assert doc["namespaces"] == {"result": 1, "manifest": 1}
        assert doc["logical_bytes"] >= 101
        assert store.verify() == []

    @pytest.mark.parametrize("kind", ["sharded"])
    def test_atomic_tmp_litter_ignored(self, kind, tmp_path):
        """A writer killed mid-commit leaves only ``*.tmp`` litter, which
        readers never parse and ``compact`` sweeps."""
        store = make_store(kind, tmp_path)
        store.put("result/" + "aa" * 32, b'{"good": true}')
        litter = tmp_path / "store" / "zz.json.tmp"
        litter.write_bytes(b"half-written")
        assert store.keys() == ["result/" + "aa" * 32]
        assert store.verify() == []
        summary = store.compact()
        assert summary["tmp_files_swept"] == 1
        assert not litter.exists()


# ----------------------------------------------------------------------
class TestLegacyLayout:
    """The legacy class must map keys onto the pre-store on-disk layout
    byte-for-byte, or migration would miss entries of old caches."""

    def test_result_maps_to_top_level_json(self, tmp_path):
        store = LegacyJsonStore(tmp_path)
        sha = "de" * 32
        store.put(f"result/{sha}", b'{"a": 1}')
        assert (tmp_path / f"{sha}.json").read_bytes() == b'{"a": 1}'

    def test_manifest_maps_to_manifests_dir(self, tmp_path):
        store = LegacyJsonStore(tmp_path)
        store.put("manifest/MANIFEST_run1_abc123", b"{}")
        assert (tmp_path / "manifests" / "MANIFEST_run1_abc123.json").exists()

    def test_looks_like_legacy_cache(self, tmp_path):
        assert not looks_like_legacy_cache(tmp_path)
        LegacyJsonStore(tmp_path).put("result/" + "aa" * 32, b"{}")
        assert looks_like_legacy_cache(tmp_path)
        ShardedStore(tmp_path)  # writes store/META.json
        assert not looks_like_legacy_cache(tmp_path)


# ----------------------------------------------------------------------
class TestSelection:
    """Opening the one store: shared instances, loud init failures."""

    @pytest.mark.parametrize(
        "meta", [{"schema": "someone-else/7"}, ["someone-else/7"]]
    )
    def test_foreign_store_meta_raises_init_error(self, tmp_path, meta):
        ShardedStore(tmp_path)
        meta_path = tmp_path / "store" / "META.json"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreInitError) as exc:
            store_pkg.store_for(tmp_path)
        assert str(tmp_path) in str(exc.value)
        assert "someone-else/7" in str(exc.value)
        # Nothing was written in a second layout beside the foreign one.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]

    def test_squatted_store_path_raises_init_error(self, tmp_path):
        (tmp_path / "store").write_text("squatted")  # not a directory
        with pytest.raises(StoreInitError, match="not a directory"):
            store_pkg.store_for(tmp_path)

    def test_store_for_shares_instances(self, tmp_path):
        a = store_pkg.store_for(tmp_path)
        b = store_pkg.store_for(tmp_path)
        assert a is b


# ----------------------------------------------------------------------
class TestShardedInternals:
    def test_payloads_are_compressed_and_crc_guarded(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "result/" + "ab" * 32
        store.put(key, b"A" * 10_000)  # highly compressible
        store.flush()
        entry = store._load_index(_shard_of(key))["entries"][key]
        assert entry["len"] < 10_000  # stored compressed
        assert store.get(key) == b"A" * 10_000

    def test_bit_flip_detected_as_corrupt_miss(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "result/" + "ab" * 32
        store.put(key, zlib.compress(b"x") * 50)  # incompressible-ish
        store.flush()
        shard = _shard_of(key)
        entry = store._load_index(shard)["entries"][key]
        seg = store._segment_path(shard, entry["seg"])
        blob = bytearray(seg.read_bytes())
        payload_off = entry["off"] + 20 + len(key.encode()) + 3
        blob[payload_off] ^= 0xFF
        seg.write_bytes(blob)
        fresh = ShardedStore(tmp_path)
        with pytest.warns(RuntimeWarning):
            assert fresh.get(key) is None
        assert fresh.counters.corrupt == 1
        assert fresh.verify() != []

    def test_compact_reclaims_dead_records(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "result/" + "ab" * 32
        for i in range(20):
            store.put(key, b'{"version": %d, "pad": "%s"}' % (i, b"." * 2000))
        store.flush()
        before = store.stats()
        assert before["dead_bytes"] > 0
        summary = store.compact()
        assert summary["reclaimed_bytes"] > 0
        assert store.get_json(key)["version"] == 19
        assert store.stats()["dead_bytes"] == 0
        assert store.verify() == []

    def test_gc_evicts_lru_first(self, tmp_path):
        import hashlib

        store = ShardedStore(tmp_path)
        keys = ["result/" + ("%02x" % i) * 32 for i in range(8)]
        for i, key in enumerate(keys):
            # Incompressible payloads so the byte budget bites.
            payload = b"".join(
                hashlib.sha256(key.encode() + bytes([j])).digest()
                for j in range(16)
            )
            store.put(key, payload)
        # Touch half the keys so they are most-recently-read.
        kept = keys[4:]
        for key in kept:
            assert store.get(key) is not None
        store.flush()
        evicted = store.gc(4 * 560)
        assert evicted
        assert set(evicted) <= set(keys[:4])
        for key in kept:
            assert store.get(key) is not None
        assert store.counters.evictions == len(evicted)

    def test_rebuild_index_from_segments(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "result/" + "ab" * 32
        store.put(key, b"survives")
        store.flush()
        shard = _shard_of(key)
        (store._shard_dir(shard) / "index.json").unlink()
        fresh = ShardedStore(tmp_path)
        assert fresh.rebuild_index(shard) == 1
        assert fresh.get(key) == b"survives"

    def test_foreign_layout_version_refused(self, tmp_path):
        ShardedStore(tmp_path)
        meta_path = tmp_path / "store" / "META.json"
        meta = json.loads(meta_path.read_text("utf-8"))
        meta["schema"] = "repro-store-layout/999"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreInitError):
            ShardedStore(tmp_path)


# ----------------------------------------------------------------------
class TestMigrate:
    def _legacy_fixture(self, root: Path) -> dict:
        legacy = LegacyJsonStore(root)
        payloads = {
            "result/" + "ab" * 32: json.dumps(
                {"schema": 1, "result": {"cycles": 123}}, sort_keys=True
            ).encode("utf-8"),
            "result/" + "cd" * 32: b'{"schema": 1, "result": {}}',
            "manifest/MANIFEST_r1_aaa111": b'{"schema": "m/1", "seq": 1}',
            "forensics/" + "ef" * 32: b'{"schema": "repro-forensics/1"}',
        }
        for key, payload in payloads.items():
            legacy.put(key, payload)
        return payloads

    def test_round_trip_is_bit_identical(self, tmp_path):
        payloads = self._legacy_fixture(tmp_path)
        summary = migrate_cache(tmp_path)
        assert summary["was_legacy_layout"] is True
        assert summary["migrated"] == len(payloads)
        assert summary["verified"] == len(payloads)
        store = ShardedStore(tmp_path)
        for key, payload in payloads.items():
            assert store.get(key) == payload
        # Legacy files removed: the directory is sharded now.
        assert not looks_like_legacy_cache(tmp_path)

    def test_keep_legacy_preserves_source_files(self, tmp_path):
        self._legacy_fixture(tmp_path)
        summary = migrate_cache(tmp_path, keep_legacy=True)
        assert summary["legacy_files_removed"] == 0
        assert ("ab" * 32 + ".json") in {
            p.name for p in tmp_path.iterdir() if p.is_file()
        }

    def test_idempotent_second_run(self, tmp_path):
        self._legacy_fixture(tmp_path)
        migrate_cache(tmp_path)
        summary = migrate_cache(tmp_path)
        assert summary["was_legacy_layout"] is False
        assert summary["migrated"] == 0

    def test_unreadable_legacy_entry_aborts_migration(self, tmp_path):
        self._legacy_fixture(tmp_path)
        sha = "ab" * 32
        path = tmp_path / f"{sha}.json"
        path.chmod(0o000)
        if os.access(path, os.R_OK):  # running as root: chmod is a no-op
            pytest.skip("cannot revoke read permission on this platform")
        try:
            with pytest.raises(MigrationError):
                migrate_cache(tmp_path)
            # Source files untouched: nothing was removed.
            assert looks_like_legacy_cache(tmp_path)
        finally:
            path.chmod(0o644)

    def test_first_touch_resumes_interrupted_migration(self, tmp_path):
        payloads = self._legacy_fixture(tmp_path)

        class Killed(Exception):
            pass

        def stop_after_first(done, total, key):
            raise Killed

        with pytest.raises(Killed):
            migrate_cache(tmp_path, progress=stop_after_first)
        # One entry moved, three still flat, and META.json already exists.
        assert not looks_like_legacy_cache(tmp_path)
        assert len(LegacyJsonStore(tmp_path).keys()) == 3
        store = store_pkg.store_for(tmp_path)
        assert {key: store.get(key) for key in payloads} == payloads
        assert LegacyJsonStore(tmp_path).keys() == []
        assert list(tmp_path.glob("*.json")) == []
        assert not (tmp_path / store_pkg.MIGRATING).exists()

    def test_kept_legacy_files_are_not_migrated_again(
        self, tmp_path, monkeypatch
    ):
        payloads = self._legacy_fixture(tmp_path)
        migrate_cache(tmp_path, keep_legacy=True)
        kept = sorted(p.name for p in tmp_path.glob("*.json"))
        assert kept
        assert not (tmp_path / store_pkg.MIGRATING).exists()

        def must_not_migrate(*args, **kwargs):
            raise AssertionError("migrate_cache called again")

        monkeypatch.setattr(
            "repro.store.migrate.migrate_cache", must_not_migrate
        )
        store = store_pkg.store_for(tmp_path)
        assert {key: store.get(key) for key in payloads} == payloads
        assert sorted(p.name for p in tmp_path.glob("*.json")) == kept


# ----------------------------------------------------------------------
class TestClaims:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "result/" + "aa" * 32
        claim = store.claim(key)
        assert claim is not None
        assert store.claim(key) is None  # held (even by our own pid)
        claim.release()
        reclaim = store.claim(key)
        assert reclaim is not None
        reclaim.release()

    def test_claimed_by_other_sees_live_foreign_pid(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "result/" + "aa" * 32
        claim = store.claim(key)
        # Forge a foreign live owner (pid 1 is always alive).
        claim.path.write_text(
            json.dumps({"key": key, "pid": 1, "unix": __import__("time").time()})
        )
        assert store.claimed_by_other(key) is True
        assert store.claim(key) is None
        claim.release()
        assert store.claimed_by_other(key) is False

    def test_stale_dead_pid_claim_is_broken(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "result/" + "bb" * 32
        path = store._claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"key": key, "pid": 2 ** 22 + 12345,
                                    "unix": __import__("time").time()}))
        claim = store.claim(key)
        assert claim is not None and claim.pid == os.getpid()
        claim.release()

    def test_late_stale_break_spares_a_fresh_claim(self, tmp_path, monkeypatch):
        """Two claimants read the same dead owner's claim.  A breaks it
        and publishes its own; B, resuming with the stale holder it read
        earlier, must not unlink A's fresh claim."""
        store_a = ShardedStore(tmp_path)
        store_b = ShardedStore(tmp_path)
        key = "result/" + "bc" * 32
        path = store_a._claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"key": key, "pid": 2 ** 22 + 12345,
                                    "unix": time.time()}))
        stale = store_b._read_claim(path)  # B's read, before A acts
        claim_a = store_a.claim(key)
        assert claim_a is not None
        fresh = path.stat().st_ino
        # B's first read of the claim returns what it saw earlier.
        reads = [stale]
        real_read = ShardedStore._read_claim
        monkeypatch.setattr(
            store_b,
            "_read_claim",
            lambda p: reads.pop() if reads else real_read(p),
        )
        assert store_b.claim(key) is None
        assert path.stat().st_ino == fresh  # A's claim survived
        claim_a.release()

    @pytest.mark.parametrize("age, held", [(0.0, True), (7200.0, False)])
    def test_unparsable_claim_is_live_until_ttl(self, tmp_path, age, held):
        """A claim file that exists but does not parse (a writer caught
        between creating and filling it) is live while younger than the
        TTL, by mtime, and broken once older."""
        assert (age < CLAIM_TTL_SECONDS) == held
        store = ShardedStore(tmp_path)
        key = "result/" + "ee" * 32
        path = store._claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        claim = store.claim(key)
        if held:
            assert claim is None
            assert path.read_bytes() == b""  # the live claim survives
            assert store.claimed_by_other(key) is True
            t0 = time.monotonic()
            assert store.wait_for(key, timeout=0.1, poll=0.02) is None
            assert time.monotonic() - t0 >= 0.1  # waited, not abandoned
        else:
            assert claim is not None and claim.pid == os.getpid()
            assert json.loads(path.read_text())["pid"] == os.getpid()
            claim.release()

    def test_claim_file_is_published_whole(self, tmp_path, monkeypatch):
        """The claim file only ever appears with its full payload: it is
        written under a temp name and hard-linked into place."""
        store = ShardedStore(tmp_path)
        key = "result/" + "ff" * 32
        linked = []
        real_link = os.link

        def link(src, dst, *args, **kwargs):
            linked.append(json.loads(Path(src).read_text("utf-8")))
            return real_link(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "link", link)
        claim = store.claim(key)
        assert claim is not None
        assert linked == [json.loads(claim.path.read_text("utf-8"))]
        assert linked[0]["pid"] == os.getpid()
        # The temp file is gone: only the claim itself remains.
        assert [p.name for p in claim.path.parent.iterdir()] == [
            claim.path.name
        ]
        claim.release()

    def test_wait_for_returns_stored_payload(self, tmp_path):
        store = ShardedStore(tmp_path)
        key = "result/" + "cc" * 32
        store.put(key, b"done")
        assert store.wait_for(key, timeout=1.0) == b"done"

    def test_wait_for_unclaimed_missing_key_returns_none(self, tmp_path):
        store = ShardedStore(tmp_path)
        assert store.wait_for("result/" + "dd" * 32, timeout=0.2) is None


# ----------------------------------------------------------------------
_RAW_WRITER = textwrap.dedent(
    """
    import sys
    from repro.store import ShardedStore

    root, worker = sys.argv[1], int(sys.argv[2])
    store = ShardedStore(root)
    # 20 private keys plus 10 shared keys every worker also writes.
    for i in range(20):
        key = "result/%02d%02d" % (worker, i) + "ef" * 30
        store.put(key, b'{"worker": %d, "i": %d}' % (worker, i))
    for i in range(10):
        key = "result/ffff%02d" % i + "ab" * 29
        store.put(key, b'{"shared": %d}' % i)
    store.flush()
    print("ok")
    """
)

_RUNNER_WORKER = textwrap.dedent(
    """
    import json
    import sys

    from repro.experiments.runner import RunConfig, counters, run_many
    from repro.sim.config import SystemKind

    sweep = [
        RunConfig.make(w, s, threads=2, scale=0.05)
        for w in ("counter", "llb-l")
        for s in (SystemKind.BASELINE, SystemKind.CHATS, SystemKind.PCHATS)
    ]
    results = run_many(sweep, workers=1)
    print(json.dumps({
        "simulations": counters().simulations,
        "disk_hits": counters().disk_hits,
        "cycles": [r.cycles for r in results],
    }))
    """
)


_FIRST_TOUCH = textwrap.dedent(
    """
    import os
    import sys
    import time

    from repro.store import store_for

    root, go = sys.argv[1], sys.argv[2]
    while not os.path.exists(go):
        time.sleep(0.001)
    print(len(store_for(root).keys()))
    """
)


class TestConcurrentWriters:
    """N >= 4 real processes against one store directory (acceptance)."""

    N = 4

    def _spawn(self, script: str, argv, env):
        return subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _env(self, cache_dir: Path) -> dict:
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env.pop("REPRO_NO_CACHE", None)
        return env

    def test_concurrent_raw_writers_never_corrupt(self, tmp_path):
        env = self._env(tmp_path)
        procs = [
            self._spawn(_RAW_WRITER, [str(tmp_path), str(i)], env)
            for i in range(self.N)
        ]
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
            assert out.strip() == "ok"
        store = ShardedStore(tmp_path)
        # 20 private keys per worker + 10 shared keys, no losses.
        assert len(store.keys()) == self.N * 20 + 10
        assert store.verify() == []
        for i in range(10):
            key = "result/ffff%02d" % i + "ab" * 29
            assert store.get_json(key) == {"shared": i}

    def test_concurrent_first_touch_migrates_once(self, tmp_path):
        """Two processes open the same legacy cache at once: one
        migrates it, the other waits, and both see every entry."""
        cache = tmp_path / "cache"
        legacy = LegacyJsonStore(cache)
        payloads = {
            "result/%064x" % i: b'{"entry": %d}' % i for i in range(200)
        }
        for key, payload in payloads.items():
            legacy.put(key, payload)
        go = tmp_path / "go"
        env = self._env(cache)
        procs = [
            self._spawn(_FIRST_TOUCH, [str(cache), str(go)], env)
            for _ in range(2)
        ]
        go.touch()
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
            assert int(out.strip()) == len(payloads)
        assert not looks_like_legacy_cache(cache)
        assert list(cache.glob("*.json")) == []
        store = ShardedStore(cache)
        assert {key: store.get(key) for key in store.keys()} == payloads

    def test_concurrent_run_many_never_double_runs(self, tmp_path):
        """Four processes race the same 6-cell sweep; the claim protocol
        must hand each cell to exactly one process and every process
        must converge on identical results."""
        cache = tmp_path / "cache"
        env = self._env(cache)
        procs = [
            self._spawn(_RUNNER_WORKER, [], env) for _ in range(self.N)
        ]
        reports = []
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            reports.append(json.loads(out.strip().splitlines()[-1]))
        total_sims = sum(r["simulations"] for r in reports)
        assert total_sims == 6, reports  # each cell executed exactly once
        # Every process saw the same bit-identical results.
        assert len({tuple(r["cycles"]) for r in reports}) == 1
        store = ShardedStore(cache)
        assert len(store.keys("result/")) == 6
        assert store.verify() == []
        # No claims left behind.
        claims = list((cache / "store" / "claims").glob("*.claim")) if (
            cache / "store" / "claims"
        ).is_dir() else []
        assert claims == []
