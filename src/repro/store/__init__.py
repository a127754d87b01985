"""The result store: one :class:`~repro.store.sharded.ShardedStore` per
cache directory.

Key-prefix shards of append-only segment files hold zlib-compressed
payloads behind a per-shard index, with advisory file locks,
cross-process execution claims, ``compact``/``gc`` maintenance and an
LRU-by-atime eviction policy.

A directory still holding a pre-store flat-JSON cache (one
``<sha>.json`` per result) is migrated on first touch: :func:`store_for`
runs the verified :func:`~repro.store.migrate.migrate_cache` before
opening the store, so old entries keep hitting and the directory ends
up sharded.  The legacy layout is only ever read by that migration, and
:mod:`repro.store.legacy` / :mod:`repro.store.migrate` are imported
only when a legacy cache is found.

A sharded store that cannot initialise on its directory (foreign layout
version, ``store`` path squatted by a file, unwritable directory)
raises :class:`StoreInitError` naming the directory and the cause.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from .base import (  # noqa: F401  (re-exported API surface)
    CLAIM_TTL_SECONDS,
    Claim,
    FileLock,
    MigrationError,
    ResultStore,
    STORE_SCHEMA,
    StoreCounters,
    StoreError,
    StoreInitError,
)
from .sharded import ShardedStore

#: Present, under a cache directory, while a migration is unfinished;
#: holds its mode (``move`` or ``keep-legacy``).
MIGRATING = Path("store") / "MIGRATING"


def _has_flat_json(root: Path) -> bool:
    """Pre-store entries in ``root``: flat ``*.json`` files or a
    ``manifests/`` directory (the sharded layout has neither)."""
    return (root / "manifests").is_dir() or any(
        path.name != "META.json" for path in root.glob("*.json")
    )


def looks_like_legacy_cache(root: Path) -> bool:
    """True when ``root`` holds a pre-store flat-JSON cache and no
    sharded store yet."""
    root = Path(root)
    return (
        root.is_dir()
        and not (root / "store" / "META.json").exists()
        and _has_flat_json(root)
    )


def _migrate_on_first_touch(root: Path) -> None:
    """Migrate a legacy cache under ``root`` before the store opens.

    Every process that sees flat-JSON files takes the migration lock
    and re-probes under it, so a peer that finds the migration in
    progress (``store/META.json`` already written, entries still being
    copied) waits for it instead of opening a half-filled store.  A
    leftover ``store/MIGRATING`` marker means an earlier migration was
    interrupted: it is resumed in the mode the marker names, so files
    kept on purpose by ``cache migrate --keep-legacy`` stay kept."""
    if not _has_flat_json(root):
        return
    try:
        lock = FileLock(root / "store" / "MIGRATE.lock").acquire()
    except OSError as exc:
        raise StoreInitError(
            f"cannot migrate the legacy cache under {root}: {exc}"
        ) from exc
    try:
        if (root / MIGRATING).exists() or looks_like_legacy_cache(root):
            from .migrate import migrate_cache

            migrate_cache(root)
    finally:
        lock.release()


# ----------------------------------------------------------------------
# Per-directory instance cache (one store object per root, so the
# runner, telemetry, forensics, and figures all share counters, index
# caches, and pending-atime state within a process).
# ----------------------------------------------------------------------
_instances: Dict[str, ShardedStore] = {}


def store_for(root) -> ShardedStore:
    """The shared store instance for cache directory ``root``, opened
    (and, for a legacy cache, migrated) on first use in this process."""
    root = Path(root)
    store = _instances.get(str(root))
    if store is None:
        _migrate_on_first_touch(root)
        store = _instances[str(root)] = ShardedStore(root)
    return store


def drop_cached_instances() -> None:
    """Flush and forget every cached store instance (tests; migrate)."""
    for store in list(_instances.values()):
        try:
            store.flush()
        except (OSError, StoreError):
            pass
    _instances.clear()
