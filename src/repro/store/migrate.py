"""In-place migration of a legacy flat-JSON cache to the sharded layout.

:func:`repro.store.store_for` runs :func:`migrate_cache` the first time
it touches a legacy cache; ``repro cache migrate`` runs it on demand.
Every legacy entry is copied into a :class:`~repro.store.sharded.ShardedStore` under
the *same* cache directory and immediately read back through the store
API; only when the read-back is **bit-identical** to the legacy payload
is the legacy file deleted (``keep_legacy=True`` leaves the originals
in place, e.g. for a dry run that older toolchains can still read).

The migration is resumable and idempotent: entries already present in
the sharded store with identical bytes are skipped, so a migration
interrupted halfway just continues on the next invocation.  A
``store/MIGRATING`` marker, naming the mode, is written before the
first copy and removed once every entry is through; while it exists,
:func:`repro.store.store_for` resumes the migration in that mode on
first touch (the directory already has ``store/META.json`` by then, so
it no longer looks like a legacy cache).  Keys are unchanged — the
runner's content-addressed cache keys resolve identically through both
stores before and after.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from . import MIGRATING, looks_like_legacy_cache
from .base import MigrationError
from .legacy import LegacyJsonStore
from .sharded import ShardedStore


def migrate_cache(
    root: Path,
    *,
    keep_legacy: Optional[bool] = None,
    progress=None,
) -> Dict[str, object]:
    """Convert the legacy cache under ``root`` to the sharded layout.

    ``keep_legacy=None`` resumes an interrupted migration in the mode its
    marker names, and moves the entries when there is no marker.

    Returns a summary dict (``migrated``/``skipped``/``verified`` counts
    plus the byte totals).  Raises :class:`MigrationError` on the first
    entry whose round-trip is not bit-identical — the legacy file is
    then left untouched.
    """
    root = Path(root)
    was_legacy = looks_like_legacy_cache(root)
    marker = root / MIGRATING
    if keep_legacy is None:
        keep_legacy = marker.exists() and marker.read_text() == "keep-legacy"
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text("keep-legacy" if keep_legacy else "move")
    legacy = LegacyJsonStore(root)
    sharded = ShardedStore(root)
    migrated = 0
    skipped = 0
    bytes_in = 0
    removed: List[str] = []
    keys = legacy.keys()
    for i, key in enumerate(keys, 1):
        payload = legacy.get(key)
        if payload is None:  # vanished or unreadable: nothing to carry
            skipped += 1
            continue
        existing = sharded.get(key)
        if existing == payload:
            skipped += 1
        else:
            sharded.put(key, payload)
            back = sharded.get(key)
            if back != payload:
                raise MigrationError(
                    f"round-trip mismatch for {key!r}: wrote "
                    f"{len(payload)} bytes, read back "
                    f"{'nothing' if back is None else f'{len(back)} bytes'}"
                )
            migrated += 1
            bytes_in += len(payload)
        if not keep_legacy:
            legacy.delete(key)
            removed.append(key)
        if progress is not None:
            progress(i, len(keys), key)
    if not keep_legacy:
        _sweep_empty_legacy_dirs(root)
    marker.unlink()
    return {
        "entries": len(keys),
        "migrated": migrated,
        "skipped": skipped,
        "verified": migrated,
        "legacy_files_removed": len(removed),
        "bytes_migrated": bytes_in,
        "was_legacy_layout": was_legacy,
    }


def _sweep_empty_legacy_dirs(root: Path) -> None:
    for sub in ("manifests", "forensics", "figures", "objects"):
        path = root / sub
        try:
            if path.is_dir() and not any(path.iterdir()):
                path.rmdir()
        except OSError:
            pass
