"""``LegacyJsonStore``: the pre-store one-JSON-file-per-entry layout.

The layout the runner wrote before the sharded store existed.  It is
only a migration source: :func:`~repro.store.migrate.migrate_cache`
reads every entry through this class and deletes it once the sharded
copy reads back identically.  ``put`` remains as the writer of legacy
fixtures for the migration's tests.

.. code-block:: text

    <cache_dir>/
      <sha256>.json                  result/<sha256>
      manifests/MANIFEST_<x>.json    manifest/MANIFEST_<x>
      forensics/<name>.json          forensics/<name>
      figures/<id>/<sha>.json        figure/<id>/<sha>

Writes are atomic (temp + ``os.replace``); there is no index, no
compression, and no locking.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .base import ResultStore, atomic_write_bytes

#: Namespace -> subdirectory of the cache root (results live flat in
#: the root itself, exactly like the pre-store layout).
_NAMESPACE_DIRS: Dict[str, Tuple[str, ...]] = {
    "result": (),
    "manifest": ("manifests",),
    "forensics": ("forensics",),
    "figure": ("figures",),
}

_SAFE_SEGMENT = re.compile(r"^[A-Za-z0-9._+-]+$")


def _split_key(key: str) -> Tuple[str, Tuple[str, ...]]:
    parts = key.split("/")
    if not all(_SAFE_SEGMENT.match(p) for p in parts):
        raise ValueError(f"unsafe store key {key!r}")
    return parts[0], tuple(parts[1:])


class LegacyJsonStore(ResultStore):
    """The pre-store flat-file layout, read (and emptied) by migration."""

    kind = "legacy"

    # -- key <-> path ----------------------------------------------------
    def path_for(self, key: str) -> Path:
        ns, rest = _split_key(key)
        subdir = _NAMESPACE_DIRS.get(ns)
        if subdir is None or not rest:
            # Unknown namespace (or flat key): keep it out of the
            # result namespace so listings stay unambiguous.
            return self.root.joinpath("objects", *key.split("/")).with_suffix(
                ".json"
            )
        return self.root.joinpath(*subdir, *rest).with_suffix(".json")

    def _key_for(self, path: Path) -> Optional[str]:
        try:
            rel = path.relative_to(self.root)
        except ValueError:
            return None
        parts = rel.with_suffix("").parts
        if len(parts) == 1:
            return f"result/{parts[0]}"
        head = parts[0]
        for ns, subdir in _NAMESPACE_DIRS.items():
            if subdir and head == subdir[0]:
                return "/".join((ns,) + parts[1:])
        if head == "objects":
            return "/".join(parts[1:])
        return None

    def _iter_paths(self) -> List[Path]:
        out: List[Path] = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob("*.json")):
            out.append(path)
        for sub in ("manifests", "forensics", "figures", "objects"):
            base = self.root / sub
            if base.is_dir():
                out.extend(sorted(base.rglob("*.json")))
        return out

    # -- byte plane ------------------------------------------------------
    def peek(self, key: str) -> Optional[bytes]:
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def get(self, key: str) -> Optional[bytes]:
        payload = self.peek(key)
        self._note("hits" if payload is not None else "misses")
        return payload

    def put(self, key: str, payload: bytes) -> None:
        atomic_write_bytes(self.path_for(key), payload)
        self._note("puts")

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        self._note("deletes")
        return True

    def keys(self, prefix: str = "") -> List[str]:
        out = []
        for path in self._iter_paths():
            key = self._key_for(path)
            if key is not None and key.startswith(prefix):
                out.append(key)
        return out
