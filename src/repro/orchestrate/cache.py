"""Content-addressed on-disk cache for cell results.

Layout (under the cache root, default ``~/.cache/satr`` or
``$SATR_CACHE_DIR``)::

    <root>/<digest[:2]>/<digest>.json

Each artifact is one JSON document carrying the cell description, its
payload, and the compute time it saved.  Keys are the cell digest —
sha256 over package version, experiment/cell identity, the full
parameter set (scale and seed included) and the kernel-configuration
fields — so *any* change to the code version or the experiment inputs
misses cleanly, while an unrelated edit re-hits.

Writes are atomic (temp file + ``os.replace``) so a parallel run's
workers and a concurrent reader can never observe a torn artifact.
Corrupt or unreadable artifacts are treated as misses, never errors.

A cache instance holds the records it has read (at most
``RECORDS_HELD``, oldest out), so a long-lived reader such as
``satr serve`` reads each file once.  A held record is shared by every
later ``load`` of its digest and must not be mutated.  ``store`` drops
the held copy of its digest and ``prune`` drops them all, so a held
record never outlives a write or a prune made through its instance;
one made by another process shows once the record has been evicted.
"""

import json
import os
import sys
import tempfile
import threading
import time
from typing import Any, Dict, Hashable, Iterator, Optional, Tuple

from repro import __version__

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "SATR_CACHE_DIR"


def default_cache_dir() -> str:
    """The cache root: ``$SATR_CACHE_DIR`` or ``~/.cache/satr``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "satr")


#: Records one cache instance holds once read.  The four served targets
#: at quick scale read 18 records (25.5 KB on disk, ~100 KB in memory),
#: so this holds seven such sets, one per seed, policy or scale served.
#: Only launch records grow with scale, ~0.4 KB on disk per round.
RECORDS_HELD = 128


class BoundedMemo:
    """A thread-safe map of at most ``limit`` entries; putting a new key
    into a full memo drops the oldest one first."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The value held for ``key``, or None."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            entries = self._entries
            if key not in entries and len(entries) >= self.limit:
                del entries[next(iter(entries))]
            entries[key] = value

    def pop(self, key: Hashable) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class ResultCache:
    """Digest-keyed JSON artifact store."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self._store_warned = False
        #: Records read from disk, by digest.
        self._held = BoundedMemo(RECORDS_HELD)

    def path(self, digest: str) -> str:
        """The artifact path for one digest."""
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    def load(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored artifact, or None on miss/corruption.

        The record is held, not copied: callers must not mutate it.
        """
        record = self._held.get(digest)
        if record is not None:
            return record
        try:
            with open(self.path(digest), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "payload" not in record:
            return None
        self._held.put(digest, record)
        return record

    def store(self, digest: str, cell_dict: Dict[str, Any],
              payload: Any, elapsed: float) -> None:
        """Atomically write one artifact; failures are non-fatal."""
        record = {
            "digest": digest,
            "version": __version__,
            "cell": cell_dict,
            "payload": payload,
            "elapsed": elapsed,
        }
        directory = os.path.dirname(self.path(digest))
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(record, handle, sort_keys=True)
                os.replace(tmp_path, self.path(digest))
            except BaseException:
                os.unlink(tmp_path)
                raise
            self._held.pop(digest)
        except OSError as exc:
            # A read-only or full disk degrades to "no cache": warn once
            # per cache instance so a mid-sweep worker keeps computing
            # instead of dying, but the user learns results aren't kept.
            if not self._store_warned:
                self._store_warned = True
                print(
                    f"[satr] warning: result cache at {self.root} is not "
                    f"writable ({exc}); continuing uncached",
                    file=sys.stderr,
                )

    # -- size/age accounting and pruning --------------------------------

    def artifacts(self) -> Iterator[Tuple[str, int, float]]:
        """Every stored artifact as ``(path, bytes, mtime)``.

        Walks only the two-hex-digit shard directories, so foreign
        files under the root (sweep manifests, stray notes) are never
        counted — and never pruned.
        """
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return
        for shard in shards:
            if len(shard) != 2:
                continue
            shard_dir = os.path.join(self.root, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # Raced with a concurrent prune.
                yield path, stat.st_size, stat.st_mtime

    def stats(self) -> Dict[str, Any]:
        """Totals for ``satr cache stats``: count, bytes, age range."""
        count = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for _, size, mtime in self.artifacts():
            count += 1
            total_bytes += size
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        return {
            "root": self.root,
            "artifacts": count,
            "bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(self, max_bytes: Optional[int] = None,
              max_age_seconds: Optional[float] = None,
              now: Optional[float] = None) -> Dict[str, Any]:
        """Delete artifacts over an age or size budget.

        Age first (anything older than ``max_age_seconds`` goes), then
        size: oldest-first eviction until the survivors fit in
        ``max_bytes`` — LRU by mtime, since ``store`` rewrites an
        artifact's mtime on every recompute.  Deletion failures are
        skipped, matching the cache's nothing-here-is-fatal contract.
        """
        now = time.time() if now is None else now
        kept = []  # (mtime, path, size) — prune candidates, oldest first.
        removed = 0
        removed_bytes = 0
        for path, size, mtime in self.artifacts():
            if (max_age_seconds is not None
                    and now - mtime > max_age_seconds):
                if self._unlink(path):
                    removed += 1
                    removed_bytes += size
                continue
            kept.append((mtime, path, size))
        if max_bytes is not None:
            kept.sort()  # Oldest first.
            total = sum(size for _, _, size in kept)
            for mtime, path, size in kept:
                if total <= max_bytes:
                    break
                if self._unlink(path):
                    removed += 1
                    removed_bytes += size
                    total -= size
        for shard in self._empty_shards():
            try:
                os.rmdir(shard)
            except OSError:
                pass
        self._held.clear()
        return {"removed": removed, "removed_bytes": removed_bytes}

    @staticmethod
    def _unlink(path: str) -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    def _empty_shards(self) -> Iterator[str]:
        try:
            shards = os.listdir(self.root)
        except OSError:
            return
        for shard in shards:
            if len(shard) != 2:
                continue
            shard_dir = os.path.join(self.root, shard)
            try:
                if not os.listdir(shard_dir):
                    yield shard_dir
            except OSError:
                continue
