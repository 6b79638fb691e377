"""Durable content-addressed RunRecord store (the memoization layer).

Every campaign run is already a pure function of its content address:
the campaign fingerprint (:func:`repro.core.experiment.campaign_fingerprint`)
plus the run's stateless RNG key ``(sample, mode)`` fully determine the
produced :class:`~repro.core.experiment.RunRecord`, byte for byte.  The
store turns that property into a cache that is safe to share between
campaigns, processes, and service restarts:

* **Commit protocol** — an entry lands via write-tmp → fsync →
  ``os.replace``, so a SIGKILL at any instant leaves either nothing
  visible or a complete entry; concurrent writers of the same key are
  harmless because deterministic duplicates are byte-identical.
* **Layout** — an entry is two lines: a header (kind, version 2, key,
  fingerprint, RNG key, SHA-256) and the record's checkpoint line,
  byte for byte (:func:`repro.core.checkpoint.encode_record`).  A hit
  decodes that line once and hands its bytes on to the checkpoint.
* **Integrity** — the header's SHA-256 covers the canonical
  ``(fingerprint, rng_key)`` JSON plus the line's exact bytes.  A read
  that fails to parse, fails the hash, or was addressed to a different
  identity is **quarantined** (moved aside, never served, never raised)
  and counts as a miss — a torn or bit-flipped entry can slow a campaign
  down but can never corrupt one.  So is an entry of another version
  (a version-1 entry is re-executed and recommitted once).
* **Eviction** — optional ``max_bytes`` / ``max_entries`` budgets are
  enforced LRU (entry-file mtime, refreshed on every hit).  Keys pinned
  by an in-flight campaign (:meth:`RunRecordStore.pinned`) are never
  evicted mid-use.

The entry key hashes the same ``{"config": fingerprint, "rng_key":
{"sample", "mode"}}`` structure as :func:`repro.dist.queue.task_id`, so
a cache entry, a queue task, and a checkpoint record for the same run
all share one content address (the store keeps more digest bits).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.chaos.failpoints import failpoint
from repro.util import durable
from repro.util.durable import StoreUnavailableError

__all__ = ["CacheStats", "CachedRecord", "RunRecordStore", "StoreUnavailableError", "entry_key"]

_KIND = "repro-run-cache"
_VERSION = 2

#: hex digits of SHA-256 kept in entry keys (collision odds are
#: negligible at any realistic cache size; the full hash guards content)
KEY_LEN = 32


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def entry_key(fingerprint: dict, sample: int, mode: str) -> str:
    """Content address of one run: campaign fingerprint + RNG key."""
    key = {"config": fingerprint, "rng_key": {"sample": sample, "mode": mode}}
    return hashlib.sha256(_canonical(key).encode()).hexdigest()[:KEY_LEN]


def _entry_digest(fingerprint: dict, rng_key: dict, line: bytes) -> str:
    ident = _canonical({"fingerprint": fingerprint, "rng_key": rng_key}) + "\n"
    return hashlib.sha256(ident.encode() + line).hexdigest()


def _parse_entry(raw: bytes) -> tuple[dict, bytes] | None:
    """An entry's header and line, or None unless ``raw`` is two complete
    lines of this kind and version whose digest holds."""
    parts = raw.split(b"\n")
    try:
        header = json.loads(parts[0])
        valid = (
            len(parts) == 3
            and not parts[2]
            and header["kind"] == _KIND
            and header["version"] == _VERSION
            and header["sha256"]
            == _entry_digest(header["fingerprint"], header["rng_key"], parts[1])
        )
    except (ValueError, TypeError, KeyError):  # not JSON, or not a header
        return None
    return (header, parts[1]) if valid else None


class CachedRecord(dict):
    """A hit: the decoded record dict, plus ``line``, the exact stored
    checkpoint line it was decoded from."""

    __slots__ = ("line",)


@dataclass
class CacheStats:
    """Point-in-time store accounting (``/cache/stats``, ``cache-status``).

    ``entries``/``bytes``/``quarantined_files`` are read from disk;
    the counters accumulate over this process's lifetime.
    """

    entries: int = 0
    bytes: int = 0
    quarantined_files: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    dedup_puts: int = 0
    evictions: int = 0
    quarantined: int = 0

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "quarantined_files": self.quarantined_files,
            "cache_hits_total": self.hits,
            "cache_misses_total": self.misses,
            "cache_puts_total": self.puts,
            "cache_dedup_puts_total": self.dedup_puts,
            "cache_evictions_total": self.evictions,
            "cache_quarantined_total": self.quarantined,
        }


class RunRecordStore:
    """One cache directory of committed run records (see module docstring).

    Thread-safe: the HTTP service reads and writes from several campaign
    threads at once.  Multi-process sharing is safe for correctness
    (commits are atomic, duplicates byte-identical); the in-memory byte
    total can drift under concurrent external writers — :meth:`rescan`
    resyncs it.

    Layout under ``root``::

        entries/<key>.json   committed entries (complete or absent)
        tmp/                 in-flight scratch, invisible to readers
        quarantine/          entries that failed parse or integrity
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes!r}")
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be > 0, got {max_entries!r}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.entries_dir = self.root / "entries"
        self.tmp_dir = self.root / "tmp"
        self.quarantine_dir = self.root / "quarantine"
        for d in (self.root, self.entries_dir, self.tmp_dir, self.quarantine_dir):
            d.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._pins: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.dedup_puts = 0
        self.evictions = 0
        self.quarantined = 0
        # scratch orphaned by a SIGKILLed writer is garbage by
        # construction (nothing visible references it); another live
        # handle's in-flight commit is young, and spared
        durable.sweep_scratch(self.tmp_dir)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.entries_dir / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside so it is never read again."""
        dest = self.quarantine_dir / f"{path.name}.{uuid.uuid4().hex[:8]}"
        try:
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return  # someone else moved it; either way it is gone
        self.quarantined += 1

    def get(self, fingerprint: dict, sample: int, mode: str) -> CachedRecord | None:
        """The cached record for one run, or ``None`` on a miss.

        Never raises on a damaged entry: parse failures, integrity-hash
        mismatches, identity mismatches and other versions quarantine the
        file and return ``None`` — the caller simply re-executes the run.
        """
        key = entry_key(fingerprint, sample, mode)
        path = self._path(key)
        with self._lock:
            try:
                failpoint("store.get.read", path=path)
                raw = path.read_bytes()
            except FileNotFoundError:
                self.misses += 1
                return None
            except OSError:
                self.misses += 1
                return None
            header, line = _parse_entry(raw) or ({}, b"")
            rng_key = {"sample": sample, "mode": mode}
            if header.get("fingerprint") != fingerprint or header.get("rng_key") != rng_key:
                self._quarantine(path)
                self.misses += 1
                return None
            try:
                os.utime(path)  # LRU touch: a hit is a use
            except OSError:
                pass
            self.hits += 1
            hit = CachedRecord(json.loads(line))
            hit.line = line.decode()
            return hit

    def put(self, fingerprint: dict, sample: int, mode: str, record: str | dict) -> bool:
        """Commit one run's checkpoint line (a dict is encoded to one);
        ``False`` when the key already exists.

        Existing entries are kept (first-commit-wins is free: a
        deterministic duplicate is byte-identical, and skipping the
        write preserves the original's LRU age).

        Raises :class:`~repro.util.durable.StoreUnavailableError`
        when the filesystem fails the commit (ENOSPC/EIO); the scratch
        file is removed first, so a failed put leaves nothing behind.
        """
        key = entry_key(fingerprint, sample, mode)
        path = self._path(key)
        line = record if isinstance(record, str) else json.dumps(record)
        rng_key = {"sample": sample, "mode": mode}
        header = {
            "kind": _KIND,
            "version": _VERSION,
            "key": key,
            "fingerprint": fingerprint,
            "rng_key": rng_key,
            "sha256": _entry_digest(fingerprint, rng_key, line.encode()),
        }
        with self._lock:
            if path.exists():
                self.dedup_puts += 1
                return False
            try:
                durable.write_atomic(
                    path,
                    f"{json.dumps(header)}\n{line}\n",
                    tmp_dir=self.tmp_dir,
                    post_tmp="store.commit.post_tmp",
                    pre_rename="store.commit.pre_rename",
                )
            except OSError as exc:
                raise StoreUnavailableError("cache entry commit", exc) from exc
            self.puts += 1
            self._evict_to_budget()
            return True

    # ------------------------------------------------------------------
    # pinning: in-flight campaigns protect their working set
    # ------------------------------------------------------------------
    @contextmanager
    def pinned(self, keys: Iterator[str] | list[str]) -> Iterator[None]:
        """Hold ``keys`` exempt from eviction for the block's duration."""
        keys = list(keys)
        with self._lock:
            for k in keys:
                self._pins[k] = self._pins.get(k, 0) + 1
        try:
            yield
        finally:
            with self._lock:
                for k in keys:
                    n = self._pins.get(k, 0) - 1
                    if n <= 0:
                        self._pins.pop(k, None)
                    else:
                        self._pins[k] = n

    def pinned_keys(self) -> set[str]:
        with self._lock:
            return set(self._pins)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _scan(self) -> list[tuple[float, str, int]]:
        """``(mtime, key, size)`` per entry; unreadable files are skipped."""
        out = []
        try:
            names = os.listdir(self.entries_dir)
        except OSError:
            return out
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            try:
                st = (self.entries_dir / name).stat()
            except OSError:
                continue
            out.append((st.st_mtime, name[: -len(".json")], st.st_size))
        return out

    def _evict_to_budget(self) -> int:
        """Delete oldest unpinned entries until inside the budgets."""
        if self.max_bytes is None and self.max_entries is None:
            return 0
        entries = self._scan()
        total = sum(size for _, _, size in entries)
        count = len(entries)
        evicted = 0
        for _, key, size in sorted(entries):
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            over_count = self.max_entries is not None and count > self.max_entries
            if not (over_bytes or over_count):
                break
            if key in self._pins:
                continue
            try:
                self._path(key).unlink()
            except OSError:
                continue
            total -= size
            count -= 1
            evicted += 1
        self.evictions += evicted
        return evicted

    # ------------------------------------------------------------------
    def verify(self) -> tuple[int, list[str]]:
        """Integrity-scan every committed entry: ``(ok_count, bad_keys)``.

        An entry is *bad* when it is not two complete lines, carries the
        wrong kind/version, or its SHA-256 disagrees with its own content —
        precisely the damage a torn or interrupted write would leave if
        the commit protocol ever let one become visible.  Bad entries
        are quarantined exactly as :meth:`get` would.  The chaos soak
        asserts ``bad_keys == []`` after every failure schedule.
        """
        ok = 0
        bad: list[str] = []
        with self._lock:
            for _, key, _ in self._scan():
                path = self._path(key)
                try:
                    entry = _parse_entry(path.read_bytes())
                except OSError:
                    entry = None
                if entry is None:
                    bad.append(key)
                    self._quarantine(path)
                    continue
                ok += 1
        return ok, bad

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return len(self._scan())

    def stats(self) -> CacheStats:
        with self._lock:
            entries = self._scan()
            try:
                nq = sum(1 for _ in self.quarantine_dir.iterdir())
            except OSError:
                nq = 0
            return CacheStats(
                entries=len(entries),
                bytes=sum(size for _, _, size in entries),
                quarantined_files=nq,
                hits=self.hits,
                misses=self.misses,
                puts=self.puts,
                dedup_puts=self.dedup_puts,
                evictions=self.evictions,
                quarantined=self.quarantined,
            )
