"""Durable content-addressed entry store (the memoization layer).

Every campaign run is already a pure function of its content address:
the campaign fingerprint (:func:`repro.core.experiment.campaign_fingerprint`)
plus the run's stateless RNG key ``(sample, mode)`` fully determine the
produced :class:`~repro.core.experiment.RunRecord`, byte for byte, and
the fingerprint plus a slot number determine a background-pool scenario.
The store turns that property into a cache that is safe to share between
campaigns, processes, and service restarts.  It holds two kinds of entry:

* a **run** (kind ``repro-run-cache``): header fields ``fingerprint`` and
  ``rng_key``; the body is the record's checkpoint line, byte for byte
  (:func:`repro.core.checkpoint.encode_record`).  A hit decodes that line
  once and hands its bytes on to the checkpoint.
* a **pool slot** (kind ``repro-pool-slot``): header fields
  ``fingerprint``, ``slot``, ``n_jobs`` and ``fill``; the body is the
  scenario's raw little-endian float64 link field.  A queue coordinator
  publishes its solved pool this way (:mod:`repro.dist.queue`).

* **Commit protocol** — an entry lands via write-tmp → fsync →
  ``os.replace``, so a SIGKILL at any instant leaves either nothing
  visible or a complete entry; concurrent writers of the same key are
  harmless because deterministic duplicates are byte-identical.
* **Layout** — an entry is a JSON header line (kind, version 2, key, the
  kind's fields, SHA-256), the body, and a newline.
* **Integrity** — one rule for both kinds: the header's SHA-256 covers
  the canonical JSON of every header field except ``kind``, ``version``,
  ``key`` and ``sha256``, a newline, then the body.  A read that fails
  to parse, fails the hash, or was addressed to a different identity is
  **quarantined** (moved aside, never served, never raised) and counts
  as a miss — a torn or bit-flipped entry can slow a campaign down but
  can never corrupt one.  So is an entry of another version (a version-1
  entry is re-executed and recommitted once).
* **Eviction** — optional ``max_bytes`` / ``max_entries`` budgets are
  enforced LRU (entry-file mtime, refreshed on every hit).  Keys pinned
  by an in-flight campaign (:meth:`RunRecordStore.pinned`) are never
  evicted mid-use.

A run's key hashes the same ``{"config": fingerprint, "rng_key":
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
from typing import TYPE_CHECKING, Any, Iterator

from repro.chaos.failpoints import failpoint
from repro.util import durable
from repro.util.durable import StoreUnavailableError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CacheStats", "CachedRecord", "RunRecordStore", "StoreUnavailableError", "entry_key",
    "slot_key",
]

_RUN = "repro-run-cache"
_SLOT = "repro-pool-slot"
_VERSION = 2
#: header fields outside the digest: the frame, not the entry's content
_FRAME = ("kind", "version", "key", "sha256")

#: hex digits of SHA-256 kept in entry keys (collision odds are
#: negligible at any realistic cache size; the full hash guards content)
KEY_LEN = 32


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _key(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:KEY_LEN]


def entry_key(fingerprint: dict, sample: int, mode: str) -> str:
    """Content address of one run: campaign fingerprint + RNG key."""
    return _key({"config": fingerprint, "rng_key": {"sample": sample, "mode": mode}})


def slot_key(fingerprint: dict, slot: int) -> str:
    """Content address of one background-pool slot of a campaign."""
    return _key({"config": fingerprint, "slot": int(slot)})


def _digest(fields: dict, body: bytes) -> str:
    return hashlib.sha256((_canonical(fields) + "\n").encode() + body).hexdigest()


def _parse_entry(raw: bytes) -> tuple[dict, bytes] | None:
    """An entry's header and body, or None unless ``raw`` is a header
    line of a known kind and this version, a body and a newline, whose
    digest holds."""
    head, _, rest = raw.partition(b"\n")
    try:
        header = json.loads(head)
        fields = {k: v for k, v in header.items() if k not in _FRAME}
        valid = (
            rest.endswith(b"\n")
            and header["kind"] in (_RUN, _SLOT)
            and header["version"] == _VERSION
            and header["sha256"] == _digest(fields, rest[:-1])
        )
    except (ValueError, TypeError, KeyError, AttributeError):  # not JSON, or not a header
        return None
    return (header, rest[:-1]) if valid else None


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
    """One cache directory of committed run records and pool slots (see
    the module docstring).

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

    def _get(self, key: str, ident: dict) -> tuple[dict, bytes] | None:
        """Entry ``key``'s header and body if the header carries
        ``ident``, or ``None`` on a miss; a damaged entry is quarantined
        first."""
        path = self._path(key)
        with self._lock:
            try:
                failpoint("store.get.read", path=path)
                raw = path.read_bytes()
            except OSError:
                self.misses += 1
                return None
            header, body = _parse_entry(raw) or ({}, b"")
            if any(header.get(k) != v for k, v in ident.items()):
                self._quarantine(path)
                self.misses += 1
                return None
            try:
                os.utime(path)  # LRU touch: a hit is a use
            except OSError:
                pass
            self.hits += 1
            return header, body

    def _put(self, kind: str, key: str, fields: dict, body: bytes) -> bool:
        """Commit one entry; ``False`` when ``key`` already exists."""
        path = self._path(key)
        header = {"kind": kind, "version": _VERSION, "key": key, **fields,
                  "sha256": _digest(fields, body)}
        data = json.dumps(header).encode() + b"\n" + body + b"\n"
        with self._lock:
            if path.exists():
                self.dedup_puts += 1
                return False
            try:
                durable.write_atomic(
                    path,
                    data,
                    tmp_dir=self.tmp_dir,
                    post_tmp="store.commit.post_tmp",
                    pre_rename="store.commit.pre_rename",
                )
            except OSError as exc:
                raise StoreUnavailableError("cache entry commit", exc) from exc
            self.puts += 1
            self._evict_to_budget()
            return True

    def get(self, fingerprint: dict, sample: int, mode: str) -> CachedRecord | None:
        """The cached record for one run, or ``None`` on a miss.

        Never raises on a damaged entry: parse failures, integrity-hash
        mismatches, identity mismatches and other versions quarantine the
        file and return ``None`` — the caller simply re-executes the run.
        """
        rng_key = {"sample": sample, "mode": mode}
        got = self._get(
            entry_key(fingerprint, sample, mode),
            {"kind": _RUN, "fingerprint": fingerprint, "rng_key": rng_key},
        )
        if got is None:
            return None
        line = got[1]
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
        line = record if isinstance(record, str) else json.dumps(record)
        fields = {"fingerprint": fingerprint, "rng_key": {"sample": sample, "mode": mode}}
        return self._put(_RUN, entry_key(fingerprint, sample, mode), fields, line.encode())

    def get_slot(
        self, fingerprint: dict, slot: int
    ) -> tuple[np.ndarray, int, float] | None:
        """A committed pool slot's ``(link field, n_jobs, fill)``, or
        ``None`` on a miss (a damaged entry is quarantined, as by :meth:`get`)."""
        got = self._get(
            slot_key(fingerprint, slot), {"kind": _SLOT, "fingerprint": fingerprint, "slot": slot}
        )
        if got is None:
            return None
        import numpy as np  # here: a run-record replay loads no numpy for the store

        header, body = got
        return np.frombuffer(body, dtype="<f8"), int(header["n_jobs"]), float(header["fill"])

    def put_slot(
        self, fingerprint: dict, slot: int, util: np.ndarray, n_jobs: int, fill: float
    ) -> bool:
        """Commit one solved pool slot; ``False`` when it already exists.
        Raises as :meth:`put` does."""
        fields = {"fingerprint": fingerprint, "slot": int(slot), "n_jobs": int(n_jobs),
                  "fill": float(fill)}
        return self._put(
            _SLOT, slot_key(fingerprint, slot), fields, util.astype("<f8", copy=False).tobytes()
        )

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
