"""Crash-tolerant shared-directory work queue: leases, commits, status.

The queue is a directory on a filesystem every participant can reach
(NFS, Lustre, or plain local disk for tests).  There is **no server**
and **no new dependency** — coordination rides entirely on three POSIX
primitives that are atomic even on shared filesystems:

* ``open(..., O_CREAT | O_EXCL)`` — exactly one claimer wins a lease;
* ``os.rename`` / ``os.replace`` — readers see either the old complete
  file or the new complete file, never a torn one;
* ``os.link`` — exactly one result commit wins (first-commit-wins).

Layout under the queue root::

    manifest.json        what the campaign is, with one record per
                         pending run (content-addressed: the id hashes
                         the config fingerprint + RNG key); written
                         atomically by the coordinator, workers wait for
                         it to appear
    leases/<tid>.lease   a live claim: owner, token, attempt, expires_at
    attempts/<tid>.json  monotone claim counter (drives the retry budget)
    results/<tid>.json   a committed result — complete or absent, never
                         partial (written to tmp/, fsynced, then linked)
    tmp/                 in-flight scratch; corrupt or orphaned files
                         here are invisible to every reader
    bundles/             remote diagnostics bundles from guard-killed
                         runs on any host
    heartbeats/          one ``<owner>.hb`` liveness file per busy
                         worker (mtime refreshed by guard ticks;
                         surfaced by ``repro queue-status``)
    pool/lease           the coordinator's pool lease: owner, token,
                         expires_at, the campaign fingerprint and the
                         slots it publishes, in order; written before
                         the manifest, renewed while it solves, expired
                         once it is done
    pool/entries/        the solved background scenarios, one
                         ``repro-pool-slot`` entry of the result store
                         (:mod:`repro.service.store`) per slot, keyed
                         by (fingerprint, slot); with the store's own
                         ``pool/tmp/`` scratch and ``pool/quarantine/``
    doorbell             a FIFO the coordinator listens on; a worker
                         writes one byte after each commit so the
                         coordinator wakes at once instead of at its
                         next poll (same-host only; the poll bounds the
                         wait everywhere else)

A worker loads each background-pool slot the coordinator publishes
instead of solving it again, and waits for a missing one while the pool
lease is live.  A slot still missing once the lease has expired (the
coordinator is done, or was killed), or one that fails its digest (moved
to ``pool/quarantine/``), makes the worker build the pool itself.

State machine per task, derived purely from which files exist:
*available* (task, no unexpired lease, no result) → *claimed* (live
lease) → *done* (result).  A worker SIGKILLed at any instant leaves
either nothing (lease expires, task is reclaimed) or a complete result.

Leases carry wall-clock expiry stamps, so hosts must agree on time to
roughly a lease-TTL (``repro doctor --queue`` checks for skew).  An
expired lease is reclaimed by *renaming it away* — only one renamer can
win — then re-claiming through the same O_EXCL gate as a fresh claim.

Every public method that touches the directory translates ``OSError``
into :class:`QueueUnavailable` so callers can park-and-retry through
NFS blips and full disks instead of crashing.
"""

from __future__ import annotations

import errno
import functools
import hashlib
import json
import os
import select
import stat
import threading
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.chaos.failpoints import failpoint
from repro.service.store import RunRecordStore, slot_key
from repro.util import durable

if TYPE_CHECKING:
    import numpy as np

    from repro.core.pipeline import TaskResult

MANIFEST_NAME = "manifest.json"
_KIND = "repro-dist-queue"
#: 2: result payloads carry the record's checkpoint ``line``, not a dict
_VERSION = 2

#: default seconds a lease lives without renewal
DEFAULT_TTL = 30.0
#: default distinct claims allowed per task before it is written off
DEFAULT_RETRY_BUDGET = 3


class QueueUnavailable(RuntimeError):
    """The shared queue directory cannot be reached right now.

    Wraps the underlying ``OSError`` (NFS blip, ENOSPC, unmounted
    path).  Transient by contract: workers park with backoff and retry;
    the coordinator keeps merging whatever it already has.
    """

    def __init__(self, op: str, exc: OSError) -> None:
        super().__init__(f"queue {op} failed: {exc}")
        self.op = op
        self.errno = exc.errno


def default_owner() -> str:
    """This process's identity in leases and results: ``host:pid``."""
    import socket  # here: a queue scan (``repro queue-status``) needs no sockets

    return f"{socket.gethostname()}:{os.getpid()}"


def task_id(fingerprint: dict, sample: int, mode: str) -> str:
    """Content-addressed task identity: config fingerprint + RNG key.

    Two campaigns with identical fingerprints produce identical task
    ids, so a re-created queue directory dedupes against surviving
    results, and a result can always be traced back to the exact
    ``(config, sample, mode)`` that produced it.
    """
    key = {"config": fingerprint, "rng_key": {"sample": sample, "mode": mode}}
    return hashlib.sha256(
        json.dumps(key, sort_keys=True).encode()
    ).hexdigest()[:16]


@dataclass(frozen=True)
class QueueTask:
    """One schedulable run: canonical index plus its identity."""

    tid: str
    index: int
    sample: int
    mode: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "QueueTask":
        return cls(
            tid=str(d["tid"]),
            index=int(d["index"]),
            sample=int(d["sample"]),
            mode=str(d["mode"]),
        )


def result_payload(
    task: QueueTask, res: TaskResult, worker: str, attempt: int, *, speculative: bool = False
) -> dict:
    """The payload committing ``task``: ``res``'s checkpoint line, trace
    events and metrics wire, plus its provenance (who ran which attempt)."""
    return {
        "tid": task.tid, "index": task.index, "line": res.line, "events": res.events,
        "metrics": res.metrics.to_wire() if res.metrics is not None else None,
        "worker": worker, "attempt": attempt, "speculative": speculative,
    }


def payload_result(payload: dict) -> TaskResult:
    """The :class:`TaskResult` a committed payload carries, keyed to the
    worker that ran it (:func:`result_payload` read back)."""
    # imported here: scanning a queue (``repro queue-status``) loads no engine
    from repro.core import checkpoint as ckpt
    from repro.core.pipeline import TaskResult
    from repro.telemetry import MetricsRegistry

    wire, line = payload.get("metrics"), payload["line"]
    return TaskResult(
        index=int(payload["index"]),
        worker=str(payload.get("worker", "?")),
        record=ckpt.record_from_dict(json.loads(line)),
        line=line,
        events=payload.get("events") or [],
        metrics=MetricsRegistry.from_wire(wire) if wire is not None else None,
    )


@dataclass
class Lease:
    """A live claim on one task (worker-side view)."""

    tid: str
    owner: str
    token: str
    attempt: int
    claimed_at: float
    expires_at: float
    #: True when this claim reclaimed an expired lease (a retry)
    reclaimed: bool = False
    #: set when a renewal discovers the lease was stolen from us
    lost: bool = field(default=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "tid": self.tid,
            "owner": self.owner,
            "token": self.token,
            "attempt": self.attempt,
            "claimed_at": self.claimed_at,
            "expires_at": self.expires_at,
        }


class LeaseRenewer:
    """Daemon thread calling ``renew()`` every ``interval`` seconds until
    it returns False (the lease was stolen) or the block exits."""

    def __init__(self, renew: Callable[[], bool], interval: float) -> None:
        self.renew = renew
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-lease-renew", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                if not self.renew():
                    return  # stolen: stop renewing, let the commit race
            except QueueUnavailable:
                # the work keeps going; if the lease expires meanwhile
                # the commit race (or a worker's own pool) settles it
                continue

    def __enter__(self) -> "LeaseRenewer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=self.interval * 3)


class Doorbell:
    """The coordinator's end of the queue's ``doorbell`` FIFO.

    :meth:`wait` returns as soon as a worker on this host rings
    (:meth:`WorkQueue.ring`) or after ``timeout``.  Where no FIFO can be
    made, it sleeps ``timeout``.  The coordinator holds a write end too,
    so the FIFO never reads as end-of-file between rings.
    """

    def __init__(self, path: Path) -> None:
        self._fds: list[int] = []
        try:
            try:
                os.mkfifo(path)
            except FileExistsError:
                pass
            if stat.S_ISFIFO(os.stat(path).st_mode):
                self._fds.append(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
                self._fds.append(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        except (OSError, AttributeError):  # no FIFOs here (or no os.mkfifo)
            self.close()

    def wait(self, timeout: float) -> None:
        if not self._fds:
            time.sleep(timeout)
            return
        ready, _, _ = select.select(self._fds[:1], [], [], timeout)
        if ready:
            try:
                while os.read(self._fds[0], 4096):
                    pass
            except BlockingIOError:
                pass  # drained

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []


@dataclass
class QueueStatus:
    """A point-in-time scan of the queue (``repro queue-status``)."""

    total: int = 0
    done: int = 0
    claimed: int = 0
    expired: int = 0
    available: int = 0
    #: live + expired lease payloads, by task id
    leases: dict[str, dict] = field(default_factory=dict)
    #: owner -> most recent lease activity wall-stamp
    workers: dict[str, float] = field(default_factory=dict)
    #: task ids whose attempts hit the retry budget
    exhausted: list[str] = field(default_factory=list)

    @property
    def pending(self) -> int:
        return self.total - self.done


class WorkQueue:
    """One campaign's shared-directory queue (see the module docstring).

    ``now`` is injectable for lease-expiry tests; everything else uses
    the real filesystem — the protocol *is* the filesystem.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        ttl: float = DEFAULT_TTL,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        now: Callable[[], float] = time.time,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl!r}")
        if retry_budget < 1:
            raise ValueError(f"retry_budget must be >= 1, got {retry_budget!r}")
        self.root = Path(root)
        self.ttl = float(ttl)
        self.retry_budget = int(retry_budget)
        self._now = now
        self.leases_dir = self.root / "leases"
        self.attempts_dir = self.root / "attempts"
        self.results_dir = self.root / "results"
        self.tmp_dir = self.root / "tmp"
        self.bundles_dir = self.root / "bundles"
        self.heartbeats_dir = self.root / "heartbeats"
        self.pool_dir = self.root / "pool"
        self.pool_lease_path = self.pool_dir / "lease"
        self.doorbell_path = self.root / "doorbell"
        self.manifest_path = self.root / MANIFEST_NAME

    # ------------------------------------------------------------------
    # low-level atomic file helpers
    # ------------------------------------------------------------------
    def _write_json_atomic(self, path: Path, payload: dict, *, op: str) -> None:
        """tmp-write + fsync + rename: readers never see a torn file."""
        try:
            durable.write_atomic(path, json.dumps(payload) + "\n", tmp_dir=self.tmp_dir)
        except OSError as exc:
            raise QueueUnavailable(op, exc) from exc

    def _read_json(self, path: Path) -> dict | None:
        """Parse one JSON file; None when absent or torn mid-write.

        A torn/empty file can only be a reader racing a non-atomic
        writer on a filesystem without rename atomicity — treat it as
        not-there-yet rather than corrupt.
        """
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise QueueUnavailable(f"read {path.name}", exc) from exc
        try:
            d = json.loads(text)
        except json.JSONDecodeError:
            return None
        return d if isinstance(d, dict) else None

    # ------------------------------------------------------------------
    # coordinator side: create / inspect
    # ------------------------------------------------------------------
    def create(
        self, manifest: dict, tasks: list[QueueTask], *, pool: list[int] | None = None
    ) -> Lease | None:
        """Materialize the queue: directories, the pool lease, then the manifest.

        The manifest carries the task list and is written **last**
        (atomically), so a worker that sees it can trust every directory
        is already in place.  Re-creating an existing queue is idempotent
        for identical task sets — surviving results keep their
        first-commit-wins status.

        With ``pool`` (the slots the coordinator will publish, in order)
        the coordinator's pool lease is written first and returned, so
        it is live before any worker can see a task; without it, any
        earlier pool lease is removed.
        """
        try:
            for d in (
                self.root,
                self.leases_dir,
                self.attempts_dir,
                self.results_dir,
                self.tmp_dir,
                self.bundles_dir,
                self.heartbeats_dir,
            ):
                d.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise QueueUnavailable("create", exc) from exc
        self.pool_store  # lays out pool/, before any worker reads it
        lease = None
        if pool:
            now = self._now()
            lease = Lease(
                tid="pool", owner=default_owner(), token=uuid.uuid4().hex, attempt=1,
                claimed_at=now, expires_at=now + self.ttl,
            )
            payload = {**lease.to_dict(), "slots": pool, "fingerprint": manifest.get("fingerprint")}
            self._write_json_atomic(self.pool_lease_path, payload, op="write pool lease")
        else:
            try:
                self.pool_lease_path.unlink(missing_ok=True)
            except OSError as exc:
                raise QueueUnavailable("create", exc) from exc
        payload = {
            "kind": _KIND,
            "version": _VERSION,
            "ttl": self.ttl,
            "retry_budget": self.retry_budget,
            "tasks": [t.to_dict() for t in tasks],
            **manifest,
        }
        self._write_json_atomic(self.manifest_path, payload, op="write manifest")
        return lease

    def load_manifest(self) -> dict | None:
        """The manifest payload, or None while the coordinator hasn't run."""
        d = self._read_json(self.manifest_path)
        if d is None:
            return None
        if d.get("kind") != _KIND or d.get("version") != _VERSION:
            raise ValueError(
                f"{self.manifest_path} is not a version-{_VERSION} repro queue"
            )
        return d

    def manifest_tasks(self, manifest: dict) -> list[QueueTask]:
        return [QueueTask.from_dict(d) for d in manifest.get("tasks", [])]

    # ------------------------------------------------------------------
    # worker side: claim / renew / release
    # ------------------------------------------------------------------
    def _lease_path(self, tid: str) -> Path:
        return self.leases_dir / f"{tid}.lease"

    def _attempt_info(self, tid: str) -> dict:
        d = self._read_json(self.attempts_dir / f"{tid}.json")
        return d if isinstance(d, dict) else {}

    def _attempt_count(self, tid: str) -> int:
        d = self._attempt_info(tid)
        return int(d["attempt"]) if "attempt" in d else 0

    def _record_attempt(
        self, tid: str, attempt: int, victim: str | None = None
    ) -> None:
        # a reclaim records the owner it displaced; other writes (fresh
        # claims, budget bookkeeping) preserve the last recorded one so
        # the coordinator can attribute the retry deterministically
        if victim is None:
            victim = self._attempt_info(tid).get("victim") or None
        payload: dict = {"attempt": attempt}
        if victim:
            payload["victim"] = victim
        self._write_json_atomic(
            self.attempts_dir / f"{tid}.json",
            payload,
            op="record attempt",
        )

    def attempts_used(self, tid: str) -> int:
        """Distinct claims this task has consumed so far."""
        return self._attempt_count(tid)

    def last_victim(self, tid: str) -> str:
        """Owner displaced by the task's most recent reclaim ("" if none)."""
        return str(self._attempt_info(tid).get("victim", "") or "")

    def exhausted(self, tid: str) -> bool:
        """True once the task has burned its whole retry budget."""
        return self._attempt_count(tid) >= self.retry_budget

    def _create_lease(
        self,
        tid: str,
        owner: str,
        attempt: int,
        *,
        reclaimed: bool,
        victim: str | None = None,
    ) -> Lease | None:
        """The O_EXCL gate every claim (fresh or reclaim) goes through."""
        path = self._lease_path(tid)
        now = self._now()
        lease = Lease(
            tid=tid,
            owner=owner,
            token=uuid.uuid4().hex,
            attempt=attempt,
            claimed_at=now,
            expires_at=now + self.ttl,
            reclaimed=reclaimed,
        )
        try:
            failpoint("queue.lease.claim", path=path)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        except OSError as exc:
            raise QueueUnavailable("claim", exc) from exc
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(lease.to_dict()) + "\n")
                f.flush()
                os.fsync(f.fileno())
        except OSError as exc:
            raise QueueUnavailable("claim", exc) from exc
        self._record_attempt(tid, attempt, victim=victim)
        return lease

    def try_claim(self, tid: str, owner: str) -> Lease | None:
        """Claim ``tid`` if it is available; None if raced or leased.

        Handles both the fresh-task path (no lease file) and the
        reclaim path (expired lease renamed away, attempt incremented).
        Never claims a task that already has a result or an exhausted
        retry budget.
        """
        if self.has_result(tid):
            return None
        lease_path = self._lease_path(tid)
        cur = self._read_json(lease_path)
        if cur is None:
            # fresh claim — but re-check existence: _read_json returns
            # None for a mid-write torn file too, and stealing a torn
            # *live* lease would be wrong.  O_EXCL arbitrates anyway.
            attempt = self._attempt_count(tid) + 1
            if attempt > self.retry_budget:
                return None
            return self._create_lease(tid, owner, attempt, reclaimed=attempt > 1)
        if float(cur.get("expires_at", 0.0)) > self._now():
            return None  # live lease
        # expired: rename it away — exactly one reclaimer wins the rename
        grave = self.tmp_dir / f".{tid}.expired.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        try:
            os.rename(lease_path, grave)
        except FileNotFoundError:
            return None  # another reclaimer won (or the owner released)
        except OSError as exc:
            raise QueueUnavailable("reclaim", exc) from exc
        try:
            os.unlink(grave)
        except OSError:
            pass
        victim = str(cur.get("owner", "") or "") or None
        attempt = max(self._attempt_count(tid), int(cur.get("attempt", 1))) + 1
        if attempt > self.retry_budget:
            self._record_attempt(tid, attempt, victim=victim)
            return None
        return self._create_lease(tid, owner, attempt, reclaimed=True, victim=victim)

    def renew(self, lease: Lease) -> bool:
        """Extend the TTL; False (and ``lease.lost``) if it was stolen."""
        try:
            failpoint("queue.lease.renew", path=self._lease_path(lease.tid))
        except OSError as exc:
            raise QueueUnavailable("renew lease", exc) from exc
        cur = self._read_json(self._lease_path(lease.tid))
        if cur is None or cur.get("token") != lease.token:
            lease.lost = True
            return False
        lease.expires_at = self._now() + self.ttl
        self._write_json_atomic(
            self._lease_path(lease.tid), lease.to_dict(), op="renew lease"
        )
        return True

    def release(self, lease: Lease) -> None:
        """Drop a lease we own (after commit, or on graceful abandon)."""
        cur = self._read_json(self._lease_path(lease.tid))
        if cur is not None and cur.get("token") == lease.token:
            try:
                os.unlink(self._lease_path(lease.tid))
            except OSError:
                pass

    # ------------------------------------------------------------------
    # the background pool: published by the coordinator, read by workers
    # ------------------------------------------------------------------
    @functools.cached_property
    def pool_store(self) -> RunRecordStore:
        """The store the published slots live in, laid out under ``pool/``
        on first use."""
        try:
            return RunRecordStore(self.pool_dir)
        except OSError as exc:
            raise QueueUnavailable("open pool store", exc) from exc

    def renew_pool(self, lease: Lease) -> bool:
        """Extend the pool lease; False (and ``lease.lost``) if it was
        replaced, by a newer coordinator of the same queue."""
        cur = self._read_json(self.pool_lease_path)
        if cur is None or cur.get("token") != lease.token:
            lease.lost = True
            return False
        lease.expires_at = self._now() + self.ttl
        self._write_json_atomic(
            self.pool_lease_path, {**cur, "expires_at": lease.expires_at}, op="renew pool lease"
        )
        return True

    def release_pool(self, lease: Lease) -> None:
        """The coordinator is done publishing: expire its pool lease.
        The file stays, so ``queue-status`` can still count the slots."""
        cur = self._read_json(self.pool_lease_path)
        if cur is not None and cur.get("token") == lease.token:
            self._write_json_atomic(
                self.pool_lease_path, {**cur, "expires_at": 0.0}, op="release pool lease"
            )

    def pool_building(self) -> bool:
        """True while a coordinator's pool lease is live."""
        cur = self._read_json(self.pool_lease_path)
        return cur is not None and float(cur.get("expires_at", 0.0)) > self._now()

    def publish_slot(
        self, fingerprint: dict, slot: int, util: np.ndarray, n_jobs: int, fill: float
    ) -> None:
        """Publish one solved pool scenario as a ``pool/`` store entry."""
        try:
            self.pool_store.put_slot(fingerprint, slot, util, n_jobs, fill)
        except OSError as exc:
            raise QueueUnavailable("publish pool slot", exc) from exc

    def read_slot(
        self, fingerprint: dict, slot: int
    ) -> tuple[np.ndarray, int, float] | None:
        """A published slot's ``(link field, n_jobs, fill)``; None while
        it is unpublished.

        A slot that fails its digest is quarantined and ``ValueError``
        raised: it is never read again.
        """
        store = self.pool_store
        quarantined = store.quarantined
        got = store.get_slot(fingerprint, slot)
        if got is None and store.quarantined > quarantined:
            raise ValueError(f"pool slot {slot} failed its digest; moved aside")
        return got

    def wait_slot(
        self, fingerprint: dict, slot: int, poll: float
    ) -> tuple[np.ndarray, int, float] | None:
        """:meth:`read_slot`, waiting at ``poll`` while the pool lease is
        live; None when the caller must build the pool itself (no live
        lease and no slot, a slot that failed its digest, or no queue)."""
        try:
            while True:
                building = self.pool_building()
                got = self.read_slot(fingerprint, slot)
                if got is not None or not building:
                    return got
                time.sleep(poll)
        except (QueueUnavailable, ValueError):
            return None

    def pool_status(self) -> tuple[int, int, bool]:
        """``(published, slots, building)`` of the coordinator's pool
        (``slots`` is 0 when it publishes none)."""
        cur = self._read_json(self.pool_lease_path)
        if cur is None:
            return 0, 0, False
        slots = [int(s) for s in cur.get("slots", [])]
        published = sum(1 for s in slots if slot_key(cur.get("fingerprint"), s) in self.pool_store)
        return published, len(slots), float(cur.get("expires_at", 0.0)) > self._now()

    def ring(self) -> None:
        """Wake a coordinator waiting on this host's ``doorbell``; a
        no-op where nobody listens (``ENXIO``) or there is no FIFO."""
        try:
            fd = os.open(self.doorbell_path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError:
            return
        try:
            os.write(fd, b"\0")
        except OSError:
            pass  # EAGAIN: the bell is already full of rings
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # results: atomic, first-commit-wins
    # ------------------------------------------------------------------
    def _result_path(self, tid: str) -> Path:
        return self.results_dir / f"{tid}.json"

    def has_result(self, tid: str) -> bool:
        try:
            return self._result_path(tid).exists()
        except OSError as exc:
            raise QueueUnavailable("stat result", exc) from exc

    def commit_result(self, tid: str, payload: dict) -> bool:
        """Commit one complete result; True iff this commit won.

        Write-then-link: the payload lands completely in ``tmp/`` (with
        an fsync) before a hard link publishes it, so a SIGKILL at any
        instant leaves either nothing visible or a complete record.
        ``os.link`` fails on an existing target, which is exactly
        first-commit-wins — a speculative duplicate of a deterministic
        run loses gracefully.  Filesystems without hard links fall back
        to ``os.replace`` (last-wins, but duplicates are byte-identical
        by construction so nothing observable changes).
        """
        final = self._result_path(tid)
        text = json.dumps(payload) + "\n"
        op = "write result"
        try:
            with durable.staged(
                text, tmp_dir=self.tmp_dir, name=final.name,
                post_tmp="queue.commit.post_tmp",
            ) as tmp:
                op = "commit result"
                failpoint("queue.commit.link", path=final, data=text)
                try:
                    os.link(tmp, final)
                    won = True
                except FileExistsError:
                    won = False
                except OSError as exc:
                    if exc.errno not in (errno.EPERM, errno.EOPNOTSUPP, errno.ENOTSUP):
                        raise
                    won = not final.exists()
                    os.replace(tmp, final)
        except OSError as exc:
            raise QueueUnavailable(op, exc) from exc
        durable.fsync_dir(self.results_dir)
        return won

    def read_result(self, tid: str) -> dict | None:
        """A committed result payload (complete by construction), or None."""
        return self._read_json(self._result_path(tid))

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def live_leases(self) -> dict[str, dict]:
        """tid -> lease payload for every *unexpired* lease."""
        return {
            tid: d
            for tid, d in self._all_leases().items()
            if float(d.get("expires_at", 0.0)) > self._now()
        }

    def expired_leases(self) -> dict[str, dict]:
        """tid -> lease payload for leases past their TTL (crash debris)."""
        return {
            tid: d
            for tid, d in self._all_leases().items()
            if float(d.get("expires_at", 0.0)) <= self._now()
        }

    def _all_leases(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        try:
            names = os.listdir(self.leases_dir)
        except FileNotFoundError:
            return out
        except OSError as exc:
            raise QueueUnavailable("list leases", exc) from exc
        for name in sorted(names):
            if not name.endswith(".lease"):
                continue
            d = self._read_json(self.leases_dir / name)
            if d is not None:
                out[name[: -len(".lease")]] = d
        return out

    def status(self, tasks: list[QueueTask] | None = None) -> QueueStatus:
        """One consistent-enough scan for dashboards and preflights."""
        if tasks is None:
            manifest = self.load_manifest()
            tasks = self.manifest_tasks(manifest) if manifest else []
        st = QueueStatus(total=len(tasks))
        leases = self._all_leases()
        now = self._now()
        try:
            done_names = {
                n[: -len(".json")]
                for n in os.listdir(self.results_dir)
                if n.endswith(".json")
            }
        except FileNotFoundError:
            done_names = set()
        except OSError as exc:
            raise QueueUnavailable("list results", exc) from exc
        for t in tasks:
            lease = leases.get(t.tid)
            if lease is not None:
                st.leases[t.tid] = lease
                owner = str(lease.get("owner", "?"))
                st.workers[owner] = max(
                    st.workers.get(owner, 0.0),
                    float(lease.get("claimed_at", 0.0)),
                )
            if t.tid in done_names:
                st.done += 1
            elif lease is not None and float(lease.get("expires_at", 0)) > now:
                st.claimed += 1
            elif self.exhausted(t.tid):
                st.exhausted.append(t.tid)
            elif lease is not None:
                st.expired += 1
            else:
                st.available += 1
        return st
