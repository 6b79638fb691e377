"""The distributed campaign worker: claim → execute → commit, forever.

``repro worker --queue DIR`` runs one of these per host (or several).
The loop is deliberately stateless between tasks — everything a run
needs is re-derived from the manifest, so a worker can be SIGKILLed at
any instant and a fresh one (on any host) picks up where it left off:

* **claim**: scan the manifest's tasks in canonical order; claim the
  first one that has no result and no live lease (O_EXCL arbitration).
  Expired leases are reclaimed through the same call — the queue
  increments the attempt counter, and tasks whose retry budget is
  exhausted are skipped (the coordinator writes their error records).
* **execute**: rebuild ``(topology, config)`` from the manifest and run
  the task through :func:`repro.core.pipeline.run_task` — the body a
  fork-pool child runs, calling the same
  :func:`repro.core.experiment.execute_run` the serial loop does and
  deriving the run's RNG stream from the same key, so the produced
  record is byte-for-byte the serial one.
  A renewal thread re-stamps the lease every ``ttl/3``; if renewal
  discovers the lease was stolen, the run finishes anyway and the
  commit races — first-commit-wins makes the loser harmless.
* **commit**: the complete result payload
  (:func:`repro.dist.queue.result_payload`: the record's checkpoint
  ``line``, encoded once here, + trace events + metrics wire) lands via
  write-tmp → fsync → link.
* **speculate**: when nothing is claimable but live leases remain (the
  campaign tail), re-execute the *oldest* in-flight task without taking
  its lease.  Determinism makes the duplicate byte-identical; the dedup
  is the commit itself.
* **park**: any ``QueueUnavailable`` (NFS blip, disk full) backs the
  worker off under the shared jittered-backoff schedule and resumes —
  losing the queue directory is a pause, not a crash.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import asdict, dataclass

from repro.chaos.failpoints import failpoint
from repro.core.experiment import CampaignBackground, load_engine
from repro.core.pipeline import CampaignJob, run_task
from repro.dist.manifest import manifest_series, manifest_to_campaign
from repro.dist.queue import Lease, QueueTask, QueueUnavailable, WorkQueue, result_payload
from repro.guard import WorkerHeartbeat, set_worker_heartbeat
from repro.telemetry import (
    MemoryTraceWriter,
    MetricsRegistry,
    NULL_TRACE,
    Telemetry,
)
from repro.util.backoff import Backoff, BackoffPolicy

#: park/retry schedule for queue outages and claim contention
WORKER_BACKOFF = BackoffPolicy(base=0.2, cap=15.0)


def default_owner() -> str:
    """This worker's identity in leases and results: ``host:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker did over its lifetime (``repro worker`` summary)."""

    executed: int = 0
    committed: int = 0
    duplicates: int = 0
    reclaims: int = 0
    speculated: int = 0
    lost_leases: int = 0
    parks: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class _LeaseRenewer:
    """Daemon thread re-stamping one lease every ``ttl/3`` seconds."""

    def __init__(self, queue: WorkQueue, lease: Lease) -> None:
        self.queue = queue
        self.lease = lease
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-lease-renew", daemon=True
        )

    def _run(self) -> None:
        interval = self.queue.ttl / 3.0
        while not self._stop.wait(interval):
            try:
                if not self.queue.renew(self.lease):
                    return  # stolen: stop renewing, let the commit race
            except QueueUnavailable:
                # the outage also stalls every would-be stealer's clock
                # source? no — but the run keeps going; if the lease
                # expires meanwhile the commit race still settles it
                continue

    def __enter__(self) -> "_LeaseRenewer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=self.queue.ttl)


class DistWorker:
    """One claim-execute-commit loop over a shared queue directory."""

    def __init__(
        self,
        queue: WorkQueue,
        *,
        owner: str | None = None,
        max_tasks: int | None = None,
        max_seconds: float | None = None,
        speculate: bool = True,
        poll: float = 0.2,
        backoff: Backoff | None = None,
        on_event=None,
    ) -> None:
        self.queue = queue
        self.owner = owner or default_owner()
        self.max_tasks = max_tasks
        self.max_seconds = max_seconds
        self.speculate = speculate
        self.poll = poll
        self.backoff = backoff if backoff is not None else Backoff(WORKER_BACKOFF)
        self.on_event = on_event or (lambda name, **f: None)
        self.stats = WorkerStats()
        self._deadline: float | None = None
        # prepared once the manifest appears
        self._ready = False
        self._job: CampaignJob | None = None
        self._tasks: list[QueueTask] = []
        self._speculated: set[str] = set()
        self._hb: WorkerHeartbeat | None = None

    # ------------------------------------------------------------------
    def _expired(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

    def _park(self, attempt: int) -> None:
        """Queue outage: back off (jittered, capped) and try again."""
        self.stats.parks += 1
        self.on_event("worker.park", owner=self.owner, attempt=attempt)
        self.backoff.sleep(min(attempt, 8))

    def _prepare(self) -> bool:
        """Load the manifest and rebuild the campaign; False while absent."""
        manifest = self.queue.load_manifest()
        if manifest is None:
            return False
        top, cfg = manifest_to_campaign(
            manifest, bundle_dir=str(self.queue.bundles_dir)
        )
        # the job's telemetry only says what each run's private one
        # records (run_task); the first _execute builds the pool
        t = manifest.get("telemetry", {})
        tel = Telemetry(
            trace=MemoryTraceWriter() if t.get("trace") else NULL_TRACE,
            metrics=MetricsRegistry(enabled=bool(t.get("metrics"))),
            series=manifest_series(manifest),
        )
        self._job = CampaignJob(top, cfg, CampaignBackground(top, cfg), tel, wire=True)
        # every task runs the engine: load it before the first lease
        load_engine()
        self._tasks = self.queue.manifest_tasks(manifest)
        self.queue.ttl = float(manifest.get("ttl", self.queue.ttl))
        self.queue.retry_budget = int(
            manifest.get("retry_budget", self.queue.retry_budget)
        )
        # owner-named liveness file in the queue's shared heartbeats/:
        # guard ticks inside the engines refresh its mtime, so
        # ``repro queue-status`` on any host can see who is alive and
        # who went silent mid-run (old queues may predate the dir)
        try:
            self.queue.heartbeats_dir.mkdir(parents=True, exist_ok=True)
            self._hb = WorkerHeartbeat(self.queue.heartbeats_dir, name=self.owner)
            set_worker_heartbeat(self._hb)
        except OSError:
            self._hb = None
        self._ready = True
        return True

    # ------------------------------------------------------------------
    def _execute(self, task: QueueTask, *, speculative: bool, attempt: int) -> dict:
        """Run one task and build its (complete) result payload."""
        # the first draw builds the pool, outside the heartbeat window
        self._job.background.draws(task.sample)
        try:
            failpoint(
                "worker.heartbeat",
                path=None if self._hb is None else self._hb.path,
            )
        except OSError:
            pass  # a heartbeat is advisory; losing it never fails the run
        res = run_task(self._job, task, heartbeat=self._hb)
        self.stats.executed += 1
        return result_payload(task, res, self.owner, attempt, speculative=speculative)

    def _commit(self, task: QueueTask, payload: dict, *, speculative: bool) -> None:
        won = self.queue.commit_result(task.tid, payload)
        if won:
            self.stats.committed += 1
            if speculative:
                self.stats.speculated += 1
        else:
            self.stats.duplicates += 1
        self.on_event(
            "worker.commit",
            owner=self.owner,
            tid=task.tid,
            index=task.index,
            won=won,
            speculative=speculative,
        )

    def _run_leased(self, task: QueueTask, lease: Lease) -> None:
        if lease.reclaimed:
            self.stats.reclaims += 1
        try:
            with _LeaseRenewer(self.queue, lease):
                payload = self._execute(
                    task, speculative=False, attempt=lease.attempt
                )
            if lease.lost:
                self.stats.lost_leases += 1
                self.on_event("worker.lost_lease", owner=self.owner, tid=task.tid)
            self._commit(task, payload, speculative=False)
        finally:
            try:
                self.queue.release(lease)
            except QueueUnavailable:
                pass  # the lease will simply expire

    def _claim_next(self) -> tuple[QueueTask, Lease] | None:
        """First claimable task in canonical order, or None."""
        for task in self._tasks:
            if self.queue.has_result(task.tid) or self.queue.exhausted(task.tid):
                continue
            lease = self.queue.try_claim(task.tid, self.owner)
            if lease is not None:
                return task, lease
        return None

    def _speculation_target(self) -> QueueTask | None:
        """The oldest in-flight task worth duplicating, if we're at the tail.

        Speculation is gated to the campaign tail: every unfinished task
        is claimed by someone else (nothing claimable), so this worker's
        only way to help is to race a straggler.  Each task is speculated
        at most once per worker.
        """
        if not self.speculate:
            return None
        live = self.queue.live_leases()
        best: QueueTask | None = None
        best_age = float("-inf")
        for task in self._tasks:
            if self.queue.has_result(task.tid):
                continue
            lease = live.get(task.tid)
            if lease is None:
                return None  # unclaimed work exists: not the tail
            if lease.get("owner") == self.owner or task.tid in self._speculated:
                continue
            age = -float(lease.get("claimed_at", 0.0))
            if age > best_age:
                best, best_age = task, age
        return best

    def _all_done(self) -> bool:
        return all(
            self.queue.has_result(t.tid) or self.queue.exhausted(t.tid)
            for t in self._tasks
        )

    # ------------------------------------------------------------------
    def run(self) -> WorkerStats:
        """The worker loop; returns when the campaign is complete (or
        ``max_tasks`` / ``max_seconds`` is hit)."""
        if self.max_seconds is not None:
            self._deadline = time.monotonic() + self.max_seconds
        outage = 0
        while not self._expired():
            try:
                if not self._ready:
                    if not self._prepare():
                        time.sleep(self.poll)
                        continue
                    self.on_event(
                        "worker.start", owner=self.owner, tasks=len(self._tasks)
                    )
                if self.max_tasks is not None and self.stats.executed >= self.max_tasks:
                    break
                claimed = self._claim_next()
                if claimed is not None:
                    outage = 0
                    self._run_leased(*claimed)
                    continue
                if self._all_done():
                    break
                target = self._speculation_target()
                if target is not None:
                    self._speculated.add(target.tid)
                    self.on_event(
                        "worker.speculate", owner=self.owner, tid=target.tid
                    )
                    payload = self._execute(target, speculative=True, attempt=0)
                    self._commit(target, payload, speculative=True)
                    continue
                time.sleep(self.poll)
            except QueueUnavailable:
                outage += 1
                self._park(outage)
            else:
                outage = 0
        self.on_event("worker.exit", owner=self.owner, **self.stats.to_dict())
        return self.stats
