"""Distributed campaign coordinator: the queue backend of the pipeline.

``run_campaign(queue_dir=...)`` and ``run_campaign_cached(queue_dir=...)``
run the pipeline (:func:`repro.core.pipeline.run_pipeline`) on a
:class:`DistDispatcher`, under the serial contract: the returned
records, the checkpoint file, and the telemetry stream are
**byte-identical** to a serial run, no matter how many workers
participate, on how many hosts, or how many of them crash.  A caller
that needs a knob (lease ``ttl``, ``retry_budget``, ``fallback_after``,
``poll``) builds the :class:`WorkQueue` and the dispatcher itself.

:class:`DistDispatcher` owns the queue protocol: it materializes the
queue (manifest + one content-addressed task per miss), sweeps
``results/`` for committed payloads, writes error records for tasks
whose retry budget is exhausted, watches fleet liveness, and degrades to
the fork-pool backend when nobody is working and nobody is coming.  It
executes no run itself (until fallback) and yields each task's result
exactly once, in discovery order; the pipeline's merger
(:mod:`repro.core.pipeline`) puts them back in canonical order.  Any
campaign with misses can use it, cached ones included.

The background pool is solved here, once: after writing the manifest,
while the fleet starts up, the coordinator solves the pool slots its
unfinished tasks read, in the order they first read them, and
publishes each to the queue's ``pool/`` under a renewed ``pool`` lease
(created before the manifest, so a worker never misses it).  Workers
load the slots instead of solving them; a fallback or an exhausted
task's error record loads them back the same way.  A queue with no slot
to publish costs the coordinator no engine at all.  Between sweeps it
waits on the queue's ``doorbell`` FIFO, which a worker on the same host
rings after each commit, so a result is merged within milliseconds; the
``poll`` still bounds the wait.
Every payload it writes or reads goes through
:func:`repro.dist.queue.result_payload` / :func:`~repro.dist.queue.payload_result`,
as a worker's does.

Observability: ``dist.worker`` (first sighting of each worker),
``dist.task_stolen`` (a speculative duplicate won), ``dist.lease_reclaimed``
(a retry attempt), ``dist.queue`` (periodic depth snapshot),
``dist.fallback`` — plus ``dist_*`` gauges/counters on ``/metrics``.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.core.experiment import CampaignBackground, _effective_jobs, sample_slot
from repro.core.pipeline import CampaignJob, RunTask, TaskResult
from repro.dist.manifest import campaign_to_manifest
from repro.dist.queue import (
    Doorbell,
    Lease,
    LeaseRenewer,
    QueueTask,
    QueueUnavailable,
    WorkQueue,
    payload_result,
    result_payload,
    task_id,
)
from repro.util.backoff import Backoff, BackoffPolicy

#: queue-outage schedule on the coordinator side
COORDINATOR_BACKOFF = BackoffPolicy(base=0.2, cap=10.0)

#: seconds of (no progress ∧ no live lease) before local fallback
DEFAULT_FALLBACK_AFTER = 10.0


def _pool_order(job: CampaignJob, queue: WorkQueue, tasks: list[QueueTask]) -> list[int]:
    """The pool slots the tasks without a result read, in the order they
    first read them (workers claim in task order); none when isolated."""
    if job.cfg.background != "production":
        return []
    slot_of: dict[int, int] = {}
    for t in tasks:
        if t.sample not in slot_of and not queue.has_result(t.tid):
            slot_of[t.sample] = sample_slot(job.top, job.cfg, t.sample)[2]
    return list(dict.fromkeys(slot_of.values()))


def _local_fallback(
    job: CampaignJob, queue: WorkQueue, remaining: list[QueueTask], jobs: int
) -> list[tuple[str, dict]]:
    """Execute ``remaining`` on the fork-pool backend, committing via the queue.

    The pool backend is the one ``-j`` campaigns use, watchdog and
    lost-worker handling included, so fallback runs are produced by
    exactly the machinery the equivalence suite already proves
    serial-identical.  Results go *through the queue*
    (first-commit-wins), so a worker fleet that resurrects mid-fallback
    cannot double-merge anything.
    """
    from repro.parallel.campaign import PoolBackend

    by_index = {t.index: t for t in remaining}
    produced: list[tuple[str, dict]] = []
    for res in PoolBackend(jobs).run(job, remaining):
        task = by_index[res.index]
        payload = result_payload(task, res, "coordinator:fallback", res.attempts)
        produced.append((task.tid, payload))
        try:
            queue.commit_result(task.tid, payload)
        except QueueUnavailable:
            # the queue died under the coordinator too; the caller
            # receives ``produced`` in-memory, so the campaign still
            # completes
            pass
    return produced


class DistDispatcher:
    """The queue backend: misses become tasks on a shared-directory queue.

    :meth:`run` materializes the queue for the misses and yields each
    task's committed result exactly once, in discovery order.  ``jobs``
    sizes the fork pool of a local fallback.  The job's ``worker_ids``
    are the merger's, so ``dist.worker`` sightings and trace tags agree
    on dense ids.
    """

    def __init__(
        self,
        queue: WorkQueue,
        *,
        jobs: int | None = None,
        fallback_after: float = DEFAULT_FALLBACK_AFTER,
        poll: float = 0.2,
        status_every: float = 5.0,
    ) -> None:
        self.queue = queue
        self.jobs = jobs
        self.fallback_after = fallback_after
        self.poll = poll
        self.status_every = status_every
        self.start_fields = {"queue": str(queue.root)}

    def run(self, job: CampaignJob, misses: list[RunTask]) -> Iterator[TaskResult]:
        queue = self.queue
        # every payload carries its record's line, encoded where it ran
        job.wire = True
        manifest = campaign_to_manifest(job.top, job.cfg, job.tel)
        fp = manifest["fingerprint"]
        tasks = [
            QueueTask(task_id(fp, t.sample, t.mode), t.index, t.sample, t.mode) for t in misses
        ]
        order = _pool_order(job, queue, tasks)
        pool_lease = queue.create(manifest, tasks, pool=order)
        doorbell = Doorbell(queue.doorbell_path)
        try:
            if pool_lease is not None:
                self._publish_pool(job, fp, order, pool_lease)
            yield from self._merge(job, tasks, doorbell)
        finally:
            doorbell.close()

    def _publish_pool(
        self, job: CampaignJob, fingerprint: dict, order: list[int], lease: Lease
    ) -> None:
        """Solve the slots ``order`` under the renewed pool ``lease``,
        publishing each one as it is done, then expire the lease.  The
        job's background keeps none: a fallback or an exhausted task's
        record loads them back as a worker does (or builds the pool, if
        one is missing)."""
        queue = self.queue

        def publish(slot: int, scenario) -> None:
            try:
                queue.publish_slot(fingerprint, slot, scenario.util, scenario.n_jobs, scenario.fill)
            except QueueUnavailable:
                pass  # whoever needs the slot builds the pool itself

        job.background = CampaignBackground(
            job.top, job.cfg, published=lambda slot: queue.wait_slot(fingerprint, slot, self.poll)
        )
        with LeaseRenewer(lambda: queue.renew_pool(lease), queue.ttl / 3.0):
            job.background.solve(order, publish)
        try:
            queue.release_pool(lease)
        except QueueUnavailable:
            pass  # the lease expires on its own

    def _merge(
        self, job: CampaignJob, tasks: list[QueueTask], doorbell: Doorbell
    ) -> Iterator[TaskResult]:
        """Yield each task's committed result once, in discovery order."""
        tel = job.tel
        queue = self.queue
        worker_ids = job.worker_ids
        m = tel.metrics
        if m.enabled:
            m.gauge("dist_queue_depth", "tasks not yet completed").set(len(tasks))
            m.gauge("dist_leases_live", "live worker leases").set(0)

        backoff = Backoff(COORDINATOR_BACKOFF)
        outage = 0
        last_progress = time.monotonic()
        last_status = 0.0
        seen_attempts: dict[str, int] = {}
        #: last owner observed holding each task's lease (steal attribution)
        last_owner: dict[str, str] = {}
        yielded: set[str] = set()
        fallen_back = False

        def _sight_worker(owner: str) -> None:
            if owner not in worker_ids:
                worker_ids[owner] = len(worker_ids)
                tel.event("dist.worker", owner=owner, worker=worker_ids[owner])

        def _result(payload: dict) -> TaskResult:
            if m.enabled:
                m.counter("dist_tasks_done_total", "runs merged").inc()
            return payload_result(payload)

        def _note_attempts(t: QueueTask, used: int) -> None:
            """Record attempt movement; >1 means an expired lease got
            reclaimed somewhere (a retry)."""
            prev = seen_attempts.get(t.tid, 0)
            if used > max(prev, 1):
                # the queue records the displaced owner at reclaim time;
                # the lease-scan guess is only a fallback (our scan may
                # already have seen the reclaimer's fresh lease)
                tel.event(
                    "dist.lease_reclaimed",
                    tid=t.tid,
                    run_index=t.index,
                    attempt=used,
                    victim=queue.last_victim(t.tid) or last_owner.get(t.tid, ""),
                )
                if m.enabled:
                    m.counter("dist_retries_total", "expired-lease reclaims").inc(
                        used - max(prev, 1)
                    )
            if used > prev:
                seen_attempts[t.tid] = used

        while len(yielded) < len(tasks):
            progressed = 0
            try:
                # 0) lease scan: first-sighting events + steal attribution
                live = queue.live_leases()
                for tid, lease in live.items():
                    owner = str(lease.get("owner", "?"))
                    _sight_worker(owner)
                    last_owner[tid] = owner

                # 1) sweep newly committed results
                for t in tasks:
                    if t.tid in yielded:
                        continue
                    payload = queue.read_result(t.tid)
                    if payload is None:
                        continue
                    owner = str(payload.get("worker", "?"))
                    _sight_worker(owner)
                    if payload.get("speculative"):
                        tel.event(
                            "dist.task_stolen",
                            tid=t.tid,
                            run_index=t.index,
                            owner=owner,
                            victim=last_owner.get(t.tid, ""),
                        )
                        if m.enabled:
                            m.counter(
                                "dist_steals_total",
                                "speculative duplicates that won",
                            ).inc()
                    # the payload's attempt count is authoritative even when
                    # the whole claim→reclaim→commit happened between two of
                    # our sweeps (the attempts scan below never sees it)
                    _note_attempts(t, int(payload.get("attempt", 0) or 0))
                    yielded.add(t.tid)
                    progressed += 1
                    yield _result(payload)

                # 2) retry bookkeeping: attempt counters that moved past 1
                #    mean an expired lease got reclaimed somewhere
                for t in tasks:
                    if t.tid in yielded:
                        continue
                    used = queue.attempts_used(t.tid)
                    _note_attempts(t, used)
                    # budget exhausted with no result: the task is dead —
                    # write its error record so the campaign completes
                    if used >= queue.retry_budget and not queue.has_result(t.tid):
                        # a claim made since the scan above counts too: its
                        # lease lands before its attempt does
                        if t.tid in live or t.tid in queue.live_leases():
                            continue  # final attempt still running
                        rec = job.background.lost_record(
                            t.sample,
                            t.mode,
                            RuntimeError(f"retry budget exhausted after {used} attempts"),
                            used,
                        )
                        res = TaskResult(t.index, None, rec, job.encode(rec))
                        queue.commit_result(t.tid, result_payload(t, res, "coordinator", used))
                        tel.event(
                            "dist.task_exhausted",
                            tid=t.tid,
                            run_index=t.index,
                            attempts=used,
                        )

                if m.enabled:
                    m.gauge("dist_queue_depth", "tasks not yet completed").set(
                        len(tasks) - len(yielded)
                    )
                    m.gauge("dist_leases_live", "live worker leases").set(len(live))
                now = time.monotonic()
                if now - last_status >= self.status_every:
                    last_status = now
                    tel.event(
                        "dist.queue",
                        depth=len(tasks) - len(yielded),
                        merged=len(yielded),
                        total=len(tasks),
                        leases=len(live),
                        workers=len(worker_ids),
                    )

                if progressed or live:
                    last_progress = now
                elif (
                    not fallen_back
                    and len(yielded) < len(tasks)
                    and now - last_progress >= self.fallback_after
                ):
                    # nobody is working and nobody is coming: degrade to
                    # the local fork pool and finish the campaign ourselves
                    fallen_back = True
                    remaining = [t for t in tasks if t.tid not in yielded]
                    tel.event(
                        "dist.fallback",
                        remaining=len(remaining),
                        waited_s=round(now - last_progress, 3),
                    )
                    produced = _local_fallback(
                        job, queue, remaining, _effective_jobs(self.jobs)
                    )
                    # yield in-memory too: the campaign must finish even
                    # if the queue directory died outright (records are
                    # deterministic, so any queue-committed duplicate from
                    # a resurrected worker is byte-identical to ours)
                    for tid, payload in produced:
                        if tid in yielded:
                            continue
                        yielded.add(tid)
                        yield _result(payload)
                    last_progress = time.monotonic()
                    continue  # next sweep skips everything yielded
                outage = 0
                if len(yielded) < len(tasks) and not progressed:
                    doorbell.wait(self.poll)
            except QueueUnavailable:
                outage += 1
                tel.event("dist.queue_unavailable", outages=outage)
                backoff.sleep(min(outage, 8))

