"""Distributed campaign coordinator: materialize, merge, fall back.

:func:`run_campaign_distributed` is the queue-backed twin of
:func:`repro.core.experiment.run_campaign` and
:func:`repro.parallel.campaign.run_campaign_parallel`, with the same
contract: the returned records, the checkpoint file, and the telemetry
stream are **byte-identical** to a serial run, no matter how many
workers participate, on how many hosts, or how many of them crash.

The machinery is split in two so other executors (the memoizing
service layer, :mod:`repro.service.executor`) can fan an arbitrary
subset of a campaign's runs through the queue:

* :class:`DistDispatcher` owns the queue protocol: it materializes the
  queue (manifest + one content-addressed task per run), sweeps
  ``results/`` for committed payloads, writes error records for tasks
  whose retry budget is exhausted, watches fleet liveness, and degrades
  to the local fork pool when nobody is working and nobody is coming.
  It executes nothing itself (until fallback) and yields each task's
  payload exactly once, in discovery order.  It builds the background
  pool only for a fallback or for an exhausted task's error record; a
  campaign the fleet finishes costs the coordinator no pool.
* :class:`_Merger` folds yielded payloads back in canonical order:
  checkpoint append, worker trace events (tagged with a dense worker id
  and the run index, exactly like the fork-pool merge), and
  metrics-registry merge keyed by run index.

Observability: ``dist.worker`` (first sighting of each worker),
``dist.task_stolen`` (a speculative duplicate won), ``dist.lease_reclaimed``
(a retry attempt), ``dist.queue`` (periodic depth snapshot),
``dist.fallback`` — plus ``dist_*`` gauges/counters on ``/metrics``.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.core import checkpoint as ckpt
from repro.core.experiment import (
    CampaignBackground,
    CampaignConfig,
    RunRecord,
    _effective_jobs,
    _error_record,
    emit_campaign_end,
    emit_campaign_start,
    prepare_checkpoint,
)
from repro.dist.manifest import build_tasks, campaign_to_manifest
from repro.dist.queue import QueueTask, QueueUnavailable, WorkQueue
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.scheduler.placement import groups_spanned
from repro.telemetry import MetricsRegistry, Telemetry, resolve_telemetry
from repro.topology.dragonfly import DragonflyTopology
from repro.util.backoff import Backoff, BackoffPolicy

#: queue-outage schedule on the coordinator side
COORDINATOR_BACKOFF = BackoffPolicy(base=0.2, cap=10.0)

#: seconds of (no progress ∧ no live lease) before local fallback
DEFAULT_FALLBACK_AFTER = 10.0


class _Merger:
    """Canonical-order fold of result payloads (the fork-pool merge,
    speaking the queue's wire format)."""

    def __init__(
        self,
        tel: Telemetry,
        tasks: list[QueueTask],
        slots: list[RunRecord | None],
        checkpoint_path: str | None,
        worker_ids: dict[str, int] | None = None,
    ) -> None:
        self.tel = tel
        self.tasks = tasks
        self.slots = slots
        self.checkpoint_path = checkpoint_path
        self.buffered: dict[int, dict] = {}
        self.flush_pos = 0
        self.worker_ids = worker_ids if worker_ids is not None else {}
        self.merged_tids: set[str] = set()

    @property
    def done(self) -> bool:
        return self.flush_pos >= len(self.tasks)

    def offer(self, tid: str, payload: dict) -> bool:
        """Buffer one result payload; True if it was new."""
        if tid in self.merged_tids:
            return False
        self.merged_tids.add(tid)
        self.buffered[int(payload["index"])] = payload
        return True

    def worker_id(self, owner: str) -> int:
        return self.worker_ids.setdefault(owner, len(self.worker_ids))

    def flush(self) -> int:
        """Commit the contiguous completed prefix; returns runs merged."""
        merged = 0
        while self.flush_pos < len(self.tasks):
            payload = self.buffered.pop(self.tasks[self.flush_pos].index, None)
            if payload is None:
                return merged
            rec = ckpt.record_from_dict(payload["record"])
            self.slots[int(payload["index"])] = rec
            if self.checkpoint_path is not None:
                ckpt.append_record(self.checkpoint_path, rec)
            events = payload.get("events") or []
            if events:
                wid = self.worker_id(str(payload.get("worker", "?")))
                for ev in events:
                    fields = {k: v for k, v in ev.items() if k != "ev"}
                    fields["worker"] = wid
                    fields["run_index"] = int(payload["index"])
                    self.tel.trace.emit(ev["ev"], **fields)
            wire = payload.get("metrics")
            if wire is not None and self.tel.metrics.enabled:
                self.tel.metrics.merge(
                    MetricsRegistry.from_wire(wire), tag=int(payload["index"])
                )
            self.flush_pos += 1
            merged += 1
        return merged


def _local_fallback(
    top: DragonflyTopology,
    run_top: DragonflyTopology,
    cfg: CampaignConfig,
    background: CampaignBackground,
    tel: Telemetry,
    queue: WorkQueue,
    remaining: list[QueueTask],
    jobs: int,
) -> list[tuple[str, dict]]:
    """Execute ``remaining`` on a local fork pool, committing via the queue.

    Reuses the parallel path's worker context and task runner verbatim,
    so fallback runs are produced by exactly the machinery the
    equivalence suite already proves serial-identical.  Results go
    *through the queue* (first-commit-wins), so a worker fleet that
    resurrects mid-fallback cannot double-merge anything.
    """
    from repro.parallel.campaign import (
        _CampaignContext,
        _init_worker,
        _run_task,
    )
    from repro.parallel.executor import run_tasks
    from repro.parallel.spec import RunTask

    ctx = _CampaignContext(
        top,
        run_top,
        cfg,
        background,
        trace_enabled=tel.trace.enabled,
        metrics_enabled=tel.metrics.enabled,
        series=tel.series,
    )
    by_index = {t.index: t for t in remaining}
    run_tasks_list = [
        RunTask(index=t.index, sample=t.sample, mode=t.mode) for t in remaining
    ]
    produced: list[tuple[str, dict]] = []
    for outcome in run_tasks(
        run_tasks_list,
        _run_task,
        jobs=jobs,
        initializer=_init_worker,
        initargs=(ctx,),
    ):
        task = by_index[outcome.task.index]
        if outcome.ok:
            tr = outcome.result
            payload = {
                "tid": task.tid,
                "index": tr.index,
                "record": ckpt.record_to_dict(tr.record),
                "events": tr.events,
                "metrics": tr.metrics.to_wire() if tr.metrics is not None else None,
                "worker": "coordinator:fallback",
                "attempt": outcome.attempts,
                "speculative": False,
            }
        else:
            # the local worker process died repeatedly on this run:
            # isolate into an error record, as the fork pool does
            nodes, _, intensity = background.draws(task.sample)
            mode = {m.name: m for m in cfg.modes}[task.mode]
            rec = _error_record(
                cfg,
                mode,
                task.sample,
                groups_spanned(top, nodes),
                intensity,
                outcome.error,
                outcome.attempts,
            )
            payload = {
                "tid": task.tid,
                "index": task.index,
                "record": ckpt.record_to_dict(rec),
                "events": [],
                "metrics": None,
                "worker": "coordinator:fallback",
                "attempt": outcome.attempts,
                "speculative": False,
            }
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
    """The queue protocol side of a distributed campaign (no merging).

    :meth:`run` materializes the queue for ``tasks`` and yields each
    task's committed result payload exactly once, in discovery order;
    the caller owns canonical ordering, checkpointing, and telemetry
    merging.  ``worker_ids`` may be shared with the caller's merger so
    ``dist.worker`` sightings and trace tags agree on dense ids.
    """

    def __init__(
        self,
        top: DragonflyTopology,
        run_top: DragonflyTopology,
        cfg: CampaignConfig,
        background: CampaignBackground,
        tel: Telemetry,
        queue: WorkQueue,
        tasks: list[QueueTask],
        *,
        jobs: int | None = None,
        fallback_after: float = DEFAULT_FALLBACK_AFTER,
        poll: float = 0.2,
        status_every: float = 5.0,
        worker_ids: dict[str, int] | None = None,
    ) -> None:
        self.top = top
        self.run_top = run_top
        self.cfg = cfg
        self.background = background
        self.tel = tel
        self.queue = queue
        self.tasks = tasks
        self.jobs = jobs
        self.fallback_after = fallback_after
        self.poll = poll
        self.status_every = status_every
        self.worker_ids = worker_ids if worker_ids is not None else {}

    def worker_id(self, owner: str) -> int:
        return self.worker_ids.setdefault(owner, len(self.worker_ids))

    def run(self) -> Iterator[tuple[QueueTask, dict]]:
        tel = self.tel
        queue = self.queue
        cfg = self.cfg
        mode_by_name = {m.name: m for m in cfg.modes}

        manifest = campaign_to_manifest(self.top, cfg, tel)
        queue.create(manifest, self.tasks)

        m = tel.metrics
        if m.enabled:
            m.gauge("dist_queue_depth", "tasks not yet completed").set(
                len(self.tasks)
            )
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
            if owner not in self.worker_ids:
                tel.event("dist.worker", owner=owner, worker=self.worker_id(owner))

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

        while len(yielded) < len(self.tasks):
            progressed = 0
            try:
                # 0) lease scan: first-sighting events + steal attribution
                live = queue.live_leases()
                for tid, lease in live.items():
                    owner = str(lease.get("owner", "?"))
                    _sight_worker(owner)
                    last_owner[tid] = owner

                # 1) sweep newly committed results
                for t in self.tasks:
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
                    yield t, payload

                # 2) retry bookkeeping: attempt counters that moved past 1
                #    mean an expired lease got reclaimed somewhere
                for t in self.tasks:
                    if t.tid in yielded:
                        continue
                    used = queue.attempts_used(t.tid)
                    _note_attempts(t, used)
                    # budget exhausted with no result: the task is dead —
                    # write its error record so the campaign completes
                    if used >= queue.retry_budget and not queue.has_result(t.tid):
                        if t.tid in live:
                            continue  # final attempt still running
                        nodes, _, intensity = self.background.draws(t.sample)
                        rec = _error_record(
                            cfg,
                            mode_by_name[t.mode],
                            t.sample,
                            groups_spanned(self.top, nodes),
                            intensity,
                            RuntimeError(
                                f"retry budget exhausted after {used} attempts"
                            ),
                            used,
                        )
                        payload = {
                            "tid": t.tid,
                            "index": t.index,
                            "record": ckpt.record_to_dict(rec),
                            "events": [],
                            "metrics": None,
                            "worker": "coordinator",
                            "attempt": used,
                            "speculative": False,
                        }
                        queue.commit_result(t.tid, payload)
                        tel.event(
                            "dist.task_exhausted",
                            tid=t.tid,
                            run_index=t.index,
                            attempts=used,
                        )

                if m.enabled:
                    m.gauge("dist_queue_depth", "tasks not yet completed").set(
                        len(self.tasks) - len(yielded)
                    )
                    m.gauge("dist_leases_live", "live worker leases").set(len(live))
                now = time.monotonic()
                if now - last_status >= self.status_every:
                    last_status = now
                    tel.event(
                        "dist.queue",
                        depth=len(self.tasks) - len(yielded),
                        merged=len(yielded),
                        total=len(self.tasks),
                        leases=len(live),
                        workers=len(self.worker_ids),
                    )

                if progressed or live:
                    last_progress = now
                elif (
                    not fallen_back
                    and len(yielded) < len(self.tasks)
                    and now - last_progress >= self.fallback_after
                ):
                    # nobody is working and nobody is coming: degrade to
                    # the local fork pool and finish the campaign ourselves
                    fallen_back = True
                    remaining = [t for t in self.tasks if t.tid not in yielded]
                    tel.event(
                        "dist.fallback",
                        remaining=len(remaining),
                        waited_s=round(now - last_progress, 3),
                    )
                    produced = _local_fallback(
                        self.top,
                        self.run_top,
                        cfg,
                        self.background,
                        tel,
                        queue,
                        remaining,
                        _effective_jobs(self.jobs),
                    )
                    # yield in-memory too: the campaign must finish even
                    # if the queue directory died outright (records are
                    # deterministic, so any queue-committed duplicate from
                    # a resurrected worker is byte-identical to ours)
                    by_tid = {t.tid: t for t in remaining}
                    for tid, payload in produced:
                        if tid in yielded:
                            continue
                        yielded.add(tid)
                        yield by_tid[tid], payload
                    last_progress = time.monotonic()
                    continue  # next sweep skips everything yielded
                outage = 0
                if len(yielded) < len(self.tasks) and not progressed:
                    time.sleep(self.poll)
            except QueueUnavailable:
                outage += 1
                tel.event("dist.queue_unavailable", outages=outage)
                backoff.sleep(min(outage, 8))


def run_campaign_distributed(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    queue_dir: str,
    background_model: BackgroundModel | None = None,
    scenarios: list[BackgroundScenario] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    jobs: int | None = None,
    ttl: float | None = None,
    retry_budget: int | None = None,
    fallback_after: float = DEFAULT_FALLBACK_AFTER,
    poll: float = 0.2,
    status_every: float = 5.0,
) -> list[RunRecord]:
    """Run the campaign over a shared-directory work queue.

    ``jobs`` only sizes the local *fallback* pool (used when no worker
    ever appears or the whole fleet dies); a healthy distributed
    campaign executes nothing in this process.
    """
    tel = resolve_telemetry(telemetry)
    kw = {}
    if ttl is not None:
        kw["ttl"] = ttl
    if retry_budget is not None:
        kw["retry_budget"] = retry_budget
    queue = WorkQueue(queue_dir, **kw)

    run_top = top.with_faults(cfg.faults) if cfg.faults is not None else top
    done = prepare_checkpoint(checkpoint_path, top, cfg, resume)
    emit_campaign_start(tel, cfg, done, queue=str(queue.root))
    background = CampaignBackground(top, cfg, background_model, scenarios)

    # canonical slots: resumed runs pre-filled, the rest queued
    all_tasks = build_tasks(top, cfg)
    slots: list[RunRecord | None] = [None] * len(all_tasks)
    pending: list[QueueTask] = []
    for t in all_tasks:
        prior = done.get((t.sample, t.mode))
        if prior is not None:
            slots[t.index] = prior
        else:
            pending.append(t)

    merger = _Merger(tel, pending, slots, checkpoint_path)
    dispatcher = DistDispatcher(
        top,
        run_top,
        cfg,
        background,
        tel,
        queue,
        pending,
        jobs=jobs,
        fallback_after=fallback_after,
        poll=poll,
        status_every=status_every,
        worker_ids=merger.worker_ids,
    )
    m = tel.metrics
    for task, payload in dispatcher.run():
        merger.offer(task.tid, payload)
        flushed = merger.flush()
        if m.enabled and flushed:
            m.counter("dist_tasks_done_total", "runs merged").inc(flushed)

    records = [rec for rec in slots if rec is not None]
    emit_campaign_end(tel, cfg, records)
    return records
