"""The one pipeline: plan the slots, run the misses, merge in order.

Three entry points run on it, each on the backend :func:`select_backend`
picks (inline, the fork pool or the queue):
:func:`repro.core.experiment.run_campaign` and
:func:`repro.service.run_campaign_cached` (the same, behind a result
cache) through :func:`run_pipeline`, and
:func:`repro.core.ensembles.run_ensembles` through the :class:`Merger`.
A caller that needs a backend knob passes the backend object itself
(``PoolBackend``, ``DistDispatcher``) to :func:`run_pipeline`.
A *job* is one kind of work: it prepares the parent before a fork,
executes one task, answers for a task whose worker kept dying, and
folds each result in canonical order.  :class:`CampaignJob` is the
campaign kind; :class:`repro.core.ensembles.EnsembleJob` runs controlled
ensembles on the same backends and merger.  Three parts:

* the **planner** (:func:`plan_campaign`) labels every canonical
  (sample-major, mode-minor) slot ``resume`` (already in the checkpoint),
  ``hit`` (served by an optional cache filter) or ``miss``.  Every cache
  lookup happens here, before anything is dispatched, and the merger
  folds the leading hits as they are found;
* a **backend** turns the misses into :class:`TaskResult` s, in any
  order, by calling the job: :class:`InlineBackend` here, ``PoolBackend``
  (the fork pool) in :mod:`repro.parallel.campaign`, ``DistDispatcher``
  (the shared-directory queue, campaigns only) in
  :mod:`repro.dist.coordinator`.  Off the parent's process — a fork-pool
  child or a queue worker — every task runs through :func:`run_task`;
* the **merger** (:class:`Merger`) commits the contiguous completed
  prefix in canonical order through the job's fold (a campaign appends
  checkpoint lines, cache hits included), forwarding worker trace
  events with a dense ``worker`` id and the ``run_index``, and merging
  worker metrics once per run.

A campaign record is encoded once, by the process that ran it: its
checkpoint line (:func:`repro.core.checkpoint.encode_record`) rides in
the :class:`TaskResult` (or a cache hit's plan slot) to the fold, which
appends those bytes unchanged and drops them.

The checkpoint is therefore at every instant a prefix of the serial
file, and the records and bytes a campaign ends with do not depend on
the backend, the cache state, or where a resumed campaign left off.
A campaign with no misses forks nothing and builds no background pool;
with a cache it creates no queue either.
"""

from __future__ import annotations

import itertools
import os
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol

from repro.core import checkpoint as ckpt
from repro.core.experiment import (
    CampaignBackground,
    CampaignConfig,
    RunRecord,
    _effective_jobs,
    _write_guard_bundle,
    emit_campaign_end,
    emit_campaign_start,
    execute_run,
    load_engine,
    prepare_checkpoint,
)
from repro.guard.policy import GuardPolicy
from repro.telemetry import (
    MemoryTraceWriter,
    MetricsRegistry,
    NULL_TRACE,
    Telemetry,
    resolve_telemetry,
)
from repro.topology.dragonfly import DragonflyTopology

RESUME, HIT, MISS = "resume", "hit", "miss"


@dataclass(frozen=True)
class RunTask:
    """One miss to execute: canonical index + its identity.

    ``index`` is the run's position in the canonical (sample-major,
    mode-minor) order — the order the serial loop executes and the
    order checkpoint records are flushed in.  An ensemble task is one
    config of the list (``sample`` 0, its ``mode``).
    """

    index: int
    sample: int
    mode: str


@dataclass
class TaskResult:
    """A backend's answer for one miss.

    ``record`` is what the job's ``execute`` returned, and ``line`` the
    job's encoding of it, made where it ran (None when nothing will
    write it).  ``worker`` keys the dense worker id the run's ``events``
    are tagged with (a pool worker's pid, a queue owner's name).  A run
    executed under the job's own telemetry carries no events or metrics.
    """

    index: int
    worker: Any
    record: Any
    line: str | None = None
    events: list[dict] = field(default_factory=list)
    metrics: MetricsRegistry | None = None
    #: executions it took to get the result (>1 after a worker died)
    attempts: int = 1


@dataclass
class Plan:
    """Every canonical slot, labelled; the merger fills in the misses."""

    slots: list[Any] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    misses: list[RunTask] = field(default_factory=list)
    #: slot -> checkpoint line of a cache hit, until the merger folds it
    lines: dict[int, str] = field(default_factory=dict)

    def count(self, label: str) -> int:
        return self.labels.count(label)

    def add(self, rec: Any, label: str, sample: int, mode: str, line: str | None = None) -> None:
        """Append the next canonical slot; a ``miss`` also becomes a task."""
        if label == MISS:
            self.misses.append(RunTask(index=len(self.slots), sample=sample, mode=mode))
        if line is not None:
            self.lines[len(self.slots)] = line
        self.slots.append(rec)
        self.labels.append(label)

    @property
    def records(self) -> list[Any]:
        return [rec for rec in self.slots if rec is not None]


class CacheFilter(Protocol):
    """A result cache between the planner and the backend
    (:class:`repro.service.executor.StoreFilter`)."""

    start_fields: dict

    def lookup(self, sample: int, mode: str) -> tuple[RunRecord, str] | None: ...

    def announce(self, tel: Telemetry, plan: Plan) -> None: ...

    def put(self, tel: Telemetry, rec: RunRecord, line: str) -> None: ...


class Job(Protocol):
    """One kind of work, as the backends and the merger call it:
    ``prepare`` builds in the parent what forked workers inherit,
    ``execute`` runs one task under a telemetry, ``encode`` gives a
    result's line where it was produced, ``lost`` answers for a task
    whose worker kept dying, and ``fold`` commits each result (a fresh
    one or a cache hit, with its line) in canonical order."""

    tel: Telemetry
    #: dense worker ids, shared by the merger's event tags and a queue
    #: backend's ``dist.worker`` sightings so the two always agree
    worker_ids: dict
    #: the active guard policy (watchdog, bundles), or None
    guard: GuardPolicy | None

    def prepare(self) -> None: ...

    def execute(self, task: RunTask, tel: Telemetry) -> Any: ...

    def encode(self, rec: Any) -> str | None: ...

    def lost(self, outcome: Any) -> Any: ...

    def fold(self, index: int, rec: Any, line: str | None) -> None: ...


@dataclass
class CampaignJob:
    """The campaign kind: its fold appends each record's line to the
    checkpoint; records are encoded only if a checkpoint, store or queue
    (``wire``) will write them."""

    top: DragonflyTopology
    cfg: CampaignConfig
    background: CampaignBackground
    tel: Telemetry
    checkpoint_path: str | None = None
    worker_ids: dict = field(default_factory=dict)
    wire: bool = False
    #: the degraded view the job routes on (``top`` when fault-free);
    #: background scenarios are built against the pristine fabric, as
    #: ambient traffic predates the fault window
    run_top: DragonflyTopology = field(init=False)

    def __post_init__(self) -> None:
        self.run_top = self.top.with_faults(self.cfg.faults)

    @property
    def guard(self) -> GuardPolicy | None:
        guard = self.cfg.guard
        return guard if guard is not None and guard.active else None

    def prepare(self) -> None:
        """Build the background pool and load the run path, so every
        forked worker shares them and imports nothing."""
        self.background.build()
        load_engine()
        # numpy loads numpy.ma on the first np.unique, which the pool
        # build does not call
        import numpy.ma  # noqa: F401

    def execute(self, task: RunTask, tel: Telemetry) -> RunRecord:
        nodes, bg, intensity = self.background.draws(task.sample)
        mode = next(m for m in self.cfg.modes if m.name == task.mode)
        return execute_run(
            self.top, self.run_top, self.cfg, task.sample, mode, nodes, bg,
            intensity, tel,
        )

    def encode(self, rec: RunRecord) -> str | None:
        return ckpt.encode_record(rec) if self.wire else None

    def lost(self, outcome: Any) -> RunRecord:
        """A run whose worker process kept dying (crash or watchdog kill),
        isolated exactly like an in-run failure would be."""
        task = outcome.task
        rec = self.background.lost_record(
            task.sample, task.mode, outcome.error, outcome.attempts
        )
        label = f"{self.cfg.app.name}-{task.mode}-s{task.sample}"
        self.tel.event(
            "guard.worker_lost", label=label, sample=task.sample, mode=task.mode,
            attempts=outcome.attempts, error=str(outcome.error),
        )
        _write_guard_bundle(
            self.top, self.cfg, self.guard, None, None, label, task.sample,
            task.mode, outcome.attempts, outcome.error, self.tel,
        )
        return rec

    def fold(self, index: int, rec: RunRecord, line: str | None) -> None:
        if self.checkpoint_path is not None:
            ckpt.append_record(self.checkpoint_path, rec, line=line)


class Backend(Protocol):
    #: extra ``campaign.start`` fields naming the backend
    start_fields: dict

    def run(self, job: Job, misses: list[RunTask]) -> Iterator[TaskResult]: ...


class InlineBackend:
    """Misses executed in this process, in canonical order, under the
    job's own telemetry (so their events stay untagged)."""

    start_fields: dict = {}

    def run(self, job: Job, misses: list[RunTask]) -> Iterator[TaskResult]:
        for task in misses:
            rec = job.execute(task, job.tel)
            yield TaskResult(index=task.index, worker=None, record=rec, line=job.encode(rec))


def run_task(job: Job, task: RunTask, *, heartbeat=None) -> TaskResult:
    """The one off-process task body, for a fork-pool child and a queue
    worker alike: run ``task`` on ``job`` under a private telemetry that
    samples like the job's, and return the record with its line encoded
    here and the run's events and metrics for the parent's merger.
    ``heartbeat`` (a :class:`repro.guard.WorkerHeartbeat`) is marked busy
    for the run."""
    trace_enabled, metrics_enabled = job.tel.trace.enabled, job.tel.metrics.enabled
    tel = Telemetry(
        trace=MemoryTraceWriter() if trace_enabled else NULL_TRACE,
        metrics=MetricsRegistry(enabled=metrics_enabled),
        series=job.tel.series,
    )
    if heartbeat is not None:
        heartbeat.start_task()
    try:
        rec = job.execute(task, tel)
    finally:
        if heartbeat is not None:
            heartbeat.end_task()
    return TaskResult(
        index=task.index,
        worker=os.getpid(),
        record=rec,
        line=job.encode(rec),
        events=tel.trace.events if trace_enabled else [],
        metrics=tel.metrics if metrics_enabled else None,
    )


def select_backend(jobs: int | None, queue_dir: str | None, **queue_opts) -> Backend:
    """The dispatch rule every entry point shares: a queue directory
    first, then ``jobs`` > 1 (``None`` reads ``$REPRO_JOBS``), else
    inline.  ``queue_opts`` go to the queue backend."""
    if queue_dir is not None:
        from repro.dist.coordinator import DistDispatcher
        from repro.dist.queue import WorkQueue

        return DistDispatcher(WorkQueue(queue_dir), jobs=jobs, **queue_opts)
    n_jobs = _effective_jobs(jobs)
    if n_jobs > 1:
        from repro.parallel.campaign import PoolBackend

        return PoolBackend(n_jobs)
    return InlineBackend()


def plan_campaign(
    cfg: CampaignConfig,
    done: dict[tuple[int, str], RunRecord],
    cache: CacheFilter | None,
    merger: Merger,
) -> Plan:
    """Label every canonical slot of ``merger``'s plan ``resume``, ``hit``
    or ``miss``, folding its completed prefix as it goes: a leading hit's
    line is appended, and dropped, before the next lookup."""
    plan = merger.plan
    for i in range(cfg.samples):
        for mode in cfg.modes:
            rec, label, line = done.get((i, mode.name)), RESUME, None
            if rec is None and cache is not None:
                rec, line = cache.lookup(i, mode.name) or (None, None)
                label = HIT
            plan.add(rec, MISS if rec is None else label, i, mode.name, line)
            merger.flush()
    return plan


#: one id per merger: a registry shared by several merges (campaigns in
#: a row, an ensemble after a campaign) dedupes each merge's run indices
#: on their own
_MERGE_IDS = itertools.count()


class Merger:
    """Commits a plan's contiguous completed prefix, in canonical order,
    through ``job.fold``."""

    def __init__(self, plan: Plan, job: Job) -> None:
        self.plan = plan
        self.job = job
        self._merge_id = next(_MERGE_IDS)
        self._buffered: dict[int, TaskResult] = {}
        self._pos = 0

    def drain(self, backend: Backend, put=None) -> None:
        """Run the plan's misses on ``backend`` and commit every result;
        ``put`` sees each fresh :class:`TaskResult` before it is folded."""
        # closed at once if the merge raises: a pool backend reaps its
        # workers instead of leaving them to the garbage collector
        with closing(backend.run(self.job, self.plan.misses)) as results:
            for res in results:
                if put is not None:
                    put(res)
                self.offer(res)

    def offer(self, res: TaskResult) -> None:
        self._buffered[res.index] = res
        self.flush()

    def flush(self) -> None:
        plan = self.plan
        while self._pos < len(plan.slots):
            label = plan.labels[self._pos]
            if label == MISS:
                res = self._buffered.pop(self._pos, None)
                if res is None:
                    return
                plan.slots[self._pos] = res.record
                self.job.fold(self._pos, res.record, res.line)
                self._forward(res)
            elif label == HIT:
                self.job.fold(self._pos, plan.slots[self._pos], plan.lines.pop(self._pos))
            self._pos += 1

    def _forward(self, res: TaskResult) -> None:
        tel, worker_ids = self.job.tel, self.job.worker_ids
        if res.events:
            wid = worker_ids.setdefault(res.worker, len(worker_ids))
            for ev in res.events:
                fields = {k: v for k, v in ev.items() if k != "ev"}
                fields["worker"] = wid
                fields["run_index"] = res.index
                tel.trace.emit(ev["ev"], **fields)
        if res.metrics is not None and tel.metrics.enabled:
            tel.metrics.merge(res.metrics, tag=(self._merge_id, res.index))


def run_pipeline(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    backend: Backend,
    *,
    cache: CacheFilter | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> Plan:
    """Run one campaign; the returned plan's ``records`` are its result.

    A cache's ``put`` sees each fresh record and its line before the
    merger appends that line to the checkpoint.  A cached campaign's
    ``campaign.start`` names the store rather than the backend.
    """
    tel = resolve_telemetry(telemetry)
    done = prepare_checkpoint(checkpoint_path, top, cfg, resume)
    start_fields = backend.start_fields if cache is None else cache.start_fields
    emit_campaign_start(tel, cfg, done, **start_fields)
    # the pool is built on the first draw, so only a miss can build it
    background = CampaignBackground(top, cfg)

    wire = checkpoint_path is not None or cache is not None
    job = CampaignJob(top, cfg, background, tel, checkpoint_path, wire=wire)
    merger = Merger(Plan(), job)
    # leading hits are appended while planning, before any dispatch
    plan = plan_campaign(cfg, done, cache, merger)
    if cache is not None:
        cache.announce(tel, plan)
    # a cached campaign with no misses (a warm replay) dispatches nothing;
    # without a cache the backend always runs, so a queue coordinator with
    # nothing left still publishes its queue and idle workers see it done
    if cache is None:
        merger.drain(backend)
    elif plan.misses:
        merger.drain(backend, put=lambda res: cache.put(tel, res.record, res.line))
    emit_campaign_end(tel, cfg, plan.records)
    return plan
