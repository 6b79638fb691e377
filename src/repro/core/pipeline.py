"""The one campaign pipeline: plan the slots, run the misses, merge in order.

Every campaign entry point is :func:`run_pipeline` with a different
backend: :func:`repro.core.experiment.run_campaign` (serial, or whatever
:func:`select_backend` picks), :func:`repro.parallel.run_campaign_parallel`,
:func:`repro.dist.run_campaign_distributed` and
:func:`repro.service.run_campaign_cached`.  Three parts:

* the **planner** (:func:`plan_campaign`) labels every canonical
  (sample-major, mode-minor) slot ``resume`` (already in the checkpoint),
  ``hit`` (served by an optional cache filter) or ``miss``.  Every cache
  lookup happens here, before anything is dispatched;
* a **backend** turns the misses into :class:`TaskResult` s, in any
  order: :class:`InlineBackend` here, ``PoolBackend`` (the fork pool) in
  :mod:`repro.parallel.campaign`, ``DistDispatcher`` (the shared-directory
  queue) in :mod:`repro.dist.coordinator`;
* the **merger** (:class:`Merger`) commits the contiguous completed
  prefix in canonical order: checkpoint lines (cache hits included),
  worker trace events forwarded with a dense ``worker`` id and the
  ``run_index``, and worker metrics merged by run index.

The checkpoint is therefore at every instant a prefix of the serial
file, and the records and bytes a campaign ends with do not depend on
the backend, the cache state, or where a resumed campaign left off.
A campaign with no misses forks nothing and builds no background pool;
with a cache it creates no queue either.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol

from repro.core import checkpoint as ckpt
from repro.core.experiment import (
    CampaignBackground,
    CampaignConfig,
    RunRecord,
    _effective_jobs,
    emit_campaign_end,
    emit_campaign_start,
    execute_run,
    prepare_checkpoint,
)
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.telemetry import MetricsRegistry, Telemetry, resolve_telemetry
from repro.topology.dragonfly import DragonflyTopology

RESUME, HIT, MISS = "resume", "hit", "miss"


@dataclass(frozen=True)
class RunTask:
    """One miss to execute: canonical index + its identity.

    ``index`` is the run's position in the canonical (sample-major,
    mode-minor) order — the order the serial loop executes and the
    order checkpoint records are flushed in.
    """

    index: int
    sample: int
    mode: str


@dataclass
class TaskResult:
    """A backend's answer for one miss.

    ``worker`` keys the dense worker id the run's ``events`` are tagged
    with (a pool worker's pid, a queue owner's name).  A run executed
    under the campaign's own telemetry carries no events or metrics.
    """

    index: int
    worker: Any
    record: RunRecord
    events: list[dict] = field(default_factory=list)
    metrics: MetricsRegistry | None = None
    #: executions it took to get the result (>1 after a worker died)
    attempts: int = 1


@dataclass
class Plan:
    """Every canonical slot, labelled; the merger fills in the misses."""

    slots: list[RunRecord | None] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    misses: list[RunTask] = field(default_factory=list)

    def count(self, label: str) -> int:
        return self.labels.count(label)

    @property
    def records(self) -> list[RunRecord]:
        return [rec for rec in self.slots if rec is not None]


class CacheFilter(Protocol):
    """A result cache between the planner and the backend
    (:class:`repro.service.executor.StoreFilter`)."""

    start_fields: dict

    def lookup(self, sample: int, mode: str) -> RunRecord | None: ...

    def announce(self, tel: Telemetry, plan: Plan) -> None: ...

    def put(self, tel: Telemetry, rec: RunRecord) -> None: ...


@dataclass
class CampaignJob:
    """What a backend gets to execute a campaign's misses with."""

    top: DragonflyTopology
    #: the degraded view the job routes on (``top`` when fault-free)
    run_top: DragonflyTopology
    cfg: CampaignConfig
    background: CampaignBackground
    tel: Telemetry
    #: dense worker ids, shared by the merger's event tags and a queue
    #: backend's ``dist.worker`` sightings so the two always agree
    worker_ids: dict


class Backend(Protocol):
    #: extra ``campaign.start`` fields naming the backend
    start_fields: dict

    def run(self, job: CampaignJob, misses: list[RunTask]) -> Iterator[TaskResult]: ...


class InlineBackend:
    """Misses executed in this process, in canonical order, under the
    campaign's own telemetry (so their events stay untagged)."""

    start_fields: dict = {}

    def run(self, job: CampaignJob, misses: list[RunTask]) -> Iterator[TaskResult]:
        modes = {m.name: m for m in job.cfg.modes}
        for task in misses:
            nodes, bg, intensity = job.background.draws(task.sample)
            rec = execute_run(
                job.top, job.run_top, job.cfg, task.sample, modes[task.mode],
                nodes, bg, intensity, job.tel,
            )
            yield TaskResult(index=task.index, worker=None, record=rec)


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
    cache: CacheFilter | None = None,
) -> Plan:
    """Label every canonical slot ``resume``, ``hit`` or ``miss``."""
    plan = Plan()
    for i in range(cfg.samples):
        for mode in cfg.modes:
            rec, label = done.get((i, mode.name)), RESUME
            if rec is None and cache is not None:
                rec, label = cache.lookup(i, mode.name), HIT
            if rec is None:
                label = MISS
                plan.misses.append(RunTask(index=len(plan.slots), sample=i, mode=mode.name))
            plan.slots.append(rec)
            plan.labels.append(label)
    return plan


class Merger:
    """Commits a plan's contiguous completed prefix, in canonical order."""

    def __init__(self, plan: Plan, tel: Telemetry, checkpoint_path: str | None) -> None:
        self.plan = plan
        self.tel = tel
        self.checkpoint_path = checkpoint_path
        self.worker_ids: dict = {}
        self._buffered: dict[int, TaskResult] = {}
        self._pos = 0

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
                self._append(res.record)
                self._forward(res)
            elif label == HIT:
                self._append(plan.slots[self._pos])
            self._pos += 1

    def _append(self, rec: RunRecord) -> None:
        if self.checkpoint_path is not None:
            ckpt.append_record(self.checkpoint_path, rec)

    def _forward(self, res: TaskResult) -> None:
        if res.events:
            wid = self.worker_ids.setdefault(res.worker, len(self.worker_ids))
            for ev in res.events:
                fields = {k: v for k, v in ev.items() if k != "ev"}
                fields["worker"] = wid
                fields["run_index"] = res.index
                self.tel.trace.emit(ev["ev"], **fields)
        if res.metrics is not None and self.tel.metrics.enabled:
            self.tel.metrics.merge(res.metrics, tag=res.index)


def run_pipeline(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    backend: Backend,
    *,
    cache: CacheFilter | None = None,
    background_model: BackgroundModel | None = None,
    scenarios: list[BackgroundScenario] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> Plan:
    """Run one campaign; the returned plan's ``records`` are its result.

    A cache's ``put`` sees each fresh record before the merger appends
    it to the checkpoint.  A cached campaign's ``campaign.start`` names
    the store rather than the backend.
    """
    tel = resolve_telemetry(telemetry)
    # background scenarios are built against the pristine fabric (ambient
    # traffic predates the fault window); the job itself routes on the
    # degraded view
    run_top = top.with_faults(cfg.faults) if cfg.faults is not None else top
    done = prepare_checkpoint(checkpoint_path, top, cfg, resume)
    start_fields = backend.start_fields if cache is None else cache.start_fields
    emit_campaign_start(tel, cfg, done, **start_fields)
    # the pool is built on the first draw, so only a miss can build it
    background = CampaignBackground(top, cfg, background_model, scenarios)

    plan = plan_campaign(cfg, done, cache)
    if cache is not None:
        cache.announce(tel, plan)
    merger = Merger(plan, tel, checkpoint_path)
    merger.flush()  # leading hits are appended before any dispatch
    # a cached campaign with no misses (a warm replay) dispatches nothing;
    # without a cache the backend always runs, so a queue coordinator with
    # nothing left still publishes its queue and idle workers see it done
    if plan.misses or cache is None:
        job = CampaignJob(top, run_top, cfg, background, tel, merger.worker_ids)
        # closed at once if the merge raises: a pool backend reaps its
        # workers instead of leaving them to the garbage collector
        with closing(backend.run(job, plan.misses)) as results:
            for res in results:
                if cache is not None:
                    cache.put(tel, res.record)
                merger.offer(res)
    emit_campaign_end(tel, cfg, plan.records)
    return plan
