"""The fork-pool backend of the campaign pipeline.

:func:`run_campaign_parallel` fans a campaign's runs over worker
processes and produces output **byte-identical** to
:func:`repro.core.experiment.run_campaign` with ``jobs=1``:

* Every run's RNG stream is re-derived in the worker from the same
  ``(seed, app, size, sample, mode)`` key the serial loop uses — no
  state is threaded between runs, so worker count and completion order
  cannot influence a single draw (see ``docs/PARALLEL.md``).
* Results come back in completion order; the pipeline's merger
  (:mod:`repro.core.pipeline`) commits them in the canonical order, so
  the checkpoint file is always a clean, resumable prefix of the serial
  file — including after Ctrl-C — and its final bytes are identical for
  any ``jobs``.
* A run that raises inside the worker becomes an error-status record
  (same isolation as serial); a run whose worker process *dies* is
  retried on a rebuilt pool a bounded number of times, then isolated
  into an error-status record as well.

:class:`PoolBackend` is the one fork pool campaigns use: ``-j N``, the
cache's misses under ``--cache -j N``, and the queue coordinator's
local fallback.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Iterator

from repro.core.experiment import (
    CampaignConfig,
    RunRecord,
    _write_guard_bundle,
    execute_run,
)
from repro.core.pipeline import CampaignJob, RunTask, TaskResult, run_pipeline
from repro.guard import GuardPolicy, Watchdog, WorkerHeartbeat, set_worker_heartbeat
from repro.parallel.executor import TaskOutcome, run_tasks
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.telemetry import (
    MemoryTraceWriter,
    MetricsRegistry,
    NULL_TRACE,
    Telemetry,
)
from repro.topology.dragonfly import DragonflyTopology

_CTX = None
_HB: WorkerHeartbeat | None = None


class _CampaignContext:
    """Everything a worker needs, shipped once via the pool initializer.

    Under the ``fork`` start method the context is inherited by memory
    image (never pickled), so it can hold live topologies, applications,
    and the scenario pool.  Constructing a context builds that pool, in
    the parent, so every worker shares the one build; create a context
    only when there are runs to fork for.
    """

    def __init__(self, job: CampaignJob) -> None:
        job.background.build()
        self.job = job
        self.trace_enabled = job.tel.trace.enabled
        self.metrics_enabled = job.tel.metrics.enabled
        self.heartbeat_dir: str | None = None
        self.modes = {m.name: m for m in job.cfg.modes}


def _init_worker(ctx: _CampaignContext) -> None:
    global _CTX, _HB
    _CTX = ctx
    _HB = None
    if ctx.heartbeat_dir is not None:
        # every guard tick inside the engines refreshes this file's
        # mtime; the parent's watchdog reads staleness as "hung"
        _HB = WorkerHeartbeat(ctx.heartbeat_dir)
        set_worker_heartbeat(_HB)


def _worker_telemetry(ctx: _CampaignContext) -> Telemetry:
    trace = MemoryTraceWriter() if ctx.trace_enabled else NULL_TRACE
    return Telemetry(
        trace=trace,
        metrics=MetricsRegistry(enabled=ctx.metrics_enabled),
        # the campaign's SeriesConfig, so workers sample like the parent
        series=ctx.job.tel.series,
    )


def _run_task(task: RunTask) -> TaskResult:
    ctx = _CTX
    job = ctx.job
    nodes, bg, intensity = job.background.draws(task.sample)
    tel = _worker_telemetry(ctx)
    if _HB is not None:
        _HB.start_task()
    try:
        rec = execute_run(
            job.top,
            job.run_top,
            job.cfg,
            task.sample,
            ctx.modes[task.mode],
            nodes,
            bg,
            intensity,
            tel,
        )
    finally:
        if _HB is not None:
            _HB.end_task()
    return TaskResult(
        index=task.index,
        worker=os.getpid(),
        record=rec,
        events=tel.trace.events if ctx.trace_enabled else [],
        metrics=tel.metrics if ctx.metrics_enabled else None,
    )


def _lost_run(
    job: CampaignJob, policy: GuardPolicy | None, outcome: TaskOutcome
) -> TaskResult:
    """A run whose worker process kept dying (crash or watchdog kill),
    isolated exactly like an in-run failure would be."""
    task = outcome.task
    rec = job.background.lost_record(
        task.sample, task.mode, outcome.error, outcome.attempts
    )
    label = f"{job.cfg.app.name}-{task.mode}-s{task.sample}"
    job.tel.event(
        "guard.worker_lost",
        label=label,
        sample=task.sample,
        mode=task.mode,
        attempts=outcome.attempts,
        error=str(outcome.error),
    )
    _write_guard_bundle(
        job.top, job.cfg, policy, None, None, label, task.sample, task.mode,
        outcome.attempts, outcome.error, job.tel,
    )
    return TaskResult(
        index=task.index, worker=os.getpid(), record=rec, attempts=outcome.attempts
    )


@dataclass
class PoolBackend:
    """Misses fanned over ``jobs`` forked worker processes.

    The parent builds the background pool just before it forks, so the
    workers inherit it.  With a ``hang_timeout`` guard the backend runs
    the heartbeat watchdog over the pool.  ``scramble_seed`` is a test
    hook: completions arrive in a deterministically shuffled order,
    which must not — and provably does not — change any output.
    """

    jobs: int
    max_retries: int = 2
    scramble_seed: int | None = None

    @property
    def start_fields(self) -> dict:
        return {"jobs": self.jobs}

    def run(self, job: CampaignJob, misses: list[RunTask]) -> Iterator[TaskResult]:
        if not misses:
            return  # nothing to fork for: no pool, no workers
        cfg, tel = job.cfg, job.tel
        policy = cfg.guard if (cfg.guard is not None and cfg.guard.active) else None
        ctx = _CampaignContext(job)
        watchdog = None
        if policy is not None and policy.hang_timeout is not None:
            ctx.heartbeat_dir = tempfile.mkdtemp(prefix="repro-hb-")
            # published so live observers (``repro-study top``) can find the
            # per-worker liveness files without being told the directory
            tel.event("campaign.workers", jobs=self.jobs, heartbeat_dir=ctx.heartbeat_dir)
            watchdog = Watchdog(
                ctx.heartbeat_dir,
                policy.hang_timeout,
                pid_provider=lambda: set(),  # run_tasks rebinds this per pool
                on_kill=lambda pid, age: tel.event(
                    "guard.worker_hung", pid=pid, stale_s=round(age, 3)
                ),
            )
        try:
            if watchdog is not None:
                watchdog.start()
            for outcome in run_tasks(
                misses,
                _run_task,
                jobs=self.jobs,
                initializer=_init_worker,
                initargs=(ctx,),
                max_retries=self.max_retries,
                scramble_seed=self.scramble_seed,
                watchdog=watchdog,
            ):
                yield outcome.result if outcome.ok else _lost_run(job, policy, outcome)
        finally:
            if watchdog is not None:
                watchdog.stop()
            if ctx.heartbeat_dir is not None:
                shutil.rmtree(ctx.heartbeat_dir, ignore_errors=True)


def run_campaign_parallel(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    jobs: int,
    background_model: BackgroundModel | None = None,
    scenarios: list[BackgroundScenario] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    scramble_seed: int | None = None,
    max_pool_retries: int = 2,
) -> list[RunRecord]:
    """``run_campaign`` on a :class:`PoolBackend` of ``jobs`` workers,
    whatever ``jobs`` is (``run_campaign`` picks this backend for
    jobs>1); ``scramble_seed`` and ``max_pool_retries`` go to it."""
    backend = PoolBackend(jobs, max_retries=max_pool_retries, scramble_seed=scramble_seed)
    return run_pipeline(
        top,
        cfg,
        backend,
        background_model=background_model,
        scenarios=scenarios,
        telemetry=telemetry,
        checkpoint_path=checkpoint_path,
        resume=resume,
    ).records
