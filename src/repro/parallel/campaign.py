"""The fork-pool backend of the pipeline.

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

:class:`PoolBackend` is the one fork pool: ``-j N`` campaigns, the
cache's misses under ``--cache -j N``, the queue coordinator's local
fallback, and ``ensemble --workers N``.  Its workers run whatever job
they inherit (:class:`repro.core.pipeline.Job`).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Iterator

from repro.core.experiment import CampaignConfig, RunRecord
from repro.core.pipeline import Job, RunTask, TaskResult, run_pipeline
from repro.guard import Watchdog, WorkerHeartbeat, set_worker_heartbeat
from repro.parallel.executor import run_tasks
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.telemetry import (
    MemoryTraceWriter,
    MetricsRegistry,
    NULL_TRACE,
    Telemetry,
)
from repro.topology.dragonfly import DragonflyTopology

#: the job a worker runs, inherited by memory image under ``fork``
#: (never pickled), so it can hold live topologies and the scenario pool
_JOB: Job | None = None
_HB: WorkerHeartbeat | None = None


def _init_worker(job: Job, heartbeat_dir: str | None) -> None:
    global _JOB, _HB
    _JOB = job
    _HB = None
    if heartbeat_dir is not None:
        # every guard tick inside the engines refreshes this file's
        # mtime; the parent's watchdog reads staleness as "hung"
        _HB = WorkerHeartbeat(heartbeat_dir)
        set_worker_heartbeat(_HB)


def _run_task(task: RunTask) -> TaskResult:
    """The one fork-pool worker entry: run ``task`` on the inherited job
    under a private telemetry whose events and metrics go back to the
    parent's merger, with the result's line encoded here."""
    job = _JOB
    trace_enabled, metrics_enabled = job.tel.trace.enabled, job.tel.metrics.enabled
    tel = Telemetry(
        trace=MemoryTraceWriter() if trace_enabled else NULL_TRACE,
        metrics=MetricsRegistry(enabled=metrics_enabled),
        # the job's SeriesConfig, so workers sample like the parent
        series=job.tel.series,
    )
    if _HB is not None:
        _HB.start_task()
    try:
        rec = job.execute(task, tel)
    finally:
        if _HB is not None:
            _HB.end_task()
    return TaskResult(
        index=task.index,
        worker=os.getpid(),
        record=rec,
        line=job.encode(rec),
        events=tel.trace.events if trace_enabled else [],
        metrics=tel.metrics if metrics_enabled else None,
    )


@dataclass
class PoolBackend:
    """Misses fanned over ``jobs`` forked worker processes.

    The parent calls ``job.prepare()`` just before it forks, so the
    workers inherit what it builds (a campaign's background pool).  With a ``hang_timeout`` guard the backend runs
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

    def run(self, job: Job, misses: list[RunTask]) -> Iterator[TaskResult]:
        if not misses:
            return  # nothing to fork for: no pool, no workers
        tel, policy = job.tel, job.guard
        job.prepare()
        heartbeat_dir = watchdog = None
        if policy is not None and policy.hang_timeout is not None:
            heartbeat_dir = tempfile.mkdtemp(prefix="repro-hb-")
            # published so live observers (``repro-study top``) can find the
            # per-worker liveness files without being told the directory
            tel.event("campaign.workers", jobs=self.jobs, heartbeat_dir=heartbeat_dir)
            watchdog = Watchdog(
                heartbeat_dir,
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
                initargs=(job, heartbeat_dir),
                max_retries=self.max_retries,
                scramble_seed=self.scramble_seed,
                watchdog=watchdog,
            ):
                if outcome.ok:
                    yield outcome.result
                else:
                    rec = job.lost(outcome)
                    yield TaskResult(
                        index=outcome.task.index,
                        worker=os.getpid(),
                        record=rec,
                        line=job.encode(rec),
                        attempts=outcome.attempts,
                    )
        finally:
            if watchdog is not None:
                watchdog.stop()
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)


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
