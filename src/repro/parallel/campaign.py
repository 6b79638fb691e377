"""The fork-pool backend of the pipeline.

:class:`PoolBackend` fans a campaign's runs over worker processes and
produces output **byte-identical** to :func:`repro.core.experiment.run_campaign`
with ``jobs=1``:

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

:class:`PoolBackend` is the one fork pool: ``run_campaign(jobs=N)``, the
cache's misses under ``--cache -j N``, the queue coordinator's local
fallback, and ``ensemble --workers N``.  Its workers run whatever job
they inherit (:class:`repro.core.pipeline.Job`) through
:func:`repro.core.pipeline.run_task`, the task body queue workers share.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Iterator

from repro.core.pipeline import Job, RunTask, TaskResult, run_task
from repro.guard import Watchdog, WorkerHeartbeat, set_worker_heartbeat
from repro.parallel.executor import run_tasks

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
    """The one fork-pool worker entry: ``task`` on the inherited job."""
    return run_task(_JOB, task, heartbeat=_HB)


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

