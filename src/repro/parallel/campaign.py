"""Parallel campaign execution with serial-equivalent results.

:func:`run_campaign_parallel` fans a campaign's runs over worker
processes and produces output **byte-identical** to
:func:`repro.core.experiment.run_campaign` with ``jobs=1``:

* Every run's RNG stream is re-derived in the worker from the same
  ``(seed, app, size, sample, mode)`` key the serial loop uses — no
  state is threaded between runs, so worker count and completion order
  cannot influence a single draw (see ``docs/PARALLEL.md``).
* Results are buffered and finalized in the canonical (sample-major,
  mode-minor) order: checkpoint records are appended, worker trace
  events forwarded, and worker metrics merged only for the contiguous
  completed prefix.  The checkpoint file is therefore always a clean,
  resumable prefix of the serial file — including after Ctrl-C — and
  its final bytes are identical for any ``jobs``.
* A run that raises inside the worker becomes an error-status record
  (same isolation as serial); a run whose worker process *dies* is
  retried on a rebuilt pool a bounded number of times, then isolated
  into an error-status record as well.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict

from repro.core import checkpoint as ckpt
from repro.core.experiment import (
    CampaignBackground,
    CampaignConfig,
    RunRecord,
    _error_record,
    campaign_fingerprint,
    emit_campaign_end,
    emit_campaign_start,
    execute_run,
    prepare_checkpoint,
)
from repro.guard import Watchdog, WorkerHeartbeat, set_worker_heartbeat, write_bundle
from repro.parallel.executor import run_tasks
from repro.parallel.spec import RunTask, TaskResult
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.scheduler.placement import groups_spanned
from repro.telemetry import (
    MemoryTraceWriter,
    MetricsRegistry,
    NULL_TRACE,
    Telemetry,
    resolve_telemetry,
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

    def __init__(
        self,
        top: DragonflyTopology,
        run_top: DragonflyTopology,
        cfg: CampaignConfig,
        background: CampaignBackground,
        trace_enabled: bool,
        metrics_enabled: bool,
        series=None,
        heartbeat_dir: str | None = None,
    ) -> None:
        background.build()
        self.top = top
        self.run_top = run_top
        self.cfg = cfg
        self.background = background
        self.trace_enabled = trace_enabled
        self.metrics_enabled = metrics_enabled
        #: SeriesConfig propagated to every worker's telemetry bundle
        self.series = series
        self.heartbeat_dir = heartbeat_dir
        self.modes = {m.name: m for m in cfg.modes}


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
        series=ctx.series,
    )


def _run_task(task: RunTask) -> TaskResult:
    ctx = _CTX
    nodes, bg, intensity = ctx.background.draws(task.sample)
    tel = _worker_telemetry(ctx)
    if _HB is not None:
        _HB.start_task()
    try:
        rec = execute_run(
            ctx.top,
            ctx.run_top,
            ctx.cfg,
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
        pid=os.getpid(),
        record=rec,
        events=tel.trace.events if ctx.trace_enabled else [],
        metrics=tel.metrics if ctx.metrics_enabled else None,
    )


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
    """Parallel twin of ``run_campaign`` (which delegates here for jobs>1).

    ``scramble_seed`` is a test hook: it makes the dispatcher deliver
    completions in a deterministically shuffled order, which must not —
    and provably does not — change any output.
    """
    run_top = top.with_faults(cfg.faults) if cfg.faults is not None else top
    done = prepare_checkpoint(checkpoint_path, top, cfg, resume)
    tel = resolve_telemetry(telemetry)
    emit_campaign_start(tel, cfg, done, jobs=jobs)
    background = CampaignBackground(top, cfg, background_model, scenarios)

    mode_by_name = {m.name: m for m in cfg.modes}
    slots: list[RunRecord | None] = []
    tasks: list[RunTask] = []
    for i in range(cfg.samples):
        for mode in cfg.modes:
            idx = len(slots)
            prior = done.get((i, mode.name))
            slots.append(prior)
            if prior is None:
                tasks.append(RunTask(index=idx, sample=i, mode=mode.name))

    buffered: dict[int, TaskResult] = {}
    worker_ids: dict[int, int] = {}
    flush_pos = 0

    def _finalize_ready() -> None:
        """Commit the contiguous completed prefix, in canonical order."""
        nonlocal flush_pos
        while flush_pos < len(tasks):
            tr = buffered.pop(tasks[flush_pos].index, None)
            if tr is None:
                return
            rec = tr.record
            slots[tr.index] = rec
            if checkpoint_path is not None:
                ckpt.append_record(checkpoint_path, rec)
            if tr.events:
                wid = worker_ids.setdefault(tr.pid, len(worker_ids))
                for ev in tr.events:
                    fields = {k: v for k, v in ev.items() if k != "ev"}
                    fields["worker"] = wid
                    fields["run_index"] = tr.index
                    tel.trace.emit(ev["ev"], **fields)
            if tr.metrics is not None:
                tel.metrics.merge(tr.metrics, tag=tr.index)
            flush_pos += 1

    guard_policy = cfg.guard if (cfg.guard is not None and cfg.guard.active) else None
    if tasks:
        # built before any fork: the workers inherit the parent's pool
        ctx = _CampaignContext(
            top,
            run_top,
            cfg,
            background,
            trace_enabled=tel.trace.enabled,
            metrics_enabled=tel.metrics.enabled,
            series=tel.series,
        )
        watchdog = None
        if guard_policy is not None and guard_policy.hang_timeout is not None:
            ctx.heartbeat_dir = tempfile.mkdtemp(prefix="repro-hb-")
            # published so live observers (``repro-study top``) can find the
            # per-worker liveness files without being told the directory
            tel.event("campaign.workers", jobs=jobs, heartbeat_dir=ctx.heartbeat_dir)
            watchdog = Watchdog(
                ctx.heartbeat_dir,
                guard_policy.hang_timeout,
                pid_provider=lambda: set(),  # run_tasks rebinds this per pool
                on_kill=lambda pid, age: tel.event(
                    "guard.worker_hung", pid=pid, stale_s=round(age, 3)
                ),
            )
        try:
            if watchdog is not None:
                watchdog.start()
            for outcome in run_tasks(
                tasks,
                _run_task,
                jobs=jobs,
                initializer=_init_worker,
                initargs=(ctx,),
                max_retries=max_pool_retries,
                scramble_seed=scramble_seed,
                watchdog=watchdog,
            ):
                task = outcome.task
                if outcome.ok:
                    buffered[task.index] = outcome.result
                else:
                    # the worker process died repeatedly on this run (crash
                    # or watchdog kill): isolate it exactly like an in-run
                    # failure would be
                    nodes, _, intensity = background.draws(task.sample)
                    rec = _error_record(
                        cfg,
                        mode_by_name[task.mode],
                        task.sample,
                        groups_spanned(top, nodes),
                        intensity,
                        outcome.error,
                        outcome.attempts,
                    )
                    label = f"{cfg.app.name}-{task.mode}-s{task.sample}"
                    tel.event(
                        "guard.worker_lost",
                        label=label,
                        sample=task.sample,
                        mode=task.mode,
                        attempts=outcome.attempts,
                        error=str(outcome.error),
                    )
                    if guard_policy is not None and guard_policy.bundle_dir is not None:
                        path = write_bundle(
                            guard_policy.bundle_dir,
                            label=label,
                            reason={
                                "type": type(outcome.error).__name__,
                                "message": str(outcome.error),
                            },
                            fingerprint=campaign_fingerprint(top, cfg),
                            rng_key={
                                "seed": cfg.seed,
                                "app": cfg.app.name,
                                "n_nodes": cfg.n_nodes,
                                "sample": task.sample,
                                "mode": task.mode,
                                "attempt": outcome.attempts,
                            },
                            policy=asdict(guard_policy),
                        )
                        if path is not None:
                            tel.event("guard.bundle", label=label, path=str(path))
                    buffered[task.index] = TaskResult(
                        index=task.index, pid=os.getpid(), record=rec
                    )
                _finalize_ready()
        finally:
            if watchdog is not None:
                watchdog.stop()
            if ctx.heartbeat_dir is not None:
                shutil.rmtree(ctx.heartbeat_dir, ignore_errors=True)

    records = [rec for rec in slots if rec is not None]
    emit_campaign_end(tel, cfg, records)
    return records
