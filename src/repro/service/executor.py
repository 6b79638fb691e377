"""Memoizing campaign executor (cache in front of every dispatch path).

:func:`run_campaign_cached` is the cache-aware twin of
:func:`repro.core.experiment.run_campaign`.  Before dispatching
anything it consults a :class:`~repro.service.store.RunRecordStore`
keyed by ``(campaign fingerprint, RNG key)``; hits are served from
disk, misses execute through exactly the machinery the uncached paths
use — the serial loop, the :mod:`repro.parallel` fork pool, or a
:mod:`repro.dist` shared-directory queue — and every fresh ``ok``
record is committed back to the store.

Equivalence contract: because each run is a pure function of its
content address, a warm campaign's records and checkpoint JSONL are
**byte-identical** to a cold serial run, while executing zero
simulation steps and building no background pool (the pool is built
only once a miss needs a draw).  The checkpoint keeps its canonical
(sample-major, mode-minor) order by committing the contiguous completed
prefix of the slot list, interleaving cache hits and fresh results
exactly where a serial loop would have written them.  Error-status records are never
cached: a failed run re-executes on the next request (the record it
produces is still deterministic).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core import checkpoint as ckpt
from repro.core.experiment import (
    CampaignBackground,
    CampaignConfig,
    RunRecord,
    _effective_jobs,
    _error_record,
    campaign_fingerprint,
    emit_campaign_end,
    emit_campaign_start,
    execute_run,
    prepare_checkpoint,
)
from repro.scheduler.background import BackgroundModel, BackgroundScenario
from repro.scheduler.placement import groups_spanned
from repro.service.store import RunRecordStore, entry_key
from repro.telemetry import MetricsRegistry, Telemetry, resolve_telemetry
from repro.topology.dragonfly import DragonflyTopology


@dataclass
class CacheOutcome:
    """What one cached campaign did: the records plus cache accounting."""

    records: list[RunRecord] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    resumed: int = 0

    @property
    def total(self) -> int:
        return len(self.records)


def run_campaign_cached(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    store: RunRecordStore,
    background_model: BackgroundModel | None = None,
    scenarios: list[BackgroundScenario] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    jobs: int | None = None,
    queue_dir: str | None = None,
    fallback_after: float = 10.0,
    poll: float = 0.2,
) -> CacheOutcome:
    """Run the campaign through the result cache; returns a
    :class:`CacheOutcome` whose ``records`` match ``run_campaign``.

    Dispatch of misses follows the same rules as ``run_campaign``:
    ``queue_dir`` fans them over a shared-directory work queue,
    ``jobs`` > 1 over the local fork pool, otherwise the serial loop.
    Cache hits never dispatch at all.
    """
    tel = resolve_telemetry(telemetry)
    run_top = top.with_faults(cfg.faults) if cfg.faults is not None else top
    done = prepare_checkpoint(checkpoint_path, top, cfg, resume)
    emit_campaign_start(tel, cfg, done, cache=str(store.root))
    # the pool is built only if a miss executes: a warm replay builds none
    background = CampaignBackground(top, cfg, background_model, scenarios)
    fp = campaign_fingerprint(top, cfg)
    mode_by_name = {m.name: m for m in cfg.modes}

    # canonical slot list: (sample-major, mode-minor), same as every
    # other executor — slot order IS checkpoint order
    runs: list[tuple[int, str]] = [
        (i, mode.name) for i in range(cfg.samples) for mode in cfg.modes
    ]
    total = len(runs)
    slots: list[RunRecord | None] = [None] * total
    #: "" (miss, awaiting execution), "resume" (already in the
    #: checkpoint file) or "hit" (from the store, needs appending)
    origin = [""] * total
    keys = [entry_key(fp, i, mode) for i, mode in runs]

    outcome = CacheOutcome()
    with store.pinned(keys):
        pending: list[tuple[int, int, str]] = []  # (slot index, sample, mode)
        for idx, (i, mode) in enumerate(runs):
            prior = done.get((i, mode))
            if prior is not None:
                slots[idx] = prior
                origin[idx] = "resume"
                outcome.resumed += 1
                continue
            cached = store.get(fp, i, mode)
            if cached is not None:
                slots[idx] = ckpt.record_from_dict(cached)
                origin[idx] = "hit"
                outcome.hits += 1
            else:
                pending.append((idx, i, mode))
        outcome.misses = len(pending)

        m = tel.metrics
        if m.enabled:
            if outcome.hits:
                m.counter("cache_hits_total", "runs served from the cache").inc(
                    outcome.hits
                )
            if outcome.misses:
                m.counter("cache_misses_total", "runs executed on a miss").inc(
                    outcome.misses
                )
        tel.event(
            "cache.lookup",
            hits=outcome.hits,
            misses=outcome.misses,
            resumed=outcome.resumed,
            total=total,
            store=str(store.root),
        )

        # ------------------------------------------------------------------
        # canonical-order commit of the contiguous completed prefix:
        # hits append exactly where the serial loop would have written
        # them, fresh results slot in as they arrive
        # ------------------------------------------------------------------
        buffered: dict[int, dict] = {}
        worker_ids: dict[object, int] = {}
        flush_pos = 0

        def _flush() -> None:
            nonlocal flush_pos
            while flush_pos < total:
                if slots[flush_pos] is None:
                    item = buffered.pop(flush_pos, None)
                    if item is None:
                        return
                    rec = item["record"]
                    slots[flush_pos] = rec
                    if checkpoint_path is not None:
                        ckpt.append_record(checkpoint_path, rec)
                    events = item.get("events") or []
                    if events:
                        wid = worker_ids.setdefault(
                            item.get("worker_key"), len(worker_ids)
                        )
                        for ev in events:
                            fields = {k: v for k, v in ev.items() if k != "ev"}
                            fields["worker"] = wid
                            fields["run_index"] = flush_pos
                            tel.trace.emit(ev["ev"], **fields)
                    metrics = item.get("metrics")
                    if metrics is not None and tel.metrics.enabled:
                        tel.metrics.merge(metrics, tag=flush_pos)
                elif origin[flush_pos] == "hit" and checkpoint_path is not None:
                    ckpt.append_record(checkpoint_path, slots[flush_pos])
                flush_pos += 1

        def _commit(idx: int, sample: int, mode: str, item: dict) -> None:
            rec = item["record"]
            if rec.ok:
                try:
                    store.put(fp, sample, mode, ckpt.record_to_dict(rec))
                except ckpt.StoreUnavailableError as exc:
                    # a full/broken cache disk degrades the store to a
                    # no-op: the run is already computed, the campaign
                    # (and its checkpoint) must not lose it
                    tel.event(
                        "cache.put_failed", sample=sample, mode=mode, error=str(exc)
                    )
            buffered[idx] = item
            _flush()

        _flush()  # leading hits (or a fully-warm campaign) commit now

        if pending and queue_dir is not None:
            _run_via_queue(
                top, run_top, cfg, background, tel, queue_dir, pending,
                jobs, _commit, fallback_after=fallback_after, poll=poll,
            )
        elif pending and _effective_jobs(jobs) > 1:
            _run_via_pool(
                top, run_top, cfg, background, tel, mode_by_name, pending,
                _effective_jobs(jobs), _commit,
            )
        elif pending:
            for idx, sample, mode in pending:
                nodes, bg, intensity = background.draws(sample)
                rec = execute_run(
                    top, run_top, cfg, sample, mode_by_name[mode],
                    nodes, bg, intensity, tel,
                )
                _commit(idx, sample, mode, {"record": rec})

        _flush()

    outcome.records = [rec for rec in slots if rec is not None]
    emit_campaign_end(tel, cfg, outcome.records)
    return outcome


def _run_via_pool(
    top: DragonflyTopology,
    run_top: DragonflyTopology,
    cfg: CampaignConfig,
    background: CampaignBackground,
    tel: Telemetry,
    mode_by_name: dict,
    pending: list[tuple[int, int, str]],
    jobs: int,
    commit,
) -> None:
    """Fan misses over the local fork pool (the PR 3 machinery)."""
    from repro.parallel.campaign import _CampaignContext, _init_worker, _run_task
    from repro.parallel.executor import run_tasks
    from repro.parallel.spec import RunTask

    by_index = {idx: (sample, mode) for idx, sample, mode in pending}
    tasks = [
        RunTask(index=idx, sample=sample, mode=mode)
        for idx, sample, mode in pending
    ]
    ctx = _CampaignContext(
        top,
        run_top,
        cfg,
        background,
        trace_enabled=tel.trace.enabled,
        metrics_enabled=tel.metrics.enabled,
        series=tel.series,
    )
    for out in run_tasks(
        tasks, _run_task, jobs=jobs, initializer=_init_worker, initargs=(ctx,)
    ):
        task = out.task
        sample, mode = by_index[task.index]
        if out.ok:
            tr = out.result
            item = {
                "record": tr.record,
                "events": tr.events,
                "metrics": tr.metrics,
                "worker_key": tr.pid,
            }
        else:
            # worker process died repeatedly on this run: isolate it,
            # exactly like the uncached parallel path does
            nodes, _, intensity = background.draws(sample)
            rec = _error_record(
                cfg,
                mode_by_name[mode],
                sample,
                groups_spanned(top, nodes),
                intensity,
                out.error,
                out.attempts,
            )
            tel.event(
                "guard.worker_lost",
                label=f"{cfg.app.name}-{mode}-s{sample}",
                sample=sample,
                mode=mode,
                attempts=out.attempts,
                error=str(out.error),
            )
            item = {"record": rec, "worker_key": os.getpid()}
        commit(task.index, sample, mode, item)


def _run_via_queue(
    top: DragonflyTopology,
    run_top: DragonflyTopology,
    cfg: CampaignConfig,
    background: CampaignBackground,
    tel: Telemetry,
    queue_dir: str,
    pending: list[tuple[int, int, str]],
    jobs: int | None,
    commit,
    *,
    fallback_after: float,
    poll: float,
) -> None:
    """Fan misses over a shared-directory work queue (the PR 8 machinery).

    Only the cache misses are materialized as queue tasks; a mostly-warm
    campaign puts almost nothing on the fleet.
    """
    from repro.dist.coordinator import DistDispatcher
    from repro.dist.queue import QueueTask, WorkQueue, task_id

    fp = campaign_fingerprint(top, cfg)
    qtasks = [
        QueueTask(tid=task_id(fp, sample, mode), index=idx, sample=sample, mode=mode)
        for idx, sample, mode in pending
    ]
    by_index = {idx: (sample, mode) for idx, sample, mode in pending}
    queue = WorkQueue(queue_dir)
    dispatcher = DistDispatcher(
        top, run_top, cfg, background, tel, queue, qtasks,
        jobs=jobs, fallback_after=fallback_after, poll=poll,
    )
    for task, payload in dispatcher.run():
        sample, mode = by_index[task.index]
        wire = payload.get("metrics")
        commit(
            task.index,
            sample,
            mode,
            {
                "record": ckpt.record_from_dict(payload["record"]),
                "events": payload.get("events"),
                "metrics": MetricsRegistry.from_wire(wire) if wire else None,
                "worker_key": str(payload.get("worker", "?")),
            },
        )
