"""Memoizing campaigns: the result store as a filter in front of any backend.

:func:`run_campaign_cached` is :func:`repro.core.experiment.run_campaign`
with a :class:`StoreFilter` between the pipeline's planner and its
backend (:mod:`repro.core.pipeline`).  The planner asks the filter for
every slot not already in the checkpoint, keyed by ``(campaign
fingerprint, RNG key)`` in a :class:`~repro.service.store.RunRecordStore`;
hits are served from disk, misses execute on whichever backend the
usual rule picks — inline, the fork pool, or the shared-directory queue
— and every fresh ``ok`` record is committed back to the store before
its checkpoint line is written.  Store and checkpoint hold the same
line, encoded once where the run executed; a hit is decoded once and its
stored bytes are appended to the checkpoint as they are.

Equivalence contract: because each run is a pure function of its
content address, a warm campaign's records and checkpoint JSONL are
**byte-identical** to a cold serial run, while executing zero
simulation steps and building no background pool (the pool is built
only once a miss needs a draw).  The pipeline's merger appends cache
hits and fresh results exactly where a serial loop would have written
them.  Error-status records are never cached: a failed run re-executes
on the next request (the record it produces is still deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import checkpoint as ckpt
from repro.core.experiment import CampaignConfig, RunRecord, campaign_fingerprint
from repro.core.pipeline import RESUME, Plan, run_pipeline, select_backend
from repro.service.store import RunRecordStore, entry_key
from repro.telemetry import Telemetry
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


class StoreFilter:
    """The pipeline's cache filter over one campaign's store entries."""

    def __init__(self, store: RunRecordStore, fingerprint: dict) -> None:
        self.store = store
        self.fingerprint = fingerprint
        self.start_fields = {"cache": str(store.root)}
        self.hits = 0
        self.misses = 0

    def lookup(self, sample: int, mode: str) -> tuple[RunRecord, str] | None:
        cached = self.store.get(self.fingerprint, sample, mode)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        return ckpt.record_from_dict(cached), cached.line

    def announce(self, tel: Telemetry, plan: Plan) -> None:
        m = tel.metrics
        if m.enabled:
            if self.hits:
                m.counter("cache_hits_total", "runs served from the cache").inc(self.hits)
            if self.misses:
                m.counter("cache_misses_total", "runs executed on a miss").inc(self.misses)
        tel.event(
            "cache.lookup",
            hits=self.hits,
            misses=self.misses,
            resumed=plan.count(RESUME),
            total=len(plan.slots),
            store=str(self.store.root),
        )

    def put(self, tel: Telemetry, rec: RunRecord, line: str) -> None:
        if not rec.ok:
            return
        try:
            self.store.put(self.fingerprint, rec.sample_index, rec.mode, line)
        except ckpt.StoreUnavailableError as exc:
            # a full/broken cache disk degrades the store to a no-op: the
            # run is already computed, the campaign (and its checkpoint)
            # must not lose it
            tel.event(
                "cache.put_failed", sample=rec.sample_index, mode=rec.mode, error=str(exc)
            )


def run_campaign_cached(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    store: RunRecordStore,
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

    Misses are dispatched by the same rule as ``run_campaign``:
    ``queue_dir`` fans them over a shared-directory work queue, ``jobs``
    > 1 over the local fork pool, otherwise inline.  Cache hits never
    dispatch at all.
    """
    fp = campaign_fingerprint(top, cfg)
    cache = StoreFilter(store, fp)
    keys = [entry_key(fp, i, m.name) for i in range(cfg.samples) for m in cfg.modes]
    with store.pinned(keys):
        plan = run_pipeline(
            top,
            cfg,
            select_backend(jobs, queue_dir, fallback_after=fallback_after, poll=poll),
            cache=cache,
            telemetry=telemetry,
            checkpoint_path=checkpoint_path,
            resume=resume,
        )
    return CacheOutcome(
        records=plan.records,
        hits=cache.hits,
        misses=cache.misses,
        resumed=plan.count(RESUME),
    )
