"""Campaign-as-a-service: content-addressed memoization + HTTP front-end.

Three layers, each usable on its own (see ``docs/SERVICE.md``):

* :mod:`repro.service.store` — a durable, content-addressed
  :class:`RunRecordStore` keyed by ``(campaign fingerprint, RNG key)``,
  with crash-atomic commits, per-entry integrity hashes, corrupted-entry
  quarantine, and LRU size-bounded eviction.
* :mod:`repro.service.executor` — :func:`run_campaign_cached`, the
  memoizing :func:`repro.core.experiment.run_campaign`: the store is a
  filter in front of the campaign pipeline's backend, so cache hits are
  served from disk, misses run inline, on the fork pool or on the
  shared-directory queue, and cached and fresh campaigns are
  byte-identical.
* :mod:`repro.service.http` — a threaded stdlib HTTP/JSON service
  accepting campaign submissions, deduping identical concurrent
  requests into one execution, and streaming live progress events.
  With a journal directory (:mod:`repro.service.journal`) it re-adopts
  in-flight campaigns after a crash or restart, and drains gracefully
  on SIGTERM (see ``docs/CHAOS.md``).
"""

from repro.core.checkpoint import StoreUnavailableError
from repro.service.executor import CacheOutcome, run_campaign_cached
from repro.service.http import CampaignService, ServiceDraining
from repro.service.journal import JobJournal
from repro.service.store import CacheStats, RunRecordStore, entry_key

__all__ = [
    "CacheOutcome",
    "CacheStats",
    "CampaignService",
    "JobJournal",
    "RunRecordStore",
    "ServiceDraining",
    "StoreUnavailableError",
    "entry_key",
    "run_campaign_cached",
]
