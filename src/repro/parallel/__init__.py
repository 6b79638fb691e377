"""Parallel execution subsystem: deterministic fan-out of runs.

Campaigns, sweeps, ensembles, and calibration scoring are all lists of
*independent* computations whose RNG streams are derived from stable
keys (never threaded state), so they can be executed on a process pool
with results **byte-identical to serial execution** regardless of
worker count or completion order.  ``docs/PARALLEL.md`` states the full
determinism contract; the short version:

* per-run streams come from ``SeedSequence``-based derivation
  (:func:`repro.util.seed_sequence_for`) keyed by run identity;
* the campaign pipeline's merger (:mod:`repro.core.pipeline`) commits
  results in canonical order, so checkpoint files and merged telemetry
  are order-independent;
* topology and path tables are memoized behind read-only LRU caches
  (:mod:`repro.parallel.cache`, :mod:`repro.topology.pathcache`).
"""

from repro.core.pipeline import RunTask, TaskResult
from repro.parallel.cache import (
    cached_faulted_view,
    cached_topology,
    clear_topology_cache,
    freeze_topology_arrays,
    topology_cache_stats,
)
from repro.parallel.campaign import run_campaign_parallel
from repro.parallel.ensembles import run_ensembles
from repro.parallel.executor import TaskOutcome, run_tasks
from repro.parallel.spec import TopologySpec
from repro.topology.pathcache import (
    cached_minimal_paths,
    cached_valiant_paths,
    clear_path_cache,
    path_cache_stats,
    topology_fingerprint,
)

__all__ = [
    "RunTask",
    "TaskOutcome",
    "TaskResult",
    "TopologySpec",
    "cached_faulted_view",
    "cached_minimal_paths",
    "cached_topology",
    "cached_valiant_paths",
    "clear_path_cache",
    "clear_topology_cache",
    "freeze_topology_arrays",
    "path_cache_stats",
    "run_campaign_parallel",
    "run_ensembles",
    "run_tasks",
    "topology_cache_stats",
    "topology_fingerprint",
]
