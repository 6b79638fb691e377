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
  are order-independent.
"""

from repro.core.pipeline import RunTask, TaskResult
from repro.parallel.campaign import run_campaign_parallel
from repro.parallel.ensembles import run_ensembles
from repro.parallel.executor import TaskOutcome, run_tasks

__all__ = [
    "RunTask",
    "TaskOutcome",
    "TaskResult",
    "run_campaign_parallel",
    "run_ensembles",
    "run_tasks",
]
