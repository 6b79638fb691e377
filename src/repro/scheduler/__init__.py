"""Job placement, production workload mix, and background traffic.

The paper's production/isolated/controlled distinction is entirely about
*who else* loads the shared links and *where* a job's nodes land:

* :mod:`~repro.scheduler.placement` — compact, dispersed, random, and
  production-fragmented placements, plus span metrics (groups spanned);
* :mod:`~repro.scheduler.workload` — the Theta job-size/core-hour mix
  behind Fig. 1 and the facility studies;
* :mod:`~repro.scheduler.jobs` — job records and core-hour accounting;
* :mod:`~repro.scheduler.background` — synthesizes the ambient link
  utilization field a target job experiences in production, by sampling
  a co-running job mix, assigning each job a traffic archetype, and
  routing it with the system-default mode through the fluid engine.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".placement": "compact_placement dispersed_placement random_placement "
    "production_placement make_placement groups_spanned FreeNodePool",
    ".workload": "WorkloadModel JobSizeMix",
    ".jobs": "Job JobLog",
    ".background": "BackgroundModel BackgroundScenario",
    ".simulator": "BatchScheduler ScheduleTrace ScheduledJob",
})
