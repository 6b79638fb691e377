"""repro — reproduction of "Performance Evaluation of Adaptive Routing on
Dragonfly-based Production Systems" (Chunduri et al., IPDPS 2021).

The package simulates Cray Aries dragonfly systems (ALCF Theta, NERSC
Cori) well enough to study the paper's subject: the four adaptive
routing bias modes AD0..AD3 and their effect on production application
performance, system-wide congestion counters, and packet latency.

Quickstart::

    import numpy as np
    from repro import theta, MILC, CampaignConfig, run_campaign, stats_by_mode

    top = theta()
    records = run_campaign(top, CampaignConfig(app=MILC(), samples=10))
    print(stats_by_mode(records))

Layout:

* :mod:`repro.topology` — the Aries dragonfly structure (Theta/Cori),
* :mod:`repro.network` — fluid and packet-level congestion engines,
  tile counters,
* :mod:`repro.mpi` — collective algorithms, phases, routing-mode env,
  an imperative sim-MPI,
* :mod:`repro.apps` — MILC, Nek5000, HACC, Qbox, Rayleigh workload
  models (+ synthetic microbenchmarks),
* :mod:`repro.scheduler` — placement, production workload mix,
  background noise,
* :mod:`repro.monitoring` — AutoPerf, LDMS, NIC latency counters,
* :mod:`repro.core` — routing biases/policy, experiment harness,
  ensembles, facility studies, metrics/analysis, the routing advisor.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.biases": "AD0 AD1 AD2 AD3 RoutingMode VENDOR_MODES mode_by_name",
    ".core.experiment": "CampaignConfig RunRecord run_app_once run_campaign stats_by_mode",
    ".core.ensembles": "EnsembleConfig run_ensemble",
    ".core.facility": "run_default_change_study",
    ".core.advisor": "recommend",
    ".guard": "GuardPolicy InvariantViolation RunTimeoutError",
    ".apps": "MILC MILCReorder Nek5000 HACC Qbox Rayleigh",
    ".mpi.env": "RoutingEnv",
    ".topology.systems": "theta cori mini toy",
})
__all__.append("__version__")
