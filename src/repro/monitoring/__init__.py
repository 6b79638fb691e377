"""Monitoring substrates: AutoPerf, LDMS, and NIC latency counters.

The paper collects metrics with two tools, both modeled here with the
same report semantics:

* **AutoPerf** (:mod:`~repro.monitoring.autoperf`) — a PMPI intercept
  library reporting, per MPI interface, the call count, average bytes,
  and total wall-clock time, plus the Aries router-tile counters of the
  routers the job's nodes attach to (a *local* view).
* **LDMS** (:mod:`~repro.monitoring.ldms`) — a node-level service
  sampling every router's counters on a periodic (1-minute) cadence, the
  *global* view behind Figs. 10-13.
* **NIC latency counters** (:mod:`~repro.monitoring.nic`) — the two
  cumulative Aries NIC counters (summed request-response latency and
  response count) whose quotient gives mean packet-pair latency, used for
  the system-wide percentile study of Fig. 14.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".autoperf": "AutoPerf AutoPerfReport MpiOpRecord",
    ".ldms": "LdmsCollector LdmsSample",
    ".nic": "NicLatencyCounters",
    ".export": "autoperf_to_dict autoperf_to_json counters_to_csv ldms_series_to_csv "
    "records_to_csv series_to_csv",
})
