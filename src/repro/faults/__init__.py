"""Fault injection and degraded-network operation.

Production dragonflies run with failed rank-3 cables, lane-degraded
optics, and quiesced routers; this subpackage models those states
(:class:`FaultSpec` / :class:`FaultSchedule`) and defines the typed
error (:class:`NetworkPartitionedError`) the path layer raises when a
flow has no surviving route.  See ``docs/FAULTS.md`` for the schema,
the degraded-capacity semantics, and the CLI mini-language.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".errors": "FaultSpecError NetworkPartitionedError",
    ".model": "NO_FAULTS FaultSchedule FaultSpec",
})
