"""Deterministic failure injection for the durability layers.

``repro.chaos`` turns the platform's one-off kill tests into a
systematic harness: named failpoints in every durability-critical code
path (:mod:`~repro.chaos.failpoints`), the commit-window ones fired
from the one durable-write module every commit protocol shares
(:mod:`repro.util.durable`); seeded schedules that decide per-hit
whether to error/tear/crash/delay (:mod:`~repro.chaos.schedule`); and
a soak runner executing real campaigns under a schedule while
asserting the standing invariants (:mod:`~repro.chaos.runner` —
imported lazily; it pulls in the campaign engine).  See
``docs/CHAOS.md``.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".failpoints": "SITES UnknownFailpointError activate activate_from_env active "
    "current deactivate failpoint is_active",
    ".schedule": "ACTIONS CRASH_EXIT_CODE ChaosRule ChaosSchedule ChaosSpecError",
})
