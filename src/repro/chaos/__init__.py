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

from repro.chaos.failpoints import (
    SITES,
    UnknownFailpointError,
    activate,
    activate_from_env,
    active,
    current,
    deactivate,
    failpoint,
    is_active,
)
from repro.chaos.schedule import (
    ACTIONS,
    CRASH_EXIT_CODE,
    ChaosRule,
    ChaosSchedule,
    ChaosSpecError,
)

# NOTE: repro.chaos.runner is deliberately NOT imported here — it
# depends on repro.core.experiment, which (via checkpoint ->
# util.durable -> chaos.failpoints) imports this package; importing it
# at module level would be a cycle.

__all__ = [
    "ACTIONS",
    "CRASH_EXIT_CODE",
    "ChaosRule",
    "ChaosSchedule",
    "ChaosSpecError",
    "SITES",
    "UnknownFailpointError",
    "activate",
    "activate_from_env",
    "active",
    "current",
    "deactivate",
    "failpoint",
    "is_active",
]
