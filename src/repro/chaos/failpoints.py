"""The failpoint registry: named injection sites in the durability paths.

A *failpoint* is a named call site inside a durability-critical code
path — the instant before a cache entry's rename, the append of a
checkpoint line, the O_EXCL open that claims a queue lease.  With no
schedule active, :func:`failpoint` is a single attribute load and a
``return`` — a strict no-op, enforced byte-for-byte by the golden test
in ``tests/test_chaos.py``.  With a :class:`~repro.chaos.schedule.
ChaosSchedule` activated, each hit is counted and the schedule decides
deterministically (from its seed and the hit index) whether to raise
``OSError``, tear the in-flight file, crash the process, or inject
latency — see ``docs/CHAOS.md``.

Activation is process-global on purpose: fork-pool workers and forked
soak children inherit the active schedule, and subprocess workers pick
it up from the environment (:func:`activate_from_env`, called by the
CLI), so one ``REPRO_CHAOS`` spec perturbs every layer of a campaign.

Every site must be declared in :data:`SITES` before it can be wired in;
the registry-completeness meta-test fails when a site ships without a
chaos test exercising it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (schedule imports us)
    from repro.chaos.schedule import ChaosSchedule

#: every registered injection site: name -> where it fires.
#: tests/test_chaos.py::test_every_site_has_a_chaos_test keeps this
#: catalog and the per-site test table in lockstep.
SITES: dict[str, str] = {
    "store.commit.post_tmp": (
        "RunRecordStore.put/put_slot, after the entry's tmp file is written but "
        "before it is fsynced (torn-write window)"
    ),
    "store.commit.pre_rename": (
        "RunRecordStore.put/put_slot, after fsync but before os.replace publishes "
        "the entry (crash leaves only invisible scratch)"
    ),
    "store.get.read": (
        "RunRecordStore.get/get_slot, before the entry file is read (an EIO here "
        "must degrade to a cache miss)"
    ),
    "checkpoint.append": (
        "checkpoint.append_record, before one record line is appended "
        "(torn appends are what repair_tail exists for)"
    ),
    "checkpoint.rewrite": (
        "checkpoint.rewrite (and so write_header), after the new file is "
        "fsynced but before os.replace swaps it in (the old file survives)"
    ),
    "queue.lease.claim": (
        "WorkQueue claim path, before the O_EXCL open that arbitrates a "
        "lease"
    ),
    "queue.lease.renew": (
        "WorkQueue.renew, before the lease file is re-stamped (a renewal "
        "outage must not kill the run)"
    ),
    "queue.commit.post_tmp": (
        "WorkQueue.commit_result, after the result payload is written to "
        "scratch but before fsync"
    ),
    "queue.commit.link": (
        "WorkQueue.commit_result, before the os.link that publishes the "
        "result (first-commit-wins gate)"
    ),
    "worker.heartbeat": (
        "DistWorker, at the start of each task execution where the "
        "liveness heartbeat is stamped (heartbeat loss is advisory)"
    ),
    "service.job.dispatch": (
        "CampaignService job thread, before the campaign executor is "
        "invoked for a submitted job"
    ),
    "service.journal.append": (
        "JobJournal.record, while the job's journal entry is being "
        "committed (journal loss degrades recovery, never availability)"
    ),
}


class UnknownFailpointError(ValueError):
    """A failpoint fired (or a rule targeted) a site not in :data:`SITES`."""


#: the active schedule, or None (the zero-cost default)
_active: "ChaosSchedule | None" = None


def failpoint(site: str, *, path=None, data: str | None = None) -> None:
    """Declare one injection site hit.

    With no active schedule this returns immediately.  ``path`` names
    the file in flight at this site (the torn-write target and the
    ``filename`` of injected ``OSError``); ``data`` is the payload being
    written, used to build a realistic half-written file.

    May raise ``OSError`` (ENOSPC/EIO), sleep, or terminate the process
    — exactly what the schedule's matching rule says, nothing else.
    """
    if _active is None:
        return
    _active.hit(site, path=path, data=data)


def is_active() -> bool:
    """True when a schedule is currently installed."""
    return _active is not None


def current() -> "ChaosSchedule | None":
    """The installed schedule (for fired-log inspection), or None."""
    return _active


def activate(schedule: "ChaosSchedule") -> None:
    """Install ``schedule`` process-wide (forked children inherit it)."""
    for rule in schedule.rules:
        rule.check_registered(SITES)
    global _active
    _active = schedule


def deactivate() -> None:
    """Remove any installed schedule; failpoints go back to no-ops."""
    global _active
    _active = None


@contextmanager
def active(schedule: "ChaosSchedule") -> Iterator["ChaosSchedule"]:
    """Scoped activation for tests: install, yield, always deactivate."""
    activate(schedule)
    try:
        yield schedule
    finally:
        deactivate()


#: environment variables the CLI uses to thread a schedule into
#: subprocess workers and services (``repro worker``, ``repro serve``)
ENV_SPEC = "REPRO_CHAOS"
ENV_SEED = "REPRO_CHAOS_SEED"
ENV_EPOCH = "REPRO_CHAOS_EPOCH"
ENV_LOG = "REPRO_CHAOS_LOG"


def activate_from_env(environ=None) -> "ChaosSchedule | None":
    """Install the schedule described by ``$REPRO_CHAOS``, if any.

    Called once at CLI startup, so every ``repro`` subprocess (workers,
    the service, soak children) honours the same failure schedule.
    Returns the installed schedule, or None when the variable is unset
    or empty.  Raises :class:`~repro.chaos.schedule.ChaosSpecError`
    (a ``ValueError``) on a malformed spec — the CLI maps it to exit 2.
    """
    env = os.environ if environ is None else environ
    spec = env.get(ENV_SPEC, "").strip()
    if not spec:
        return None
    from repro.chaos.schedule import ChaosSchedule

    schedule = ChaosSchedule.parse(
        spec,
        seed=int(env.get(ENV_SEED, "0") or "0"),
        epoch=int(env.get(ENV_EPOCH, "0") or "0"),
        log_path=env.get(ENV_LOG) or None,
    )
    activate(schedule)
    return schedule
