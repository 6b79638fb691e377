"""Fault-tolerant multi-host campaign execution over a shared directory.

The distributed layer splits a campaign across any number of worker
processes on any number of hosts, coordinating through nothing but a
shared filesystem directory (``--queue DIR``): a crash-tolerant work
queue built on O_EXCL lease files, atomic renames, and first-commit-wins
hard links.  Results merge back in canonical order, byte-identical to a
serial run — see ``docs/DISTRIBUTED.md``.

* :class:`WorkQueue` — the directory protocol (leases, commits, scans);
* :func:`run_campaign_distributed` — the coordinator (materialize,
  merge, local fallback);
* :class:`DistWorker` — the ``repro worker`` claim-execute-commit loop;
* :mod:`repro.dist.manifest` — campaign ↔ JSON manifest round-trip.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".coordinator": "run_campaign_distributed",
    ".manifest": "NotDistributable build_tasks campaign_to_manifest manifest_to_campaign",
    ".queue": "Lease QueueStatus QueueTask QueueUnavailable WorkQueue task_id",
    ".worker": "DistWorker WorkerStats default_owner",
})
