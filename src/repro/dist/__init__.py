"""Fault-tolerant multi-host campaign execution over a shared directory.

The distributed layer splits a campaign across any number of worker
processes on any number of hosts, coordinating through nothing but a
shared filesystem directory (``--queue DIR``): a crash-tolerant work
queue built on O_EXCL lease files, atomic renames, and first-commit-wins
hard links.  Results merge back in canonical order, byte-identical to a
serial run — see ``docs/DISTRIBUTED.md``.

* :class:`WorkQueue` — the directory protocol (leases, commits, scans),
  and :func:`result_payload` / :func:`payload_result`, the one builder
  and parser of a committed result;
* :class:`DistDispatcher` — the coordinator, the pipeline backend that
  ``run_campaign(queue_dir=...)`` and ``run_campaign_cached(queue_dir=...)``
  select (materialize, merge, local fallback);
* :class:`DistWorker` — the ``repro worker`` claim-execute-commit loop,
  running each task through :func:`repro.core.pipeline.run_task` as a
  fork-pool child does;
* :mod:`repro.dist.manifest` — campaign ↔ JSON manifest round-trip.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".coordinator": "DistDispatcher",
    ".manifest": "NotDistributable build_tasks campaign_to_manifest manifest_to_campaign",
    ".queue": "Lease QueueStatus QueueTask QueueUnavailable WorkQueue default_owner "
    "payload_result result_payload task_id",
    ".worker": "DistWorker WorkerStats",
})
