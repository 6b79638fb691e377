"""The campaign pipeline across backends, cache states and resume points.

Every cell of backend {inline, 2-worker fork pool, queue drained by one
in-thread worker} × store {none, cold, warm, mixed} × checkpoint {fresh,
resumed from a half prefix} must end with the serial campaign's records
and checkpoint bytes.  A warm cell has no misses, so it builds no
background pool and creates no queue.
"""

import dataclasses
import threading
import time

import pytest

from repro.core.experiment import campaign_fingerprint, run_campaign
from repro.dist import DistWorker, WorkQueue, run_campaign_distributed
from repro.service import RunRecordStore, entry_key, run_campaign_cached
from repro.telemetry import MemoryTraceWriter, Telemetry
from tests.test_lazy_setup import (  # noqa: F401  (builds, serial, top: fixtures)
    _cfg,
    _dicts,
    builds,
    serial,
    top,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)

#: queue cells wait for their worker, never for the local fallback
QUEUE_OPTS = {"fallback_after": 120.0, "poll": 0.05}


def _store(state, top, tmp_path):
    if state is None:
        return None
    store = RunRecordStore(tmp_path / "cache")
    if state != "cold":
        run_campaign_cached(top, _cfg(), store=store)
    if state == "mixed":
        # the last canonical run is the one miss
        key = entry_key(campaign_fingerprint(top, _cfg()), 1, "AD3")
        (store.entries_dir / f"{key}.json").unlink()
    return store


def _run(backend, store, top, ck, resume, qdir):
    kw = {"checkpoint_path": str(ck), "resume": resume}
    if backend == "queue":
        kw.update(queue_dir=str(qdir), **QUEUE_OPTS)
    jobs = 2 if backend == "pool" else 1
    if store is not None:
        return run_campaign_cached(top, _cfg(), store=store, jobs=jobs, **kw).records
    if backend == "queue":
        return run_campaign_distributed(top, _cfg(), **kw)
    return run_campaign(top, _cfg(), jobs=jobs, **kw)


@pytest.mark.parametrize("checkpoint", ["fresh", "resumed"])
@pytest.mark.parametrize("state", [None, "cold", "warm", "mixed"])
@pytest.mark.parametrize("backend", ["inline", "pool", "queue"])
def test_every_cell_matches_serial(
    backend, state, checkpoint, top, serial, builds, tmp_path
):
    records_ref, bytes_ref = serial
    store = _store(state, top, tmp_path)
    ck = tmp_path / "ck.jsonl"
    if checkpoint == "resumed":
        # header plus the first two of four records
        ck.write_bytes(b"".join(bytes_ref.splitlines(keepends=True)[:3]))
    qdir = tmp_path / "queue"
    worker = None
    if backend == "queue" and state != "warm":
        worker = threading.Thread(
            target=lambda: DistWorker(WorkQueue(qdir), owner="thread:1", poll=0.05).run(),
            daemon=True,
        )
        worker.start()
    builds.reset()

    records = _run(backend, store, top, ck, checkpoint == "resumed", qdir)
    if worker is not None:
        worker.join(timeout=60)
        assert not worker.is_alive()

    assert _dicts(records) == records_ref
    assert ck.read_bytes() == bytes_ref
    if state == "warm":
        assert builds.total() == 0
        assert not WorkQueue(qdir).manifest_path.exists()


def test_cached_queue_tags_events_with_the_sighted_worker_ids(top, tmp_path):
    """Run 1 commits (and is sighted) before run 0, so the first-sighted
    owner is not run 0's: each forwarded ``campaign.sample`` must still
    carry its owner's ``dist.worker`` id."""
    cfg = dataclasses.replace(_cfg(), samples=1)
    qdir = tmp_path / "queue"
    tel = Telemetry(trace=MemoryTraceWriter())
    owner_of = {0: "w:late", 1: "w:first"}

    def sighted(owner):
        return any(e["owner"] == owner for e in tel.trace.of_type("dist.worker"))

    def fleet():
        queue = WorkQueue(qdir)
        worker = DistWorker(queue, poll=0.05)
        while not worker._prepare():
            time.sleep(0.05)
        for task in sorted(worker._tasks, key=lambda t: -t.index):
            worker.owner = owner_of[task.index]
            payload = worker._execute(task, speculative=False, attempt=1)
            queue.commit_result(task.tid, payload)
            deadline = time.monotonic() + 60
            while not sighted(worker.owner) and time.monotonic() < deadline:
                time.sleep(0.05)

    thread = threading.Thread(target=fleet, daemon=True)
    thread.start()
    out = run_campaign_cached(
        top, cfg, store=RunRecordStore(tmp_path / "cache"), telemetry=tel,
        queue_dir=str(qdir), **QUEUE_OPTS,
    )
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert out.misses == 2

    ids = {e["owner"]: e["worker"] for e in tel.trace.of_type("dist.worker")}
    assert ids == {"w:first": 0, "w:late": 1}
    samples = tel.trace.of_type("campaign.sample")
    assert sorted(e["run_index"] for e in samples) == [0, 1]
    for e in samples:
        assert e["worker"] == ids[owner_of[e["run_index"]]]
