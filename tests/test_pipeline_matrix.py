"""The pipeline across job kinds, backends, cache states and resume points.

Campaigns: every cell of backend {inline, 2-worker fork pool, queue
drained by one in-thread worker} × store {none, cold, warm, mixed} ×
checkpoint {fresh, resumed from a half prefix} must end with the serial
campaign's records and checkpoint bytes.  A warm cell has no misses, so
it builds no background pool and creates no queue.

Ensembles: every cell of backend {inline, fork pool, fork pool with
scrambled completions} × checkpoint {fresh, resumed from the header and
first line} must print the serial ``ensemble`` stdout and end with its
checkpoint bytes, as must a serial run crashed mid-append and resumed.
"""

import contextlib
import dataclasses
import functools
import io
import os
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.core.experiment import campaign_fingerprint, run_campaign
from repro.core.pipeline import run_pipeline
from repro.dist import DistDispatcher, DistWorker, WorkQueue
from repro.service import RunRecordStore, entry_key, run_campaign_cached
from repro.telemetry import (
    MemoryTraceWriter,
    MetricsRegistry,
    Telemetry,
    order_events,
    read_trace,
)
from tests.test_lazy_setup import (  # noqa: F401  (builds, serial, top: fixtures)
    SRC,
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
    jobs = 2 if backend == "pool" else 1
    if store is not None:
        if backend == "queue":
            kw.update(queue_dir=str(qdir), **QUEUE_OPTS)
        return run_campaign_cached(top, _cfg(), store=store, jobs=jobs, **kw).records
    if backend == "queue":
        backend = DistDispatcher(WorkQueue(qdir), **QUEUE_OPTS)
        return run_pipeline(top, _cfg(), backend, **kw).records
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


def test_pool_campaigns_sharing_a_registry_each_merge_their_metrics(top):
    """Two ``-j 2`` campaigns under one metrics registry count every run
    of both, as serial ones do: each merge dedupes only its own runs."""
    counts = []
    for jobs in (1, 2):
        tel = Telemetry(metrics=MetricsRegistry(enabled=True))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for seed in (1, 2):
                cfg = dataclasses.replace(_cfg(), n_nodes=16, seed=seed)
                run_campaign(top, cfg, jobs=jobs, telemetry=tel)
        assert not [w for w in caught if "already merged" in str(w.message)]
        counts.append(tel.metrics.counter("campaign_samples_total").value)
    assert counts == [8, 8]


ENSEMBLE = [
    "ensemble", "--system", "mini", "--app", "milc", "--jobs", "2",
    "--nodes", "16", "--modes", "AD0,AD1,AD3",
]


def _ensemble(ck, *extra):
    """``repro ensemble`` in this process; returns its stdout."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*ENSEMBLE, "--checkpoint", str(ck), *extra]) == 0
    return out.getvalue()


def _resumed(ck, out):
    head, rest = out.split("\n", 1)
    assert head == f"(resumed from {ck})"
    return rest


@pytest.fixture(scope="module")
def ensemble_serial(tmp_path_factory):
    ck = tmp_path_factory.mktemp("ensemble") / "ck.jsonl"
    out = _ensemble(ck, "--workers", "1")
    return out, ck.read_bytes()


@pytest.mark.parametrize("checkpoint", ["fresh", "resumed"])
@pytest.mark.parametrize("backend", ["inline", "pool", "scrambled"])
def test_every_ensemble_cell_matches_serial(
    backend, checkpoint, ensemble_serial, tmp_path, monkeypatch
):
    out_ref, bytes_ref = ensemble_serial
    if backend == "scrambled":
        import repro.parallel as par

        real = par.run_ensembles
        monkeypatch.setattr(par, "run_ensembles", functools.partial(real, scramble_seed=3))
    ck = tmp_path / "ck.jsonl"
    extra = ["--workers", "1" if backend == "inline" else "2"]
    if checkpoint == "resumed":
        ck.write_bytes(b"".join(bytes_ref.splitlines(keepends=True)[:2]))
        extra.append("--resume")

    out = _ensemble(ck, *extra)

    assert (_resumed(ck, out) if checkpoint == "resumed" else out) == out_ref
    assert ck.read_bytes() == bytes_ref


def test_ensemble_crashed_mid_append_resumes_to_serial(ensemble_serial, tmp_path):
    out_ref, bytes_ref = ensemble_serial
    ck = tmp_path / "ck.jsonl"
    env = {
        **os.environ, "PYTHONPATH": str(SRC),
        "REPRO_CHAOS": "checkpoint.append:crash:at=2",
    }
    proc = subprocess.run(
        # serial, so the crash leaves no pool workers behind
        [sys.executable, "-m", "repro", *ENSEMBLE, "--workers", "1", "--checkpoint", str(ck)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode != 0
    # the header and the first ensemble landed; the second did not
    assert ck.read_bytes() == b"".join(bytes_ref.splitlines(keepends=True)[:2])

    out = _ensemble(ck, "--resume", "--workers", "1")

    assert _resumed(ck, out) == out_ref
    assert ck.read_bytes() == bytes_ref


def test_pool_ensemble_events_carry_their_run_index(tmp_path):
    from repro.cli import main

    trace = tmp_path / "t.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*ENSEMBLE, "--workers", "2", "--trace", str(trace)]) == 0
    events = read_trace(str(trace))
    forwarded = [e for e in events if e["ev"].startswith("ensemble.")]
    assert forwarded
    assert all("worker" in e and "run_index" in e for e in forwarded)
    ends = [e for e in order_events(events) if e["ev"] == "ensemble.end"]
    assert [(e["run_index"], e["mode"]) for e in ends] == [
        (0, "AD0"), (1, "AD1"), (2, "AD3")
    ]
