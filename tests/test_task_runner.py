"""One off-process task path: a fork-pool child and a queue worker run a
task through the same :func:`repro.core.pipeline.run_task`, and every
queue payload — a worker's, the coordinator's local fallback's and a
retry-exhausted task's error record — is built by
:func:`repro.dist.queue.result_payload` and read back by
:func:`repro.dist.queue.payload_result`.
"""

import json
import time

import pytest

from repro.core.checkpoint import record_to_dict
from repro.core.experiment import CampaignBackground
from repro.core.pipeline import CampaignJob, RunTask, run_pipeline
from repro.dist import (
    DistDispatcher,
    DistWorker,
    WorkQueue,
    build_tasks,
    campaign_to_manifest,
    payload_result,
    result_payload,
)
from repro.guard import set_worker_heartbeat
from repro.parallel import campaign
from repro.telemetry import MemoryTraceWriter, MetricsRegistry, Telemetry
from tests.test_lazy_setup import _cfg, _dicts, serial, top  # noqa: F401  (fixtures)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)

PAYLOAD_KEYS = {"tid", "index", "line", "events", "metrics", "worker", "attempt", "speculative"}


def _observed() -> Telemetry:
    return Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry(enabled=True))


@pytest.fixture
def worker(top, tmp_path):
    """A queue worker prepared on a traced, metered campaign's queue."""
    queue = WorkQueue(tmp_path / "queue")
    queue.create(campaign_to_manifest(top, _cfg(), _observed()), build_tasks(top, _cfg()))
    w = DistWorker(queue, owner="w:1")
    assert w._prepare()
    yield w
    set_worker_heartbeat(None)


def test_fork_child_and_queue_worker_produce_the_same_result(top, worker, monkeypatch):
    job = CampaignJob(top, _cfg(), CampaignBackground(top, _cfg()), _observed(), wire=True)
    job.prepare()  # as the pool's parent does before it forks
    monkeypatch.setattr(campaign, "_JOB", job)
    monkeypatch.setattr(campaign, "_HB", None)
    task = worker._tasks[1]
    # a frozen clock, so wall-time fields and histograms agree too
    with monkeypatch.context() as clock:
        clock.setattr(time, "perf_counter", lambda: 0.0)
        clock.setattr(time, "time", lambda: 0.0)
        res = campaign._run_task(RunTask(task.index, task.sample, task.mode))
        payload = worker._execute(task, speculative=False, attempt=1)

    assert res.index == payload["index"] == task.index
    assert res.line == payload["line"]
    assert res.events and res.events == payload["events"]
    assert [e["ev"] for e in res.events][-1] == "campaign.sample"
    assert res.metrics.to_wire() == payload["metrics"]


def test_a_committed_payload_round_trips(worker):
    task = worker._tasks[0]
    payload = worker._execute(task, speculative=True, attempt=0)
    assert set(payload) == PAYLOAD_KEYS
    worker.queue.commit_result(task.tid, payload)
    committed = worker.queue.read_result(task.tid)

    res = payload_result(committed)
    assert (res.index, res.worker, res.line) == (task.index, "w:1", payload["line"])
    assert record_to_dict(res.record) == json.loads(payload["line"])
    assert res.events == payload["events"]
    assert res.metrics.to_wire() == payload["metrics"]
    assert result_payload(task, res, "w:1", 0, speculative=True) == committed

    again = payload_result(result_payload(task, res, "w:1", 0))
    assert (again.index, again.worker, again.line, again.events) == (
        res.index, res.worker, res.line, res.events
    )
    assert again.metrics.to_wire() == res.metrics.to_wire()


def test_coordinator_payloads_use_the_worker_keys(top, serial, worker, tmp_path):
    """Run 0 has burned its one-claim budget: the coordinator writes its
    error record; nobody works the rest, so its local fallback runs them."""
    queue = WorkQueue(tmp_path / "coordinated", retry_budget=1)
    tasks = build_tasks(top, _cfg())
    queue.create(campaign_to_manifest(top, _cfg(), _observed()), tasks)
    queue._record_attempt(tasks[0].tid, 1)
    backend = DistDispatcher(queue, jobs=1, poll=0.05, fallback_after=0.3)
    records = run_pipeline(top, _cfg(), backend, telemetry=_observed()).records

    assert records[0].status == "error"
    assert _dicts(records[1:]) == serial[0][1:]
    payloads = [queue.read_result(t.tid) for t in tasks]
    assert [p["worker"] for p in payloads] == ["coordinator"] + ["coordinator:fallback"] * 3
    assert all(set(p) == PAYLOAD_KEYS for p in payloads)
    assert set(worker._execute(tasks[0], speculative=False, attempt=1)) == PAYLOAD_KEYS
    # an error record carries no run telemetry; a fallback run carries its own
    assert payloads[0]["events"] == [] and payloads[0]["metrics"] is None
    assert all(p["events"] and p["metrics"] for p in payloads[1:])
