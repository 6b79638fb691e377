"""Kill-storm equivalence: SIGKILLed workers, corrupt scratch, dead fleets.

The distributed contract under fire: workers are real ``python -m repro
worker`` subprocesses sharing a tmp-dir queue with an in-process
coordinator, and the tests kill them at the worst moments, scribble
garbage into the queue's scratch space, and strand leases — the merged
checkpoint must still come out byte-identical to a serial run (or, for
a genuinely poisoned task, degrade to an explicit error record).
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.checkpoint import record_to_dict
from repro.core.experiment import CampaignConfig, run_campaign
from repro.core.pipeline import run_pipeline
from repro.dist import DistDispatcher, WorkQueue
from repro.dist.queue import DEFAULT_RETRY_BUDGET
from repro.telemetry import MemoryTraceWriter, MetricsRegistry, Telemetry
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def top():
    return mini()


def _cfg(**kw):
    kw.setdefault("samples", 3)
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), seed=11, scenario_pool=4, **kw
    )


@pytest.fixture(scope="module")
def serial(top, tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "ckpt.jsonl"
    records = run_campaign(top, _cfg(), jobs=1, checkpoint_path=str(path))
    return records, path.read_bytes()


def _spawn_worker(qdir, owner, *extra, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--queue", str(qdir), "--owner", owner, "--poll", "0.05", *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _finish(proc, expect_ok=True, timeout=120):
    out, _ = proc.communicate(timeout=timeout)
    if expect_ok:
        assert proc.returncode == 0, out
    return out


class _Coordinator(threading.Thread):
    """A queue campaign (``run_pipeline`` on a :class:`DistDispatcher`)
    on a thread, capturing its outcome; ``ttl``/``retry_budget`` go to
    the queue, ``jobs``/``poll``/``fallback_after`` to the dispatcher."""

    def __init__(self, *, top, cfg, queue_dir, ttl, poll, fallback_after,
                 retry_budget=DEFAULT_RETRY_BUDGET, jobs=None, **kw):
        super().__init__(daemon=True)
        queue = WorkQueue(queue_dir, ttl=ttl, retry_budget=retry_budget)
        backend = DistDispatcher(queue, jobs=jobs, poll=poll, fallback_after=fallback_after)
        self.args = (top, cfg, backend)
        self.kw = kw
        self.records = None
        self.error = None

    def run(self):
        try:
            self.records = run_pipeline(*self.args, **self.kw).records
        except BaseException as exc:  # surfaced by the test's join
            self.error = exc

    def finish(self, timeout=120):
        self.join(timeout=timeout)
        assert not self.is_alive(), "coordinator did not complete"
        if self.error is not None:
            raise self.error
        return self.records


def _wait_until(cond, timeout=60.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class TestKillStorm:
    def test_sigkill_one_worker_merged_bytes_identical(self, top, serial, tmp_path):
        """Two workers; one is SIGKILLed mid-run and its scratch space
        corrupted; a stranded ghost lease forces a tail steal.  The
        merged checkpoint must equal the serial bytes exactly."""
        serial_records, serial_bytes = serial
        qdir = tmp_path / "queue"
        ckpt = tmp_path / "storm.jsonl"
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        coord = _Coordinator(
            top=top,
            cfg=_cfg(),
            queue_dir=str(qdir),
            telemetry=tel,
            checkpoint_path=str(ckpt),
            ttl=2.0,
            poll=0.05,
            fallback_after=600.0,
        )
        coord.start()
        q = WorkQueue(qdir)
        _wait_until(lambda: q.load_manifest() is not None, what="manifest")
        tasks = q.manifest_tasks(q.load_manifest())

        # a ghost claim on the last task: its owner is already dead, so
        # the survivor must steal it at the tail (or reclaim on expiry)
        ghost = q.try_claim(tasks[-1].tid, "ghost:1")
        assert ghost is not None

        victim = _spawn_worker(qdir, "victim:1")
        _wait_until(
            lambda: any(
                lease.get("owner") == "victim:1"
                for lease in q.live_leases().values()
            ),
            what="victim to claim a task",
        )
        victim_tids = [
            tid for tid, lease in q.live_leases().items()
            if lease.get("owner") == "victim:1"
        ]
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        interrupted = [t for t in victim_tids if not q.has_result(t)]
        # the victim's in-flight scratch is now garbage on shared disk
        (q.tmp_dir / f".{tasks[0].tid}.{victim.pid}.dead.json").write_text(
            '{"torn": '
        )
        (q.leases_dir / "stray-not-a-lease").write_text("junk")

        survivor = _spawn_worker(qdir, "survivor:1")
        records = coord.finish()
        _finish(survivor)

        assert [record_to_dict(r) for r in records] == [
            record_to_dict(r) for r in serial_records
        ]
        assert ckpt.read_bytes() == serial_bytes
        owners = {e["owner"] for e in tel.trace.of_type("dist.worker")}
        assert "survivor:1" in owners
        if interrupted:
            # the killed worker's task was finished by someone else:
            # either a reclaim (expired lease) or a tail steal
            retries = tel.trace.of_type("dist.lease_reclaimed")
            steals = tel.trace.of_type("dist.task_stolen")
            assert retries or steals
        # the ghost's task was completed without its owner ever committing
        assert q.read_result(tasks[-1].tid)["worker"] != "ghost:1"

    def test_failpoint_crash_mid_commit_merges_identically(
        self, top, serial, tmp_path
    ):
        """The deterministic twin of the SIGKILL storm: a worker dies at
        a *named* point — mid-way through committing its second result,
        after the scratch write but before the fsync — via a
        ``repro.chaos`` schedule in its environment.  The fleet must
        absorb it exactly like a random kill: no torn result visible,
        merged bytes identical to serial."""
        import json

        from repro.chaos import CRASH_EXIT_CODE

        serial_records, serial_bytes = serial
        qdir = tmp_path / "queue"
        ckpt = tmp_path / "chaoskill.jsonl"
        fired_log = tmp_path / "fired.jsonl"
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        coord = _Coordinator(
            top=top,
            cfg=_cfg(),
            queue_dir=str(qdir),
            telemetry=tel,
            checkpoint_path=str(ckpt),
            ttl=2.0,
            poll=0.05,
            fallback_after=600.0,
        )
        coord.start()
        q = WorkQueue(qdir)
        _wait_until(lambda: q.load_manifest() is not None, what="manifest")
        tasks = q.manifest_tasks(q.load_manifest())

        victim = _spawn_worker(
            qdir,
            "victim:1",
            env_extra={
                "REPRO_CHAOS": "queue.commit.post_tmp:crash:at=2",
                "REPRO_CHAOS_SEED": "2021",
                "REPRO_CHAOS_LOG": str(fired_log),
            },
        )
        victim.wait(timeout=120)
        assert victim.returncode == CRASH_EXIT_CODE
        # the failpoint log proves it died where the schedule said
        fired = [json.loads(line) for line in fired_log.read_text().splitlines()]
        assert [(e["site"], e["action"]) for e in fired] == [
            ("queue.commit.post_tmp", "crash")
        ]
        # exactly one result committed before the crash, none torn
        committed = [t.tid for t in tasks if q.has_result(t.tid)]
        assert len(committed) == 1

        survivor = _spawn_worker(qdir, "survivor:1")
        records = coord.finish()
        _finish(survivor)

        assert ckpt.read_bytes() == serial_bytes
        assert [record_to_dict(r) for r in records] == [
            record_to_dict(r) for r in serial_records
        ]
        # the survivor finished the victim's abandoned task
        assert all(q.read_result(t.tid) is not None for t in tasks)

    def test_expired_lease_is_reclaimed_not_stolen(self, top, serial, tmp_path):
        """With speculation off, the only path past a dead owner's lease
        is expiry + reclaim — the retry machinery end to end."""
        serial_records, serial_bytes = serial
        qdir = tmp_path / "queue"
        ckpt = tmp_path / "reclaim.jsonl"
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        coord = _Coordinator(
            top=top,
            cfg=_cfg(),
            queue_dir=str(qdir),
            telemetry=tel,
            checkpoint_path=str(ckpt),
            ttl=1.5,
            poll=0.05,
            fallback_after=600.0,
        )
        coord.start()
        q = WorkQueue(qdir)
        _wait_until(lambda: q.load_manifest() is not None, what="manifest")
        tasks = q.manifest_tasks(q.load_manifest())
        ghost = q.try_claim(tasks[-1].tid, "ghost:1")
        assert ghost is not None

        worker = _spawn_worker(qdir, "diligent:1", "--no-speculate")
        records = coord.finish()
        out = _finish(worker)

        assert ckpt.read_bytes() == serial_bytes
        assert [record_to_dict(r) for r in records] == [
            record_to_dict(r) for r in serial_records
        ]
        reclaims = tel.trace.of_type("dist.lease_reclaimed")
        assert reclaims and reclaims[0]["victim"] == "ghost:1"
        assert tel.metrics.to_dict()["dist_retries_total"]["value"] >= 1
        assert "reclaims 1" in out or "reclaims" in out

    def test_dead_fleet_degrades_to_local_fallback(self, top, serial, tmp_path):
        """Every worker dies and none returns: the coordinator must
        finish the campaign itself, byte-identically."""
        serial_records, serial_bytes = serial
        qdir = tmp_path / "queue"
        ckpt = tmp_path / "fleet.jsonl"
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        coord = _Coordinator(
            top=top,
            cfg=_cfg(),
            queue_dir=str(qdir),
            telemetry=tel,
            checkpoint_path=str(ckpt),
            ttl=1.5,
            jobs=2,
            poll=0.05,
            fallback_after=1.0,
        )
        coord.start()
        q = WorkQueue(qdir)
        _wait_until(lambda: q.load_manifest() is not None, what="manifest")
        doomed = _spawn_worker(qdir, "doomed:1")
        _wait_until(
            lambda: bool(q.live_leases()) or any(
                q.has_result(t.tid)
                for t in q.manifest_tasks(q.load_manifest())
            ),
            what="doomed worker to start",
        )
        doomed.send_signal(signal.SIGKILL)
        doomed.wait(timeout=30)

        records = coord.finish()
        assert ckpt.read_bytes() == serial_bytes
        assert [record_to_dict(r) for r in records] == [
            record_to_dict(r) for r in serial_records
        ]
        assert tel.trace.of_type("dist.fallback")

    def test_poisoned_task_exhausts_budget_into_error_record(
        self, top, serial, tmp_path
    ):
        """A task that can never finish (its lease always dies) burns the
        retry budget and becomes an explicit error record instead of
        stalling the campaign forever."""
        serial_records, _ = serial
        qdir = tmp_path / "queue"
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        coord = _Coordinator(
            top=top,
            cfg=_cfg(),
            queue_dir=str(qdir),
            telemetry=tel,
            ttl=1.5,
            retry_budget=1,
            poll=0.05,
            fallback_after=600.0,
        )
        coord.start()
        q = WorkQueue(qdir)
        _wait_until(lambda: q.load_manifest() is not None, what="manifest")
        tasks = q.manifest_tasks(q.load_manifest())
        # burn the whole (size-1) budget on task 0, then never commit
        ghost = q.try_claim(tasks[0].tid, "ghost:1")
        assert ghost is not None

        worker = _spawn_worker(qdir, "honest:1", "--no-speculate")
        records = coord.finish()
        _finish(worker)

        assert len(records) == len(serial_records)
        assert records[0].status == "error"
        assert "retry budget exhausted" in records[0].error
        assert [record_to_dict(r) for r in records[1:]] == [
            record_to_dict(r) for r in serial_records[1:]
        ]
        assert tel.trace.of_type("dist.task_exhausted")
