"""Distributed-campaign observability surfaces.

The coordinator's ``dist.*`` events feed three read-only consumers:
``CampaignProgress`` (the live fold behind ``repro top``), the ``top``
renderer's queue/worker rows, and the post-hoc ``report`` digest.  All
three are pure functions of events, so these tests drive them with
synthetic streams and a tiny real queue — no campaigns are run.
"""

import json

import pytest

from repro.telemetry.report import format_summary, summarize_trace
from repro.telemetry.stream import CampaignProgress
from repro.telemetry.top import render_top


def _dist_events():
    """A plausible event stream from a 2-worker --queue campaign."""
    t = 100.0
    return [
        {"ev": "campaign.start", "ts": t, "app": "milc", "n_nodes": 32,
         "modes": ["AD0", "AD3"], "samples": 3, "jobs": 1,
         "queue": "/shared/q"},
        {"ev": "dist.worker", "ts": t + 1, "owner": "hostA:10", "worker": 0},
        {"ev": "dist.worker", "ts": t + 1, "owner": "hostB:20", "worker": 1},
        {"ev": "dist.queue", "ts": t + 2, "depth": 6, "merged": 0,
         "total": 6, "leases": 2, "workers": 2},
        {"ev": "campaign.sample", "ts": t + 3, "mode": "AD0", "sample": 0,
         "status": "ok", "worker": 0, "run_index": 0, "runtime_s": 1.0},
        {"ev": "dist.lease_reclaimed", "ts": t + 4, "tid": "aaaa",
         "run_index": 1, "attempt": 2, "victim": "hostB:20"},
        {"ev": "campaign.sample", "ts": t + 5, "mode": "AD3", "sample": 0,
         "status": "ok", "worker": 0, "run_index": 1, "runtime_s": 1.1},
        {"ev": "dist.task_stolen", "ts": t + 6, "tid": "bbbb",
         "run_index": 2, "owner": "hostA:10", "victim": "hostB:20"},
        {"ev": "dist.queue_unavailable", "ts": t + 7, "outages": 1},
        {"ev": "dist.task_exhausted", "ts": t + 8, "tid": "cccc",
         "run_index": 3, "attempts": 3},
        {"ev": "dist.queue", "ts": t + 9, "depth": 2, "merged": 4,
         "total": 6, "leases": 1, "workers": 2},
        {"ev": "dist.fallback", "ts": t + 10, "remaining": 2, "waited_s": 10.0},
    ]


class TestCampaignProgressDistFold:
    def test_snapshot_carries_queue_state(self):
        prog = CampaignProgress()
        for e in _dist_events():
            prog.feed(e)
        snap = prog.snapshot()
        assert snap["queue"] == "/shared/q"
        assert snap["queue_depth"] == 2
        assert snap["queue_leases"] == 1
        assert snap["dist_retries"] == 1
        assert snap["dist_steals"] == 1
        assert snap["dist_exhausted"] == 1
        assert snap["dist_outages"] == 1
        assert snap["dist_fallback"] is True

    def test_per_worker_states_and_done_counts(self):
        prog = CampaignProgress()
        for e in _dist_events():
            prog.feed(e)
        workers = prog.snapshot()["dist_workers"]
        assert set(workers) == {"hostA:10", "hostB:20"}
        # hostA committed both merged samples (worker id 0)
        assert workers["hostA:10"]["done"] == 2
        assert workers["hostA:10"]["state"] == "live"
        # hostB lost a lease, then had a task stolen — latest state wins
        assert workers["hostB:20"]["state"] == "stolen"
        assert workers["hostB:20"]["done"] == 0

    def test_non_queue_campaign_keeps_snapshot_shape(self):
        prog = CampaignProgress()
        prog.feed({"ev": "campaign.start", "ts": 1.0, "app": "milc",
                   "n_nodes": 32, "modes": ["AD0"], "samples": 1, "jobs": 2})
        snap = prog.snapshot()
        assert snap["queue"] is None
        assert snap["dist_workers"] == {}
        assert snap["dist_fallback"] is False


class TestTopRendering:
    def test_queue_line_and_worker_rows(self):
        prog = CampaignProgress()
        for e in _dist_events():
            prog.feed(e)
        frame = render_top(prog.snapshot(), now=112.0)
        assert "queue /shared/q" in frame
        assert "depth 2" in frame
        assert "retries 1" in frame
        assert "steals 1" in frame
        assert "exhausted 1" in frame
        assert "outages 1" in frame
        assert "LOCAL FALLBACK" in frame
        assert "hostA:10" in frame and "[live]" in frame
        assert "hostB:20" in frame and "[STOLEN]" in frame

    def test_lost_lease_rendered_loudly(self):
        prog = CampaignProgress()
        for e in _dist_events():
            if e["ev"] == "dist.task_stolen":
                continue  # leave hostB in the lost-lease state
            prog.feed(e)
        frame = render_top(prog.snapshot(), now=112.0)
        assert "[LOST LEASE]" in frame

    def test_plain_campaign_has_no_queue_line(self):
        prog = CampaignProgress()
        prog.feed({"ev": "campaign.start", "ts": 1.0, "app": "milc",
                   "n_nodes": 32, "modes": ["AD0"], "samples": 1, "jobs": 2})
        assert "queue" not in render_top(prog.snapshot(), now=2.0)


class TestReportDigest:
    def test_dist_section_summarizes_retries_and_steals(self):
        s = summarize_trace(_dist_events())
        assert s.dist_active
        assert list(s.dist_workers) == ["hostA:10", "hostB:20"]
        assert s.retries_by_run == {1: 1}
        assert s.steals_by_run == {2: 1}
        assert s.dist_exhausted == 1
        assert s.dist_outages == 1
        assert s.dist_fallback is True
        text = format_summary(s)
        assert "distributed queue: 2 worker(s)" in text
        assert "retries 1" in text and "steals 1" in text
        assert "run 1: retried x1" in text
        assert "run 2: stolen x1" in text
        assert "LOCAL FALLBACK" in text

    def test_serial_trace_has_no_dist_section(self):
        s = summarize_trace([
            {"ev": "campaign.sample", "ts": 1.0, "mode": "AD0", "sample": 0,
             "runtime_s": 1.0},
        ])
        assert not s.dist_active
        assert "distributed queue" not in format_summary(s)

    def test_report_cli_renders_dist_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "dist.jsonl"
        with trace.open("w") as fh:
            for e in _dist_events():
                fh.write(json.dumps(e) + "\n")
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "distributed queue" in out


class TestQueueStatusCli:
    @pytest.fixture
    def queue_dir(self, tmp_path):
        from repro.dist.queue import QueueTask, WorkQueue, task_id

        q = WorkQueue(tmp_path / "q", ttl=300.0)
        fp = {"app": "milc", "system": "mini", "samples": 2, "seed": 11}
        tasks = [
            QueueTask(tid=task_id(fp, i, m), index=2 * i + j, sample=i, mode=m)
            for i in range(2)
            for j, m in enumerate(("AD0", "AD3"))
        ]
        q.create({"fingerprint": fp}, tasks)
        q.commit_result(tasks[0].tid, {"index": 0})
        q.try_claim(tasks[1].tid, "hostA:1")
        return q.root

    def test_scan_output(self, queue_dir, capsys):
        from repro.cli import main

        assert main(["queue-status", "--queue", str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "milc" in out
        assert "4 total  1 done  1 claimed  2 available" in out
        assert "worker hostA:1: 1 lease(s) [live]" in out

    def test_no_manifest_yet(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["queue-status", "--queue", str(tmp_path / "empty")]) == 0
        assert "no manifest yet" in capsys.readouterr().out


class TestQueueStatusHeartbeats:
    """Worker guard heartbeats surfaced into ``repro queue-status``."""

    @pytest.fixture
    def queue(self, tmp_path):
        from repro.dist.queue import QueueTask, WorkQueue, task_id

        q = WorkQueue(tmp_path / "q", ttl=300.0)
        fp = {"app": "milc", "system": "mini", "samples": 1, "seed": 11}
        tasks = [QueueTask(tid=task_id(fp, 0, "AD0"), index=0, sample=0, mode="AD0")]
        q.create({"fingerprint": fp}, tasks)
        return q

    def test_create_makes_heartbeat_dir(self, queue):
        assert queue.heartbeats_dir.is_dir()

    def test_leased_worker_shows_heartbeat_age(self, queue, capsys):
        from repro.cli import main
        from repro.guard import WorkerHeartbeat

        tid = next(iter(queue.manifest_tasks(queue.load_manifest()))).tid
        queue.try_claim(tid, "hostA:1")
        hb = WorkerHeartbeat(queue.heartbeats_dir, name="hostA:1")
        hb.start_task()
        assert main(["queue-status", "--queue", str(queue.root)]) == 0
        out = capsys.readouterr().out
        assert "worker hostA:1: 1 lease(s) [live]  heartbeat" in out
        assert "no heartbeat" not in out

    def test_worker_without_lease_is_listed_from_heartbeat_alone(
        self, queue, capsys
    ):
        """A speculating (or between-tasks) worker holds no lease but is
        alive — the heartbeat file is the only trace of it."""
        from repro.cli import main
        from repro.guard import WorkerHeartbeat

        WorkerHeartbeat(queue.heartbeats_dir, name="hostB:2").start_task()
        assert main(["queue-status", "--queue", str(queue.root)]) == 0
        out = capsys.readouterr().out
        assert "worker hostB:2: 0 lease(s) [busy (no lease)]  heartbeat" in out

    def test_leased_worker_without_heartbeat_flagged(self, queue, capsys):
        from repro.cli import main

        tid = next(iter(queue.manifest_tasks(queue.load_manifest()))).tid
        queue.try_claim(tid, "hostC:3")
        assert main(["queue-status", "--queue", str(queue.root)]) == 0
        assert "worker hostC:3: 1 lease(s) [live]  no heartbeat" in (
            capsys.readouterr().out
        )

    def test_dist_worker_writes_owner_named_heartbeat(self, tmp_path):
        """The real worker loop leaves an ``<owner>.hb`` file while a
        run executes (and removes it when the task ends)."""
        from repro.apps import MILC
        from repro.core.biases import AD0
        from repro.core.experiment import CampaignConfig
        from repro.dist import DistWorker, WorkQueue
        from repro.dist.manifest import build_tasks, campaign_to_manifest
        from repro.telemetry import NULL_TELEMETRY
        from repro.topology.systems import mini

        top = mini()
        cfg = CampaignConfig(
            app=MILC(), n_nodes=32, modes=(AD0,), samples=1, seed=11,
            scenario_pool=2,
        )
        q = WorkQueue(tmp_path / "q", ttl=300.0)
        q.create(
            campaign_to_manifest(top, cfg, NULL_TELEMETRY), build_tasks(top, cfg)
        )
        worker = DistWorker(q, owner="testhost:99", max_tasks=1, poll=0.01)
        stats = worker.run()
        assert stats.executed == 1
        # the worker registered an owner-named heartbeat in the queue's
        # shared directory and removed the file when the task ended
        assert worker._hb is not None
        assert worker._hb.path == q.heartbeats_dir / "testhost:99.hb"
        assert not list(q.heartbeats_dir.glob("*.hb"))
        worker._hb.start_task()
        assert (q.heartbeats_dir / "testhost:99.hb").exists()
