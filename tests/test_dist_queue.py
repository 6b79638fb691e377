"""Unit tests for the shared-directory work queue (``repro.dist.queue``).

The queue's whole protocol is files + three atomic POSIX primitives, so
everything here runs against a real tmp directory; only the clock is
injected (lease expiry must be testable without sleeping).
"""

import json
import os

import pytest

from repro.dist.queue import (
    Lease,
    QueueTask,
    QueueUnavailable,
    WorkQueue,
    task_id,
)

FP = {"app": "milc", "seed": 11, "samples": 2}


class Clock:
    """An injectable wall clock."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_queue(tmp_path, **kw):
    clock = Clock()
    kw.setdefault("ttl", 30.0)
    kw.setdefault("retry_budget", 3)
    q = WorkQueue(tmp_path / "q", now=clock, **kw)
    tasks = [
        QueueTask(tid=task_id(FP, i, m), index=2 * i + j, sample=i, mode=m)
        for i in range(2)
        for j, m in enumerate(("AD0", "AD3"))
    ]
    q.create({"fingerprint": FP}, tasks)
    return q, tasks, clock


class TestTaskIdentity:
    def test_content_addressed_and_stable(self):
        a = task_id(FP, 0, "AD0")
        assert a == task_id(FP, 0, "AD0")
        assert len(a) == 16
        # any coordinate change changes the id
        assert len({a, task_id(FP, 1, "AD0"), task_id(FP, 0, "AD3"),
                    task_id({**FP, "seed": 12}, 0, "AD0")}) == 4

    def test_key_order_is_canonical(self):
        assert task_id({"a": 1, "b": 2}, 0, "m") == task_id({"b": 2, "a": 1}, 0, "m")

    def test_queue_task_round_trip(self):
        t = QueueTask(tid="abc", index=3, sample=1, mode="AD3")
        assert QueueTask.from_dict(json.loads(json.dumps(t.to_dict()))) == t


class TestManifest:
    def test_absent_until_created(self, tmp_path):
        q = WorkQueue(tmp_path / "empty")
        assert q.load_manifest() is None

    def test_round_trip(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        m = q.load_manifest()
        assert m["fingerprint"] == FP
        assert m["ttl"] == 30.0 and m["retry_budget"] == 3
        assert q.manifest_tasks(m) == tasks

    def test_foreign_manifest_rejected(self, tmp_path):
        q, _, _ = make_queue(tmp_path)
        q.manifest_path.write_text(json.dumps({"kind": "other", "version": 9}))
        with pytest.raises(ValueError, match="not a version"):
            q.load_manifest()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(tmp_path, ttl=0.0)
        with pytest.raises(ValueError):
            WorkQueue(tmp_path, retry_budget=0)


class TestClaiming:
    def test_fresh_claim_is_exclusive(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        lease = q.try_claim(tasks[0].tid, "w1")
        assert isinstance(lease, Lease)
        assert lease.attempt == 1 and not lease.reclaimed
        # a second claimer loses while the lease is live
        assert q.try_claim(tasks[0].tid, "w2") is None

    def test_release_reopens_the_task(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        lease = q.try_claim(tasks[0].tid, "w1")
        q.release(lease)
        second = q.try_claim(tasks[0].tid, "w2")
        assert second is not None
        assert second.attempt == 2  # a re-claim still burns budget

    def test_release_requires_ownership(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        lease = q.try_claim(tasks[0].tid, "w1")
        stranger = Lease(
            tid=lease.tid, owner="w2", token="not-the-token",
            attempt=1, claimed_at=0.0, expires_at=1e12,
        )
        q.release(stranger)  # must be a no-op
        assert q.try_claim(tasks[0].tid, "w2") is None

    def test_expired_lease_is_reclaimed(self, tmp_path):
        q, tasks, clock = make_queue(tmp_path)
        first = q.try_claim(tasks[0].tid, "w1")
        clock.advance(31.0)
        second = q.try_claim(tasks[0].tid, "w2")
        assert second is not None
        assert second.owner == "w2"
        assert second.reclaimed and second.attempt == 2
        # only one reclaimer can win: the next claim sees a live lease
        assert q.try_claim(tasks[0].tid, "w3") is None
        # the victim's renewal discovers the theft
        assert q.renew(first) is False
        assert first.lost

    def test_reclaim_records_the_displaced_owner(self, tmp_path):
        """The attempts file remembers who lost each reclaim, so retry
        attribution never depends on a racy lease scan."""
        q, tasks, clock = make_queue(tmp_path)
        tid = tasks[0].tid
        assert q.last_victim(tid) == ""
        q.try_claim(tid, "w1")
        assert q.last_victim(tid) == ""  # a fresh claim displaces nobody
        clock.advance(31.0)
        q.try_claim(tid, "w2")
        assert q.last_victim(tid) == "w1"
        clock.advance(31.0)
        q.try_claim(tid, "w3")
        assert q.last_victim(tid) == "w2"
        # budget bookkeeping after exhaustion keeps the last victim
        clock.advance(31.0)
        assert q.try_claim(tid, "w4") is None
        assert q.last_victim(tid) == "w3"

    def test_renew_extends_expiry(self, tmp_path):
        q, tasks, clock = make_queue(tmp_path)
        lease = q.try_claim(tasks[0].tid, "w1")
        clock.advance(20.0)
        assert q.renew(lease) is True
        clock.advance(20.0)  # 40s after claim, but renewed at +20
        assert q.try_claim(tasks[0].tid, "w2") is None

    def test_result_blocks_claims(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        q.commit_result(tasks[0].tid, {"index": 0})
        assert q.try_claim(tasks[0].tid, "w1") is None

    def test_torn_live_lease_is_not_stolen(self, tmp_path):
        """A lease file mid-write parses as None; the O_EXCL gate must
        still refuse to double-claim underneath it."""
        q, tasks, _ = make_queue(tmp_path)
        (q.leases_dir / f"{tasks[0].tid}.lease").write_text("{half a jso")
        assert q.try_claim(tasks[0].tid, "w1") is None


class TestPoolLease:
    """The coordinator's pool lease: renewed while it solves, lost to a
    newer coordinator of the same queue, expired once it is done."""

    def _pool(self, tmp_path):
        clock = Clock()
        q = WorkQueue(tmp_path / "q", now=clock, ttl=30.0)
        return q, q.create({"fingerprint": FP}, [], pool=[2, 0]), clock

    def test_renew_pool_extends_expiry(self, tmp_path):
        q, lease, clock = self._pool(tmp_path)
        clock.advance(20.0)
        assert q.renew_pool(lease) is True
        assert lease.expires_at == clock() + 30.0
        assert json.loads(q.pool_lease_path.read_text())["expires_at"] == lease.expires_at
        clock.advance(20.0)  # 40s after create, but renewed at +20
        assert q.pool_building()
        clock.advance(11.0)
        assert not q.pool_building()

    def test_a_recreated_queue_takes_the_pool_lease(self, tmp_path):
        q, old, clock = self._pool(tmp_path)
        new = WorkQueue(q.root, now=clock).create({"fingerprint": FP}, [], pool=[2, 0])
        assert q.renew_pool(old) is False
        assert old.lost
        assert q.renew_pool(new) is True
        assert not new.lost

    def test_release_pool_expires_the_lease_and_keeps_the_count(self, tmp_path):
        import numpy as np

        q, lease, _ = self._pool(tmp_path)
        q.publish_slot(FP, 2, np.linspace(0.0, 0.9, 5), 1, 0.5)
        assert q.pool_status() == (1, 2, True)
        q.release_pool(lease)
        assert not q.pool_building()
        assert q.pool_status() == (1, 2, False)
        assert q.wait_slot(FP, 0, poll=0.01) is None  # nothing left to wait for


class TestRetryBudget:
    def test_exhaustion_after_repeated_expiry(self, tmp_path):
        q, tasks, clock = make_queue(tmp_path)  # budget 3
        tid = tasks[0].tid
        for expected in (1, 2, 3):
            lease = q.try_claim(tid, f"w{expected}")
            assert lease is not None and lease.attempt == expected
            clock.advance(31.0)
        assert q.try_claim(tid, "w4") is None
        assert q.exhausted(tid)
        assert q.attempts_used(tid) >= q.retry_budget
        # other tasks are unaffected
        assert not q.exhausted(tasks[1].tid)

    def test_attempt_counter_is_monotone(self, tmp_path):
        q, tasks, clock = make_queue(tmp_path)
        tid = tasks[0].tid
        assert q.attempts_used(tid) == 0
        q.try_claim(tid, "w1")
        assert q.attempts_used(tid) == 1
        clock.advance(31.0)
        q.try_claim(tid, "w2")
        assert q.attempts_used(tid) == 2


class TestResults:
    def test_first_commit_wins(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        tid = tasks[0].tid
        assert q.commit_result(tid, {"index": 0, "worker": "w1"}) is True
        assert q.commit_result(tid, {"index": 0, "worker": "w2"}) is False
        assert q.read_result(tid)["worker"] == "w1"

    def test_read_absent_is_none(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        assert q.read_result(tasks[0].tid) is None
        assert not q.has_result(tasks[0].tid)

    def test_tmp_scratch_is_invisible(self, tmp_path):
        """Corrupt in-flight files (a SIGKILLed writer's debris) never
        surface as results or leases."""
        q, tasks, _ = make_queue(tmp_path)
        (q.tmp_dir / f".{tasks[0].tid}.999.deadbeef.json").write_text("{gar")
        assert q.read_result(tasks[0].tid) is None
        assert q.status(tasks).done == 0
        assert q.live_leases() == {}


class TestScans:
    def test_status_partitions_every_task(self, tmp_path):
        q, tasks, clock = make_queue(tmp_path)
        q.commit_result(tasks[0].tid, {"index": 0})     # done
        q.try_claim(tasks[1].tid, "w1")                  # claimed (live)
        old = q.try_claim(tasks[2].tid, "w2")            # will expire
        assert old is not None
        clock.advance(31.0)
        lease = q.try_claim(tasks[3].tid, "w3")          # re-claimed live
        assert lease is not None
        st = q.status(tasks)
        assert (st.total, st.done, st.claimed, st.expired, st.available) == (
            4, 1, 1, 2, 0,
        )
        assert st.pending == 3
        assert set(st.workers) == {"w1", "w2", "w3"}
        assert st.exhausted == []

    def test_status_reads_manifest_when_tasks_omitted(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        assert q.status().total == len(tasks)

    def test_lease_scans_split_on_expiry(self, tmp_path):
        q, tasks, clock = make_queue(tmp_path)
        q.try_claim(tasks[0].tid, "w1")
        clock.advance(31.0)
        q.try_claim(tasks[1].tid, "w2")
        assert set(q.live_leases()) == {tasks[1].tid}
        assert set(q.expired_leases()) == {tasks[0].tid}


class TestOutages:
    def test_missing_directory_raises_queue_unavailable(self, tmp_path):
        q = WorkQueue(tmp_path / "never-created")
        with pytest.raises(QueueUnavailable) as ei:
            q.try_claim("sometid", "w1")
        assert ei.value.errno == 2  # ENOENT travels with the wrapper

    def test_commit_into_dead_queue_raises(self, tmp_path):
        q, tasks, _ = make_queue(tmp_path)
        import shutil

        shutil.rmtree(q.root)
        with pytest.raises(QueueUnavailable):
            q.commit_result(tasks[0].tid, {"index": 0})

    def test_a_missing_queue_stays_missing(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "never-created"
        q = WorkQueue(root)
        assert q.pool_status() == (0, 0, False)
        assert main(["queue-status", "--queue", str(root)]) == 0
        assert "no manifest yet" in capsys.readouterr().out
        assert not root.exists()

    def test_scans_survive_missing_subdirs(self, tmp_path):
        q = WorkQueue(tmp_path / "half")
        os.makedirs(q.root)
        assert q.live_leases() == {}
        assert q.status([]).total == 0
