"""The deterministic failpoint framework (``repro.chaos``).

Three contracts under test:

* **Spec + determinism** — the schedule mini-language parses/rejects
  correctly, and every fire decision is a pure function of
  ``(seed, spec, epoch, hit index)``.
* **Strict no-op** — with no schedule active (or an active schedule
  whose rules match other sites), the store/checkpoint/queue commit
  paths produce byte-identical files to the pre-chaos protocols.
* **Site coverage** — every registered site in
  :data:`repro.chaos.failpoints.SITES` is exercised through its *real*
  code path by at least one test here; the registry meta-test fails
  the build when a new site ships without one.
"""

import errno
import json
import multiprocessing
import os

import pytest

from repro.apps import MILC
from repro.chaos import (
    SITES,
    ChaosSchedule,
    ChaosSpecError,
    CRASH_EXIT_CODE,
    activate,
    active,
    deactivate,
    failpoint,
)
from repro.chaos import failpoints as fp
from repro.core import checkpoint as ckpt
from repro.core.biases import AD0, AD3
from repro.core.checkpoint import StoreUnavailableError
from repro.core.experiment import (
    CampaignConfig,
    campaign_fingerprint,
    prepare_checkpoint,
    run_campaign,
)
from repro.dist import (
    DistWorker,
    WorkQueue,
    build_tasks,
    campaign_to_manifest,
)
from repro.dist.queue import Lease, QueueUnavailable
from repro.service import CampaignService, RunRecordStore
from repro.telemetry import resolve_telemetry
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)


@pytest.fixture(autouse=True)
def _no_leftover_schedule():
    """Chaos state is process-global: never leak it between tests."""
    deactivate()
    yield
    deactivate()


@pytest.fixture(scope="module")
def top():
    return mini()


def _cfg(**kw):
    kw.setdefault("samples", 1)
    kw.setdefault("seed", 11)
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), scenario_pool=4, **kw
    )


FP = {"app": "milc", "seed": 11}
REC = {"runtime": 1.5, "mode": "AD0"}


# ----------------------------------------------------------------------
# schedule spec mini-language
# ----------------------------------------------------------------------
class TestSpec:
    def test_parses_rules_and_params(self):
        s = ChaosSchedule.parse(
            "store.commit.pre_rename:enospc:p=0.25; queue.*:eio:at=2,times=3; "
            "worker.heartbeat:latency:ms=5",
            seed=9,
        )
        assert [r.action for r in s.rules] == ["enospc", "eio", "latency"]
        assert s.rules[0].p == 0.25
        assert s.rules[1].at == 2 and s.rules[1].times == 3
        assert s.rules[2].ms == 5.0

    def test_empty_spec_is_an_empty_schedule(self):
        assert ChaosSchedule.parse("  ").rules == []
        assert ChaosSchedule.parse(";;").rules == []

    @pytest.mark.parametrize(
        "bad",
        [
            "store.get.read",  # missing action
            "store.get.read:explode",  # unknown action
            "store.get.read:eio:p=1.5",  # p out of range
            "store.get.read:eio:at=0",  # at is 1-based
            "store.get.read:eio:times=0",
            "store.get.read:eio:ms=-1",
            "store.get.read:eio:bogus=1",  # unknown parameter
            "store.get.read:eio:p",  # not k=v
            "store.get.read:eio:p=x",  # bad value
            ":eio",  # empty site
            "a:b:c:d",  # too many fields
        ],
    )
    def test_rejects_malformed_clauses(self, bad):
        with pytest.raises(ChaosSpecError):
            ChaosSchedule.parse(bad)

    def test_activate_rejects_unregistered_site_pattern(self):
        with pytest.raises(ChaosSpecError):
            activate(ChaosSchedule.parse("no.such.site:crash"))

    def test_glob_patterns_match_registered_sites(self):
        activate(ChaosSchedule.parse("queue.*:trace"))
        assert fp.is_active()

    def test_env_unset_is_inactive(self):
        assert fp.activate_from_env({}) is None
        assert not fp.is_active()

    def test_env_bad_spec_raises_value_error(self):
        with pytest.raises(ValueError):
            fp.activate_from_env({"REPRO_CHAOS": "bogus:crash"})


# ----------------------------------------------------------------------
# deterministic decisions
# ----------------------------------------------------------------------
def _fire_pattern(seed: int, epoch: int, hits: int = 40) -> list[int]:
    s = ChaosSchedule.parse("worker.heartbeat:trace:p=0.5", seed=seed, epoch=epoch)
    out = []
    for i in range(hits):
        before = len(s.fired)
        s.hit("worker.heartbeat")
        out.append(len(s.fired) - before)
    return out


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        assert _fire_pattern(7, 0) == _fire_pattern(7, 0)

    def test_seed_changes_decisions(self):
        assert _fire_pattern(7, 0) != _fire_pattern(8, 0)

    def test_epoch_decorrelates_probability_draws(self):
        assert _fire_pattern(7, 0) != _fire_pattern(7, 1)

    def test_at_fires_exactly_once_per_process(self):
        s = ChaosSchedule.parse("worker.heartbeat:trace:at=3")
        for _ in range(10):
            s.hit("worker.heartbeat")
        assert [e["hit"] for e in s.fired] == [3]

    def test_times_caps_fires(self):
        s = ChaosSchedule.parse("worker.heartbeat:trace:times=2")
        for _ in range(5):
            s.hit("worker.heartbeat")
        assert len(s.fired) == 2

    def test_fired_log_written_before_action(self, tmp_path):
        log = tmp_path / "fired.jsonl"
        s = ChaosSchedule.parse("worker.heartbeat:eio", log_path=str(log))
        with pytest.raises(OSError):
            s.hit("worker.heartbeat")
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert entries[0]["site"] == "worker.heartbeat"
        assert entries[0]["action"] == "eio"


# ----------------------------------------------------------------------
# zero-cost no-op + golden byte-identity
# ----------------------------------------------------------------------
class TestStrictNoOp:
    def test_inactive_failpoint_is_a_pure_return(self):
        assert failpoint("store.get.read") is None
        assert not fp.is_active()

    def test_store_entry_bytes_identical_with_chaos_off_and_unmatched(
        self, tmp_path
    ):
        """Golden no-op: routing writes through repro.util.durable must
        not change a single committed byte."""
        a = RunRecordStore(tmp_path / "a")
        a.put(FP, 0, "AD0", REC)
        with active(ChaosSchedule.parse("worker.heartbeat:trace")):
            b = RunRecordStore(tmp_path / "b")
            b.put(FP, 0, "AD0", REC)
        pa = a.entries_dir / os.listdir(a.entries_dir)[0]
        pb = b.entries_dir / os.listdir(b.entries_dir)[0]
        assert pa.read_bytes() == pb.read_bytes()

    def test_checkpoint_bytes_identical_with_chaos_active_unmatched(
        self, top, tmp_path
    ):
        clean = tmp_path / "clean.jsonl"
        run_campaign(top, _cfg(), checkpoint_path=str(clean), jobs=1)
        with active(ChaosSchedule.parse("queue.lease.renew:trace")):
            observed = tmp_path / "observed.jsonl"
            run_campaign(top, _cfg(), checkpoint_path=str(observed), jobs=1)
        assert observed.read_bytes() == clean.read_bytes()


# ----------------------------------------------------------------------
# action semantics
# ----------------------------------------------------------------------
def _crash_child():
    activate(ChaosSchedule.parse("worker.heartbeat:crash"))
    failpoint("worker.heartbeat")
    os._exit(0)  # pragma: no cover - the failpoint must not return


class TestActions:
    def test_enospc_and_eio_carry_errno_and_filename(self, tmp_path):
        target = tmp_path / "f"
        for action, eno in (("enospc", errno.ENOSPC), ("eio", errno.EIO)):
            s = ChaosSchedule.parse(f"worker.heartbeat:{action}")
            with pytest.raises(OSError) as ei:
                s.hit("worker.heartbeat", path=target)
            assert ei.value.errno == eno
            assert ei.value.filename == str(target)

    def test_latency_uses_the_injected_sleeper(self):
        slept = []
        s = ChaosSchedule.parse("worker.heartbeat:latency:ms=250", sleeper=slept.append)
        s.hit("worker.heartbeat")
        assert slept == [0.25]

    def test_torn_append_leaves_half_the_payload(self, tmp_path):
        target = tmp_path / "t"
        s = ChaosSchedule.parse("worker.heartbeat:torn")
        with pytest.raises(OSError) as ei:
            s.hit("worker.heartbeat", path=target, data="0123456789")
        assert ei.value.errno == errno.EIO
        assert target.read_bytes() == b"01234"

    def test_torn_truncates_an_existing_file_without_payload(self, tmp_path):
        target = tmp_path / "t"
        target.write_bytes(b"x" * 100)
        s = ChaosSchedule.parse("worker.heartbeat:torn")
        with pytest.raises(OSError):
            s.hit("worker.heartbeat", path=target)
        assert target.stat().st_size == 50

    def test_crash_exits_with_the_sigkill_code(self):
        proc = multiprocessing.get_context("fork").Process(target=_crash_child)
        proc.start()
        proc.join(30)
        assert proc.exitcode == CRASH_EXIT_CODE


# ----------------------------------------------------------------------
# per-site coverage: each registered site through its real code path.
# Add the new site's exercise here when you register one — the
# meta-test at the bottom will not let you forget.
# ----------------------------------------------------------------------
def _exercise_store_commit_post_tmp(top, tmp_path):
    store = RunRecordStore(tmp_path / "cache")
    with active(ChaosSchedule.parse("store.commit.post_tmp:torn")):
        with pytest.raises(StoreUnavailableError):
            store.put(FP, 0, "AD0", REC)
    # the torn scratch never became a visible entry, and was cleaned up
    assert os.listdir(store.entries_dir) == []
    assert os.listdir(store.tmp_dir) == []
    assert store.get(FP, 0, "AD0") is None


def _exercise_store_commit_pre_rename(top, tmp_path):
    store = RunRecordStore(tmp_path / "cache")
    with active(ChaosSchedule.parse("store.commit.pre_rename:enospc")):
        with pytest.raises(StoreUnavailableError) as ei:
            store.put(FP, 0, "AD0", REC)
    assert ei.value.errno == errno.ENOSPC
    assert os.listdir(store.entries_dir) == []
    assert os.listdir(store.tmp_dir) == []
    # the store recovers the moment the disk does
    assert store.put(FP, 0, "AD0", REC) is True
    assert store.get(FP, 0, "AD0") == REC


def _exercise_store_get_read(top, tmp_path):
    store = RunRecordStore(tmp_path / "cache")
    store.put(FP, 0, "AD0", REC)
    with active(ChaosSchedule.parse("store.get.read:eio")):
        assert store.get(FP, 0, "AD0") is None  # EIO degrades to a miss
    assert store.get(FP, 0, "AD0") == REC  # and the entry survives it


def _exercise_checkpoint_append(top, tmp_path):
    path = tmp_path / "ck.jsonl"
    fingerprint = campaign_fingerprint(top, _cfg())
    records = run_campaign(top, _cfg(), jobs=1)
    ckpt.write_header(path, fingerprint)
    ckpt.append_record(path, records[0])
    good = path.read_bytes()
    with active(ChaosSchedule.parse("checkpoint.append:torn")):
        with pytest.raises(StoreUnavailableError):
            ckpt.append_record(path, records[1])
    assert path.read_bytes() != good  # the torn half-line landed
    # repair_tail removes exactly the torn fragment — the crash path
    assert ckpt.repair_tail(path) is True
    assert path.read_bytes() == good


def _crash_in_checkpoint_rewrite(path, top, resume):
    activate(ChaosSchedule.parse("checkpoint.rewrite:crash"))
    prepare_checkpoint(path, top, _cfg(), resume)
    os._exit(0)  # pragma: no cover - the failpoint must not return


def _crash_child_leaves_checkpoint(path, top, resume):
    """Kill a campaign start mid-rewrite; the old bytes must survive."""
    good = path.read_bytes()
    proc = multiprocessing.get_context("fork").Process(
        target=_crash_in_checkpoint_rewrite, args=(str(path), top, resume)
    )
    proc.start()
    proc.join(60)
    assert proc.exitcode == CRASH_EXIT_CODE
    assert path.read_bytes() == good
    # the killed writer's fsynced scratch is hidden beside it, unread
    leftover = [n for n in os.listdir(path.parent) if n != path.name]
    assert all(n.startswith(f".{path.name}.") and n.endswith(".tmp") for n in leftover)


def _exercise_checkpoint_rewrite(top, tmp_path):
    path = tmp_path / "ck.jsonl"
    run_campaign(top, _cfg(), checkpoint_path=str(path), jobs=1)
    good = path.read_bytes()
    with active(ChaosSchedule.parse("checkpoint.rewrite:enospc")):
        with pytest.raises(StoreUnavailableError):
            prepare_checkpoint(str(path), top, _cfg(), resume=True)
    assert path.read_bytes() == good
    assert os.listdir(tmp_path) == ["ck.jsonl"]  # the scratch was removed
    _crash_child_leaves_checkpoint(path, top, resume=True)
    # and a following --resume still completes to the same bytes
    run_campaign(top, _cfg(), checkpoint_path=str(path), resume=True, jobs=1)
    assert path.read_bytes() == good


class TestCheckpointHeader:
    def test_interrupted_header_write_keeps_the_previous_file(self, top, tmp_path):
        path = tmp_path / "ck.jsonl"
        run_campaign(top, _cfg(), checkpoint_path=str(path), jobs=1)
        good = path.read_bytes()
        with active(ChaosSchedule.parse("checkpoint.rewrite:enospc")):
            with pytest.raises(StoreUnavailableError):
                ckpt.write_header(path, campaign_fingerprint(top, _cfg(seed=12)))
        assert path.read_bytes() == good
        _crash_child_leaves_checkpoint(path, top, resume=False)
        run_campaign(top, _cfg(), checkpoint_path=str(path), resume=True, jobs=1)
        assert path.read_bytes() == good


def _exercise_queue_lease_claim(top, tmp_path):
    cfg = _cfg()
    q = WorkQueue(tmp_path / "q", ttl=300.0)
    tasks = build_tasks(top, cfg)
    q.create(campaign_to_manifest(top, cfg, resolve_telemetry(None)), tasks)
    with active(ChaosSchedule.parse("queue.lease.claim:eio")):
        with pytest.raises(QueueUnavailable):
            q.try_claim(tasks[0].tid, "w:1")
    assert q.try_claim(tasks[0].tid, "w:1") is not None  # recovers


def _exercise_queue_lease_renew(top, tmp_path):
    cfg = _cfg()
    q = WorkQueue(tmp_path / "q", ttl=300.0)
    tasks = build_tasks(top, cfg)
    q.create(campaign_to_manifest(top, cfg, resolve_telemetry(None)), tasks)
    lease = q.try_claim(tasks[0].tid, "w:1")
    assert isinstance(lease, Lease)
    with active(ChaosSchedule.parse("queue.lease.renew:enospc")):
        with pytest.raises(QueueUnavailable):
            q.renew(lease)
    assert not lease.lost  # an outage is not a steal
    assert q.renew(lease) is True


def _exercise_queue_commit_post_tmp(top, tmp_path):
    cfg = _cfg()
    q = WorkQueue(tmp_path / "q", ttl=300.0)
    tasks = build_tasks(top, cfg)
    q.create(campaign_to_manifest(top, cfg, resolve_telemetry(None)), tasks)
    with active(ChaosSchedule.parse("queue.commit.post_tmp:torn")):
        with pytest.raises(QueueUnavailable):
            q.commit_result(tasks[0].tid, {"record": {"x": 1}})
    assert q.read_result(tasks[0].tid) is None  # nothing became visible
    assert list((tmp_path / "q" / "tmp").iterdir()) == []  # scratch cleaned


def _exercise_queue_commit_link(top, tmp_path):
    cfg = _cfg()
    q = WorkQueue(tmp_path / "q", ttl=300.0)
    tasks = build_tasks(top, cfg)
    q.create(campaign_to_manifest(top, cfg, resolve_telemetry(None)), tasks)
    with active(ChaosSchedule.parse("queue.commit.link:eio")):
        with pytest.raises(QueueUnavailable):
            q.commit_result(tasks[0].tid, {"record": {"x": 1}})
    assert q.read_result(tasks[0].tid) is None
    assert q.commit_result(tasks[0].tid, {"record": {"x": 1}}) is True  # recovers


def _exercise_worker_heartbeat(top, tmp_path):
    """Heartbeat loss is advisory: the worker still finishes the task."""
    cfg = _cfg()
    qdir = tmp_path / "q"
    q = WorkQueue(qdir, ttl=300.0)
    tasks = build_tasks(top, cfg)
    q.create(campaign_to_manifest(top, cfg, resolve_telemetry(None)), tasks)
    with active(ChaosSchedule.parse("worker.heartbeat:eio")):
        stats = DistWorker(WorkQueue(qdir), owner="hb:1", poll=0.01).run()
    assert stats.executed == len(tasks)
    assert all(q.read_result(t.tid) is not None for t in tasks)


def _exercise_service_job_dispatch(top, tmp_path):
    cfg = _cfg()
    store = RunRecordStore(tmp_path / "cache")
    service = CampaignService(store)
    manifest = campaign_to_manifest(top, cfg, resolve_telemetry(None))
    with active(ChaosSchedule.parse("service.job.dispatch:eio")):
        job, deduped = service.submit(manifest)
        assert job.done_evt.wait(60)
    assert not deduped
    assert job.state == "error"
    assert "injected" in (job.error or "")


def _exercise_service_journal_append(top, tmp_path):
    cfg = _cfg()
    store = RunRecordStore(tmp_path / "cache")
    service = CampaignService(store, journal_dir=str(tmp_path / "journal"))
    manifest = campaign_to_manifest(top, cfg, resolve_telemetry(None))
    with active(ChaosSchedule.parse("service.journal.append:enospc")):
        job, _ = service.submit(manifest)
        assert job.done_evt.wait(120)
    # journal loss is survivable: the campaign ran, the failures counted
    assert job.state == "done"
    assert service.journal_errors >= 1
    assert service.journal.pending() == []


SITE_EXERCISES = {
    "store.commit.post_tmp": _exercise_store_commit_post_tmp,
    "store.commit.pre_rename": _exercise_store_commit_pre_rename,
    "store.get.read": _exercise_store_get_read,
    "checkpoint.append": _exercise_checkpoint_append,
    "checkpoint.rewrite": _exercise_checkpoint_rewrite,
    "queue.lease.claim": _exercise_queue_lease_claim,
    "queue.lease.renew": _exercise_queue_lease_renew,
    "queue.commit.post_tmp": _exercise_queue_commit_post_tmp,
    "queue.commit.link": _exercise_queue_commit_link,
    "worker.heartbeat": _exercise_worker_heartbeat,
    "service.job.dispatch": _exercise_service_job_dispatch,
    "service.journal.append": _exercise_service_journal_append,
}


class TestSiteCoverage:
    @pytest.mark.parametrize("site", sorted(SITE_EXERCISES))
    def test_site(self, site, top, tmp_path):
        SITE_EXERCISES[site](top, tmp_path)

    def test_every_site_has_a_chaos_test(self):
        """Registry completeness: shipping a failpoint without a chaos
        test exercising it fails the build right here."""
        assert set(SITE_EXERCISES) == set(SITES), (
            "every site in repro.chaos.failpoints.SITES needs an entry in "
            "SITE_EXERCISES (and vice versa); update both together"
        )
