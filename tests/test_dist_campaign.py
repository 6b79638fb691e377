"""Serial ≡ distributed equivalence suite (``repro.dist``).

The distributed coordinator's contract mirrors the parallel one: worker
count, host count, completion order, speculation, and fallback are all
unobservable — records and checkpoint bytes must be identical to a
serial run.  Workers here are real forked processes sharing a tmp-dir
queue; the fallback tests run with no workers at all.
"""

import json
import multiprocessing as mp
import threading

import pytest

from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.checkpoint import record_to_dict
from repro.core.experiment import CampaignConfig, campaign_fingerprint, run_campaign
from repro.core.pipeline import run_pipeline
from repro.dist import (
    DistDispatcher,
    DistWorker,
    NotDistributable,
    WorkQueue,
    build_tasks,
    campaign_to_manifest,
    manifest_to_campaign,
)
from repro.faults import FaultSchedule
from repro.guard import GuardPolicy
from repro.telemetry import (
    MemoryTraceWriter,
    MetricsRegistry,
    Telemetry,
    resolve_telemetry,
)
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)


@pytest.fixture(scope="module")
def top():
    return mini()


def _cfg(**kw):
    kw.setdefault("samples", 3)
    kw.setdefault("seed", 11)
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), scenario_pool=4, **kw
    )


def _dicts(records):
    return [record_to_dict(r) for r in records]


@pytest.fixture(scope="module")
def serial(top, tmp_path_factory):
    """The ground truth every distributed variant must reproduce."""
    path = tmp_path_factory.mktemp("serial") / "ckpt.jsonl"
    records = run_campaign(top, _cfg(), jobs=1, checkpoint_path=str(path))
    return records, path.read_bytes()


def _worker_main(queue_dir, owner):
    DistWorker(WorkQueue(queue_dir), owner=owner, poll=0.05).run()


class TestManifestRoundTrip:
    def test_rebuilds_identical_campaign(self, top):
        cfg = _cfg(
            faults=FaultSchedule.parse("rank3:0.25", seed=7),
            guard=GuardPolicy(deadline=60.0),
        )
        wire = json.loads(json.dumps(campaign_to_manifest(top, cfg, resolve_telemetry(None))))
        top2, cfg2 = manifest_to_campaign(wire)
        assert campaign_fingerprint(top2, cfg2) == campaign_fingerprint(top, cfg)
        assert cfg2.faults == cfg.faults
        assert cfg2.faults.source == "rank3:0.25"
        assert cfg2.guard == cfg.guard
        assert [m.name for m in cfg2.modes] == ["AD0", "AD3"]

    def test_bundle_dir_rewritten_for_workers(self, top):
        cfg = _cfg(guard=GuardPolicy(deadline=60.0, bundle_dir="/coordinator/bundles"))
        wire = campaign_to_manifest(top, cfg, resolve_telemetry(None))
        _, cfg2 = manifest_to_campaign(wire, bundle_dir="/queue/bundles")
        assert cfg2.guard.bundle_dir == "/queue/bundles"

    def test_custom_fluid_params_not_distributable(self, top):
        from repro.network.fluid import FluidParams

        cfg = _cfg(params=FluidParams())
        with pytest.raises(NotDistributable, match="FluidParams"):
            campaign_to_manifest(top, cfg, resolve_telemetry(None))

    def test_programmatic_faults_not_distributable(self, top):
        sched = FaultSchedule.parse("rank3:0.25;router:1", seed=7)
        # with_spec drops the parse source — no longer wire-serializable
        sched = sched.with_spec(sched.specs[0])
        cfg = _cfg(faults=sched)
        with pytest.raises(NotDistributable, match="parse"):
            campaign_to_manifest(top, cfg, resolve_telemetry(None))

    def test_tampered_fingerprint_rejected(self, top):
        wire = campaign_to_manifest(top, _cfg(), resolve_telemetry(None))
        wire["fingerprint"] = {**wire["fingerprint"], "seed": 999}
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            manifest_to_campaign(wire)

    def test_tasks_are_canonical_and_content_addressed(self, top):
        cfg = _cfg()
        tasks = build_tasks(top, cfg)
        assert [t.index for t in tasks] == list(range(6))
        assert [(t.sample, t.mode) for t in tasks] == [
            (i, m) for i in range(3) for m in ("AD0", "AD3")
        ]
        assert len({t.tid for t in tasks}) == 6
        assert tasks == build_tasks(top, cfg)  # deterministic
        # a different campaign can never collide on task ids
        other = build_tasks(top, _cfg(seed=12))
        assert not ({t.tid for t in tasks} & {t.tid for t in other})


class TestDistributedEquivalence:
    def test_two_forked_workers_byte_identical(self, top, serial, tmp_path):
        serial_records, serial_bytes = serial
        qdir = tmp_path / "queue"
        ckpt = tmp_path / "dist.jsonl"
        ctx = mp.get_context("fork")
        workers = [
            ctx.Process(target=_worker_main, args=(str(qdir), f"host{i}:1"))
            for i in range(2)
        ]
        for w in workers:
            w.start()
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        try:
            records = run_pipeline(
                top,
                _cfg(),
                DistDispatcher(WorkQueue(qdir), poll=0.05, fallback_after=300.0),
                telemetry=tel,
                checkpoint_path=str(ckpt),
            ).records
        finally:
            for w in workers:
                w.join(timeout=60)
                assert w.exitcode == 0
        assert _dicts(records) == _dicts(serial_records)
        assert ckpt.read_bytes() == serial_bytes
        # observability: both workers were sighted, all runs merged
        owners = {e["owner"] for e in tel.trace.of_type("dist.worker")}
        assert len(owners) >= 1  # one worker may drain the whole queue
        samples = tel.trace.of_type("campaign.sample")
        assert len(samples) == 6
        assert all("worker" in e and "run_index" in e for e in samples)
        counters = tel.metrics.to_dict()
        assert counters["dist_tasks_done_total"]["value"] == 6

    def test_no_workers_falls_back_to_local_pool(self, top, serial, tmp_path):
        serial_records, serial_bytes = serial
        ckpt = tmp_path / "fb.jsonl"
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        records = run_pipeline(
            top,
            _cfg(),
            DistDispatcher(
                WorkQueue(tmp_path / "queue"), jobs=2, poll=0.05, fallback_after=0.5
            ),
            telemetry=tel,
            checkpoint_path=str(ckpt),
        ).records
        assert _dicts(records) == _dicts(serial_records)
        assert ckpt.read_bytes() == serial_bytes
        fallback = tel.trace.of_type("dist.fallback")
        assert len(fallback) == 1
        assert fallback[0]["remaining"] == 6

    def test_resume_skips_done_prefix(self, top, serial, tmp_path):
        serial_records, serial_bytes = serial
        lines = serial_bytes.decode().splitlines(True)
        part = tmp_path / "part.jsonl"
        part.write_text("".join(lines[: 1 + len(serial_records) // 2]))
        records = run_pipeline(
            top,
            _cfg(),
            DistDispatcher(
                WorkQueue(tmp_path / "queue"), jobs=2, poll=0.05, fallback_after=0.5
            ),
            checkpoint_path=str(part),
            resume=True,
        ).records
        assert _dicts(records) == _dicts(serial_records)
        assert part.read_bytes() == serial_bytes
        # resumed runs were never queued
        q = WorkQueue(tmp_path / "queue")
        m = q.load_manifest()
        assert len(q.manifest_tasks(m)) == 6 - len(serial_records) // 2

    def test_run_campaign_dispatches_on_queue_dir(self, top, serial, tmp_path):
        """The public entry point routes --queue campaigns to the
        coordinator; an in-process worker drains the queue."""
        serial_records, _ = serial
        qdir = tmp_path / "queue"
        t = threading.Thread(
            target=_worker_main, args=(str(qdir), "thread:1"), daemon=True
        )
        t.start()
        records = run_campaign(top, _cfg(), queue_dir=str(qdir))
        t.join(timeout=60)
        assert not t.is_alive()
        assert _dicts(records) == _dicts(serial_records)


class TestSpeculation:
    def test_tail_straggler_is_stolen_first_commit_wins(self, top, serial, tmp_path):
        """A worker with nothing claimable re-executes the straggler;
        the straggler's own late commit loses gracefully."""
        serial_records, _ = serial
        cfg = _cfg()
        qdir = tmp_path / "queue"
        coord = WorkQueue(qdir, ttl=300.0)
        tasks = build_tasks(top, cfg)
        coord.create(campaign_to_manifest(top, cfg, resolve_telemetry(None)), tasks)
        straggler = coord.try_claim(tasks[0].tid, "slow-host:1")
        assert straggler is not None

        w2 = DistWorker(WorkQueue(qdir), owner="fast-host:1", poll=0.01)
        stats = w2.run()
        assert stats.executed == 6  # 5 leased + 1 speculative duplicate
        assert stats.speculated == 1
        assert stats.committed == 6

        payload = coord.read_result(tasks[0].tid)
        assert payload["speculative"] is True
        assert payload["worker"] == "fast-host:1"
        # determinism: the stolen run's record is the serial one
        assert json.loads(payload["line"]) == record_to_dict(serial_records[0])
        # the straggler finally finishes: its commit must lose
        assert coord.commit_result(tasks[0].tid, {"late": True}) is False
        assert coord.read_result(tasks[0].tid)["worker"] == "fast-host:1"

    def test_speculation_respects_opt_out(self, top, tmp_path):
        cfg = _cfg(samples=1)
        qdir = tmp_path / "queue"
        coord = WorkQueue(qdir, ttl=300.0)
        tasks = build_tasks(top, cfg)
        coord.create(campaign_to_manifest(top, cfg, resolve_telemetry(None)), tasks)
        coord.try_claim(tasks[0].tid, "slow-host:1")
        w2 = DistWorker(
            WorkQueue(qdir), owner="fast-host:1", poll=0.01,
            speculate=False, max_seconds=2.0,
        )
        stats = w2.run()  # returns on max_seconds, not campaign completion
        assert stats.speculated == 0
        assert coord.read_result(tasks[0].tid) is None
