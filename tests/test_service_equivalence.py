"""Byte-equivalence contract of the memoizing campaign executor.

The claim under test (ISSUE 9 acceptance): for the same campaign,
**cold** (empty cache), **warm** (fully populated), and **mixed**
(partial hits) executions of :func:`repro.service.run_campaign_cached`
all produce records and checkpoint JSONL byte-identical to a plain
serial :func:`repro.core.experiment.run_campaign` — and a warm replay
executes *zero* simulation steps.  Without ``--cache``, the CLI is a
strict no-op over the uncached path.
"""

import json

import pytest

from repro.apps import MILC
from repro.core import checkpoint as ckpt
from repro.core.biases import AD0, AD3
from repro.core.experiment import (
    CampaignConfig,
    campaign_fingerprint,
    run_campaign,
)
from repro.service import RunRecordStore, entry_key, run_campaign_cached
from repro.telemetry import MetricsRegistry, Telemetry
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
    return [ckpt.record_to_dict(r) for r in records]


@pytest.fixture(scope="module")
def serial(top, tmp_path_factory):
    """The ground truth: serial records + checkpoint bytes."""
    path = tmp_path_factory.mktemp("serial") / "ck.jsonl"
    records = run_campaign(top, _cfg(), checkpoint_path=str(path))
    return _dicts(records), path.read_bytes()


class TestColdWarmMixed:
    def test_cold_run_matches_serial(self, top, serial, tmp_path):
        recs, bytes_ = serial
        store = RunRecordStore(tmp_path / "cache")
        ck = tmp_path / "cold.jsonl"
        out = run_campaign_cached(
            top, _cfg(), store=store, checkpoint_path=str(ck)
        )
        assert out.hits == 0 and out.misses == len(recs)
        assert _dicts(out.records) == recs
        assert ck.read_bytes() == bytes_

    def test_warm_run_is_byte_identical_and_executes_nothing(
        self, top, serial, tmp_path, monkeypatch
    ):
        recs, bytes_ = serial
        store = RunRecordStore(tmp_path / "cache")
        run_campaign_cached(top, _cfg(), store=store)

        # zero simulation steps: any dispatch on the warm pass is a bug
        import repro.core.pipeline as pipeline

        def _boom(*a, **k):
            raise AssertionError("warm replay executed a simulation run")

        monkeypatch.setattr(pipeline, "execute_run", _boom)
        tel = Telemetry(metrics=MetricsRegistry(enabled=True))
        ck = tmp_path / "warm.jsonl"
        out = run_campaign_cached(
            top, _cfg(), store=store, checkpoint_path=str(ck), telemetry=tel
        )
        assert out.hits == len(recs) and out.misses == 0
        assert _dicts(out.records) == recs
        assert ck.read_bytes() == bytes_
        # the hit counter is on both surfaces: campaign metrics and store
        assert tel.metrics.counter("cache_hits_total").value == len(recs)
        assert store.stats().hits == len(recs)
        # no run executed → no campaign_samples_total increments
        assert "campaign_samples_total" not in tel.metrics.to_json()

    def test_mixed_hits_and_misses_match_serial(self, top, serial, tmp_path):
        recs, bytes_ = serial
        store = RunRecordStore(tmp_path / "cache")
        run_campaign_cached(top, _cfg(), store=store)
        # knock out half the entries (every other canonical run)
        fp = campaign_fingerprint(top, _cfg())
        runs = [(i, m.name) for i in range(3) for m in (AD0, AD3)]
        for n, (i, mode) in enumerate(runs):
            if n % 2 == 1:
                store._path(entry_key(fp, i, mode)).unlink()
        ck = tmp_path / "mixed.jsonl"
        out = run_campaign_cached(
            top, _cfg(), store=store, checkpoint_path=str(ck)
        )
        assert out.hits == 3 and out.misses == 3
        assert _dicts(out.records) == recs
        assert ck.read_bytes() == bytes_

    def test_warm_parallel_dispatch_matches_serial(self, top, serial, tmp_path):
        """Mixed cache + fork-pool misses: still byte-identical."""
        recs, bytes_ = serial
        store = RunRecordStore(tmp_path / "cache")
        ck = tmp_path / "pool.jsonl"
        out = run_campaign_cached(
            top, _cfg(), store=store, checkpoint_path=str(ck), jobs=2
        )
        assert out.misses == len(recs)
        assert _dicts(out.records) == recs
        assert ck.read_bytes() == bytes_
        # and the pool-produced entries serve a warm serial replay
        out2 = run_campaign_cached(top, _cfg(), store=store)
        assert out2.hits == len(recs)
        assert _dicts(out2.records) == recs

    def test_resume_plus_cache_matches_serial(self, top, serial, tmp_path):
        """A torn checkpoint resumed against a warm cache: the rewritten
        file ends byte-identical to the uninterrupted serial one."""
        recs, bytes_ = serial
        store = RunRecordStore(tmp_path / "cache")
        run_campaign_cached(top, _cfg(), store=store)
        ck = tmp_path / "resume.jsonl"
        # keep header + first two records, as if SIGKILLed mid-campaign
        lines = bytes_.splitlines(keepends=True)
        ck.write_bytes(b"".join(lines[:3]))
        out = run_campaign_cached(
            top, _cfg(), store=store, checkpoint_path=str(ck), resume=True
        )
        assert out.resumed == 2 and out.hits == len(recs) - 2
        assert _dicts(out.records) == recs
        assert ck.read_bytes() == bytes_


class TestErrorRecordsNotCached:
    def test_failed_runs_reexecute_on_next_campaign(self, top, tmp_path):
        """Error-status records never enter the store: a campaign whose
        runs fail deterministically gets zero hits on replay."""
        cfg = _cfg(samples=1)
        from repro.core import experiment

        store = RunRecordStore(tmp_path / "cache")
        tel = Telemetry(metrics=MetricsRegistry(enabled=True))

        real = experiment.execute_run

        def _fail(top_, run_top, cfg_, i, mode, nodes, bg, intensity, tel_):
            # what execute_run returns when the run itself fails
            return experiment._error_record(
                cfg_, mode, i, 1, float(intensity), RuntimeError("boom"), 1
            )

        import repro.core.pipeline as pipeline

        orig = pipeline.execute_run
        pipeline.execute_run = _fail
        try:
            out1 = run_campaign_cached(top, cfg, store=store, telemetry=tel)
        finally:
            pipeline.execute_run = orig
        assert all(not r.ok for r in out1.records)
        assert len(store) == 0  # nothing cached
        out2 = run_campaign_cached(top, cfg, store=store)
        assert out2.hits == 0 and out2.misses == len(out2.records)
        assert all(r.ok for r in out2.records)
        assert real is experiment.execute_run  # monkeypatch fully undone


class TestCacheDisabledIsNoOp:
    def test_cli_without_cache_flag_matches_library_serial(
        self, top, serial, tmp_path, capsys
    ):
        """`repro compare` without --cache is the seed behavior: same
        checkpoint bytes as a plain run_campaign, no cache artifacts."""
        from repro.cli import main

        recs, bytes_ = serial
        ck = tmp_path / "cli.jsonl"
        rc = main(
            [
                "compare", "--system", "mini", "--app", "milc",
                "--nodes", "32", "--samples", "3", "--seed", "11",
                "--checkpoint", str(ck),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache:" not in out  # no cache accounting printed
        # scenario_pool differs between CLI default and _cfg, so compare
        # structure rather than bytes: header + one line per run
        lines = ck.read_bytes().splitlines()
        assert len(lines) == 1 + len(recs)

    def test_cli_with_cache_flag_is_byte_identical_to_serial(
        self, top, serial, tmp_path, capsys
    ):
        from repro.cli import main

        _, _ = serial
        ck_plain = tmp_path / "plain.jsonl"
        ck_cached = tmp_path / "cached.jsonl"
        argv = [
            "compare", "--system", "mini", "--app", "milc",
            "--nodes", "32", "--samples", "2", "--seed", "11",
        ]
        assert main(argv + ["--checkpoint", str(ck_plain)]) == 0
        assert (
            main(
                argv
                + ["--checkpoint", str(ck_cached), "--cache", str(tmp_path / "c")]
            )
            == 0
        )
        assert ck_cached.read_bytes() == ck_plain.read_bytes()
        out = capsys.readouterr().out
        assert "cache: 0 hit(s)  4 miss(es)" in out


class TestStoredEntryShape:
    def test_entries_are_canonical_record_dicts(self, top, tmp_path):
        """What the store holds is exactly the checkpoint wire form, so
        any other consumer (service, dist merge) round-trips it."""
        cfg = _cfg(samples=1)
        store = RunRecordStore(tmp_path / "cache")
        out = run_campaign_cached(top, cfg, store=store)
        fp = campaign_fingerprint(top, cfg)
        for rec in out.records:
            got = store.get(fp, rec.sample_index, rec.mode)
            assert got == ckpt.record_to_dict(rec)
            # the JSON bytes the checkpoint would write are reproducible
            assert json.dumps(got) == json.dumps(
                ckpt.record_to_dict(ckpt.record_from_dict(got))
            )
