"""Concurrency and crash-safety contracts of the campaign service.

* **single-flight** — N concurrent identical submissions coalesce into
  one execution (one job id, one set of store puts);
* **isolation** — campaigns with distinct fingerprints never share
  cache entries, even when submitted concurrently;
* **crash atomicity** — an executor SIGKILLed at any instant leaves no
  torn cache entry: every visible entry is complete and valid, and a
  torn file planted at *every* truncation offset (the
  ``test_checkpoint_fuzz`` harness, pointed at the store) is
  quarantined, never served, never fatal.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.experiment import CampaignConfig, campaign_fingerprint
from repro.dist.manifest import campaign_to_manifest
from repro.service import (
    CampaignService,
    RunRecordStore,
    entry_key,
    run_campaign_cached,
)
from repro.service import client
from repro.service.store import _entry_digest
from repro.telemetry import NULL_TELEMETRY
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)


@pytest.fixture(scope="module")
def top():
    return mini()


def _cfg(**kw):
    kw.setdefault("samples", 2)
    kw.setdefault("seed", 11)
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), scenario_pool=4, **kw
    )


def _manifest(top, cfg):
    return campaign_to_manifest(top, cfg, NULL_TELEMETRY)


class TestSingleFlight:
    def test_concurrent_identical_submissions_execute_once(self, top, tmp_path):
        store = RunRecordStore(tmp_path / "cache")
        service = CampaignService(store).start()
        try:
            man = _manifest(top, _cfg())
            n = 6
            results: list[dict] = [None] * n
            barrier = threading.Barrier(n)

            def _submit(k):
                barrier.wait()
                results[k] = client.submit(service.url, man)

            threads = [
                threading.Thread(target=_submit, args=(k,)) for k in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            ids = {r["id"] for r in results}
            assert len(ids) == 1, f"submissions split into jobs {ids}"
            assert sum(1 for r in results if r["deduped"]) == n - 1
            doc = client.wait(service.url, ids.pop(), timeout=300)
            assert doc["state"] == "done"
            assert doc["coalesced"] == n - 1
            # executed exactly once: every run was a fresh put, none a
            # duplicate from a second execution
            st = store.stats()
            assert st.puts == len(doc["records"])
            assert st.dedup_puts == 0
        finally:
            service.close()

    def test_sequential_resubmission_is_a_new_job_but_all_hits(self, top, tmp_path):
        store = RunRecordStore(tmp_path / "cache")
        service = CampaignService(store).start()
        try:
            man = _manifest(top, _cfg())
            first = client.submit(service.url, man)
            done1 = client.wait(service.url, first["id"], timeout=300)
            second = client.submit(service.url, man)
            assert second["deduped"] is False  # first already finished
            assert second["id"] != first["id"]
            done2 = client.wait(service.url, second["id"], timeout=60)
            assert done2["cache"]["hits"] == len(done1["records"])
            assert done2["cache"]["misses"] == 0
            assert done2["records"] == done1["records"]
            assert client.cache_stats(service.url)["cache_hits_total"] > 0
        finally:
            service.close()

    def test_distinct_fingerprints_never_share_entries(self, top, tmp_path):
        store = RunRecordStore(tmp_path / "cache")
        service = CampaignService(store).start()
        try:
            cfg_a, cfg_b = _cfg(seed=11), _cfg(seed=12)
            ra = client.submit(service.url, _manifest(top, cfg_a))
            rb = client.submit(service.url, _manifest(top, cfg_b))
            assert ra["id"] != rb["id"] and not rb["deduped"]
            da = client.wait(service.url, ra["id"], timeout=300)
            db = client.wait(service.url, rb["id"], timeout=300)
            # each campaign only sees its own keys
            fa = campaign_fingerprint(top, cfg_a)
            fb = campaign_fingerprint(top, cfg_b)
            runs = [(i, m.name) for i in range(2) for m in (AD0, AD3)]
            keys_a = {entry_key(fa, i, m) for i, m in runs}
            keys_b = {entry_key(fb, i, m) for i, m in runs}
            assert not (keys_a & keys_b)
            assert len(store) == len(keys_a) + len(keys_b)
            # and the served records differ (different seeds, different draws)
            assert da["records"] != db["records"]
        finally:
            service.close()


class TestCrashAtomicity:
    def test_sigkilled_executor_leaves_no_torn_entry(self, top, tmp_path):
        """Fork a cached campaign, SIGKILL it as soon as entries start
        landing, and verify every visible entry is complete and valid."""
        import multiprocessing as mp

        cache_dir = tmp_path / "cache"
        cfg = _cfg(samples=3)

        def _child():
            run_campaign_cached(top, cfg, store=RunRecordStore(cache_dir))

        ctx = mp.get_context("fork")
        proc = ctx.Process(target=_child)
        proc.start()
        deadline = time.monotonic() + 120
        entries_dir = cache_dir / "entries"
        while time.monotonic() < deadline:
            if entries_dir.is_dir() and list(entries_dir.glob("*.json")):
                break
            if not proc.is_alive():
                break  # finished before we could kill it — still valid
            time.sleep(0.005)
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30)

        fp = campaign_fingerprint(top, cfg)
        store = RunRecordStore(cache_dir)
        committed = list(entries_dir.glob("*.json"))
        assert committed, "child was killed before committing anything"
        for path in committed:
            head, line, tail = path.read_bytes().split(b"\n")  # two lines: not torn
            entry = json.loads(head)
            assert tail == b""
            assert entry["fingerprint"] == fp
            assert entry["sha256"] == _entry_digest(
                entry["fingerprint"], entry["rng_key"], line
            )
        # the reader agrees: every committed entry is servable
        hits = sum(
            store.get(fp, i, m.name) is not None
            for i in range(3)
            for m in (AD0, AD3)
        )
        assert hits == len(committed)
        assert store.stats().quarantined == 0

    def test_every_truncation_offset_of_an_entry_is_quarantined(
        self, top, tmp_path
    ):
        """The checkpoint-fuzz harness pointed at a real cache entry: a
        commit torn at any byte must never be served and never crash."""
        cfg = _cfg(samples=1)
        store = RunRecordStore(tmp_path / "cache")
        out = run_campaign_cached(top, cfg, store=store)
        fp = campaign_fingerprint(top, cfg)
        rec = out.records[0]
        key = entry_key(fp, rec.sample_index, rec.mode)
        path = store._path(key)
        pristine = path.read_bytes()
        served = store.get(fp, rec.sample_index, rec.mode)
        assert served is not None

        quarantined = 0
        for cut in range(len(pristine)):
            path.write_bytes(pristine[:cut])
            got = store.get(fp, rec.sample_index, rec.mode)
            if got is None:
                # torn: must be quarantined, never left in place
                assert not path.exists(), f"cut at {cut}: torn entry survived"
                quarantined += 1
            else:
                # a cut that only lost trailing whitespace still parses to
                # the complete entry — serving it is correct, but it must
                # be byte-for-byte the pristine record, never a wrong one
                assert got == served, f"cut at {cut}: wrong record served"
            # heal for the next offset
            path.write_bytes(pristine)
        # every cut that removed actual payload was quarantined
        assert quarantined >= len(pristine) - 2
        assert store.get(fp, rec.sample_index, rec.mode) == served
        assert store.stats().quarantined == quarantined

    def test_tmp_scratch_from_killed_writer_is_invisible_and_reaped(
        self, top, tmp_path
    ):
        store = RunRecordStore(tmp_path / "cache")
        fp = {"app": "milc", "seed": 1}
        # a SIGKILL mid-tmp-write leaves scratch that no reader sees
        (store.tmp_dir / ".abc.999.dead").write_bytes(b'{"kind": "repro-run')
        os.utime(store.tmp_dir / ".abc.999.dead", (0, 0))
        assert store.get(fp, 0, "AD0") is None
        assert store.stats().entries == 0
        # and a fresh store instance reaps it
        again = RunRecordStore(tmp_path / "cache")
        assert not list(again.tmp_dir.iterdir())
