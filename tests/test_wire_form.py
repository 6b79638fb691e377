"""One wire form per record: its checkpoint line, encoded once.

The process that executes a run encodes the record once
(:func:`repro.core.checkpoint.encode_record`); the fork pool, the queue
payload, the result store and the checkpoint then carry those bytes
unchanged, a store hit encodes nothing, and a resume copies the kept
checkpoint lines.  These tests count record encodes (``json.dumps`` of
a record dict, in any process or thread), pin the version-2 entry
layout, and check that a warm replay's checkpoint is the cold serial
one whichever backend filled the store.
"""

import hashlib
import json
import os
import threading

import pytest

from repro.core.experiment import campaign_fingerprint, run_campaign
from repro.dist import DistWorker, WorkQueue
from repro.service import RunRecordStore, entry_key, run_campaign_cached
from repro.service.store import _canonical
from tests.test_lazy_setup import (  # noqa: F401  (serial, top: fixtures)
    _cfg,
    _dicts,
    serial,
    top,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)

#: queue runs wait for their in-thread worker, never for the local fallback
QUEUE_OPTS = {"fallback_after": 120.0, "poll": 0.05}


def _is_record(obj) -> bool:
    """A record dict, or a payload or digest body wrapping one."""
    return isinstance(obj, dict) and (
        {"report", "sample_index"} <= obj.keys() or "record" in obj
    )


@pytest.fixture
def encodes(tmp_path, monkeypatch):
    """Record encodes as ``pid:thread`` lines, fork children included."""
    log = tmp_path / "encodes.log"
    real = json.dumps

    def counting(obj, *args, **kwargs):
        if _is_record(obj):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}:{threading.get_ident()}\n")
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)

    class Encodes:
        def lines(self) -> list[str]:
            return log.read_text().split() if log.exists() else []

        def reset(self) -> None:
            log.unlink(missing_ok=True)

    return Encodes()


def _serial_lines(serial_bytes: bytes) -> list[bytes]:
    return serial_bytes.splitlines()[1:]


def _entry(store, fp, sample, mode) -> tuple[dict, bytes]:
    head, line, tail = store._path(entry_key(fp, sample, mode)).read_bytes().split(b"\n")
    assert tail == b""
    return json.loads(head), line


def _runs(cfg):
    return [(i, m.name) for i in range(cfg.samples) for m in cfg.modes]


class TestEncodeCount:
    def test_cold_inline_miss_encodes_each_record_once(
        self, top, serial, encodes, tmp_path
    ):
        store = RunRecordStore(tmp_path / "cache")
        ck = tmp_path / "ck.jsonl"
        out = run_campaign_cached(top, _cfg(), store=store, checkpoint_path=str(ck), jobs=1)
        # one encode per record feeds both the store entry and the checkpoint
        assert len(encodes.lines()) == out.misses == len(out.records) == 4
        assert ck.read_bytes() == serial[1]

    def test_cold_pool_misses_are_encoded_once_in_the_children(
        self, top, serial, encodes, tmp_path
    ):
        store = RunRecordStore(tmp_path / "cache")
        ck = tmp_path / "ck.jsonl"
        run_campaign_cached(top, _cfg(), store=store, checkpoint_path=str(ck), jobs=2)
        pids = [line.split(":")[0] for line in encodes.lines()]
        assert len(pids) == 4
        assert str(os.getpid()) not in pids  # the parent encodes nothing
        assert ck.read_bytes() == serial[1]

    def test_queue_misses_are_encoded_once_by_the_worker(
        self, top, serial, encodes, tmp_path
    ):
        qdir = tmp_path / "queue"
        worker = threading.Thread(
            target=lambda: DistWorker(WorkQueue(qdir), owner="thread:1", poll=0.05).run(),
            daemon=True,
        )
        worker.start()
        store = RunRecordStore(tmp_path / "cache")
        ck = tmp_path / "ck.jsonl"
        run_campaign_cached(
            top, _cfg(), store=store, checkpoint_path=str(ck), queue_dir=str(qdir),
            **QUEUE_OPTS,
        )
        worker.join(timeout=60)
        assert not worker.is_alive()
        threads = {line.split(":")[1] for line in encodes.lines()}
        assert len(encodes.lines()) == 4
        # every encode ran on the worker's thread, none on the coordinator's
        assert threads == {str(worker.ident)}
        assert ck.read_bytes() == serial[1]

    def test_all_hit_replay_encodes_no_record(self, top, serial, encodes, tmp_path):
        store = RunRecordStore(tmp_path / "cache")
        run_campaign_cached(top, _cfg(), store=store, jobs=1)
        encodes.reset()
        ck = tmp_path / "ck.jsonl"
        out = run_campaign_cached(top, _cfg(), store=store, checkpoint_path=str(ck), jobs=1)
        assert out.hits == 4 and out.misses == 0
        assert encodes.lines() == []
        assert ck.read_bytes() == serial[1]
        assert _dicts(out.records) == serial[0]


    def test_resuming_a_finished_campaign_encodes_no_record(
        self, top, serial, encodes, tmp_path
    ):
        ck = tmp_path / "ck.jsonl"
        ck.write_bytes(serial[1])
        records = run_campaign(top, _cfg(), jobs=1, checkpoint_path=str(ck), resume=True)
        # the resume rewrite copies the kept lines rather than encoding them
        assert encodes.lines() == []
        assert ck.read_bytes() == serial[1]
        assert _dicts(records) == serial[0]


class TestEntryLayout:
    def test_an_entry_holds_the_checkpoint_line_byte_for_byte(self, top, serial, tmp_path):
        store = RunRecordStore(tmp_path / "cache")
        run_campaign_cached(top, _cfg(), store=store, jobs=1)
        fp = campaign_fingerprint(top, _cfg())
        for (sample, mode), want in zip(_runs(_cfg()), _serial_lines(serial[1])):
            header, line = _entry(store, fp, sample, mode)
            assert line == want
            assert header["version"] == 2
            assert header["rng_key"] == {"sample": sample, "mode": mode}
        assert store.verify() == (4, [])

    def test_a_version_1_entry_is_a_miss_reexecuted_and_recommitted(
        self, top, serial, tmp_path
    ):
        store = RunRecordStore(tmp_path / "cache")
        run_campaign_cached(top, _cfg(), store=store, jobs=1)
        fp = campaign_fingerprint(top, _cfg())
        # the version-1 layout: one JSON object holding the record dict,
        # hashed over its canonical (fingerprint, rng_key, record) dump
        record = serial[0][0]
        rng_key = {"sample": 0, "mode": "AD0"}
        body = {"fingerprint": fp, "rng_key": rng_key, "record": record}
        v1 = {
            "kind": "repro-run-cache",
            "version": 1,
            "key": entry_key(fp, 0, "AD0"),
            "fingerprint": fp,
            "rng_key": rng_key,
            "sha256": hashlib.sha256(_canonical(body).encode()).hexdigest(),
            "record": record,
        }
        path = store._path(entry_key(fp, 0, "AD0"))
        path.write_text(json.dumps(v1) + "\n")

        ck = tmp_path / "ck.jsonl"
        out = run_campaign_cached(top, _cfg(), store=store, checkpoint_path=str(ck), jobs=1)
        assert (out.hits, out.misses) == (3, 1)
        assert store.stats().quarantined_files == 1
        assert ck.read_bytes() == serial[1]
        # recommitted in the current layout, and served from now on
        header, line = _entry(store, fp, 0, "AD0")
        assert header["version"] == 2
        assert line == _serial_lines(serial[1])[0]
        again = run_campaign_cached(top, _cfg(), store=store, jobs=1)
        assert (again.hits, again.misses) == (4, 0)


@pytest.mark.parametrize("backend", ["inline", "pool", "queue"])
def test_warm_checkpoint_matches_cold_serial_whoever_filled_the_store(
    backend, top, serial, tmp_path
):
    """Misses run inline, on a 2-worker pool or by a queue worker: the
    store's lines, the cold checkpoint and the warm replay's checkpoint
    are all the serial campaign's bytes."""
    store = RunRecordStore(tmp_path / "cache")
    cold = tmp_path / "cold.jsonl"
    kw = {"jobs": 2 if backend == "pool" else 1}
    worker = None
    if backend == "queue":
        qdir = tmp_path / "queue"
        kw.update(queue_dir=str(qdir), **QUEUE_OPTS)
        worker = threading.Thread(
            target=lambda: DistWorker(WorkQueue(qdir), owner="thread:1", poll=0.05).run(),
            daemon=True,
        )
        worker.start()
    run_campaign_cached(top, _cfg(), store=store, checkpoint_path=str(cold), **kw)
    if worker is not None:
        worker.join(timeout=60)
        assert not worker.is_alive()
    assert cold.read_bytes() == serial[1]

    fp = campaign_fingerprint(top, _cfg())
    lines = [_entry(store, fp, s, m)[1] for s, m in _runs(_cfg())]
    assert lines == _serial_lines(serial[1])

    warm = tmp_path / "warm.jsonl"
    out = run_campaign_cached(top, _cfg(), store=store, checkpoint_path=str(warm), jobs=1)
    assert out.misses == 0
    assert warm.read_bytes() == serial[1]
