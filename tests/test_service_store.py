"""Property and fault-injection tests for the content-addressed
:class:`repro.service.store.RunRecordStore`.

Three contracts under test:

* **round-trip** — any JSON-safe record committed under any
  ``(fingerprint, sample, mode)`` key comes back equal, and only under
  its own key (hypothesis);
* **quarantine** — a damaged entry (any single corrupted byte, or raw
  garbage), of a run or of a pool slot, is never served and never
  raises: the read is a miss, the file moves to ``quarantine/``, and the
  key is immediately writable again; a run entry written before pool
  slots shared the format still reads as a hit;
* **eviction** — LRU respects ``max_entries``/``max_bytes`` budgets and
  never removes a key pinned by an in-flight campaign.
"""

import json
import os
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosSchedule, active
from repro.service.store import KEY_LEN, RunRecordStore, entry_key, slot_key

MODES = st.sampled_from(["AD0", "AD1", "AD2", "AD3"])

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

RECORDS = st.dictionaries(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=12),
    st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=4)),
    max_size=8,
)

FINGERPRINTS = st.fixed_dictionaries(
    {
        "app": st.sampled_from(["milc", "hacc", "lammps"]),
        "seed": st.integers(0, 999),
        "samples": st.integers(1, 32),
    }
)

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


#: a version-2 run entry, byte for byte as written before pool slots
#: became store entries: ``put({"app": "milc", "seed": 7}, 0, "AD0",
#: {"runtime": 123.5, "mode": "AD0", "status": "ok"})``
PARENT_ENTRY = (
    b'{"kind": "repro-run-cache", "version": 2, "key": "3b7c27d656e8e7c333cc7ce5e66cf9be",'
    b' "fingerprint": {"app": "milc", "seed": 7}, "rng_key": {"sample": 0, "mode": "AD0"},'
    b' "sha256": "5c2b7b678a3a69c742b4ba6a63db72712abcf5743019334c0b708f500e794271"}\n'
    b'{"runtime": 123.5, "mode": "AD0", "status": "ok"}\n'
)


class TestEntryKey:
    def test_stable_and_distinct(self):
        fp = {"app": "milc", "seed": 1}
        k = entry_key(fp, 0, "AD0")
        assert len(k) == KEY_LEN
        assert k == entry_key(fp, 0, "AD0")
        assert k != entry_key(fp, 1, "AD0")
        assert k != entry_key(fp, 0, "AD3")
        assert k != entry_key({"app": "milc", "seed": 2}, 0, "AD0")

    def test_key_order_does_not_matter(self):
        a = {"app": "milc", "seed": 1}
        b = {"seed": 1, "app": "milc"}
        assert entry_key(a, 0, "AD0") == entry_key(b, 0, "AD0")


LINK_FIELDS = st.lists(
    st.floats(0.0, 0.95, allow_nan=False), min_size=0, max_size=64
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestRoundTrip:
    @given(fp=FINGERPRINTS, sample=st.integers(0, 63), mode=MODES, rec=RECORDS)
    @FAST
    def test_put_get_round_trip(self, tmp_path, fp, sample, mode, rec):
        # hypothesis reuses tmp_path across examples: each gets a fresh dir
        store = RunRecordStore(tempfile.mkdtemp(dir=tmp_path))
        assert store.put(fp, sample, mode, rec) is True
        got = store.get(fp, sample, mode)
        # exact value identity through the JSON layer
        assert json.dumps(got, sort_keys=True) == json.dumps(rec, sort_keys=True)

    @given(fp=FINGERPRINTS, sample=st.integers(0, 63), mode=MODES, rec=RECORDS)
    @FAST
    def test_distinct_keys_never_share_entries(self, tmp_path, fp, sample, mode, rec):
        store = RunRecordStore(tempfile.mkdtemp(dir=tmp_path))
        store.put(fp, sample, mode, rec)
        other_fp = dict(fp, seed=fp["seed"] + 1)
        assert store.get(other_fp, sample, mode) is None
        assert store.get(fp, sample + 1, mode) is None

    @given(fp=FINGERPRINTS, slot=st.integers(0, 63), util=LINK_FIELDS,
           n_jobs=st.integers(0, 40), fill=st.floats(0.0, 1.0))
    @FAST
    def test_slot_put_get_round_trip(self, tmp_path, fp, slot, util, n_jobs, fill):
        store = RunRecordStore(tempfile.mkdtemp(dir=tmp_path))
        assert store.put_slot(fp, slot, util, n_jobs, fill) is True
        got, got_jobs, got_fill = store.get_slot(fp, slot)
        assert got.tobytes() == util.tobytes() and (got_jobs, got_fill) == (n_jobs, fill)
        # a slot answers only to its own (fingerprint, slot), and is no run
        assert store.get_slot(dict(fp, seed=fp["seed"] + 1), slot) is None
        assert store.get_slot(fp, slot + 1) is None
        assert store.get(fp, slot, "AD0") is None
        assert store.stats().quarantined == 0

    def test_duplicate_put_is_dedup_not_overwrite(self, tmp_path):
        store = RunRecordStore(tmp_path / "c")
        fp = {"app": "milc", "seed": 1}
        assert store.put(fp, 0, "AD0", {"runtime": 1.0}) is True
        assert store.put(fp, 0, "AD0", {"runtime": 1.0}) is False
        st_ = store.stats()
        assert st_.puts == 1 and st_.dedup_puts == 1 and st_.entries == 1

    def test_persistence_across_store_instances(self, tmp_path):
        fp = {"app": "milc", "seed": 1}
        RunRecordStore(tmp_path / "c").put(fp, 0, "AD0", {"runtime": 1.0})
        again = RunRecordStore(tmp_path / "c")
        assert again.get(fp, 0, "AD0") == {"runtime": 1.0}


class TestQuarantine:
    FP = {"app": "milc", "seed": 7}
    REC = {"runtime": 123.5, "mode": "AD0", "status": "ok"}

    def _entry_path(self, store):
        return store._path(entry_key(self.FP, 0, "AD0"))

    def test_every_single_byte_corruption_is_quarantined(self, tmp_path):
        store = RunRecordStore(tmp_path / "c")
        store.put(self.FP, 0, "AD0", self.REC)
        path = self._entry_path(store)
        pristine = path.read_bytes()
        for off in range(len(pristine)):
            damaged = bytearray(pristine)
            damaged[off] ^= 0xFF
            path.write_bytes(bytes(damaged))
            # never served, never raises
            assert store.get(self.FP, 0, "AD0") is None
            assert not path.exists(), f"byte {off}: damaged entry survived"
            # the slot heals: a fresh put serves again
            assert store.put(self.FP, 0, "AD0", self.REC) is True
            assert store.get(self.FP, 0, "AD0") == self.REC
        st_ = store.stats()
        assert st_.quarantined == len(pristine)
        assert st_.quarantined_files == len(pristine)

    def test_garbage_file_is_quarantined(self, tmp_path):
        store = RunRecordStore(tmp_path / "c")
        key = entry_key(self.FP, 0, "AD0")
        store._path(key).write_bytes(b"\x00\xffnot json at all")
        assert store.get(self.FP, 0, "AD0") is None
        assert store.stats().quarantined == 1

    def test_valid_json_wrong_identity_is_quarantined(self, tmp_path):
        """An entry addressed to a different campaign must never be
        served even if its own integrity hash is intact."""
        store = RunRecordStore(tmp_path / "c")
        other = {"app": "hacc", "seed": 8}
        store.put(other, 0, "AD0", self.REC)
        src = store._path(entry_key(other, 0, "AD0"))
        dst = store._path(entry_key(self.FP, 0, "AD0"))
        dst.write_bytes(src.read_bytes())
        assert store.get(self.FP, 0, "AD0") is None
        assert store.stats().quarantined == 1
        # the innocent original is untouched
        assert store.get(other, 0, "AD0") == self.REC

    def test_an_entry_written_before_slots_shared_the_format_is_a_hit(self, tmp_path):
        """Version-2 run entries keep their bytes and their digest."""
        store = RunRecordStore(tmp_path / "c")
        self._entry_path(store).write_bytes(PARENT_ENTRY)
        assert store.get(self.FP, 0, "AD0") == self.REC
        assert store.verify() == (1, [])
        fresh = RunRecordStore(tmp_path / "d")
        fresh.put(self.FP, 0, "AD0", self.REC)
        assert self._entry_path(fresh).read_bytes() == PARENT_ENTRY

    def test_stale_tmp_scratch_is_cleared_on_init(self, tmp_path):
        store = RunRecordStore(tmp_path / "c")
        (store.tmp_dir / ".orphan.123.abc").write_bytes(b"torn")
        os.utime(store.tmp_dir / ".orphan.123.abc", (0, 0))
        again = RunRecordStore(tmp_path / "c")
        assert not list(again.tmp_dir.iterdir())

    def test_opening_a_store_spares_a_live_writers_scratch(self, tmp_path):
        """A second handle (another process, ``repro cache-status``)
        opened mid-put must not delete the in-flight commit's scratch."""
        store = RunRecordStore(tmp_path / "c")
        outcome = []
        # the latency widens the window between staging and the rename
        with active(ChaosSchedule.parse("store.commit.pre_rename:latency:ms=500")):
            writer = threading.Thread(
                target=lambda: outcome.append(store.put(self.FP, 0, "AD0", self.REC))
            )
            writer.start()
            deadline = time.monotonic() + 10
            while not os.listdir(store.tmp_dir) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert os.listdir(store.tmp_dir), "the put never staged its scratch"
            RunRecordStore(tmp_path / "c")
            writer.join(30)
        assert not writer.is_alive()
        assert outcome == [True]
        assert RunRecordStore(tmp_path / "c").get(self.FP, 0, "AD0") == self.REC


class TestSlotQuarantine:
    FP = {"app": "milc", "seed": 7}
    UTIL = np.linspace(0.0, 0.95, 33)

    #: damage a pool slot entry (header line, float64 body, newline)
    DAMAGE = {
        "flipped body byte": lambda raw: raw[:-9] + bytes([raw[-9] ^ 0x01]) + raw[-8:],
        "edited n_jobs": lambda raw: raw.replace(b'"n_jobs": 2,', b'"n_jobs": 3,', 1),
        "truncated body": lambda raw: raw[:-17] + b"\n",
    }

    def _put(self, store):
        assert store.put_slot(self.FP, 3, self.UTIL, 2, 0.25) is True
        return store._path(slot_key(self.FP, 3))

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_slot_is_a_quarantined_miss(self, tmp_path, damage):
        store = RunRecordStore(tmp_path / "c")
        path = self._put(store)
        damaged = self.DAMAGE[damage](path.read_bytes())
        assert damaged != path.read_bytes()
        path.write_bytes(damaged)
        assert store.get_slot(self.FP, 3) is None
        assert not path.exists()
        st_ = store.stats()
        assert (st_.misses, st_.hits, st_.quarantined, st_.quarantined_files) == (1, 0, 1, 1)
        # verify() reports the same damage
        self._put(store).write_bytes(damaged)
        assert store.verify() == (0, [slot_key(self.FP, 3)])
        assert not path.exists()
        # the key heals
        self._put(store)
        util, n_jobs, fill = store.get_slot(self.FP, 3)
        assert util.tobytes() == self.UTIL.tobytes() and (n_jobs, fill) == (2, 0.25)

    def test_every_single_byte_corruption_is_quarantined(self, tmp_path):
        store = RunRecordStore(tmp_path / "c")
        path = self._put(store)
        pristine = path.read_bytes()
        for off in range(len(pristine)):
            damaged = bytearray(pristine)
            damaged[off] ^= 0xFF
            path.write_bytes(bytes(damaged))
            assert store.get_slot(self.FP, 3) is None
            assert not path.exists(), f"byte {off}: damaged slot survived"
            self._put(store)
        assert store.stats().quarantined == len(pristine)


class TestEviction:
    FP = {"app": "milc", "seed": 7}

    def _fill(self, store, n, pad=0):
        import os
        import time

        for i in range(n):
            store.put(self.FP, i, "AD0", {"i": i, "pad": "x" * pad})
            # distinct mtimes make LRU order deterministic on coarse
            # filesystem timestamp granularity
            path = store._path(entry_key(self.FP, i, "AD0"))
            t = time.time() - (n - i) * 10
            os.utime(path, (t, t))

    def test_max_entries_keeps_newest(self, tmp_path):
        store = RunRecordStore(tmp_path / "c", max_entries=3)
        self._fill(store, 6)
        assert len(store) <= 3
        # the most recent keys survive, the oldest are gone
        assert store.get(self.FP, 5, "AD0") is not None
        assert store.get(self.FP, 0, "AD0") is None

    def test_max_bytes_bounds_disk_usage(self, tmp_path):
        store = RunRecordStore(tmp_path / "c", max_bytes=2000)
        self._fill(store, 10, pad=300)
        assert store.stats().bytes <= 2000
        assert store.stats().evictions > 0

    def test_pinned_keys_survive_eviction(self, tmp_path):
        store = RunRecordStore(tmp_path / "c", max_entries=2)
        keys = [entry_key(self.FP, i, "AD0") for i in range(5)]
        with store.pinned(keys):
            self._fill(store, 5)
            # over budget, but every key is pinned: nothing evictable
            assert len(store) == 5
            for i in range(5):
                assert store.get(self.FP, i, "AD0") is not None
        # pins released: the next put shrinks the cache back to budget
        store.put(self.FP, 99, "AD0", {"i": 99})
        assert len(store) <= 2

    def test_unpinned_are_evicted_before_pinned(self, tmp_path):
        store = RunRecordStore(tmp_path / "c", max_entries=2)
        with store.pinned([entry_key(self.FP, 0, "AD0")]):
            self._fill(store, 4)
            assert store.get(self.FP, 0, "AD0") is not None

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunRecordStore(tmp_path / "c", max_bytes=0)
        with pytest.raises(ValueError):
            RunRecordStore(tmp_path / "c", max_entries=-1)
