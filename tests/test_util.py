"""Unit tests for repro.util (units, rng derivation, validation, durable writes)."""

import errno
import os
import stat
import time

import numpy as np
import pytest

from repro.chaos import ChaosSchedule, activate, deactivate
from repro.util import (
    GB,
    GiB,
    KB,
    KiB,
    MB,
    MiB,
    US,
    check_in_range,
    check_nonnegative,
    check_positive,
    check_power_of_two,
    derive_rng,
    derive_seeds,
    fmt_bytes,
    fmt_time,
    spawn_rngs,
)
from repro.util import durable


class TestUnits:
    def test_binary_prefixes(self):
        assert KiB == 1024
        assert MiB == 1024**2
        assert GiB == 1024**3

    def test_decimal_prefixes(self):
        assert KB == 1_000
        assert MB == 1_000_000
        assert GB == 1_000_000_000

    def test_fmt_bytes_small(self):
        assert fmt_bytes(8) == "8 B"

    def test_fmt_bytes_kib(self):
        assert fmt_bytes(2048) == "2.0 KiB"

    def test_fmt_bytes_mib(self):
        assert fmt_bytes(3 * MiB) == "3.0 MiB"

    def test_fmt_bytes_gib(self):
        assert "GiB" in fmt_bytes(5 * GiB)

    def test_fmt_time_seconds(self):
        assert fmt_time(2.5) == "2.500 s"

    def test_fmt_time_ms(self):
        assert fmt_time(0.5) == "500.0 ms"

    def test_fmt_time_us(self):
        assert fmt_time(3 * US) == "3.0 us"


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(42, "milc", "AD0", 3)
        b = derive_rng(42, "milc", "AD0", 3)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_key_sensitivity(self):
        a = derive_rng(42, "milc", 0)
        b = derive_rng(42, "milc", 1)
        assert a.integers(1 << 30) != b.integers(1 << 30)

    def test_seed_sensitivity(self):
        a = derive_rng(1, "x")
        b = derive_rng(2, "x")
        assert a.integers(1 << 30) != b.integers(1 << 30)

    def test_string_vs_int_keys_differ(self):
        # "1" and 1 should not silently collide by repr
        a = derive_rng(0, "1")
        b = derive_rng(0, 1)
        assert a.integers(1 << 30) != b.integers(1 << 30)

    def test_float_keys_supported(self):
        rng = derive_rng(0, 0.5)
        assert 0 <= rng.random() < 1

    def test_bool_keys_supported(self):
        a = derive_rng(0, True)
        b = derive_rng(0, False)
        assert a.integers(1 << 30) != b.integers(1 << 30)

    def test_unsupported_key_type_raises(self):
        with pytest.raises(TypeError):
            derive_rng(0, object())

    def test_derive_seeds_count_and_range(self):
        seeds = derive_seeds(7, "a", n=5)
        assert len(seeds) == 5
        assert all(0 <= s < 2**63 for s in seeds)

    def test_spawn_rngs_independent(self):
        parent = np.random.default_rng(0)
        children = spawn_rngs(parent, 3)
        vals = [c.integers(1 << 30) for c in children]
        assert len(set(vals)) == 3


class TestValidation:
    def test_check_positive_ok(self):
        assert check_positive("x", 1.5) == 1.5

    def test_check_positive_zero_raises(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_nonnegative_ok(self):
        assert check_nonnegative("x", 0) == 0

    def test_check_nonnegative_raises(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    def test_check_in_range_bounds_inclusive(self):
        assert check_in_range("x", 0, 0, 15) == 0
        assert check_in_range("x", 15, 0, 15) == 15

    def test_check_in_range_raises(self):
        with pytest.raises(ValueError):
            check_in_range("x", 16, 0, 15)

    def test_check_power_of_two_ok(self):
        assert check_power_of_two("x", 256) == 256

    @pytest.mark.parametrize("bad", [0, -4, 3, 12])
    def test_check_power_of_two_raises(self, bad):
        with pytest.raises(ValueError):
            check_power_of_two("x", bad)


def _raise_eio(*_args, **_kwargs):
    raise OSError(errno.EIO, "injected I/O error")


def _open_failing_writes(file, mode="r", *args, **kwargs):
    f = open(file, mode, *args, **kwargs)
    f.write = _raise_eio
    return f


#: one failure per step of write_atomic, in protocol order
_DURABLE_FAILURES = {
    "write": lambda mp: mp.setattr(durable, "open", _open_failing_writes, raising=False),
    "post_tmp": lambda mp: activate(ChaosSchedule.parse("store.commit.post_tmp:torn")),
    "fsync": lambda mp: mp.setattr(os, "fsync", _raise_eio),
    "pre_rename": lambda mp: activate(ChaosSchedule.parse("store.commit.pre_rename:enospc")),
    "replace": lambda mp: mp.setattr(os, "replace", _raise_eio),
}


class TestDurable:
    @pytest.fixture(autouse=True)
    def _no_leftover_schedule(self):
        deactivate()
        yield
        deactivate()

    def _write(self, tmp_path):
        target, scratch = tmp_path / "out.json", tmp_path / "scratch"
        scratch.mkdir(exist_ok=True)
        durable.write_atomic(
            target, "new\n", tmp_dir=scratch,
            post_tmp="store.commit.post_tmp", pre_rename="store.commit.pre_rename",
        )
        return target, scratch

    def test_write_atomic_publishes_and_leaves_no_scratch(self, tmp_path):
        (tmp_path / "out.json").write_text("old\n")
        target, scratch = self._write(tmp_path)
        assert target.read_text() == "new\n"
        assert os.listdir(scratch) == []

    def test_write_atomic_fsyncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        real_fsync, kinds = os.fsync, []

        def spy(fd):
            kinds.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        durable.write_atomic(tmp_path / "a.json", "x\n")
        assert kinds == ["file", "dir"]
        assert os.listdir(tmp_path) == ["a.json"]  # default scratch: beside, then gone

    @pytest.mark.parametrize("step", list(_DURABLE_FAILURES))
    def test_failure_at_any_step_keeps_target_and_cleans_scratch(
        self, step, tmp_path, monkeypatch
    ):
        (tmp_path / "out.json").write_text("old\n")
        _DURABLE_FAILURES[step](monkeypatch)
        with pytest.raises(OSError):
            self._write(tmp_path)
        assert (tmp_path / "out.json").read_text() == "old\n"
        assert os.listdir(tmp_path / "scratch") == []

    def test_staged_yields_fsynced_scratch_and_always_unlinks_it(self, tmp_path):
        with durable.staged("payload", tmp_dir=tmp_path, name="r.json") as tmp:
            assert tmp.read_text() == "payload"
            assert tmp.name.startswith(".r.json.") and tmp.name.endswith(".tmp")
        assert os.listdir(tmp_path) == []
        with pytest.raises(RuntimeError):
            with durable.staged("payload", tmp_dir=tmp_path, name="r.json"):
                raise RuntimeError("publish failed")
        assert os.listdir(tmp_path) == []

    def test_sweep_scratch_spares_young_scratch(self, tmp_path):
        old, young = tmp_path / ".dead.1.aa.tmp", tmp_path / ".live.2.bb.tmp"
        old.write_text("torn")
        young.write_text("in flight")
        stamp = time.time() - 2 * durable.SCRATCH_MAX_AGE_S
        os.utime(old, (stamp, stamp))
        durable.sweep_scratch(tmp_path)
        assert os.listdir(tmp_path) == [young.name]
        durable.sweep_scratch(tmp_path / "missing")  # no directory: a no-op
