"""Run guardrails: budgets, invariant monitors, watchdog, diagnostics.

The contracts under test:

* an inactive :class:`GuardPolicy` is a strict no-op — guarded campaign
  output is byte-identical to an unguarded one;
* budgets (deadline / step / iteration) terminate a run cooperatively
  with a typed :class:`RunTimeoutError`, which campaigns convert into
  error-status records (never retried, never aborting the sweep);
* invariant monitors catch sabotaged engine state under the policy's
  warn/record/raise disposition and leave healthy runs untouched;
* a deliberately hung pool worker is detected by heartbeat staleness,
  SIGKILL-ed, and isolated, while every surviving run stays
  byte-identical to the guard-disabled serial campaign;
* a guard-terminated run leaves a diagnostics bundle with enough state
  (fingerprint, RNG key, trailing events) to replay it.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.core.checkpoint as ckpt_mod
import repro.core.experiment as exp
import repro.network.fluid as fluid_mod
from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.checkpoint import record_to_dict
from repro.core.experiment import CampaignConfig, run_campaign
from repro.core.pipeline import run_pipeline
from repro.faults import FaultSchedule, FaultSpecError
from repro.guard import (
    GuardPolicy,
    GuardWarning,
    InvariantViolation,
    NO_GUARD,
    RingTraceWriter,
    RunGuard,
    RunTimeoutError,
    Watchdog,
    WorkerHeartbeat,
    active_guard,
    current_guard,
    load_bundle,
    use_guard,
    write_bundle,
)
from repro.network.fluid import FlowSet, solve_fluid
from repro.network.packet_sim import InjectionSpec, PacketSimulator
from repro.parallel.campaign import PoolBackend
from repro.service import RunRecordStore, run_campaign_cached
from repro.telemetry import MemoryTraceWriter, MetricsRegistry, Telemetry
from repro.telemetry.report import order_events
from repro.topology.systems import toy
from repro.util import derive_rng

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)


@pytest.fixture(scope="module")
def top():
    return toy()


def _cfg(**kw):
    kw.setdefault("samples", 2)
    kw.setdefault("background", "isolated")
    return CampaignConfig(app=MILC(), n_nodes=8, modes=(AD0, AD3), seed=7, **kw)


def _dicts(records):
    return [json.dumps(record_to_dict(r), sort_keys=True) for r in records]


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------
class TestGuardPolicy:
    def test_default_is_inactive(self):
        assert not NO_GUARD.active
        assert not bool(GuardPolicy())
        assert not GuardPolicy().check_invariants

    @pytest.mark.parametrize(
        "kw",
        [
            {"deadline": 1.0},
            {"step_budget": 10},
            {"iteration_budget": 1},
            {"invariants": "record"},
            {"hang_timeout": 2.0},
            {"bundle_dir": "/tmp/x"},
        ],
    )
    def test_any_field_activates(self, kw):
        assert GuardPolicy(**kw).active

    @pytest.mark.parametrize(
        "kw",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"step_budget": 0},
            {"iteration_budget": -3},
            {"hang_timeout": 0.0},
            {"invariants": "loud"},
            {"bundle_events": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            GuardPolicy(**kw)

    def test_from_env(self):
        assert not GuardPolicy.from_env({})
        assert not GuardPolicy.from_env({"REPRO_GUARD": "off"})
        assert GuardPolicy.from_env({"REPRO_GUARD": "strict"}).invariants == "raise"
        assert GuardPolicy.from_env({"REPRO_GUARD": "warn"}).invariants == "warn"
        with pytest.raises(ValueError, match="unknown REPRO_GUARD"):
            GuardPolicy.from_env({"REPRO_GUARD": "stric"})

    def test_env_guard_ambient(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        assert active_guard() is None
        monkeypatch.setenv("REPRO_GUARD", "record")
        g = active_guard()
        assert g is not None and g.check_invariants
        monkeypatch.setenv("REPRO_GUARD", "off")
        assert active_guard() is None


# ---------------------------------------------------------------------------
# RunGuard budgets and dispositions
# ---------------------------------------------------------------------------
class TestRunGuard:
    def test_step_budget_trips(self):
        g = RunGuard(GuardPolicy(step_budget=3))
        for _ in range(3):
            g.tick_steps()
        with pytest.raises(RunTimeoutError, match="step budget") as ei:
            g.tick_steps()
        assert ei.value.kind == "step_budget"
        assert ei.value.spent == 4 and ei.value.limit == 3

    def test_iteration_budget_trips(self):
        g = RunGuard(GuardPolicy(iteration_budget=2))
        g.tick_iterations(2)
        with pytest.raises(RunTimeoutError, match="iteration budget"):
            g.tick_iterations()

    def test_deadline_uses_injected_clock(self):
        now = [100.0]
        g = RunGuard(GuardPolicy(deadline=5.0), clock=lambda: now[0])
        g.tick_steps()  # within budget
        now[0] = 105.5
        with pytest.raises(RunTimeoutError, match="deadline") as ei:
            g.tick_steps()
        assert ei.value.kind == "deadline"
        assert ei.value.spent == pytest.approx(5.5)

    def test_timeout_emits_guard_event(self):
        tel = Telemetry(trace=MemoryTraceWriter())
        g = RunGuard(GuardPolicy(step_budget=1), telemetry=tel, label="x-AD0-s0")
        g.tick_steps()
        with pytest.raises(RunTimeoutError):
            g.tick_steps()
        evs = [e for e in tel.trace.events if e["ev"] == "guard.timeout"]
        assert len(evs) == 1
        assert evs[0]["label"] == "x-AD0-s0" and evs[0]["kind"] == "step_budget"

    def test_violation_dispositions(self):
        recorded = RunGuard(GuardPolicy(invariants="record"))
        recorded.violation("fluid.split_range", "min -0.1", min=-0.1)
        assert recorded.violations == [
            {"invariant": "fluid.split_range", "detail": "min -0.1", "min": -0.1}
        ]

        warning = RunGuard(GuardPolicy(invariants="warn"))
        with pytest.warns(GuardWarning, match="fluid.split_range"):
            warning.violation("fluid.split_range", "min -0.1")

        raising = RunGuard(GuardPolicy(invariants="raise"))
        with pytest.raises(InvariantViolation, match="fluid.split_range"):
            raising.violation("fluid.split_range", "min -0.1")

    def test_violation_counts_metric(self):
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        g = RunGuard(GuardPolicy(invariants="record"), telemetry=tel)
        g.violation("packet.nonnegative_credit", "credit -1")
        assert tel.metrics.counter("guard_violations_total").value == 1
        assert any(e["ev"] == "guard.violation" for e in tel.trace.events)

    def test_use_guard_none_does_not_mask(self):
        outer = RunGuard(GuardPolicy(step_budget=1))
        with use_guard(outer):
            with use_guard(None):
                assert current_guard() is outer
        assert current_guard() is None


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------
def _flows(top):
    n = top.n_nodes
    return FlowSet(
        src=np.arange(0, n // 2),
        dst=np.arange(n // 2, n),
        nbytes=np.full(n // 2, 1e6),
        cls=np.zeros(n // 2, dtype=np.int64),
    )


class TestEngineBudgets:
    def test_fluid_iteration_budget(self, top):
        with use_guard(RunGuard(GuardPolicy(iteration_budget=2))):
            with pytest.raises(RunTimeoutError, match="fluid.solve"):
                solve_fluid(top, _flows(top), [AD0], rng=derive_rng(0, "g"))

    def test_packet_step_budget(self, top):
        sim = PacketSimulator(top, rng=derive_rng(0, "g"))
        sim.add_message(
            InjectionSpec(src=0, dst=top.n_nodes - 1, nbytes=64 * 1024, mode=AD3)
        )
        with use_guard(RunGuard(GuardPolicy(step_budget=5))):
            with pytest.raises(RunTimeoutError, match="packet.run"):
                sim.run()

    def test_healthy_engines_clean_under_strict(self, top):
        g = RunGuard(GuardPolicy(invariants="raise"))
        with use_guard(g):
            solve_fluid(top, _flows(top), [AD0, AD3], rng=derive_rng(0, "g"))
            sim = PacketSimulator(top, rng=derive_rng(1, "g"))
            sim.add_message(
                InjectionSpec(src=0, dst=top.n_nodes - 1, nbytes=16 * 1024, mode=AD0)
            )
            sim.run()
        assert g.violations == []

    def test_divergent_fluid_caught(self, top, monkeypatch):
        real = fluid_mod.split_fraction

        def poisoned(mode, smin, snon, pp):
            return np.full_like(real(mode, smin, snon, pp), np.nan)

        monkeypatch.setattr(fluid_mod, "split_fraction", poisoned)
        with use_guard(RunGuard(GuardPolicy(invariants="raise"))):
            with pytest.raises(InvariantViolation, match="fluid.finite_split"):
                solve_fluid(top, _flows(top), [AD0], rng=derive_rng(0, "g"))

    def test_sabotaged_packet_credit_caught(self, top):
        sim = PacketSimulator(top, rng=derive_rng(0, "g"))
        sim.credit[0] = -1.0
        g = RunGuard(GuardPolicy(invariants="record"))
        from repro.guard.invariants import check_packet_state

        check_packet_state(g, sim)
        assert any(
            v["invariant"] == "packet.nonnegative_credit" for v in g.violations
        )


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------
class TestGuardedCampaigns:
    def test_active_guard_is_noop_on_healthy_runs(self, top):
        cfg = _cfg()
        plain = run_campaign(top, cfg)
        import dataclasses

        guarded = run_campaign(
            top,
            dataclasses.replace(
                cfg, guard=GuardPolicy(deadline=300.0, invariants="record")
            ),
        )
        assert _dicts(guarded) == _dicts(plain)

    def test_divergent_run_isolated_with_bundle(self, top, tmp_path, monkeypatch):
        import dataclasses

        cfg = _cfg()
        plain = run_campaign(top, cfg)

        target = "MILC-AD3-s1"
        real = fluid_mod.split_fraction

        def poison_target(mode, smin, snon, pp):
            out = real(mode, smin, snon, pp)
            g = current_guard()
            if g is not None and g.label == target:
                return np.full_like(out, np.nan)
            return out

        monkeypatch.setattr(fluid_mod, "split_fraction", poison_target)
        tel = Telemetry(trace=MemoryTraceWriter())
        guarded = run_campaign(
            top,
            dataclasses.replace(
                cfg,
                guard=GuardPolicy(invariants="raise", bundle_dir=str(tmp_path)),
            ),
            telemetry=tel,
        )

        # the sabotaged run is isolated, the rest byte-identical
        assert [r.status for r in guarded] == ["ok", "ok", "ok", "error"]
        bad = guarded[3]
        assert bad.attempts == 1  # deterministic: never retried
        assert "fluid.finite_split" in bad.error
        keep = [0, 1, 2]
        assert [_dicts(guarded)[i] for i in keep] == [_dicts(plain)[i] for i in keep]

        evs = {e["ev"] for e in tel.trace.events}
        assert {"guard.violation", "guard.bundle"} <= evs

        bundle = load_bundle(tmp_path / f"{target}.bundle.json")
        assert bundle["reason"]["type"] == "InvariantViolation"
        assert bundle["rng_key"]["sample"] == 1 and bundle["rng_key"]["mode"] == "AD3"
        assert bundle["violations"][0]["invariant"] == "fluid.finite_split"
        assert bundle["policy"]["invariants"] == "raise"

    def test_deadline_terminates_run(self, top, monkeypatch):
        import dataclasses

        target = "MILC-AD0-s0"
        real = fluid_mod.split_fraction

        def slow_target(mode, smin, snon, pp):
            g = current_guard()
            if g is not None and g.label == target:
                time.sleep(0.15)
            return real(mode, smin, snon, pp)

        monkeypatch.setattr(fluid_mod, "split_fraction", slow_target)
        t0 = time.monotonic()
        records = run_campaign(
            top,
            dataclasses.replace(_cfg(samples=1), guard=GuardPolicy(deadline=0.1)),
        )
        assert time.monotonic() - t0 < 30.0
        assert records[0].status == "error"
        assert "deadline" in records[0].error
        assert records[1].status == "ok"

    def test_guard_excluded_from_fingerprint(self, top):
        import dataclasses

        cfg = _cfg()
        fp_plain = exp.campaign_fingerprint(top, cfg)
        fp_guarded = exp.campaign_fingerprint(
            top, dataclasses.replace(cfg, guard=GuardPolicy(deadline=60.0))
        )
        assert fp_plain == fp_guarded  # checkpoints stay interchangeable


# ---------------------------------------------------------------------------
# watchdog + heartbeat
# ---------------------------------------------------------------------------
class TestWatchdog:
    def _sleeper(self):
        return subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])

    def test_stale_heartbeat_kills_pool_pid(self, tmp_path):
        proc = self._sleeper()
        try:
            hb = tmp_path / f"{proc.pid}.hb"
            hb.touch()
            past = time.time() - 30.0
            os.utime(hb, (past, past))
            wd = Watchdog(tmp_path, timeout=1.0, pid_provider=lambda: {proc.pid})
            wd.scan()
            assert wd.kills and wd.kills[0][0] == proc.pid
            assert wd.kills[0][1] > 1.0
            assert proc.wait(timeout=10) == -signal.SIGKILL
            assert not hb.exists()
        finally:
            proc.kill()
            proc.wait()

    def test_never_kills_outside_the_pool(self, tmp_path):
        proc = self._sleeper()
        try:
            hb = tmp_path / f"{proc.pid}.hb"
            hb.touch()
            past = time.time() - 30.0
            os.utime(hb, (past, past))
            # pid not reported by the pool: stale file must be ignored
            wd = Watchdog(tmp_path, timeout=1.0, pid_provider=lambda: set())
            wd.scan()
            assert wd.kills == []
            assert proc.poll() is None
        finally:
            proc.kill()
            proc.wait()

    def test_fresh_heartbeat_survives(self, tmp_path):
        hb = WorkerHeartbeat(tmp_path)
        hb.start_task()
        wd = Watchdog(tmp_path, timeout=5.0, pid_provider=lambda: {os.getpid()})
        wd.scan()
        assert wd.kills == []
        hb.end_task()
        assert not hb.path.exists()

    def test_beat_is_throttled(self, tmp_path):
        hb = WorkerHeartbeat(tmp_path)
        hb.start_task()
        first = hb.path.stat().st_mtime_ns
        hb.beat()  # within min_interval: no utime
        assert hb.path.stat().st_mtime_ns == first
        hb._last = 0.0
        hb.beat()
        hb.end_task()


def _hung_parallel(top, cfg, tel, tmp_path):
    return run_pipeline(top, cfg, PoolBackend(2, max_retries=1), telemetry=tel).records


def _hung_cached(top, cfg, tel, tmp_path):
    # the cache's misses run on the same fork pool, at its default two
    # retries
    store = RunRecordStore(tmp_path / "cache")
    return run_campaign_cached(top, cfg, store=store, jobs=2, telemetry=tel).records


class TestHungWorker:
    @pytest.mark.parametrize(
        "run, attempts",
        [(_hung_parallel, 2), (_hung_cached, 3)],
        ids=["parallel", "cached"],
    )
    def test_hung_worker_killed_and_isolated(
        self, top, monkeypatch, tmp_path, run, attempts
    ):
        import dataclasses

        cfg = _cfg()
        plain = run_campaign(top, cfg)

        target = "MILC-AD0-s1"

        def hang_target(*a, **kw):
            g = current_guard()
            if g is not None and g.label == target:
                # longer than the elapsed bound below, so a pool without
                # the watchdog fails that assertion instead of hanging
                time.sleep(150)
            return exp_real(*a, **kw)

        exp_real = exp.run_app_once
        monkeypatch.setattr(exp, "run_app_once", hang_target)

        tel = Telemetry(trace=MemoryTraceWriter())
        guarded_cfg = dataclasses.replace(
            cfg, guard=GuardPolicy(hang_timeout=2.0)
        )
        t0 = time.monotonic()
        records = run(top, guarded_cfg, tel, tmp_path)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0  # watchdog kills, not the injected sleep

        by_key = {(r.sample_index, r.mode): r for r in records}
        bad = by_key[(1, "AD0")]
        assert bad.status == "error" and "worker died" in bad.error
        assert bad.attempts == attempts

        evs = [e for e in tel.trace.events if e["ev"] == "guard.worker_hung"]
        assert len(evs) == attempts  # one kill per retry round
        assert all(e["stale_s"] >= 1.0 for e in evs)
        assert any(
            e["ev"] == "guard.worker_lost" and e["label"] == target
            for e in tel.trace.events
        )

        # every surviving run byte-identical to the guard-disabled serial
        plain_by_key = {(r.sample_index, r.mode): r for r in plain}
        for key, rec in by_key.items():
            if key == (1, "AD0"):
                continue
            assert json.dumps(record_to_dict(rec), sort_keys=True) == json.dumps(
                record_to_dict(plain_by_key[key]), sort_keys=True
            )


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------
class TestBundles:
    def test_roundtrip(self, tmp_path):
        path = write_bundle(
            tmp_path,
            label="MILC-AD0-s0",
            reason={"type": "RunTimeoutError", "message": "deadline"},
            fingerprint={"app": "milc"},
            rng_key={"seed": 7, "sample": 0},
            events=[{"ev": "fluid.solve", "seq": 3}],
            violations=[{"invariant": "fluid.split_range"}],
        )
        assert path is not None and path.name == "MILC-AD0-s0.bundle.json"
        b = load_bundle(path)
        assert b["fingerprint"] == {"app": "milc"}
        assert b["events"][0]["ev"] == "fluid.solve"

    def test_unwritable_dir_swallowed(self):
        assert (
            write_bundle("/proc/definitely/not/writable", label="x", reason={})
            is None
        )

    def test_failed_fsync_returns_none_and_leaves_no_scratch(self, tmp_path, monkeypatch):
        def enospc(_fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", enospc)
        assert write_bundle(tmp_path, label="MILC-AD0-s0", reason={}) is None
        assert os.listdir(tmp_path) == []

    def test_ring_writer_keeps_tail(self):
        ring = RingTraceWriter(maxlen=3)
        tel = Telemetry(trace=ring)
        for i in range(10):
            tel.event("tick", i=i)
        assert [e["i"] for e in ring.tail()] == [7, 8, 9]


# ---------------------------------------------------------------------------
# checkpoint tail repair
# ---------------------------------------------------------------------------
class TestCheckpointRepair:
    def _checkpointed(self, top, tmp_path, name="full.jsonl", **kw):
        path = tmp_path / name
        records = run_campaign(top, _cfg(**kw), checkpoint_path=str(path))
        return path, records

    def test_clean_file_untouched(self, top, tmp_path):
        path, _ = self._checkpointed(top, tmp_path)
        before = path.read_bytes()
        assert ckpt_mod.repair_tail(path) is False
        assert path.read_bytes() == before

    def test_torn_unterminated_line_truncated(self, top, tmp_path):
        path, _ = self._checkpointed(top, tmp_path)
        clean = path.read_bytes()
        with open(path, "ab") as f:
            f.write(b'{"app": "milc", "mode": "AD0", "runt')
        assert ckpt_mod.repair_tail(path) is True
        assert path.read_bytes() == clean

    def test_torn_terminated_garbage_line_truncated(self, top, tmp_path):
        path, _ = self._checkpointed(top, tmp_path)
        clean = path.read_bytes()
        with open(path, "ab") as f:
            f.write(b'{"app": "milc", "half\n')
        assert ckpt_mod.repair_tail(path) is True
        assert path.read_bytes() == clean

    def test_resume_after_torn_tail_matches_serial(self, top, tmp_path):
        cfg = _cfg()
        full = tmp_path / "full.jsonl"
        serial = run_campaign(top, cfg, checkpoint_path=str(full))
        # tear the last record in half, as a mid-append crash would
        part = tmp_path / "part.jsonl"
        lines = full.read_bytes().splitlines(keepends=True)
        part.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        resumed = run_campaign(
            top, cfg, checkpoint_path=str(part), resume=True
        )
        assert _dicts(resumed) == _dicts(serial)
        assert part.read_bytes() == full.read_bytes()


# ---------------------------------------------------------------------------
# telemetry guards (metrics merge tags, order_events clamping)
# ---------------------------------------------------------------------------
class TestMergeGuards:
    def test_duplicate_tag_skipped_with_warning(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.counter("runs_total").inc(3)
        parent.merge(worker, tag=5)
        with pytest.warns(RuntimeWarning, match="already merged"):
            parent.merge(worker, tag=5)
        assert parent.counter("runs_total").value == 3  # not double-counted
        parent.merge(worker, tag=6)
        assert parent.counter("runs_total").value == 6

    def test_merge_into_self_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="itself"):
            reg.merge(reg)

    def test_untagged_merge_unchanged(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.counter("runs_total").inc()
        parent.merge(worker)
        parent.merge(worker)
        assert parent.counter("runs_total").value == 2


class TestOrderEventsGuards:
    def test_bad_keys_clamped_with_warning(self):
        events = [
            {"ev": "b", "run_index": float("nan"), "seq": 2},
            {"ev": "a", "run_index": "zero", "seq": -5},
            {"ev": "c", "run_index": 0, "seq": 1},
            {"ev": "d", "run_index": True, "seq": 0},
        ]
        with pytest.warns(RuntimeWarning, match="clamped"):
            out = order_events(events)
        # clamped events keep a stable order before every real run
        assert [e["ev"] for e in out] == ["a", "d", "b", "c"]

    def test_duplicate_worker_tags_warn(self):
        events = [
            {"ev": "x", "run_index": 2, "seq": 0, "worker": 0},
            {"ev": "y", "run_index": 2, "seq": 1, "worker": 1},
        ]
        with pytest.warns(RuntimeWarning, match="distinct workers"):
            order_events(events)

    def test_clean_events_no_warning(self, recwarn):
        events = [
            {"ev": "y", "run_index": 1, "seq": 0, "worker": 1},
            {"ev": "x", "run_index": 0, "seq": 0, "worker": 0},
        ]
        assert [e["ev"] for e in order_events(events)] == ["x", "y"]
        assert not [w for w in recwarn.list if w.category is RuntimeWarning]


# ---------------------------------------------------------------------------
# fault-spec parse errors
# ---------------------------------------------------------------------------
class TestFaultSpecErrors:
    def test_token_and_position_reported(self):
        text = "router:1; cable:0-1:x"
        with pytest.raises(FaultSpecError) as ei:
            FaultSchedule.parse(text)
        assert ei.value.token == "0-1:x"
        assert ei.value.position == text.index("0-1:x")
        assert "position" in str(ei.value)

    def test_bad_fraction_token(self):
        with pytest.raises(FaultSpecError) as ei:
            FaultSchedule.parse("rank3:lots")
        assert ei.value.token == "lots" and ei.value.position == 6

    def test_unknown_head_token(self):
        with pytest.raises(FaultSpecError) as ei:
            FaultSchedule.parse("rank3:0.05;routr:3")
        assert ei.value.token == "routr"
        assert ei.value.position == len("rank3:0.05;")

    def test_bad_window_token(self):
        with pytest.raises(FaultSpecError) as ei:
            FaultSchedule.parse("router:3@soon")
        assert ei.value.token == "soon"

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            FaultSchedule.parse("link:abc")

    def test_cli_reports_position_and_exits_2(self, capsys):
        import repro.cli as cli

        rc = cli.main(
            ["compare", "--system", "toy", "--nodes", "8", "--samples", "1",
             "--modes", "AD0", "--faults", "rank3:abc"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "'abc'" in err and "position 6" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# CLI guard flags
# ---------------------------------------------------------------------------
class TestCliGuardFlags:
    def _parse(self, *extra):
        import repro.cli as cli

        args = cli.build_parser().parse_args(["compare", *extra])
        return cli._guard_from_args(args)

    def test_no_flags_no_policy(self):
        assert self._parse() is None

    def test_flags_build_policy(self):
        policy = self._parse(
            "--deadline", "30", "--step-budget", "1000",
            "--guard", "strict", "--hang-timeout", "5", "--bundle-dir", "/tmp/b",
        )
        assert policy == GuardPolicy(
            deadline=30.0,
            step_budget=1000,
            invariants="raise",
            hang_timeout=5.0,
            bundle_dir="/tmp/b",
        )

    def test_guard_mode_alone(self):
        assert self._parse("--guard", "record").invariants == "record"

    def test_guarded_compare_runs_clean(self, capsys):
        import repro.cli as cli

        rc = cli.main(
            ["compare", "--system", "mini", "--nodes", "16", "--samples", "1",
             "--modes", "AD0,AD3", "--guard", "strict", "--deadline", "300"]
        )
        assert rc == 0
        assert "runs failed" not in capsys.readouterr().out
