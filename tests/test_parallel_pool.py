"""Fault and crash behaviour of the parallel dispatcher.

Three failure layers, three contracts:

* an exception *inside* a run is isolated into an error-status
  ``RunRecord`` by the worker, exactly as the serial loop would;
* a worker process that *dies* (``os._exit``, OOM-kill) breaks the pool;
  the dispatcher rebuilds it and retries the unfinished runs a bounded
  number of times before isolating them too;
* an interrupt (Ctrl-C) mid-campaign leaves the checkpoint as a clean,
  resumable prefix of the serial file.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.checkpoint as ckpt_mod
import repro.core.experiment as exp
from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.checkpoint import record_to_dict
from repro.core.experiment import CampaignConfig, run_campaign
from repro.core.pipeline import run_pipeline
from repro.parallel import run_tasks
from repro.parallel.campaign import PoolBackend
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings("ignore::repro.network.fluid.NonConvergenceWarning")


@pytest.fixture(scope="module")
def top():
    return mini()


def _cfg(**kw):
    kw.setdefault("samples", 2)
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), seed=11, scenario_pool=4, **kw
    )


def _dicts(records):
    # via JSON so NaN runtimes of error records compare equal
    return [json.dumps(record_to_dict(r), sort_keys=True) for r in records]


class TestWorkerExceptions:
    def test_run_exception_becomes_error_record(self, top, monkeypatch):
        cfg = _cfg()

        def exploding(*a, **kw):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(exp, "run_app_once", exploding)
        serial = run_campaign(top, cfg, jobs=1)
        parallel = run_campaign(top, cfg, jobs=2)
        assert _dicts(parallel) == _dicts(serial)
        assert all(r.status == "error" for r in parallel)
        assert "solver exploded" in parallel[0].error

    def test_harness_error_propagates(self, top, monkeypatch):
        # an exception outside execute_run is a dispatcher bug, not a run
        # failure: it must abort the campaign like the serial loop would
        def boom(*a, **kw):
            raise RuntimeError("harness bug")

        # the workers draw through the campaign background, which calls
        # the module-level sample_draws
        monkeypatch.setattr(exp, "sample_draws", boom)
        with pytest.raises(RuntimeError, match="harness bug"):
            run_campaign(top, _cfg(), jobs=2)


class TestDeadWorkers:
    def test_killed_worker_retried_and_results_identical(
        self, top, tmp_path, monkeypatch
    ):
        cfg = _cfg()
        serial = _dicts(run_campaign(top, cfg, jobs=1))
        marker = tmp_path / "died-once"
        real = exp.run_app_once

        def die_once(*a, **kw):
            if not marker.exists():
                marker.write_text("x")
                os._exit(17)
            return real(*a, **kw)

        monkeypatch.setattr(exp, "run_app_once", die_once)
        parallel = _dicts(run_campaign(top, cfg, jobs=2))
        assert marker.exists()
        assert parallel == serial

    def test_retries_are_bounded(self, top, monkeypatch):
        cfg = _cfg()

        def always_die(*a, **kw):
            os._exit(13)

        monkeypatch.setattr(exp, "run_app_once", always_die)
        records = run_pipeline(top, cfg, PoolBackend(2, max_retries=1)).records
        assert len(records) == cfg.samples * 2
        assert all(r.status == "error" for r in records)
        assert all(r.attempts == 2 for r in records)
        assert "worker died" in records[0].error
        assert all(np.isnan(r.runtime) for r in records)

    def test_ensemble_whose_worker_keeps_dying_raises(self, top, monkeypatch):
        # an ensemble has no error record to degrade into
        from repro.core.ensembles import EnsembleConfig, EnsembleJob
        from repro.parallel import run_ensembles

        monkeypatch.setattr(EnsembleJob, "execute", lambda self, task, tel: os._exit(13))
        cfgs = [EnsembleConfig(app=MILC(), n_jobs=2, n_nodes=16, mode=m) for m in (AD0, AD3)]
        with pytest.raises(RuntimeError, match=r"ensemble \d lost its worker process 3 times"):
            run_ensembles(top, cfgs, jobs=2)

    def test_run_tasks_retry_accounting(self):
        outcomes = list(
            run_tasks([1, 2, 3], _square, jobs=2, max_retries=1)
        )
        assert sorted(o.result for o in outcomes) == [1, 4, 9]
        assert all(o.ok and o.attempts == 1 for o in outcomes)


def _square(x):
    return x * x


class TestInterrupts:
    def test_ctrl_c_leaves_resumable_checkpoint(self, top, tmp_path, monkeypatch):
        cfg = _cfg(samples=3)
        full = tmp_path / "full.jsonl"
        serial = run_campaign(top, cfg, jobs=1, checkpoint_path=str(full))

        part = tmp_path / "part.jsonl"
        real_append = ckpt_mod.append_record
        state = {"appends": 0, "armed": True}

        def interrupting(path, rec, **kw):
            if state["armed"] and state["appends"] >= 2:
                raise KeyboardInterrupt
            state["appends"] += 1
            return real_append(path, rec, **kw)

        monkeypatch.setattr(ckpt_mod, "append_record", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(top, cfg, jobs=3, checkpoint_path=str(part))
        state["armed"] = False

        # clean prefix: header plus the two flushed records
        assert full.read_text().startswith(part.read_text())
        assert len(part.read_text().splitlines()) == 3

        resumed = run_campaign(
            top, cfg, jobs=3, checkpoint_path=str(part), resume=True
        )
        assert _dicts(resumed) == _dicts(serial)
        assert part.read_bytes() == full.read_bytes()

    def test_ensemble_ctrl_c_resumable_via_cli(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli
        import repro.parallel as par

        monkeypatch.setitem(cli.SYSTEMS, "mini", mini)

        def argv(ck):
            return [
                "ensemble", "--system", "mini", "--app", "milc",
                "--jobs", "2", "--nodes", "16", "--modes", "AD0,AD3",
                "--workers", "2", "--checkpoint", str(ck),
            ]

        ck_full = tmp_path / "full.json"
        assert cli.main(argv(ck_full)) == 0
        capsys.readouterr()

        ck = tmp_path / "interrupted.json"
        real = par.run_ensembles

        def interrupted(topx, cfgs, *, on_result=None, **kw):
            def wrapper(i, res):
                on_result(i, res)
                raise KeyboardInterrupt

            return real(topx, cfgs, on_result=wrapper, **kw)

        monkeypatch.setattr(par, "run_ensembles", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv(ck))
        monkeypatch.setattr(par, "run_ensembles", real)
        capsys.readouterr()

        lines = ck.read_text().splitlines()
        assert [json.loads(line)["mode"] for line in lines[1:]] == ["AD0"]
        assert cli.main([*argv(ck), "--resume"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"(resumed from {ck})")
        assert ck.read_bytes() == ck_full.read_bytes()


def _procs_mentioning(needle: str) -> list[int]:
    """Pids of live processes whose cmdline contains ``needle``.

    Pool workers are forked, so they share the parent's cmdline; a
    unique checkpoint path in the argv therefore tags the whole
    process tree of one campaign.
    """
    pids = []
    for p in Path("/proc").iterdir():
        if not p.name.isdigit():
            continue
        try:
            cmd = (p / "cmdline").read_bytes()
        except OSError:
            continue
        if needle.encode() in cmd:
            pids.append(int(p.name))
    return pids


class TestParentSigterm:
    """SIGTERM of the *parent* mid-sweep (scheduler preemption, timeout).

    Contract: the CLI's SIGTERM handler converts the signal to a clean
    ``SystemExit(143)``, the executor SIGKILLs its pool workers on the
    way out (no orphans mining CPU after the job is gone), and the
    checkpoint on disk is a clean resumable prefix — a rerun with
    ``--resume`` finishes the campaign byte-identically.
    """

    #: big enough that runs are still left when SIGTERM lands two records
    #: in: a mini run takes only tens of milliseconds
    SAMPLES = 16

    def _argv(self, ck):
        return [
            sys.executable, "-m", "repro", "compare",
            "--system", "mini", "--nodes", "32", "--samples", str(self.SAMPLES),
            "--modes", "AD0,AD3", "--seed", "11", "-j", "2",
            "--checkpoint", str(ck),
        ]

    def _env(self):
        src = str(Path(exp.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_sigterm_reaps_workers_and_leaves_resumable_prefix(self, tmp_path):
        env = self._env()

        # reference: the same sweep, run to completion
        ck_full = tmp_path / "full.jsonl"
        done = subprocess.run(
            self._argv(ck_full), env=env, capture_output=True, text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        full_lines = ck_full.read_text().splitlines()
        assert len(full_lines) == 1 + 2 * self.SAMPLES  # header + 2 modes each

        # victim: SIGTERM once at least two runs have been checkpointed
        ck = tmp_path / "preempted.jsonl"
        proc = subprocess.Popen(
            self._argv(ck), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail(
                        f"campaign finished (rc {proc.returncode}) before "
                        "SIGTERM could be delivered; sweep too small"
                    )
                if ck.exists() and len(ck.read_text().splitlines()) >= 3:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("checkpoint never reached two records")
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        assert rc == 143  # the conventional 128+SIGTERM exit

        # no orphaned pool workers keep running after the parent is gone
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and _procs_mentioning(str(ck)):
            time.sleep(0.1)
        assert _procs_mentioning(str(ck)) == []

        # what hit disk is a clean prefix of the full serial-order file
        part_lines = ck.read_text().splitlines()
        assert 3 <= len(part_lines) < len(full_lines)
        for line in part_lines:
            json.loads(line)  # no torn tail
        assert full_lines[: len(part_lines)] == part_lines

        # and --resume completes the sweep byte-identically
        resumed = subprocess.run(
            [*self._argv(ck), "--resume"], env=env, capture_output=True,
            text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert ck.read_bytes() == ck_full.read_bytes()


class TestParentSigkill:
    """SIGKILL of the *parent* mid-campaign (OOM killer, ``kill -9``).

    The parent runs no handler and reaps nobody, and a worker waiting on
    the inherited call queue never reads end-of-file (its siblings hold
    the pipe too).  Contract: every pool worker notices that its parent
    is gone and exits within a few seconds.
    """

    def test_workers_exit_once_their_parent_is_killed(self, tmp_path):
        ck = tmp_path / "killed.jsonl"
        argv = [
            sys.executable, "-m", "repro", "compare",
            "--system", "mini", "--nodes", "32", "--samples", "64",
            "--modes", "AD0,AD3", "--seed", "11", "-j", "2",
            "--checkpoint", str(ck),
        ]
        proc = subprocess.Popen(
            argv, env=TestParentSigterm()._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # mid-run: both workers forked and a record checkpointed
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail(f"campaign finished (rc {proc.returncode}) before the kill")
                tree = _procs_mentioning(str(ck))
                if len(tree) >= 3 and ck.exists() and len(ck.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("the campaign never forked its two workers")
            workers = [pid for pid in tree if pid != proc.pid]
            proc.kill()
            proc.wait(timeout=60)

            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and _procs_mentioning(str(ck)):
                time.sleep(0.05)
            assert _procs_mentioning(str(ck)) == [], f"orphaned workers of {workers}"
        finally:
            for pid in _procs_mentioning(str(ck)):
                os.kill(pid, signal.SIGKILL)
