"""Serial ≡ parallel equivalence suite.

The parallel dispatcher's contract is that worker count and completion
order are unobservable: records, checkpoint bytes, merged metrics, and
CLI output must be field-for-field identical to serial execution.
These tests pin that contract for compare/sweep/ensemble campaigns,
with and without fault schedules, including the interleaving-scrambled
delivery order the ``scramble_seed`` test hook produces.
"""

import builtins
import errno
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import MILC
from repro.core.biases import AD0, AD1, AD2, AD3
from repro.core.checkpoint import load_records, record_to_dict
from repro.core.ensembles import EnsembleConfig
from repro.core.experiment import CampaignConfig, run_campaign
from repro.core.pipeline import run_pipeline
from repro.faults import FaultSchedule
from repro.parallel import run_ensembles
from repro.parallel.campaign import PoolBackend
from repro.telemetry import MemoryTraceWriter, MetricsRegistry, Telemetry
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings("ignore::repro.network.fluid.NonConvergenceWarning")


@pytest.fixture(scope="module")
def top():
    return mini()


def _dicts(records):
    return [record_to_dict(r) for r in records]


FAULTS = FaultSchedule.parse("rank3:0.25", seed=7)


def _cfg(modes=(AD0, AD3), faults=None, **kw):
    kw.setdefault("samples", 3)
    return CampaignConfig(
        app=MILC(), n_nodes=32, modes=modes, seed=11, scenario_pool=4,
        faults=faults, **kw
    )


class TestCampaignEquivalence:
    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["pristine", "faulted"])
    def test_compare_jobs4_identical(self, top, faults):
        cfg = _cfg(faults=faults)
        serial = _dicts(run_campaign(top, cfg, jobs=1))
        parallel = _dicts(run_campaign(top, cfg, jobs=4))
        assert parallel == serial

    def test_scrambled_completion_order_identical(self, top):
        cfg = _cfg()
        serial = _dicts(run_campaign(top, cfg, jobs=1))
        for seed in (1, 2, 3):
            scrambled = _dicts(
                run_pipeline(top, cfg, PoolBackend(3, scramble_seed=seed)).records
            )
            assert scrambled == serial

    def test_sweep_all_modes_identical(self, top):
        cfg = _cfg(modes=(AD0, AD1, AD2, AD3), samples=2)
        serial = run_campaign(top, cfg, jobs=1)
        parallel = run_campaign(top, cfg, jobs=4)
        assert _dicts(parallel) == _dicts(serial)
        # per-run identity fields the pairing depends on
        for s, p in zip(serial, parallel):
            assert (s.sample_index, s.mode) == (p.sample_index, p.mode)
            assert s.solver_converged == p.solver_converged
            assert s.solver_max_residual == p.solver_max_residual

    def test_checkpoint_bytes_identical(self, top, tmp_path):
        cfg = _cfg(faults=FAULTS)
        p1 = tmp_path / "serial.jsonl"
        p4 = tmp_path / "jobs4.jsonl"
        ps = tmp_path / "scrambled.jsonl"
        run_campaign(top, cfg, jobs=1, checkpoint_path=str(p1))
        run_campaign(top, cfg, jobs=4, checkpoint_path=str(p4))
        run_pipeline(
            top, cfg, PoolBackend(3, scramble_seed=5), checkpoint_path=str(ps)
        )
        assert p4.read_bytes() == p1.read_bytes()
        assert ps.read_bytes() == p1.read_bytes()

    def test_resume_under_parallel_identical(self, top, tmp_path):
        cfg = _cfg()
        full = tmp_path / "full.jsonl"
        serial = run_campaign(top, cfg, jobs=1, checkpoint_path=str(full))
        # truncate to a prefix, as an interrupt would leave it
        lines = full.read_text().splitlines(True)
        part = tmp_path / "part.jsonl"
        part.write_text("".join(lines[: 1 + len(serial) // 2]))
        resumed = run_campaign(
            top, cfg, jobs=4, checkpoint_path=str(part), resume=True
        )
        assert _dicts(resumed) == _dicts(serial)
        assert part.read_bytes() == full.read_bytes()

    def test_metrics_merge_matches_serial(self, top):
        cfg = _cfg()
        tels = [
            Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
            for _ in range(2)
        ]
        serial = run_campaign(top, cfg, jobs=1, telemetry=tels[0])
        parallel = run_campaign(top, cfg, jobs=4, telemetry=tels[1])
        assert _dicts(parallel) == _dicts(serial)
        d1, d4 = tels[0].metrics.to_dict(), tels[1].metrics.to_dict()
        assert (
            d4["campaign_samples_total"] == d1["campaign_samples_total"]
        )
        for name, m in d1.items():
            if m["type"] == "histogram":
                # wall-clock values differ; the populations' sizes cannot
                assert d4[name]["count"] == m["count"], name

    def test_worker_trace_events_tagged_and_complete(self, top):
        cfg = _cfg()
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        run_campaign(top, cfg, jobs=3, telemetry=tel)
        samples = tel.trace.of_type("campaign.sample")
        assert len(samples) == cfg.samples * len(cfg.modes)
        assert all("worker" in e and "run_index" in e for e in samples)
        # run_index is the canonical (sample-major, mode-minor) position
        mode_names = [m.name for m in cfg.modes]
        for e in samples:
            assert e["run_index"] == e["sample"] * len(cfg.modes) + mode_names.index(
                e["mode"]
            )


class TestEnsembleEquivalence:
    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["pristine", "faulted"])
    def test_parallel_ensembles_identical(self, top, faults):
        cfgs = [
            EnsembleConfig(
                app=MILC(), n_jobs=2, n_nodes=16, mode=m, seed=5, faults=faults
            )
            for m in (AD0, AD3)
        ]
        serial = run_ensembles(top, cfgs, jobs=1)
        parallel = run_ensembles(top, cfgs, jobs=2)
        scrambled = run_ensembles(top, cfgs, jobs=2, scramble_seed=3)
        for s, p, c in zip(serial, parallel, scrambled):
            for other in (p, c):
                assert np.array_equal(s.job_nodes, other.job_nodes)
                assert np.array_equal(s.job_runtimes, other.job_runtimes)
                s_snap, o_snap = s.bank.snapshot(), other.bank.snapshot()
                for cls in ("rank1", "rank2", "rank3", "proc_req"):
                    assert np.array_equal(s_snap.flits[cls], o_snap.flits[cls])
                    assert np.array_equal(s_snap.stalls[cls], o_snap.stalls[cls])

    def test_delivery_is_canonical_order(self, top):
        cfgs = [
            EnsembleConfig(app=MILC(), n_jobs=2, n_nodes=16, mode=m, seed=5)
            for m in (AD0, AD1, AD3)
        ]
        order = []
        run_ensembles(
            top, cfgs, jobs=3, on_result=lambda i, r: order.append(i), scramble_seed=9
        )
        assert order == [0, 1, 2]


class TestCliEquivalence:
    """Every campaign CLI path produces identical output for any --jobs."""

    @pytest.fixture(autouse=True)
    def mini_system(self, monkeypatch):
        import repro.cli as cli

        monkeypatch.setitem(cli.SYSTEMS, "mini", mini)

    def _run(self, capsys, argv):
        from repro.cli import main

        assert main(argv) == 0
        return capsys.readouterr().out

    BASE = ["--system", "mini", "--app", "milc", "--nodes", "32", "--samples", "2"]

    def test_compare_output_identical(self, capsys):
        serial = self._run(capsys, ["compare", *self.BASE, "-j", "1"])
        parallel = self._run(capsys, ["compare", *self.BASE, "-j", "4"])
        assert parallel == serial

    def test_sweep_with_faults_output_identical(self, capsys):
        argv = ["sweep", *self.BASE, "--faults", "rank3:0.25"]
        serial = self._run(capsys, [*argv, "--jobs", "1"])
        parallel = self._run(capsys, [*argv, "--jobs", "4"])
        assert parallel == serial

    def test_ensemble_modes_sweep_identical(self, capsys, tmp_path):
        argv = [
            "ensemble", "--system", "mini", "--app", "milc",
            "--jobs", "2", "--nodes", "16", "--modes", "AD0,AD3",
        ]
        serial = self._run(capsys, [*argv, "--workers", "1"])
        parallel = self._run(capsys, [*argv, "--workers", "2"])
        assert parallel == serial

    def test_ensemble_checkpoint_resume_prefix(self, capsys, tmp_path):
        ck = tmp_path / "ens.json"
        argv = [
            "ensemble", "--system", "mini", "--app", "milc",
            "--jobs", "2", "--nodes", "16", "--modes", "AD0,AD3",
            "--checkpoint", str(ck),
        ]
        full = self._run(capsys, [*argv, "--workers", "2"])
        full_bytes = ck.read_bytes()
        lines = full_bytes.splitlines(keepends=True)
        assert [json.loads(line)["mode"] for line in lines[1:]] == ["AD0", "AD3"]
        # drop AD3, as an interrupt after the first ensemble would
        ck.write_bytes(b"".join(lines[:2]))
        resumed = self._run(capsys, [*argv, "--workers", "2", "--resume"])
        assert resumed == f"(resumed from {ck})\n" + full
        assert ck.read_bytes() == full_bytes

    def test_ensemble_checkpoint_survives_a_failed_rewrite(
        self, capsys, tmp_path, monkeypatch
    ):
        """ENOSPC on the second checkpoint write must not tear the first."""
        ck = tmp_path / "ens.json"
        argv = [
            "ensemble", "--system", "mini", "--app", "milc",
            "--jobs", "2", "--nodes", "16", "--modes", "AD0,AD3",
            "--checkpoint", str(ck), "--workers", "1",
        ]
        full = self._run(capsys, argv)
        full_bytes = ck.read_bytes()
        ck.unlink()
        real_open = builtins.open
        opened = []

        def failing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if ("w" in mode or "a" in mode) and Path(file).parent == tmp_path:
                opened.append(file)
                if len(opened) == 2:  # header published, then an append fails
                    f.close()
                    raise OSError(errno.ENOSPC, "No space left on device")
            return f

        monkeypatch.setattr(builtins, "open", failing_open)
        monkeypatch.setattr(io, "open", failing_open)
        from repro.cli import main

        with pytest.raises(OSError, match="No space left"):
            main(argv)
        monkeypatch.undo()
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ens.json"]
        resumed = self._run(capsys, [*argv, "--resume"])
        assert resumed == f"(resumed from {ck})\n" + full
        assert ck.read_bytes() == full_bytes

    def test_calibrate_probe_jobs_identical(self, theta_top):
        from repro.core.calibration import probe_observables

        serial = probe_observables(theta_top, samples=1, seed=4242, jobs=1)
        parallel = probe_observables(theta_top, samples=1, seed=4242, jobs=4)
        assert parallel == serial


class TestInterleavedReaders:
    """Checkpoint/trace readers tolerate multi-worker interleavings."""

    def test_checkpoint_loader_tolerates_shuffled_records(self, top, tmp_path):
        from repro.core.experiment import campaign_fingerprint

        cfg = _cfg()
        path = tmp_path / "c.jsonl"
        serial = run_campaign(top, cfg, jobs=1, checkpoint_path=str(path))
        lines = path.read_text().splitlines(True)
        header, body = lines[0], lines[1:]
        rng = np.random.default_rng(0)
        shuffled = [body[i] for i in rng.permutation(len(body))]
        path.write_text(header + "".join(shuffled))
        done = load_records(str(path), campaign_fingerprint(top, cfg))
        assert len(done) == len(serial)
        by_key = {(r.sample_index, r.mode): record_to_dict(r) for r in serial}
        for key, rec in done.items():
            assert record_to_dict(rec) == by_key[key]

    def test_trace_summary_invariant_to_shuffling(self, top, tmp_path):
        from repro.telemetry import order_events, summarize_trace

        cfg = _cfg()
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        run_campaign(top, cfg, jobs=3, telemetry=tel)
        events = list(tel.trace.events)
        rng = np.random.default_rng(1)
        shuffled = [events[i] for i in rng.permutation(len(events))]
        ordered = order_events(shuffled)
        assert ordered == order_events(events)
        # forwarded events reconstruct (run_index, seq) lexicographic order
        tagged = [e for e in ordered if "run_index" in e]
        keys = [(e["run_index"], e["seq"]) for e in tagged]
        assert keys == sorted(keys)
        a = summarize_trace(events)
        b = summarize_trace(shuffled)
        assert a.by_type == b.by_type
        assert a.sample_runtimes == b.sample_runtimes
        assert a.convergence.n_solves == b.convergence.n_solves

    def test_report_cmd_reads_shuffled_trace_file(self, tmp_path, capsys, top):
        from repro.cli import main

        cfg = _cfg()
        trace_path = tmp_path / "trace.jsonl"
        tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
        run_campaign(top, cfg, jobs=3, telemetry=tel)
        events = list(tel.trace.events)
        rng = np.random.default_rng(2)
        with trace_path.open("w") as fh:
            for i in rng.permutation(len(events)):
                fh.write(json.dumps(events[i]) + "\n")
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign.sample" in out
