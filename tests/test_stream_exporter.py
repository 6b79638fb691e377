"""Tests for the live-observability plumbing: bus, tail, progress, HTTP.

Everything here runs in-process against ephemeral ports and tmp files;
no test depends on wall-clock timing beyond generous poll loops.
"""

import json
import threading
import urllib.request

import pytest

from repro.telemetry import (
    BusTraceWriter,
    CampaignProgress,
    EventBus,
    MetricsExporter,
    MetricsRegistry,
    MultiTraceWriter,
    NULL_TRACE,
    OPENMETRICS_CONTENT_TYPE,
    TraceTail,
    scan_trace,
)
from repro.telemetry.top import (
    format_duration,
    heartbeat_ages,
    progress_bar,
    render_top,
    sparkline,
)


class TestEventBus:
    def test_fanout_and_unsubscribe(self):
        bus = EventBus()
        got_a, got_b = [], []
        unsub = bus.subscribe(got_a.append)
        bus.subscribe(got_b.append)
        bus.publish({"ev": "x"})
        unsub()
        bus.publish({"ev": "y"})
        assert [e["ev"] for e in got_a] == ["x"]
        assert [e["ev"] for e in got_b] == ["x", "y"]
        assert bus.published == 2

    def test_raising_subscriber_dropped_not_fatal(self):
        bus = EventBus()
        healthy = []

        def broken(ev):
            raise RuntimeError("observer bug")

        bus.subscribe(broken)
        bus.subscribe(healthy.append)
        bus.publish({"ev": "a"})  # must not raise
        bus.publish({"ev": "b"})
        assert [e["ev"] for e in healthy] == ["a", "b"]

    def test_bus_trace_writer_publishes_events(self):
        bus = EventBus()
        got = []
        bus.subscribe(got.append)
        w = BusTraceWriter(bus)
        w.emit("solve.start", run=3)
        assert got[0]["ev"] == "solve.start" and got[0]["run"] == 3

    def test_splices_with_null_trace(self):
        # the CLI wraps whatever trace exists; a disabled NULL_TRACE
        # member must not swallow the bus events
        bus = EventBus()
        got = []
        bus.subscribe(got.append)
        multi = MultiTraceWriter([NULL_TRACE, BusTraceWriter(bus)])
        multi.emit("tick")
        assert [e["ev"] for e in got] == ["tick"]

    def test_concurrent_publish(self):
        bus = EventBus()
        got = []
        lock = threading.Lock()

        def sub(ev):
            with lock:
                got.append(ev)

        bus.subscribe(sub)
        threads = [
            threading.Thread(
                target=lambda: [bus.publish({"ev": "t"}) for _ in range(100)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 400 and bus.published == 400


class TestTraceTail:
    def test_incremental_poll(self, tmp_path):
        p = tmp_path / "t.jsonl"
        tail = TraceTail(p)
        assert tail.poll() == []  # missing file: not an error
        with p.open("w") as fh:
            fh.write('{"ev":"a"}\n')
            fh.flush()
            assert [e["ev"] for e in tail.poll()] == ["a"]
            fh.write('{"ev":"b"}\n{"ev":"c"}\n')
            fh.flush()
            assert [e["ev"] for e in tail.poll()] == ["b", "c"]
        assert tail.poll() == []

    def test_torn_line_buffered_until_complete(self, tmp_path):
        p = tmp_path / "t.jsonl"
        with p.open("w") as fh:
            fh.write('{"ev":"a"}\n{"ev":"b"')
            fh.flush()
            tail = TraceTail(p)
            assert [e["ev"] for e in tail.poll()] == ["a"]
            fh.write(',"n":1}\n')
            fh.flush()
            assert tail.poll() == [{"ev": "b", "n": 1}]
        assert tail.n_bad == 0

    def test_truncation_resets_reader(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"ev":"a"}\n{"ev":"b"}\n')
        tail = TraceTail(p)
        tail.poll()
        p.write_text('{"ev":"fresh"}\n')  # rotated: shorter file
        assert [e["ev"] for e in tail.poll()] == ["fresh"]

    def test_garbage_counted_not_returned(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"ev":"a"}\nnot json\n[1,2]\n{"ev":"b"}\n')
        tail = TraceTail(p)
        assert [e["ev"] for e in tail.poll()] == ["a", "b"]
        assert tail.n_bad == 2


class TestScanTrace:
    def test_clean_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"ev":"a"}\n{"ev":"b"}\n')
        scan = scan_trace(p)
        assert len(scan.events) == 2
        assert scan.n_bad == 0 and not scan.truncated_tail

    def test_torn_tail_flagged(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"ev":"a"}\n{"ev":"b"')
        scan = scan_trace(p)
        assert [e["ev"] for e in scan.events] == ["a"]
        assert scan.truncated_tail

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        scan = scan_trace(p)
        assert scan.events == [] and not scan.truncated_tail


def _campaign_events():
    return [
        {
            "ev": "campaign.start",
            "ts": 100.0,
            "app": "MILC",
            "n_nodes": 32,
            "modes": ["AD0", "AD3"],
            "samples": 3,
            "resumed_runs": 1,
            "jobs": 2,
        },
        {"ev": "campaign.workers", "ts": 100.1, "jobs": 2, "heartbeat_dir": "/hb"},
        {
            "ev": "campaign.sample",
            "ts": 101.0,
            "worker": 0,
            "status": "ok",
            "attempts": 1,
            "wall_ms": 900.0,
        },
        {
            "ev": "campaign.sample",
            "ts": 102.0,
            "worker": 1,
            "status": "error",
            "attempts": 2,
            "wall_ms": 1900.0,
        },
        {"ev": "packet.run", "ts": 102.5, "stall_ratio": 0.25},
        {"ev": "guard.violation", "ts": 103.0, "kind": "counter_negative"},
    ]


class TestCampaignProgress:
    def test_folds_counts(self):
        prog = CampaignProgress()
        prog.feed_many(_campaign_events())
        snap = prog.snapshot()
        assert snap["app"] == "MILC"
        assert snap["total_runs"] == 6  # 3 samples x 2 modes
        assert snap["done_runs"] == 3  # 1 resumed + 2 fresh
        assert snap["failed_runs"] == 1
        assert snap["resumed_runs"] == 1
        assert snap["attempts"] == 3
        assert snap["running"] is True
        assert snap["guard_violations"] == 1
        assert snap["heartbeat_dir"] == "/hb"
        assert snap["workers_seen"] == {"0": 101.0, "1": 102.0}
        assert snap["health_ratios"] == [0.25]

    def test_eta_from_fresh_rate_only(self):
        prog = CampaignProgress()
        prog.feed_many(_campaign_events())
        # 2 fresh done over 3s elapsed, 3 remaining -> 4.5s
        assert prog.eta_seconds(now=103.0) == pytest.approx(4.5)

    def test_eta_none_before_fresh_completions_and_after_end(self):
        prog = CampaignProgress()
        assert prog.eta_seconds(now=1.0) is None
        prog.feed_many(_campaign_events())
        prog.feed({"ev": "campaign.end", "ts": 110.0})
        assert prog.eta_seconds(now=111.0) is None
        assert prog.snapshot()["running"] is False

    def test_campaign_start_resets_per_campaign_fields(self):
        # two 2-run campaigns in one trace (calibrate traces one per
        # probe), every run failing after 2 attempts
        def campaign(t0):
            return [
                {"ev": "campaign.start", "ts": t0, "app": "MILC", "n_nodes": 8,
                 "modes": ["AD0", "AD3"], "samples": 1},
                *({"ev": "campaign.sample", "ts": t0 + 1 + i, "mode": m,
                   "status": "error", "attempts": 2, "solver_converged": False,
                   "runtime_s": 1.0, "wall_ms": 5.0}
                  for i, m in enumerate(("AD0", "AD3"))),
                {"ev": "campaign.end", "ts": t0 + 3},
            ]

        prog = CampaignProgress(keep_values=True)
        prog.feed_many(campaign(10.0))
        prog.feed(campaign(20.0)[0])
        snap = prog.snapshot()
        assert snap["running"] is True and snap["ended_at"] is None
        assert snap["started_at"] == 20.0
        assert (snap["done_runs"], snap["failed_runs"], snap["attempts"]) == (0, 0, 0)
        prog.feed_many(campaign(20.0)[1:])
        snap = prog.snapshot()
        assert snap["done_runs"] == 2
        assert snap["failed_runs"] == 2
        assert snap["nonconverged_runs"] == 2
        assert snap["attempts"] == 4
        assert snap["ended_at"] == 23.0
        assert "ok 0  failed 2" in render_top(snap, now=30.0)
        # the report digest covers the whole stream
        assert prog.by_type["campaign.start"] == 2
        assert {m: len(r) for m, r in prog.sample_runtimes.items()} == {"AD0": 2, "AD3": 2}
        assert len(prog.slowest) == 4

    def test_live_fold_memory_is_bounded(self):
        # a long-lived fold (top, serve-metrics, the service) keeps only
        # counts and the top-N lists; report's fold keeps every value
        events = [
            {"ev": "fluid.solve", "wall_ms": float(i % 7), "converged": i % 3 > 0,
             "residual": float(i % 5), "residual_mean": 1e-3, "iters_to_tol": 4}
            for i in range(500)
        ] + [
            {"ev": "campaign.sample", "mode": "AD0", "runtime_s": 1.0, "status": "ok"}
            for _ in range(500)
        ]
        live, full = CampaignProgress(), CampaignProgress(keep_values=True)
        live.feed_many(events)
        full.feed_many(events)
        assert live.solve_residuals == [] and live.sample_runtimes == {}
        assert len(full.solve_residuals) == 500
        assert len(full.sample_runtimes["AD0"]) == 500
        for fold in (live, full):
            assert fold.n_solves == 500 and fold.n_events == 1000
            assert len(fold.slowest) == len(fold.worst_solves) == 10
        # ties keep arrival order: the first 10 events with the top key
        assert [e["wall_ms"] for e in live.slowest] == [6.0] * 10
        assert live.slowest == [e for e in events if e.get("wall_ms") == 6.0][:10]

    def test_order_insensitive_counts(self):
        evs = _campaign_events()
        a, b = CampaignProgress(), CampaignProgress()
        a.feed_many(evs)
        b.feed_many([evs[0]] + list(reversed(evs[1:])))
        sa, sb = a.snapshot(), b.snapshot()
        for key in ("done_runs", "failed_runs", "attempts", "guard_violations"):
            assert sa[key] == sb[key]


class TestMetricsExporter:
    def fetch(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()

    def test_serves_metrics_health_runs(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("solves_total", "solver invocations").inc(3)
        prog = CampaignProgress()
        prog.feed_many(_campaign_events())
        with MetricsExporter(reg, progress=prog) as exp:
            code, ctype, body = self.fetch(exp.url + "/metrics")
            assert code == 200 and ctype == OPENMETRICS_CONTENT_TYPE
            text = body.decode()
            assert "solves_total 3" in text
            assert text.endswith("# EOF\n")

            code, _, body = self.fetch(exp.url + "/healthz")
            assert code == 200 and body == b"ok\n"

            code, ctype, body = self.fetch(exp.url + "/runs")
            assert code == 200 and ctype.startswith("application/json")
            snap = json.loads(body)
            assert snap["total_runs"] == 6 and snap["app"] == "MILC"

    def test_runs_null_without_progress(self):
        with MetricsExporter(MetricsRegistry(enabled=True)) as exp:
            _, _, body = self.fetch(exp.url + "/runs")
            assert json.loads(body) is None

    def test_unknown_path_404(self):
        with MetricsExporter(MetricsRegistry(enabled=True)) as exp:
            with pytest.raises(urllib.error.HTTPError) as ei:
                self.fetch(exp.url + "/nope")
            assert ei.value.code == 404

    def test_registry_provider_called_per_scrape(self):
        regs = [MetricsRegistry(enabled=True), MetricsRegistry(enabled=True)]
        regs[1].counter("late_total", "added after swap").inc()
        current = {"reg": regs[0]}
        with MetricsExporter(lambda: current["reg"]) as exp:
            _, _, body = self.fetch(exp.url + "/metrics")
            assert b"late_total" not in body
            current["reg"] = regs[1]
            _, _, body = self.fetch(exp.url + "/metrics")
            assert b"late_total 1" in body

    def test_close_idempotent(self):
        exp = MetricsExporter(MetricsRegistry(enabled=True))
        exp.close()
        exp.close()


class TestTopRendering:
    def test_sparkline_scales(self):
        assert sparkline([]) == ""
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3 and line[-1] == "█"

    def test_progress_bar(self):
        assert progress_bar(0, 0) == "[" + "-" * 30 + "]"
        assert progress_bar(5, 10, width=10) == "[#####-----]"

    def test_format_duration(self):
        assert format_duration(None) == "--"
        assert format_duration(45) == "45s"
        assert format_duration(182) == "3m02s"
        assert format_duration(3900) == "1h05m"

    def test_heartbeat_ages(self, tmp_path):
        (tmp_path / "123.hb").write_text("")
        (tmp_path / "notes.txt").write_text("")
        ages = heartbeat_ages(str(tmp_path))
        assert list(ages) == ["123"] and ages["123"] >= 0.0
        assert heartbeat_ages(None) == {}
        assert heartbeat_ages(str(tmp_path / "missing")) == {}

    def test_render_full_frame(self):
        prog = CampaignProgress()
        prog.feed_many(_campaign_events())
        frame = render_top(
            prog.snapshot(), heartbeats={"123": 1.0, "456": 99.0}, now=104.0
        )
        assert "campaign MILC x32" in frame
        assert "3/6 runs (50%)" in frame
        assert "failed 1" in frame
        assert "resumed 1" in frame
        assert "stall/flit health" in frame
        assert "123:live" in frame and "456:STALE" in frame
        assert "GUARD violations 1" in frame

    def test_render_empty_snapshot(self):
        frame = render_top(CampaignProgress().snapshot(), now=0.0)
        assert "waiting" in frame and "0/0 runs" in frame
