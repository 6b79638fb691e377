"""End-to-end live observability: CLI campaign + exporter + top + report.

These tests drive the real CLI surfaces the way an operator would:
a ``-j 2`` campaign with ``--serve`` is scraped mid-run over HTTP,
``repro top --once`` renders its progress from the trace file, and the
observed run's stdout must stay byte-identical to an unobserved one.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry.stream import TraceTail
from tests.test_telemetry import _scrape_openmetrics

REPO_ROOT = Path(__file__).resolve().parents[1]

COMPARE_ARGS = [
    "compare",
    "--system",
    "mini",
    "--nodes",
    "32",
    "--samples",
    "2",
    "--seed",
    "9",
    "-j",
    "2",
]


def _spawn_cli(args, **popen_kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen_kw,
    )


def _wait_for_url(stream, deadline=30.0):
    """Read lines from a pipe until the exporter announces its URL."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        line = stream.readline()
        if not line:
            time.sleep(0.05)
            continue
        m = re.search(r"http://[0-9.:]+", line)
        if m:
            return m.group(0)
    raise AssertionError("exporter URL never appeared")


def _get(url, deadline=10.0):
    t0 = time.monotonic()
    last = None
    while time.monotonic() - t0 < deadline:
        try:
            with urllib.request.urlopen(url, timeout=2) as resp:
                return resp.read().decode()
        except Exception as e:  # server still starting
            last = e
            time.sleep(0.05)
    raise AssertionError(f"could not fetch {url}: {last}")


@pytest.mark.slow
class TestLiveCampaign:
    def test_mid_run_scrape_and_top(self, tmp_path, capsys):
        trace = tmp_path / "live.jsonl"
        proc = _spawn_cli(
            [
                "compare",
                "--system",
                "mini",
                "--nodes",
                "32",
                "--samples",
                "24",
                "--seed",
                "9",
                "-j",
                "2",
                "--trace",
                str(trace),
                "--series",
                "50",
                "--serve",
                "0",
            ]
        )
        try:
            url = _wait_for_url(proc.stderr)

            # mid-run /metrics must parse as OpenMetrics
            text = _get(url + "/metrics")
            families, _ = _scrape_openmetrics(text)
            assert text.endswith("# EOF\n")

            # /runs reports live campaign progress (the exporter comes
            # up before the campaign announces itself; poll briefly)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                snap = json.loads(_get(url + "/runs"))
                if snap["app"]:
                    break
                time.sleep(0.05)
            assert snap["app"] == "MILC"
            assert snap["total_runs"] == 48
            assert snap["jobs"] == 2

            assert _get(url + "/healthz") == "ok\n"
        finally:
            out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err

        # the campaign saw real work while we scraped
        assert "campaign_sample" in " ".join(families) or snap["done_runs"] >= 0

        # top --once renders the (now finished) campaign from its trace
        rc = main(["top", str(trace), "--once"])
        assert rc == 0
        frame = capsys.readouterr().out
        assert "campaign MILC x32" in frame
        assert "48/48 runs (100%)" in frame
        assert "jobs=2" in frame
        assert "workers(2)" in frame

    def test_observed_stdout_byte_identical(self, tmp_path, capsys):
        assert main(list(COMPARE_ARGS)) == 0
        plain = capsys.readouterr().out
        rc = main(
            COMPARE_ARGS
            + [
                "--trace",
                str(tmp_path / "obs.jsonl"),
                "--series",
                "50",
                "--serve",
                "0",
            ]
        )
        assert rc == 0
        observed = capsys.readouterr().out
        assert observed == plain  # observation must never perturb results


class TestReportRobustness:
    def test_empty_trace_friendly_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert main(["report", str(p)]) == 0
        out = capsys.readouterr().out
        assert "0 events" in out
        assert "no events recorded yet" in out

    def test_truncated_tail_warns_but_summarizes(self, tmp_path, capsys):
        p = tmp_path / "torn.jsonl"
        p.write_text('{"ev":"campaign.start","ts":1.0}\n{"ev":"camp')
        assert main(["report", str(p)]) == 0
        captured = capsys.readouterr()
        assert "ends mid-line" in captured.err
        assert "campaign.start" in captured.out

    def test_malformed_lines_warn_to_stderr(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"ev":"a","ts":1.0}\ngarbage\n{"ev":"b","ts":2.0}\n')
        assert main(["report", str(p)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 malformed line(s)" in captured.err

    def test_missing_file_still_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", str(tmp_path / "nope.jsonl")])

    def test_follow_exits_on_campaign_end(self, tmp_path, capsys):
        p = tmp_path / "done.jsonl"
        events = [
            {"ev": "campaign.start", "ts": 1.0, "app": "MILC", "samples": 1},
            {"ev": "campaign.sample", "ts": 2.0, "status": "ok"},
            {"ev": "campaign.end", "ts": 3.0},
        ]
        p.write_text("".join(json.dumps(e) + "\n" for e in events))
        t0 = time.monotonic()
        rc = main(
            ["report", str(p), "--follow", "--interval", "0.05", "--max-seconds", "30"]
        )
        assert rc == 0
        assert time.monotonic() - t0 < 10  # exited on end, not the deadline
        assert "campaign.end" in capsys.readouterr().out

    def test_follow_last_frame_equals_report(self, tmp_path, capsys):
        # --follow folds each polled event into one running fold; on a
        # finished serial trace its last frame is plain report's summary
        p = tmp_path / "serial.jsonl"
        argv = [*COMPARE_ARGS[:-1], "1", "--trace", str(p)]  # -j 1: serial
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["report", str(p)]) == 0
        plain = capsys.readouterr().out
        rc = main(
            ["report", str(p), "--follow", "--interval", "0.05", "--max-seconds", "30"]
        )
        assert rc == 0
        frames = capsys.readouterr().out.split("-" * 64 + "\n")
        assert frames[-1] == ""
        last = frames[-2]
        assert last.startswith(f"trace: {p} (following)  (")
        assert last.replace(f"{p} (following)", str(p), 1) == plain

    def test_follow_respects_deadline(self, tmp_path):
        p = tmp_path / "quiet.jsonl"
        p.write_text("")
        t0 = time.monotonic()
        rc = main(
            ["report", str(p), "--follow", "--interval", "0.05", "--max-seconds", "0.3"]
        )
        assert rc == 0
        assert time.monotonic() - t0 < 10


class TestTopCommand:
    def test_once_renders_synthetic_trace(self, tmp_path, capsys):
        p = tmp_path / "t.jsonl"
        events = [
            {
                "ev": "campaign.start",
                "ts": 1.0,
                "app": "HACC",
                "n_nodes": 64,
                "modes": ["AD0"],
                "samples": 4,
                "jobs": 1,
            },
            {"ev": "campaign.sample", "ts": 2.0, "status": "ok", "wall_ms": 100.0},
        ]
        p.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["top", str(p), "--once"]) == 0
        frame = capsys.readouterr().out
        assert "campaign HACC x64" in frame
        assert "1/4 runs (25%)" in frame

    def test_once_tolerates_missing_trace(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 0
        assert "waiting" in capsys.readouterr().out

    def test_passive_commands_do_not_truncate_trace(self, tmp_path, capsys):
        # `top --trace X` must treat X as input; a regression that opens
        # it for writing would wipe a live campaign's journal
        p = tmp_path / "t.jsonl"
        p.write_text('{"ev":"campaign.start","ts":1.0,"app":"M","samples":1}\n')
        before = p.read_bytes()
        assert main(["top", str(p), "--once", "--trace", str(p)]) == 0
        capsys.readouterr()
        assert p.read_bytes() == before


@pytest.mark.slow
def _campaign(app: str, ts: float) -> str:
    events = [
        {"ev": "campaign.start", "ts": ts, "app": app, "n_nodes": 64,
         "modes": ["AD0"], "samples": 1},
        {"ev": "campaign.sample", "ts": ts + 1, "status": "ok"},
        {"ev": "campaign.end", "ts": ts + 2},
    ]
    return "".join(json.dumps(e) + "\n" for e in events)


class TestFollowAcrossCampaigns:
    """A trace may hold campaigns in a row (``calibrate`` traces one per
    probe).  A follower that has seen one campaign end keeps polling
    until a whole interval brings nothing new, so a second campaign that
    starts within the interval is followed to its own end."""

    def _follow(self, tmp_path, monkeypatch, argv):
        p = tmp_path / "t.jsonl"
        p.write_text(_campaign("MILC", 1.0))
        seen_end = threading.Event()
        real = TraceTail.poll

        def poll(tail):
            fresh = real(tail)
            if any(e.get("ev") == "campaign.end" for e in fresh):
                seen_end.set()
            return fresh

        def write_second():
            # appended as soon as the follower has polled the first end,
            # well within its one-second interval
            if seen_end.wait(30):
                with open(p, "a") as f:
                    f.write(_campaign("HACC", 10.0))

        monkeypatch.setattr(TraceTail, "poll", poll)
        writer = threading.Thread(target=write_second)
        writer.start()
        t0 = time.monotonic()
        try:
            rc = main([argv[0], str(p), *argv[1:], "--interval", "1.0", "--max-seconds", "30"])
        finally:
            seen_end.set()
            writer.join()
        assert rc == 0
        assert time.monotonic() - t0 < 20  # a quiet poll ended it, not the deadline

    def test_report_follow_prints_the_second_campaigns_end(
        self, tmp_path, monkeypatch, capsys
    ):
        self._follow(tmp_path, monkeypatch, ["report", "--follow"])
        frames = capsys.readouterr().out.split("-" * 64 + "\n")
        assert re.search(r"^  campaign\.end +2$", frames[-2], re.M), frames[-2]

    def test_top_shows_the_second_campaign_finished(self, tmp_path, monkeypatch, capsys):
        self._follow(tmp_path, monkeypatch, ["top"])
        last = capsys.readouterr().out.split("\x1b[2J\x1b[H")[-1]
        assert last.startswith("campaign HACC x64"), last
        assert "[finished]" in last.splitlines()[0]


class TestServeMetricsSidecar:
    def test_type_counters_come_from_the_fold(self):
        from repro.cli import _fold_event_metrics, _fold_progress_metrics
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.stream import CampaignProgress

        reg, prog = MetricsRegistry(enabled=True), CampaignProgress()
        events = [
            {"ev": "campaign.sample", "wall_ms": 50.0},
            {"ev": "campaign.sample", "wall_ms": 60.0},
            {"ev": "fluid-solve"},
            {"seq": 3},  # no type
        ]
        for ev in events:
            prog.feed(ev)
            _fold_event_metrics(reg, ev)
        # every poll sets the counters from the fold; none counts twice
        _fold_progress_metrics(reg, prog)
        _fold_progress_metrics(reg, prog)
        text = reg.to_prometheus()
        _scrape_openmetrics(text)
        assert "trace_campaign_sample_total 2" in text
        assert "trace_fluid_solve_total 1" in text
        assert "trace_unknown_total 1" in text
        assert "trace_campaign_sample_seconds_count 2" in text
        assert "trace_fluid_solve_seconds" not in text

    def test_sidecar_follows_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        events = [
            {
                "ev": "campaign.start",
                "ts": 1.0,
                "app": "MILC",
                "n_nodes": 32,
                "modes": ["AD0"],
                "samples": 2,
                "jobs": 1,
            },
            {"ev": "campaign.sample", "ts": 2.0, "status": "ok", "wall_ms": 50.0},
            {"ev": "campaign.sample", "ts": 3.0, "status": "ok", "wall_ms": 60.0},
            {"ev": "campaign.end", "ts": 4.0},
        ]
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        proc = _spawn_cli(
            [
                "serve-metrics",
                "--trace",
                str(trace),
                "--port",
                "0",
                "--interval",
                "0.1",
                "--max-seconds",
                "15",
            ]
        )
        try:
            url = _wait_for_url(proc.stdout)
            text = _get(url + "/metrics")
            _scrape_openmetrics(text)  # must stay spec-conformant
            # give the poll loop a beat to fold the trace, then check
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                snap = json.loads(_get(url + "/runs"))
                if snap["done_runs"] == 2:
                    break
                time.sleep(0.1)
            assert snap["done_runs"] == 2
            assert snap["running"] is False
            text = _get(url + "/metrics")
            assert "trace_campaign_sample_total 2" in text
            assert "campaign_runs_done 2" in text
        finally:
            proc.terminate()
            proc.communicate(timeout=30)
