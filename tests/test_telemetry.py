"""Tests for the telemetry subsystem: metrics, tracing, diagnostics, report."""

import json
import math

import numpy as np
import pytest

from repro.apps import app_by_name
from repro.cli import main
from repro.core.biases import AD0
from repro.core.experiment import CampaignConfig, run_campaign
from repro.network.fluid import (
    FlowSet,
    FluidParams,
    NonConvergenceWarning,
    solve_fluid,
)
from repro.telemetry import (
    NULL_TELEMETRY,
    JsonlTraceWriter,
    MemoryTraceWriter,
    MetricsRegistry,
    MultiTraceWriter,
    NullTraceWriter,
    Telemetry,
    current_telemetry,
    format_summary,
    read_trace,
    summarize_trace,
    use_telemetry,
)


def _scrape_openmetrics(text: str):
    """Strict mini scrape parser for the OpenMetrics text exposition.

    Returns (families, samples): families maps family name -> type, and
    samples maps a sample name (or ``(name, labels)`` tuple when labeled)
    to its value.  Raises ValueError on any spec violation this study's
    exposition could plausibly commit: missing # EOF, text after # EOF,
    samples outside a declared family, or counter samples without the
    _total suffix.
    """
    lines = text.split("\n")
    if lines[-1] != "" or lines[-2] != "# EOF":
        raise ValueError("exposition must end with a single '# EOF' line")
    families: dict[str, str] = {}
    samples: dict = {}
    for line in lines[:-2]:
        if line == "# EOF":
            raise ValueError("'# EOF' before the end of the exposition")
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            _, kind, rest = line.split(" ", 2)
            name, payload = rest.split(" ", 1)
            if kind == "TYPE":
                families[name] = payload
            continue
        if not line:
            raise ValueError("blank line inside the exposition")
        name_and_labels, value = line.rsplit(" ", 1)
        if "{" in name_and_labels:
            name, raw = name_and_labels[:-1].split("{", 1)
            labels = []
            for pair in raw.split(","):
                k, v = pair.split("=", 1)
                if not (v.startswith('"') and v.endswith('"')):
                    raise ValueError(f"unquoted label value in {line!r}")
                labels.append((k, v[1:-1]))
            key = (name, tuple(labels))
        else:
            name, key = name_and_labels, name_and_labels
        base = name
        for suffix in ("_total", "_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        family = base if base in families else name if name in families else None
        if family is None:
            raise ValueError(f"sample {name!r} outside any declared family")
        if families[family] == "counter" and not name.endswith("_total"):
            raise ValueError(f"counter sample {name!r} lacks the _total suffix")
        samples[key] = float(value)
    return families, samples


def _incast_flows(top, rng, n=48):
    """Everyone sends to one hot node — reliably congested."""
    dst = 0
    srcs = rng.choice(np.arange(1, top.n_nodes), n, replace=False)
    return FlowSet(
        srcs, np.full(n, dst), np.full(n, 4e6), np.zeros(n, dtype=np.int64)
    )


class TestMetricsRegistry:
    def test_counter_arithmetic(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc()
        c.inc(4)
        assert reg.counter("x_total").value == 5.0
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.dec(2.5)
        assert g.value == 4.5

    def test_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(1, 101):  # 0.01 .. 1.00
            h.observe(v / 100.0)
        assert h.count == 100
        assert h.mean == pytest.approx(0.505)
        assert h.percentile(50) == pytest.approx(0.505, abs=1e-9)
        assert h.percentile(95) == pytest.approx(0.9505, abs=1e-3)
        assert h.percentile(0) == pytest.approx(0.01)
        assert h.percentile(100) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_histogram_empty_percentile_nan(self):
        h = MetricsRegistry().histogram("empty")
        assert math.isnan(h.percentile(50))

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("b", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        assert h.cumulative_buckets() == [(1.0, 1), (2.0, 2), (math.inf, 3)]

    def test_timeit_records(self):
        reg = MetricsRegistry()
        with reg.timeit("span_seconds") as span:
            pass
        assert span.elapsed >= 0.0
        assert reg.histogram("span_seconds").count == 1

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("solves_total", help="number of solves").inc(3)
        reg.gauge("queue.depth").set(2)  # dot must be sanitized
        reg.histogram("t", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        # OpenMetrics: counter family without the suffix, sample with it
        assert "# TYPE solves counter" in text
        assert "# HELP solves number of solves" in text
        assert "solves_total 3" in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 2" in text
        assert 't_bucket{le="1"} 1' in text
        assert 't_bucket{le="+Inf"} 1' in text
        assert "t_count 1" in text
        assert text.endswith("# EOF\n")

    def test_json_exposition(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        loaded = json.loads(reg.to_json())
        assert loaded["c"] == {"type": "counter", "value": 1.0}

    def test_openmetrics_scrape_roundtrip(self):
        """The exposition must survive a strict OpenMetrics scrape parse."""
        reg = MetricsRegistry()
        reg.counter("runs_total", help='with "quotes" and \\slashes\\').inc(7)
        reg.counter("bare").inc(2)  # family without suffix gains _total
        reg.gauge("depth", help="queue depth").set(3.5)
        reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        families, samples = _scrape_openmetrics(reg.to_prometheus())
        assert families["runs"] == "counter"
        assert families["bare"] == "counter"
        assert families["depth"] == "gauge"
        assert families["lat_seconds"] == "histogram"
        assert samples["runs_total"] == 7.0
        assert samples["bare_total"] == 2.0
        assert samples["depth"] == 3.5
        assert samples[('lat_seconds_bucket', (('le', '1'),))] == 1.0
        assert samples[('lat_seconds_bucket', (('le', '+Inf'),))] == 1.0
        assert samples["lat_seconds_sum"] == 0.5
        assert samples["lat_seconds_count"] == 1.0

    def test_openmetrics_empty_registry(self):
        assert MetricsRegistry().to_prometheus() == "# EOF\n"


class TestTraceWriters:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceWriter(path) as w:
            w.emit("a.b", x=1, arr=np.arange(3), f=np.float64(2.5), s="hi")
            w.emit("a.c", y=None)
        events = read_trace(path)
        assert [e["ev"] for e in events] == ["a.b", "a.c"]
        assert events[0]["x"] == 1
        assert events[0]["arr"] == [0, 1, 2]
        assert events[0]["f"] == 2.5
        assert events[0]["seq"] == 0 and events[1]["seq"] == 1
        assert events[1]["y"] is None

    def test_read_trace_skips_garbage(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev":"ok"}\nnot json\n\n{"ev":"ok2"}\n')
        assert [e["ev"] for e in read_trace(path)] == ["ok", "ok2"]
        with pytest.raises(ValueError, match="bad JSON"):
            read_trace(path, strict=True)

    def test_null_sink_is_noop(self):
        w = NullTraceWriter()
        assert not w.enabled
        w.emit("anything", x=1)  # must not raise or record
        assert not NULL_TELEMETRY.enabled
        assert not current_telemetry().enabled  # ambient default is null

    def test_multi_writer_fans_out(self):
        a, b = MemoryTraceWriter(), MemoryTraceWriter()
        m = MultiTraceWriter([a, b, NullTraceWriter()])
        m.emit("x")
        assert len(a.events) == 1 and len(b.events) == 1

    def test_use_telemetry_scoping(self):
        mem = MemoryTraceWriter()
        tel = Telemetry(trace=mem)
        with use_telemetry(tel):
            assert current_telemetry() is tel
        assert current_telemetry() is NULL_TELEMETRY


class TestFluidDiagnostics:
    def test_result_carries_convergence_fields(self, mini_top, rng):
        fl = _incast_flows(mini_top, rng, n=8)
        res = solve_fluid(mini_top, fl, [AD0], rng=rng)
        assert res.iterations == FluidParams().n_iter
        assert res.residual >= res.residual_mean >= 0.0
        assert res.converged == (res.residual_mean <= FluidParams().convergence_tol)

    def test_empty_solve_converges_trivially(self, mini_top, rng):
        res = solve_fluid(mini_top, FlowSet.empty(), [AD0], rng=rng)
        assert res.converged and res.iterations == 0 and res.residual == 0.0

    def test_cap_hit_warns_and_flags(self, mini_top, rng):
        fl = _incast_flows(mini_top, rng)
        params = FluidParams(n_iter=1)  # cannot settle in one iteration
        with pytest.warns(NonConvergenceWarning, match="iteration cap"):
            res = solve_fluid(mini_top, fl, [AD0], rng=rng, params=params)
        assert not res.converged
        assert res.residual_mean > params.convergence_tol
        assert res.iterations == 1

    def test_rate_mode_cap_hit_does_not_warn(self, mini_top, rng):
        import warnings as W

        fl = _incast_flows(mini_top, rng)
        params = FluidParams(n_iter=1)
        with W.catch_warnings():
            W.simplefilter("error", NonConvergenceWarning)
            res = solve_fluid(
                mini_top, fl, [AD0], rng=rng, params=params, fixed_duration=1.0
            )
        assert not res.converged  # still flagged, just silent

    def test_solve_emits_event_and_metrics(self, mini_top, rng):
        mem = MemoryTraceWriter()
        tel = Telemetry(trace=mem)
        fl = _incast_flows(mini_top, rng, n=8)
        solve_fluid(mini_top, fl, [AD0], rng=rng, telemetry=tel)
        (ev,) = mem.of_type("fluid.solve")
        for key in ("flows", "iterations", "residual", "converged", "wall_ms"):
            assert key in ev
        assert ev["flows"] == 8
        assert tel.metrics.counter("fluid_solves_total").value == 1

    def test_telemetry_does_not_change_results(self, mini_top):
        fl = _incast_flows(mini_top, np.random.default_rng(3), n=16)
        r0 = solve_fluid(
            mini_top, fl, [AD0], rng=np.random.default_rng(7)
        )
        mem = MemoryTraceWriter()
        r1 = solve_fluid(
            mini_top,
            fl,
            [AD0],
            rng=np.random.default_rng(7),
            telemetry=Telemetry(trace=mem),
        )
        np.testing.assert_array_equal(r0.flow_time, r1.flow_time)
        np.testing.assert_array_equal(r0.min_fraction, r1.min_fraction)
        np.testing.assert_array_equal(r0.link_stalls, r1.link_stalls)
        assert mem.events  # telemetry actually ran


class TestCampaignTelemetry:
    @pytest.fixture(scope="class")
    def traced_campaign(self, theta_top):
        mem = MemoryTraceWriter()
        tel = Telemetry(trace=mem)
        cfg = CampaignConfig(
            app=app_by_name("latencybound")(),
            n_nodes=64,
            samples=2,
            background="isolated",
            seed=5,
        )
        records = run_campaign(theta_top, cfg, telemetry=tel)
        return records, mem, tel

    def test_sample_events_per_record(self, traced_campaign):
        records, mem, _ = traced_campaign
        samples = mem.of_type("campaign.sample")
        assert len(samples) == len(records) == 4  # 2 modes x 2 samples
        assert {e["mode"] for e in samples} == {"AD0", "AD3"}

    def test_convergence_events_every_sample(self, traced_campaign):
        records, mem, _ = traced_campaign
        solves = mem.of_type("fluid.solve")
        # at least one solve event per run, each carrying the diagnostics
        assert len(solves) >= len(records)
        for e in solves:
            assert isinstance(e["converged"], bool)
            assert e["residual"] >= 0.0

    def test_diagnostics_reach_run_record(self, traced_campaign):
        records, _, _ = traced_campaign
        for r in records:
            assert r.solver_iterations == FluidParams().n_iter
            assert r.solver_max_residual >= r.solver_max_residual_mean >= 0.0
            assert r.solver_converged == (r.solver_nonconverged_phases == 0)

    def test_campaign_metrics(self, traced_campaign):
        records, _, tel = traced_campaign
        assert tel.metrics.counter("campaign_samples_total").value == len(records)
        assert tel.metrics.histogram("campaign_sample_seconds").count == len(records)


class TestReport:
    def test_summarize_memory_events(self):
        events = [
            {"ev": "fluid.solve", "converged": True, "residual_mean": 1e-3,
             "residual": 2e-2, "iters_to_tol": 3, "wall_ms": 5.0, "flows": 10},
            {"ev": "fluid.solve", "converged": False, "residual_mean": 0.2,
             "residual": 0.4, "iters_to_tol": None, "wall_ms": 50.0, "flows": 99},
            {"ev": "campaign.sample", "mode": "AD0", "runtime_s": 100.0,
             "wall_ms": 60.0},
        ]
        s = summarize_trace(events)
        assert s.n_events == 3
        assert s.n_solves == 2
        assert s.n_solves - s.n_solves_converged == 1
        assert s.slowest[0]["wall_ms"] == 60.0
        text = format_summary(s)
        assert "NON-CONVERGED" in text
        assert "iterations to tolerance" in text
        assert "AD0" in text

    def test_report_command_on_recorded_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = main(
            [
                "compare",
                "--app",
                "latencybound",
                "--nodes",
                "64",
                "--samples",
                "2",
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        events = read_trace(trace)  # parseable JSONL
        solves = [e for e in events if e["ev"] == "fluid.solve"]
        samples = [e for e in events if e["ev"] == "campaign.sample"]
        assert samples and solves
        # every sample preceded by at least one convergence event
        assert all("converged" in e and "residual" in e for e in solves)

        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "fluid solver" in out
        assert "campaign samples" in out
        assert "slowest instrumented spans" in out

    def test_report_missing_file(self):
        with pytest.raises(SystemExit, match="no such trace"):
            main(["report", "/nonexistent/t.jsonl"])


class TestCliMetricsFlag:
    def test_metrics_prometheus_file(self, tmp_path, capsys):
        mpath = tmp_path / "m.prom"
        rc = main(
            [
                "compare",
                "--app",
                "latencybound",
                "--nodes",
                "64",
                "--samples",
                "1",
                "--metrics",
                str(mpath),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        text = mpath.read_text()
        assert "# TYPE fluid_solves counter" in text
        assert "campaign_samples_total 2" in text  # 2 modes x 1 sample
        assert text.endswith("# EOF\n")

    def test_metrics_json_file(self, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        rc = main(
            [
                "describe",
                "--metrics",
                str(mpath),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert json.loads(mpath.read_text()) == {}  # describe runs no solver
