"""Runtime telemetry: structured tracing, metrics, and solver diagnostics.

The observability layer the paper's methodology is built on (AutoPerf on
the job side, LDMS on the system side) has an in-process analogue here
for *our own* engines:

* :class:`MetricsRegistry` — counters / gauges / histograms with JSON and
  Prometheus text exposition, plus a ``timeit`` span context manager;
* :class:`TraceWriter` and friends — a structured JSONL event journal of
  per-phase solver events (convergence residuals, link saturation,
  per-sample timing, packet-sim step stats);
* :class:`Telemetry` — the bundle the engines accept (explicitly, or via
  the ambient :func:`current_telemetry` installed by the CLI);
* :class:`CampaignProgress` — the one fold of the event stream: live
  progress for ``top``, ``/runs`` and the service, and the whole-trace
  digest that :func:`summarize_trace` / :func:`format_summary` render
  for ``repro-study report``.

The default is :data:`NULL_TELEMETRY`: a disabled sink whose cost is one
boolean check per instrumented span, so un-instrumented runs behave
exactly as before.  See ``docs/OBSERVABILITY.md`` for the event schema.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".context": "NULL_TELEMETRY Telemetry current_telemetry resolve_telemetry "
    "set_current_telemetry use_telemetry",
    ".metrics": "DEFAULT_BUCKETS Counter Gauge Histogram MetricsRegistry",
    ".exporter": "OPENMETRICS_CONTENT_TYPE MetricsExporter",
    ".series": "CadenceRecorder CounterSeries QuantileSketch SeriesConfig SeriesWindow",
    ".report": "format_summary order_events summarize_trace",
    ".stream": "BusTraceWriter CampaignProgress EventBus TraceTail",
    ".trace": "NULL_TRACE JsonlTraceWriter LoggingTraceWriter MemoryTraceWriter "
    "MultiTraceWriter NullTraceWriter RingTraceWriter TraceScan TraceWriter read_trace "
    "scan_trace",
})
