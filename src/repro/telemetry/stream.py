"""Live event streaming: in-process pub/sub, tail-following, and the fold.

Three pieces make the observability surfaces (``repro-study top``, the
``/metrics`` exporter, ``report`` and ``report --follow``) work on a
*running* campaign as well as a finished trace file:

* :class:`EventBus` + :class:`BusTraceWriter` — an in-process pub/sub
  fanout.  The CLI splices a ``BusTraceWriter`` into the telemetry
  bundle (via :class:`~repro.telemetry.trace.MultiTraceWriter`), so
  every event the engines emit also reaches live subscribers — the
  exporter's progress tracker, primarily — with zero changes to the
  engines themselves.
* :class:`TraceTail` — an incremental JSONL reader for following a
  trace file another process is appending to.  It buffers torn trailing
  lines (a live writer tears at most one), survives truncation/rotation
  by reopening, and returns only complete, parsed events.
* :class:`CampaignProgress` — the one interpreter of the trace
  vocabulary.  It folds events (bus-, tail- or file-delivered) into a
  progress snapshot of the latest campaign (done/failed/total runs, an
  ETA from the observed completion rate, per-worker last-seen liveness,
  queue state, guard violations, the stall-to-flit ratios the ``top``
  sparkline renders) and into the whole-stream digest ``report``
  renders (event counts, solver convergence, slowest spans, sample
  runtimes, queue retries and steals by run).

Ordering: worker-tagged events arrive in commit order (the parallel
executor forwards them with ``run_index`` tags, see ``order_events``);
``CampaignProgress`` is insensitive to arrival order for counts and
uses max-merge for timestamps, so live and post-hoc folds agree on
them.  Ranked lists (slowest spans, worst solves) break ties by arrival,
which is why ``summarize_trace`` orders the events before folding.
"""

from __future__ import annotations

import bisect
import io
import json
import threading
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from repro.telemetry.trace import TraceWriter

Subscriber = Callable[[dict], None]


class EventBus:
    """Thread-safe in-process pub/sub for telemetry events.

    Subscribers are called synchronously on the publishing thread; a
    subscriber that raises is dropped (a broken observer must never
    break the run it observes).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subs: list[Subscriber] = []
        self.published = 0

    def subscribe(self, fn: Subscriber) -> Callable[[], None]:
        """Register ``fn``; returns an unsubscribe callable."""
        with self._lock:
            self._subs.append(fn)

        def _unsubscribe() -> None:
            with self._lock:
                if fn in self._subs:
                    self._subs.remove(fn)

        return _unsubscribe

    def publish(self, event: dict) -> None:
        with self._lock:
            subs = list(self._subs)
            self.published += 1
        dead = []
        for fn in subs:
            try:
                fn(event)
            except Exception:
                dead.append(fn)
        if dead:
            with self._lock:
                for fn in dead:
                    if fn in self._subs:
                        self._subs.remove(fn)


class BusTraceWriter(TraceWriter):
    """A trace sink that publishes every event onto an :class:`EventBus`."""

    def __init__(self, bus: EventBus) -> None:
        super().__init__()
        self.bus = bus

    def write_event(self, record: dict) -> None:
        self.bus.publish(record)


class TraceTail:
    """Incremental follow-reader for a JSONL trace being written live.

    Each :meth:`poll` returns the complete events appended since the
    previous poll.  A torn trailing line (the writer mid-append) is
    buffered until its remainder arrives; truncation or replacement of
    the file (size shrank, fresh ``open("w")``) resets the reader to the
    new beginning; a missing file simply yields no events yet.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._pos = 0
        self._buf = b""
        #: lines that never became valid JSON (damage, not liveness)
        self.n_bad = 0

    def poll(self) -> list[dict]:
        try:
            with self.path.open("rb") as fh:
                fh.seek(0, io.SEEK_END)
                size = fh.tell()
                if size < self._pos:
                    # truncated or rotated: start over from the top
                    self._pos = 0
                    self._buf = b""
                if size == self._pos:
                    return []
                fh.seek(self._pos)
                chunk = fh.read(size - self._pos)
                self._pos = size
        except FileNotFoundError:
            return []
        data = self._buf + chunk
        events: list[dict] = []
        lines = data.split(b"\n")
        self._buf = lines.pop()  # b"" when data ended on a newline
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError:
                self.n_bad += 1
                continue
            if isinstance(ev, dict):
                events.append(ev)
            else:
                self.n_bad += 1
        return events


def _num(value) -> float | None:
    """``float(value)``, or None for a value a damaged trace made unreadable."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _run_of(event: dict) -> int:
    try:
        return int(event.get("run_index", -1))
    except (TypeError, ValueError, OverflowError):
        return -1


def _keep_top(
    kept: list[tuple[float, int, dict]], key: float, seq: int, event: dict, n: int
) -> None:
    """Keep ``event`` in ``kept`` while its ``key`` is among the ``n`` largest,
    ties in arrival (``seq``) order: the head of a stable sort of every event
    seen.  Entries are ``(-key, seq, event)``; ``seq`` is unique, so events
    are never compared."""
    if len(kept) >= n and (n == 0 or -key >= kept[-1][0]):
        return
    bisect.insort(kept, (-key, seq, event))
    del kept[n:]


class CampaignProgress:
    """Folds telemetry events into campaign progress and a trace digest.

    The one interpreter of the trace vocabulary.  Feed it events from an
    :class:`EventBus` subscription, a :class:`TraceTail` poll loop, or a
    whole recorded trace (``summarize_trace``); read :meth:`snapshot`
    (``top``, ``/runs``, the service) or the digest fields
    (``format_summary``, ``report``) at any time.  The progress fields
    describe the latest campaign and reset at each ``campaign.start``;
    the digest fields (event counts, solver convergence, slowest spans,
    sample runtimes, queue retries and steals) cover the whole stream.
    Thread-safe: the exporter reads while the campaign thread feeds.
    """

    #: stall-ratio history length kept for the health sparkline
    HEALTH_WINDOW = 60

    def __init__(self, *, top: int = 10, keep_values: bool = False) -> None:
        self._lock = threading.Lock()
        #: how many slowest spans and worst solves the digest keeps
        self.top = max(int(top), 0)
        #: keep every solve residual and sample runtime (``report``'s
        #: percentiles and means); off, the fold's memory stays bounded
        #: however long the stream it follows
        self.keep_values = keep_values
        self.app = ""
        self.n_nodes = 0
        self.modes: list[str] = []
        self.samples = 0
        self.jobs = 1
        self.heartbeat_dir: str | None = None
        self.started_at: float | None = None
        self.ended_at: float | None = None
        self.resumed = 0
        self.done = 0
        self.failed = 0
        self.nonconverged = 0
        self.attempts = 0
        self.violations: list[dict] = []
        self.worker_lost: list[dict] = []
        self.worker_hung: list[dict] = []
        self.last_event_ts: float | None = None
        #: worker id -> wall timestamp of its most recent event
        self.worker_seen: dict[int, float] = {}
        #: shared queue directory (``--queue`` campaigns), else None
        self.queue: str | None = None
        #: owner ("host:pid") -> {"worker": id, "ts": last seen,
        #: "state": "live" | "lost lease" | "stolen", "done": merged runs}
        self.dist_workers: dict[str, dict] = {}
        #: run index -> expired-lease reclaims / speculative steals
        self.retries_by_run: dict[int, int] = {}
        self.steals_by_run: dict[int, int] = {}
        self.dist_exhausted = 0
        self.dist_outages = 0
        self.dist_fallback = False
        self.queue_depth: int | None = None
        self.queue_leases = 0
        #: recent per-run stall-to-flit ratios (health sparkline feed)
        self.health: list[float] = []
        #: event type -> count, in first-seen order
        self.by_type: Counter = Counter()
        self.n_events = 0
        self.n_solves = 0
        self.n_solves_converged = 0
        #: mean |dx| of every fluid solve (the convergence criterion);
        #: kept only with ``keep_values``
        self.solve_residuals: list[float] = []
        #: iteration at which |dx| first dropped below tol -> solves;
        #: -1 = never
        self.solve_iters_to_tol: Counter = Counter()
        #: campaign mode -> model runtime of each sample; kept only with
        #: ``keep_values``
        self.sample_runtimes: dict[str, list[float]] = {}
        self._worst: list[tuple[float, int, dict]] = []
        self._slowest: list[tuple[float, int, dict]] = []

    # ------------------------------------------------------------------
    def feed(self, event: dict) -> None:
        """Fold one telemetry event into the progress state and the digest."""
        ev = event.get("ev")
        ts = event.get("ts")
        with self._lock:
            self.by_type[str(event.get("ev", "?"))] += 1
            self.n_events += 1
            if "wall_ms" in event:
                wall = _num(event["wall_ms"])
                if wall is not None:
                    _keep_top(self._slowest, wall, self.n_events, event, self.top)
            if isinstance(ts, (int, float)):
                self.last_event_ts = max(self.last_event_ts or 0.0, float(ts))
                wid = event.get("worker")
                if isinstance(wid, int):
                    self.worker_seen[wid] = max(
                        self.worker_seen.get(wid, 0.0), float(ts)
                    )
            if ev == "campaign.start":
                self.app = str(event.get("app", ""))
                self.n_nodes = int(event.get("n_nodes", 0) or 0)
                self.modes = [str(m) for m in event.get("modes", [])]
                self.samples = int(event.get("samples", 0) or 0)
                self.resumed = int(event.get("resumed_runs", 0) or 0)
                self.jobs = int(event.get("jobs", 1) or 1)
                self.done = self.resumed
                self.failed = self.nonconverged = self.attempts = 0
                self.ended_at = None
                q = event.get("queue")
                self.queue = str(q) if q else None
                if isinstance(ts, (int, float)):
                    self.started_at = float(ts)
            elif ev == "campaign.workers":
                self.jobs = int(event.get("jobs", self.jobs) or self.jobs)
                hb = event.get("heartbeat_dir")
                self.heartbeat_dir = str(hb) if hb else None
            elif ev == "campaign.sample":
                self.done += 1
                self.attempts += int(event.get("attempts", 1) or 1)
                if event.get("status") != "ok":
                    self.failed += 1
                if event.get("solver_converged") is False:
                    self.nonconverged += 1
                runtime = _num(event.get("runtime_s", 0.0)) if self.keep_values else None
                if runtime is not None:
                    mode = str(event.get("mode", "?"))
                    self.sample_runtimes.setdefault(mode, []).append(runtime)
                wid = event.get("worker")
                if isinstance(wid, int) and self.dist_workers:
                    for d in self.dist_workers.values():
                        if d.get("worker") == wid:
                            d["done"] += 1
                            if isinstance(ts, (int, float)):
                                d["ts"] = max(d["ts"], float(ts))
                            break
            elif ev == "campaign.end":
                if isinstance(ts, (int, float)):
                    self.ended_at = float(ts)
            elif ev == "dist.worker":
                owner = str(event.get("owner", "?"))
                self.dist_workers.setdefault(
                    owner,
                    {
                        "worker": event.get("worker"),
                        "ts": float(ts) if isinstance(ts, (int, float)) else 0.0,
                        "state": "live",
                        "done": 0,
                    },
                )
            elif ev in ("dist.lease_reclaimed", "dist.task_stolen"):
                reclaimed = ev == "dist.lease_reclaimed"
                by_run = self.retries_by_run if reclaimed else self.steals_by_run
                run = _run_of(event)
                by_run[run] = by_run.get(run, 0) + 1
                victim = str(event.get("victim", "") or "")
                if victim in self.dist_workers:
                    self.dist_workers[victim]["state"] = (
                        "lost lease" if reclaimed else "stolen"
                    )
            elif ev == "dist.task_exhausted":
                self.dist_exhausted += 1
            elif ev == "dist.queue_unavailable":
                self.dist_outages += 1
            elif ev == "dist.fallback":
                self.dist_fallback = True
            elif ev == "dist.queue":
                self.queue_depth = int(event.get("depth", 0) or 0)
                self.queue_leases = int(event.get("leases", 0) or 0)
            elif ev == "guard.violation":
                self.violations.append(dict(event))
            elif ev == "guard.worker_hung":
                self.worker_hung.append(dict(event))
            elif ev == "guard.worker_lost":
                self.worker_lost.append(dict(event))
            if ev == "fluid.solve":
                self._fold_solve(event)
            if ev in ("packet.run", "fluid.solve", "facility.interval"):
                ratio = event.get("stall_ratio")
                if ratio is None:
                    ratio = event.get("residual_mean")
                if isinstance(ratio, (int, float)):
                    self.health.append(float(ratio))
                    del self.health[: -self.HEALTH_WINDOW]

    def _fold_solve(self, event: dict) -> None:
        self.n_solves += 1
        if event.get("converged", True):
            self.n_solves_converged += 1
        else:
            residual = _num(event.get("residual", 0.0)) or 0.0
            _keep_top(self._worst, residual, self.n_events, event, self.top)
        if self.keep_values:
            # the mean |dx| is the convergence criterion; older traces
            # only carry the max, so fall back to it
            r = _num(event.get("residual_mean", event.get("residual")))
            if r is not None:
                self.solve_residuals.append(r)
        it = event.get("iters_to_tol")
        self.solve_iters_to_tol[it if isinstance(it, int) else -1] += 1

    def feed_many(self, events) -> None:
        for ev in events:
            self.feed(ev)

    # ------------------------------------------------------------------
    @property
    def dist_retries(self) -> int:
        return sum(self.retries_by_run.values())

    @property
    def dist_steals(self) -> int:
        return sum(self.steals_by_run.values())

    @property
    def dist_active(self) -> bool:
        """Whether the stream came from a ``--queue`` campaign."""
        return bool(
            self.dist_workers
            or self.retries_by_run
            or self.steals_by_run
            or self.dist_exhausted
            or self.dist_outages
            or self.dist_fallback
        )

    @property
    def slowest(self) -> list[dict]:
        """The ``top`` timed events, slowest first."""
        return [e for _, _, e in self._slowest]

    @property
    def worst_solves(self) -> list[dict]:
        """The ``top`` non-converged fluid solves, largest residual first."""
        return [e for _, _, e in self._worst]

    @property
    def total(self) -> int:
        return self.samples * max(len(self.modes), 1)

    @property
    def running(self) -> bool:
        return self.started_at is not None and self.ended_at is None

    def eta_seconds(self, now: float | None = None) -> float | None:
        """Remaining wall time from the observed completion rate.

        ``None`` until at least one fresh run has completed (resumed
        runs carry no timing signal) or once the campaign has ended.
        """
        with self._lock:
            if self.ended_at is not None or self.started_at is None:
                return None
            fresh = self.done - self.resumed
            remaining = self.total - self.done
            if fresh <= 0 or remaining <= 0:
                return None
            now = self.last_event_ts if now is None else now
            if now is None:
                return None
            elapsed = max(now - self.started_at, 1e-9)
            return remaining * elapsed / fresh

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """A JSON-ready view of the campaign's live state (``/runs``)."""
        eta = self.eta_seconds(now)
        with self._lock:
            return {
                "app": self.app,
                "n_nodes": self.n_nodes,
                "modes": list(self.modes),
                "samples": self.samples,
                "jobs": self.jobs,
                "total_runs": self.total,
                "done_runs": self.done,
                "failed_runs": self.failed,
                "nonconverged_runs": self.nonconverged,
                "resumed_runs": self.resumed,
                "attempts": self.attempts,
                "running": self.running,
                "eta_seconds": eta,
                "started_at": self.started_at,
                "ended_at": self.ended_at,
                "last_event_ts": self.last_event_ts,
                "workers_seen": {str(k): v for k, v in self.worker_seen.items()},
                "guard_violations": len(self.violations),
                "workers_hung": len(self.worker_hung),
                "workers_lost": len(self.worker_lost),
                "health_ratios": list(self.health),
                "heartbeat_dir": self.heartbeat_dir,
                "queue": self.queue,
                "queue_depth": self.queue_depth,
                "queue_leases": self.queue_leases,
                "dist_workers": {k: dict(v) for k, v in self.dist_workers.items()},
                "dist_retries": self.dist_retries,
                "dist_steals": self.dist_steals,
                "dist_exhausted": self.dist_exhausted,
                "dist_outages": self.dist_outages,
                "dist_fallback": self.dist_fallback,
            }
