"""HTTP/JSON front-end for the memoizing campaign executor.

Stdlib only.  The service accepts campaign submissions in the dist
manifest wire form (:func:`repro.dist.manifest.campaign_to_manifest` —
the same schema the shared-directory queue round-trips), executes each
through :func:`repro.service.executor.run_campaign_cached` on a worker
thread, and exposes:

* ``POST /campaigns``                 — submit ``{"manifest": ..., "jobs": ...}``;
  returns ``{"id", "deduped", "state"}``.  Concurrent submissions of an
  identical campaign (same fingerprint) coalesce **single-flight** into
  one execution — every caller gets the same id and, through the cache,
  byte-identical results.
* ``GET  /campaigns``                 — all known jobs, newest last.
* ``GET  /campaigns/<id>``            — state + live progress snapshot +
  cache accounting; completed jobs include the full record dicts.
* ``GET  /campaigns/<id>/events``     — NDJSON progress stream (replay
  of everything so far, then live follow until the job ends), fed by
  the job's :class:`~repro.telemetry.stream.EventBus`.
* ``GET  /cache/stats``               — the store's counters
  (``cache_hits_total`` et al.) — the hit-rate contract surface.
* ``GET  /healthz``                   — liveness.

The routes return :class:`~repro.telemetry.exporter.Response` values;
the metrics exporter's threaded :class:`~repro.telemetry.exporter.HTTPServer`
serves them and owns the wire (body limit, timeouts, streaming).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any, Iterator

from repro.chaos.failpoints import failpoint
from repro.core import checkpoint as ckpt
from repro.core.experiment import campaign_fingerprint
from repro.dist.manifest import NotDistributable, manifest_series, manifest_to_campaign
from repro.service.executor import CacheOutcome, run_campaign_cached
from repro.service.journal import JobJournal
from repro.service.store import RunRecordStore
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.exporter import HTTPServer, Response, json_response
from repro.telemetry.stream import BusTraceWriter, CampaignProgress, EventBus


class ServiceDraining(RuntimeError):
    """Submission rejected: the server is shutting down (HTTP 503)."""


def _job_key(fingerprint: dict) -> str:
    """Single-flight identity of a submission: its campaign fingerprint."""
    body = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:24]


class _Job:
    """One submitted campaign: identity, live telemetry, final outcome."""

    def __init__(self, jid: str, key: str, manifest: dict, jobs: int | None) -> None:
        self.id = jid
        self.key = key
        self.manifest = manifest
        self.jobs = jobs
        self.state = "pending"  # pending → running → done | error
        self.error: str | None = None
        self.outcome: CacheOutcome | None = None
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        #: extra submitters coalesced into this execution
        self.coalesced = 0
        self.done_evt = threading.Event()
        self.progress = CampaignProgress()
        self.bus = EventBus()
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self.bus.subscribe(self._on_event)

    def _on_event(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)
        self.progress.feed(event)

    def events_since(self, pos: int) -> list[dict]:
        with self._lock:
            return self._events[pos:]

    def event_count(self) -> int:
        with self._lock:
            return len(self._events)

    def status(self, *, include_records: bool = False) -> dict:
        out: dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "coalesced": self.coalesced,
            "progress": self.progress.snapshot(),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.outcome is not None:
            out["cache"] = {
                "hits": self.outcome.hits,
                "misses": self.outcome.misses,
                "resumed": self.outcome.resumed,
                "total": self.outcome.total,
            }
            if include_records and self.state == "done":
                out["records"] = [
                    ckpt.record_to_dict(r) for r in self.outcome.records
                ]
        return out


class CampaignService:
    """The campaign-as-a-service front door (see module docstring).

    ``start()`` binds, re-adopts journalled campaigns, and serves on a
    background thread (``.url`` is then valid) — the shape tests and
    the CLI use.  Without ``start()`` the job table, :meth:`submit`,
    :meth:`recover` and :meth:`drain` work in-process.
    """

    def __init__(
        self,
        store: RunRecordStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int | None = None,
        queue_dir: str | None = None,
        poll: float = 0.2,
        journal_dir: str | None = None,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.jobs = jobs
        self.queue_dir = queue_dir
        self.poll = poll
        self.started_at = time.time()
        #: durable recovery journal, or None (journalling off)
        self.journal = JobJournal(journal_dir) if journal_dir is not None else None
        #: journal writes that failed (journal loss is survivable, but counted)
        self.journal_errors = 0
        #: job ids re-adopted from the journal by the last recover()
        self.recovered: list[str] = []
        self._draining = False
        self._jobs: dict[str, _Job] = {}
        #: single-flight table: campaign key → the in-flight job
        self._inflight: dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._seq = 0
        self._http: HTTPServer | None = None
        #: set by close(): open event streams end at their next poll
        self._closed = threading.Event()
        self.url: str | None = None

    # ------------------------------------------------------------------
    # submission / single-flight
    # ------------------------------------------------------------------
    def submit(self, manifest: dict, jobs: int | None = None) -> tuple[_Job, bool]:
        """Register a campaign; returns ``(job, deduped)``.

        Identical concurrent submissions — same campaign fingerprint,
        judged on the *rebuilt* campaign so a hand-edited manifest
        cannot spoof its way into another job's results — share one
        execution.  Raises ``NotDistributable``/``ValueError``/
        ``KeyError`` on a malformed manifest (mapped to 400 above).
        """
        if self._draining:
            raise ServiceDraining("service is draining, not accepting campaigns")
        top, cfg = manifest_to_campaign(manifest)
        key = _job_key(campaign_fingerprint(top, cfg))
        with self._lock:
            live = self._inflight.get(key)
            if live is not None and not live.done_evt.is_set():
                live.coalesced += 1
                return live, True
            self._seq += 1
            job = _Job(f"{key[:12]}-{self._seq}", key, manifest, jobs)
            self._jobs[job.id] = job
            self._inflight[key] = job
        self._journal_write(job)
        t = threading.Thread(
            target=self._run_job, args=(job, top, cfg), daemon=True,
            name=f"campaign-{job.id}",
        )
        t.start()
        return job, False

    def _journal_write(self, job: _Job) -> None:
        """Snapshot one job's state to the journal; loss is counted, not fatal."""
        if self.journal is None:
            return
        try:
            self.journal.record(
                job.id,
                key=job.key,
                manifest=job.manifest,
                jobs=job.jobs,
                state=job.state,
                error=job.error,
                submitted_at=job.submitted_at,
                finished_at=job.finished_at,
            )
        except OSError:
            self.journal_errors += 1

    def _run_job(self, job: _Job, top, cfg) -> None:
        job.state = "running"
        tel = Telemetry(
            trace=BusTraceWriter(job.bus),
            metrics=MetricsRegistry(enabled=True),
            series=manifest_series(job.manifest),
        )
        try:
            failpoint("service.job.dispatch")
            job.outcome = run_campaign_cached(
                top,
                cfg,
                store=self.store,
                telemetry=tel,
                jobs=job.jobs if job.jobs is not None else self.jobs,
                queue_dir=self.queue_dir,
            )
            job.state = "done"
        except Exception as exc:  # a broken campaign must not kill the service
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "error"
        finally:
            job.finished_at = time.time()
            with self._lock:
                if self._inflight.get(job.key) is job:
                    del self._inflight[job.key]
            self._journal_write(job)
            job.done_evt.set()

    def get_job(self, jid: str) -> _Job | None:
        with self._lock:
            return self._jobs.get(jid)

    # ------------------------------------------------------------------
    # restart recovery / graceful drain
    # ------------------------------------------------------------------
    def recover(self) -> list[str]:
        """Re-adopt every non-terminal journal entry (crash recovery).

        Each recovered campaign keeps its original job id and runs
        through the cache, so work the dead server already committed is
        served as hits and the records match an uninterrupted run.
        Returns the recovered job ids (also kept in ``self.recovered``).
        """
        self.recovered = []
        if self.journal is None:
            return self.recovered
        for entry in self.journal.pending():
            jid = entry["id"]
            try:
                top, cfg = manifest_to_campaign(entry["manifest"])
            except Exception:
                # a journal entry the current code cannot rebuild:
                # leave it on disk for inspection, adopt the rest
                self.journal_errors += 1
                continue
            with self._lock:
                if jid in self._jobs:
                    continue
                job = _Job(jid, entry.get("key", ""), entry["manifest"], entry.get("jobs"))
                job.submitted_at = entry.get("submitted_at") or job.submitted_at
                self._jobs[jid] = job
                self._inflight[job.key] = job
                try:
                    self._seq = max(self._seq, int(jid.rsplit("-", 1)[1]))
                except (IndexError, ValueError):
                    pass
            self._journal_write(job)
            threading.Thread(
                target=self._run_job, args=(job, top, cfg), daemon=True,
                name=f"campaign-{jid}",
            ).start()
            self.recovered.append(jid)
        return self.recovered

    def drain(self, timeout: float = 30.0) -> list[str]:
        """Stop accepting submissions, wait for in-flight jobs.

        Jobs still running when ``timeout`` expires stay journalled in a
        non-terminal state — the next start's :meth:`recover` finishes
        them.  Returns the ids of the jobs that did not finish.
        """
        self._draining = True
        deadline = time.monotonic() + timeout
        with self._lock:
            live = [j for j in self._jobs.values() if not j.done_evt.is_set()]
        leftover = []
        for job in live:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not job.done_evt.wait(timeout=remaining):
                leftover.append(job.id)
        return leftover

    # ------------------------------------------------------------------
    # HTTP routes
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes) -> Response:
        if method == "GET" and path == "/healthz":
            return json_response(
                200,
                {
                    "ok": True,
                    "uptime_s": round(time.time() - self.started_at, 3),
                    "draining": self._draining,
                },
            )
        if method == "GET" and path == "/cache/stats":
            return json_response(200, self.store.stats().to_dict())
        if method == "POST" and path == "/campaigns":
            return self._post_campaign(body)
        if method == "GET" and path == "/campaigns":
            with self._lock:
                jobs = list(self._jobs.values())
            return json_response(200, {"campaigns": [j.status() for j in jobs]})
        if method == "GET" and path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            events = rest.endswith("/events")
            job = self.get_job(
                (rest[: -len("/events")] if events else rest).rstrip("/")
            )
            if job is None:
                return json_response(404, {"error": "no such campaign"})
            if events:
                return Response(
                    200, "application/x-ndjson", self._events(job),
                    (("Cache-Control", "no-store"),),
                )
            return json_response(200, job.status(include_records=True))
        return json_response(404, {"error": f"no route for {method} {path}"})

    def _post_campaign(self, body: bytes) -> Response:
        try:
            req = json.loads(body.decode())
            manifest = req["manifest"]
            jobs = req.get("jobs")
            if jobs is not None:
                jobs = int(jobs)
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
            return json_response(400, {"error": f"bad request: {type(exc).__name__}: {exc}"})
        try:
            job, deduped = self.submit(manifest, jobs)
        except ServiceDraining as exc:
            return json_response(503, {"error": str(exc)})
        except (NotDistributable, KeyError, TypeError, ValueError) as exc:
            return json_response(400, {"error": f"bad manifest: {type(exc).__name__}: {exc}"})
        return json_response(
            202 if not deduped else 200,
            {"id": job.id, "deduped": deduped, "state": job.state},
        )

    def _events(self, job: _Job) -> Iterator[bytes]:
        """NDJSON replay + live follow of one job's events until the job
        ends (closing with ``service.end``) or the service closes."""
        pos = 0
        while True:
            events = job.events_since(pos)
            pos += len(events)
            if events:
                yield b"".join(json.dumps(ev).encode() + b"\n" for ev in events)
            if job.done_evt.is_set() and pos >= job.event_count():
                end = {"ev": "service.end", "id": job.id, "state": job.state}
                yield json.dumps(end).encode() + b"\n"
                return
            if self._closed.wait(self.poll):
                return

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CampaignService":
        """Bind, re-adopt journalled campaigns, then serve on a daemon
        thread; returns before any request is handled.  A busy port
        raises :class:`~repro.telemetry.exporter.BindError` at once."""
        self._http = HTTPServer(
            self._route, host=self.host, port=self.port, name="repro-serve",
            http11=True,
        )
        self.port = self._http.port
        self.url = self._http.url
        self.recover()
        self._http.start()
        return self

    def close(self) -> None:
        """Stop serving (idempotent); open event streams end within one
        ``poll`` interval and are not waited for."""
        self._closed.set()
        if self._http is not None:
            self._http.close()
