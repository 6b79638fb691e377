"""The campaign service's HTTP surface, pinned on the wire.

Every route in ``docs/SERVICE.md`` is exercised over a raw socket, so
the tests see exactly what a client sees: the status code, the
``Content-Type``, the body keys, and the connection closing after each
reply.  Covered besides the happy paths: 413 for an over-limit body
(answered without reading it), 400 for malformed requests and
manifests, 404 for unknown routes and ids, the ``/events`` NDJSON
stream (replay, live follow, the closing ``service.end`` line),
``close()`` with a stream still open, and a busy port failing fast on
every command that serves HTTP.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.experiment import CampaignConfig
from repro.dist.manifest import NotDistributable, campaign_to_manifest
from repro.service import CampaignService, RunRecordStore
from repro.service import client
from repro.service import http as service_http
from repro.telemetry import NULL_TELEMETRY
from repro.topology.systems import mini

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)

SRC = str(Path(repro.__file__).resolve().parents[1])
JSON = "application/json"
STATUS_KEYS = {
    "id", "key", "state", "submitted_at", "finished_at", "coalesced", "progress",
}


@pytest.fixture(scope="module")
def top():
    return mini()


def _manifest(top, samples=1, seed=11):
    cfg = CampaignConfig(
        app=MILC(), n_nodes=32, modes=(AD0, AD3), samples=samples, seed=seed,
        scenario_pool=4,
    )
    return campaign_to_manifest(top, cfg, NULL_TELEMETRY)


def _address(url):
    host, port = url.removeprefix("http://").rsplit(":", 1)
    return host, int(port)


def _parse(data):
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    words = lines[0].split()
    status = int(words[1]) if len(words) > 1 else None
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def _raw(url, request, timeout=10.0):
    """Send raw request bytes; read the reply until the server closes."""
    with socket.create_connection(_address(url), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _parse(b"".join(chunks))


def _request(url, method, path, body=b""):
    head = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body or method == "POST":
        head.append(f"Content-Length: {len(body)}")
    return _raw(url, ("\r\n".join(head) + "\r\n\r\n").encode() + body)


def _json(url, method, path, obj=None, raw=None):
    body = raw if raw is not None else (json.dumps(obj).encode() if obj is not None else b"")
    status, headers, payload = _request(url, method, path, body)
    return status, headers, json.loads(payload) if payload else None


def _ndjson(body):
    return [json.loads(line) for line in body.decode().splitlines()]


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(RunRecordStore(tmp_path / "cache"), poll=0.05).start()
    yield svc
    svc.close()


@pytest.fixture
def gate(monkeypatch):
    """Hold every submitted campaign before it executes until set."""
    release = threading.Event()
    real = service_http.run_campaign_cached

    def gated(*args, **kwargs):
        release.wait(120)
        return real(*args, **kwargs)

    monkeypatch.setattr(service_http, "run_campaign_cached", gated)
    yield release
    release.set()


@pytest.fixture(scope="module")
def finished(top, tmp_path_factory):
    """A service holding one finished real campaign: (service, job id)."""
    store = RunRecordStore(tmp_path_factory.mktemp("http") / "cache")
    svc = CampaignService(store, poll=0.05).start()
    jid = client.submit(svc.url, _manifest(top))["id"]
    assert client.wait(svc.url, jid, timeout=300)["state"] == "done"
    yield svc, jid
    svc.close()


class TestRoutes:
    def test_healthz(self, finished):
        svc, _ = finished
        status, headers, doc = _json(svc.url, "GET", "/healthz")
        assert status == 200 and headers["content-type"] == JSON
        assert set(doc) == {"ok", "uptime_s", "draining"}
        assert doc["ok"] is True and doc["draining"] is False

    def test_cache_stats(self, finished):
        svc, _ = finished
        status, headers, doc = _json(svc.url, "GET", "/cache/stats")
        assert status == 200 and headers["content-type"] == JSON
        assert {
            "entries", "bytes", "cache_hits_total", "cache_misses_total",
            "cache_puts_total", "cache_evictions_total", "cache_quarantined_total",
        } <= set(doc)
        assert doc["cache_puts_total"] == 2  # 1 sample x 2 modes

    def test_list_campaigns(self, finished):
        svc, jid = finished
        status, headers, doc = _json(svc.url, "GET", "/campaigns")
        assert status == 200 and headers["content-type"] == JSON
        assert [j["id"] for j in doc["campaigns"]] == [jid]
        assert STATUS_KEYS | {"cache"} <= set(doc["campaigns"][0])
        assert "records" not in doc["campaigns"][0]

    def test_campaign_status_includes_records_once_done(self, finished):
        svc, jid = finished
        status, headers, doc = _json(svc.url, "GET", f"/campaigns/{jid}")
        assert status == 200 and headers["content-type"] == JSON
        assert STATUS_KEYS | {"cache", "records"} <= set(doc)
        assert doc["state"] == "done"
        assert set(doc["cache"]) == {"hits", "misses", "resumed", "total"}
        assert len(doc["records"]) == 2
        # a trailing slash and a query string address the same job
        assert _json(svc.url, "GET", f"/campaigns/{jid}/?x=1")[2]["id"] == jid

    def test_submit_is_202_then_200_when_coalesced(self, service, gate, top):
        man = _manifest(top, seed=21)
        status, headers, first = _json(service.url, "POST", "/campaigns", {"manifest": man})
        assert status == 202 and headers["content-type"] == JSON
        assert set(first) == {"id", "deduped", "state"} and first["deduped"] is False
        status, _, second = _json(
            service.url, "POST", "/campaigns", {"manifest": man, "jobs": 1}
        )
        assert status == 200
        assert second["id"] == first["id"] and second["deduped"] is True

    def test_submit_while_draining_is_503(self, service, top):
        assert service.drain(timeout=1.0) == []
        status, headers, doc = _json(
            service.url, "POST", "/campaigns", {"manifest": _manifest(top)}
        )
        assert status == 503 and headers["content-type"] == JSON
        assert "draining" in doc["error"]
        assert _json(service.url, "GET", "/healthz")[2]["draining"] is True


class TestRejections:
    def test_over_limit_body_is_413_without_reading_it(self, service):
        head = (
            "POST /campaigns HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {8 * 1024 * 1024 + 1}\r\n\r\n"
        )
        # no body follows: a server that tried to read it would stall
        status, headers, body = _raw(service.url, head.encode(), timeout=5.0)
        assert status == 413 and headers["content-type"] == JSON
        assert "error" in json.loads(body)

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, service, length):
        head = (
            "POST /campaigns HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        status, headers, body = _raw(service.url, head.encode(), timeout=5.0)
        assert status == 400 and headers["content-type"] == JSON
        assert "error" in json.loads(body)

    @pytest.mark.parametrize(
        "payload",
        [
            b"{not json",
            b'{"jobs": 2}',
            b'{"manifest": {}, "jobs": "many"}',
        ],
        ids=["bad-json", "no-manifest", "non-integer-jobs"],
    )
    def test_malformed_request_is_400(self, service, payload):
        status, headers, doc = _json(service.url, "POST", "/campaigns", raw=payload)
        assert status == 400 and headers["content-type"] == JSON
        assert doc["error"].startswith("bad request:")

    def test_not_distributable_manifest_is_400(self, service, top, monkeypatch):
        def refuse(manifest):
            raise NotDistributable("custom FluidParams")

        monkeypatch.setattr(service_http, "manifest_to_campaign", refuse)
        status, _, doc = _json(
            service.url, "POST", "/campaigns", {"manifest": _manifest(top)}
        )
        assert status == 400
        assert doc["error"] == "bad manifest: NotDistributable: custom FluidParams"

    def test_tampered_manifest_is_400(self, service, top):
        man = _manifest(top)
        man["config"]["seed"] = 12  # no longer matches its fingerprint
        status, _, doc = _json(service.url, "POST", "/campaigns", {"manifest": man})
        assert status == 400 and doc["error"].startswith("bad manifest:")

    @pytest.mark.parametrize(
        "method,path",
        [
            ("GET", "/nope"),
            ("POST", "/healthz"),
            ("GET", "/campaigns/nope-1"),
            ("GET", "/campaigns/nope-1/events"),
        ],
    )
    def test_unknown_route_or_id_is_404(self, service, method, path):
        status, headers, doc = _json(service.url, method, path)
        assert status == 404 and headers["content-type"] == JSON
        assert "error" in doc


class TestEventStream:
    def test_replays_every_event_then_ends(self, finished):
        svc, jid = finished
        status, headers, body = _request(svc.url, "GET", f"/campaigns/{jid}/events")
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        assert headers["cache-control"] == "no-store"
        lines = _ndjson(body)
        published = json.loads(json.dumps(svc.get_job(jid).events_since(0)))
        assert published and lines[:-1] == published
        assert lines[-1] == {"ev": "service.end", "id": jid, "state": "done"}

    def test_follows_a_running_job_to_its_end(self, service, gate, top):
        jid = client.submit(service.url, _manifest(top, seed=31))["id"]
        result = {}

        def read():
            result["reply"] = _request(
                service.url, "GET", f"/campaigns/{jid}/events"
            )

        reader = threading.Thread(target=read)
        reader.start()
        time.sleep(0.3)
        assert reader.is_alive()  # the stream waits on the running job
        gate.set()
        reader.join(300)
        assert not reader.is_alive()
        status, _, body = result["reply"]
        lines = _ndjson(body)
        assert status == 200
        assert lines[:-1] == json.loads(
            json.dumps(service.get_job(jid).events_since(0))
        )
        assert lines[-1] == {"ev": "service.end", "id": jid, "state": "done"}

    def test_close_ends_an_open_stream_promptly(self, tmp_path, gate, top):
        svc = CampaignService(RunRecordStore(tmp_path / "cache"), poll=0.2).start()
        try:
            jid = client.submit(svc.url, _manifest(top, seed=41))["id"]
            sock = socket.create_connection(_address(svc.url), timeout=5.0)
            sock.sendall(
                f"GET /campaigns/{jid}/events HTTP/1.1\r\nHost: test\r\n\r\n".encode()
            )
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
        finally:
            t0 = time.monotonic()
            svc.close()
            closed_in = time.monotonic() - t0
        assert closed_in < 5.0
        # the stream ends with the server rather than waiting on the job
        t0 = time.monotonic()
        try:
            while sock.recv(65536):
                pass
        except ConnectionError:
            pass
        finally:
            sock.close()
        assert time.monotonic() - t0 < 5.0


class TestBusyPort:
    """A port someone else holds fails fast, as a one-line config error."""

    @pytest.fixture
    def held_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        yield sock.getsockname()[1]
        sock.close()

    @pytest.mark.parametrize("command", ["serve", "serve-metrics", "compare"])
    def test_bind_error_exits_2_at_once(self, held_port, tmp_path, command):
        argv = {
            "serve": ["serve", "--cache", str(tmp_path / "cache"),
                      "--port", str(held_port), "--max-seconds", "30"],
            "serve-metrics": ["serve-metrics", "--port", str(held_port),
                              "--max-seconds", "30"],
            "compare": ["compare", "--system", "mini", "--nodes", "32",
                        "--samples", "1", "--serve", str(held_port)],
        }[command]
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        elapsed = time.monotonic() - t0
        assert proc.returncode == 2, proc.stderr
        assert elapsed < 5.0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            f"error: cannot bind 127.0.0.1:{held_port}: Address already in use"
        ]
