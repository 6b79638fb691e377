"""Diagnostics bundles: everything needed to replay a failed run.

When a guarded run trips a budget or an invariant, the campaign harness
writes one JSON bundle into the policy's ``bundle_dir`` containing the
campaign config fingerprint, the run's RNG derivation key, the trailing
trace events (captured by a :class:`RingTraceWriter`), the guard's
recorded violations, and a snapshot of the run's metrics.  Bundle
writing is best-effort by design — a full disk must not turn a recorded
failure into a crashed campaign — so :func:`write_bundle` returns
``None`` instead of raising on I/O errors.
"""

from __future__ import annotations

import json
import re
from collections import deque
from pathlib import Path

from repro.telemetry.trace import TraceWriter
from repro.util import durable

#: bundle schema version, bumped on incompatible layout changes
BUNDLE_VERSION = 1


class RingTraceWriter(TraceWriter):
    """Trace sink that keeps only the last ``maxlen`` events.

    Attached alongside a run's real sinks so that a diagnostics bundle
    can include recent engine activity without the campaign having to
    persist full traces for every run that might fail.
    """

    def __init__(self, maxlen: int = 64) -> None:
        super().__init__()
        self.events: deque[dict] = deque(maxlen=maxlen)

    def write_event(self, record: dict) -> None:
        self.events.append(record)

    def tail(self) -> list[dict]:
        return list(self.events)


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "run"


def write_bundle(
    bundle_dir: str | Path,
    *,
    label: str,
    reason: dict,
    fingerprint: dict | str = "",
    rng_key: dict | None = None,
    policy: dict | None = None,
    events: list[dict] | None = None,
    violations: list[dict] | None = None,
    counters: dict | None = None,
) -> Path | None:
    """Atomically write one diagnostics bundle; returns its path.

    The write goes through :func:`repro.util.durable.write_atomic` so a
    crash mid-write never leaves a torn bundle.  Any ``OSError`` (unwritable
    directory, disk full) is swallowed and reported as ``None`` — the
    run's error record is the source of truth, the bundle is extra.
    """
    try:
        dir_path = Path(bundle_dir)
        dir_path.mkdir(parents=True, exist_ok=True)
        path = dir_path / f"{_slug(label)}.bundle.json"
        payload = {
            "bundle_version": BUNDLE_VERSION,
            "label": label,
            "reason": reason,
            "fingerprint": fingerprint,
            "rng_key": rng_key or {},
            "policy": policy or {},
            "violations": violations or [],
            "events": events or [],
            "counters": counters or {},
        }
        durable.write_atomic(path, json.dumps(payload, indent=1, default=str) + "\n")
        return path
    except OSError:
        return None


def load_bundle(path: str | Path) -> dict:
    """Read a bundle back (raises on missing/corrupt files — bundles are
    read by humans and tests, not by the hot path)."""
    with Path(path).open() as fh:
        payload = json.load(fh)
    if payload.get("bundle_version") != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported bundle version {payload.get('bundle_version')!r} in {path}"
        )
    return payload
