"""Structured JSONL event journal.

Every engine emits flat, one-line JSON events through a
:class:`TraceWriter`; the default sink is :data:`NULL_TRACE`, whose
``emit`` is a no-op and whose ``enabled`` flag lets hot paths skip even
building the event payload.  The schema is documented in
``docs/OBSERVABILITY.md``; every event carries:

* ``ev``  — dotted event name (``fluid.solve``, ``campaign.sample``, ...)
* ``ts``  — wall-clock UNIX timestamp (seconds, float)
* ``seq`` — per-writer monotonic sequence number

plus event-specific fields.  Numpy scalars are coerced to native Python
numbers so every line is plain JSON.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable, TextIO


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / arrays and other exotica to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):  # numpy array
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class TraceWriter:
    """Base event sink.  Subclasses implement :meth:`write_event`."""

    enabled: bool = True

    def __init__(self) -> None:
        self._seq = 0

    def emit(self, event: str, /, **fields: Any) -> None:
        """Record one event.  No-op when the writer is disabled."""
        if not self.enabled:
            return
        record = {"ev": event, "ts": time.time(), "seq": self._seq}
        self._seq += 1
        for k, v in fields.items():
            record[k] = _jsonable(v)
        self.write_event(record)

    def write_event(self, record: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTraceWriter(TraceWriter):
    """Disabled sink: the zero-overhead default."""

    enabled = False

    def emit(self, event: str, /, **fields: Any) -> None:  # fast path
        return

    def write_event(self, record: dict) -> None:
        return


#: shared disabled sink
NULL_TRACE = NullTraceWriter()


class JsonlTraceWriter(TraceWriter):
    """Appends one JSON object per line to a file."""

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self._fh: TextIO | None = self.path.open("w", buffering=1)

    def write_event(self, record: dict) -> None:
        if self._fh is None:
            raise RuntimeError(f"trace writer for {self.path} is closed")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class MemoryTraceWriter(TraceWriter):
    """Keeps events in a list — for tests and in-process analysis."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[dict] = []

    def write_event(self, record: dict) -> None:
        self.events.append(record)

    def of_type(self, event: str) -> list[dict]:
        return [e for e in self.events if e["ev"] == event]


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


class LoggingTraceWriter(TraceWriter):
    """Mirrors events onto a :mod:`logging` logger (``-vv`` CLI mode)."""

    def __init__(self, logger: logging.Logger | None = None, level: int = logging.DEBUG) -> None:
        super().__init__()
        self.logger = logger or logging.getLogger("repro.telemetry")
        self.level = level

    def write_event(self, record: dict) -> None:
        if self.logger.isEnabledFor(self.level):
            body = " ".join(
                f"{k}={v}" for k, v in record.items() if k not in ("ev", "ts", "seq")
            )
            self.logger.log(self.level, "%s %s", record["ev"], body)


class MultiTraceWriter(TraceWriter):
    """Fans one event stream out to several sinks."""

    def __init__(self, writers: Iterable[TraceWriter]) -> None:
        super().__init__()
        self.writers = [w for w in writers if w.enabled]
        self.enabled = bool(self.writers)

    def write_event(self, record: dict) -> None:
        for w in self.writers:
            w.write_event(dict(record))

    def close(self) -> None:
        for w in self.writers:
            w.close()


class TraceScan:
    """Result of :func:`scan_trace`: events plus damage diagnostics."""

    __slots__ = ("path", "events", "n_bad", "truncated_tail")

    def __init__(
        self, path: str, events: list[dict], n_bad: int, truncated_tail: bool
    ) -> None:
        self.path = path
        self.events = events
        self.n_bad = n_bad
        #: the final line is torn — no trailing newline or partial JSON,
        #: the signature of a live writer mid-append or a crash
        self.truncated_tail = truncated_tail


def scan_trace(path: str | Path) -> TraceScan:
    """Tolerantly parse a trace, reporting damage instead of hiding it.

    Unlike :func:`read_trace` (which silently skips malformed lines),
    the scan counts every undecodable line and flags a torn final line
    separately — a live or crash-interrupted writer tears exactly one
    trailing line, which is expected damage, not corruption.
    """
    raw = Path(path).read_bytes()
    events: list[dict] = []
    n_bad = 0
    truncated_tail = raw != b"" and not raw.endswith(b"\n")
    lines = raw.decode("utf-8", errors="replace").splitlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                truncated_tail = True
            else:
                n_bad += 1
            continue
        if isinstance(ev, dict):
            events.append(ev)
        else:
            n_bad += 1
    return TraceScan(str(path), events, n_bad, truncated_tail)


def read_trace(path: str | Path, *, strict: bool = False) -> list[dict]:
    """Parse a JSONL trace file back into event dicts.

    Malformed lines are silently skipped unless ``strict`` is set, in
    which case they raise ``ValueError`` with the offending line number.
    """
    events: list[dict] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(f"{path}:{lineno}: bad JSON ({exc})") from exc
    return events
