"""The ambient telemetry handle threaded through the engines.

A :class:`Telemetry` bundles one trace sink and one metrics registry.
Engines accept an explicit ``telemetry=`` keyword; when it is omitted
they fall back to the process-wide *current* telemetry, which defaults
to :data:`NULL_TELEMETRY` (disabled sink + disabled registry).  The CLI
installs a real instance for the duration of a command via
:func:`use_telemetry`.

Hot paths must guard instrumentation with ``tel.enabled`` (or the finer
``tel.trace.enabled`` / ``tel.metrics.enabled``) so the default
configuration costs one attribute check per solve, nothing more.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import NULL_TRACE, TraceWriter

if TYPE_CHECKING:
    from repro.telemetry.series import SeriesConfig


@dataclass
class Telemetry:
    """One trace sink plus one metrics registry.

    ``series`` opts a run into sim-time cadence sampling
    (:mod:`repro.telemetry.series`); ``None`` — the default — keeps the
    engine hot loops sampling-free.
    """

    trace: TraceWriter = NULL_TRACE
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    series: SeriesConfig | None = None

    @property
    def enabled(self) -> bool:
        return self.trace.enabled or self.metrics.enabled or self.series is not None

    def event(self, name: str, /, **fields) -> None:
        """Emit a trace event (no-op on a disabled sink)."""
        self.trace.emit(name, **fields)

    def close(self) -> None:
        self.trace.close()


#: the do-nothing default: disabled sink, disabled registry
NULL_TELEMETRY = Telemetry(trace=NULL_TRACE, metrics=MetricsRegistry(enabled=False))

_current: Telemetry = NULL_TELEMETRY


def current_telemetry() -> Telemetry:
    """The process-wide telemetry engines fall back to."""
    return _current


def set_current_telemetry(tel: Telemetry | None) -> Telemetry:
    """Install ``tel`` (``None`` restores the null default); returns the old one."""
    global _current
    old = _current
    _current = tel if tel is not None else NULL_TELEMETRY
    return old


@contextmanager
def use_telemetry(tel: Telemetry):
    """Scope ``tel`` as the current telemetry for a ``with`` block."""
    old = set_current_telemetry(tel)
    try:
        yield tel
    finally:
        set_current_telemetry(old)


def resolve_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """The handle an engine should use: explicit argument or the ambient one."""
    return telemetry if telemetry is not None else _current
