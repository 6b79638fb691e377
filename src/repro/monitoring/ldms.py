"""LDMS model: periodic global sampling of every router's counters.

LDMS (Agelastos et al., SC14) runs on every compute node and samples the
Cray network counters at a configurable periodic rate (1 minute on
Theta).  The collector here accepts counter-bank snapshots on that
cadence and exposes the time series the paper's system-level analyses
use: total stalls, flits, and stalls-to-flits ratio per tile class
(Figs. 10, 12, 13), plus per-router arrays for the scatter views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.counters import CounterBank, CounterSnapshot, TILE_CLASSES


@dataclass
class LdmsSample:
    """One sampling interval's counter delta."""

    time: float
    delta: CounterSnapshot
    #: True when the interval covers less than a full cadence (the
    #: end-of-run residual emitted by :meth:`LdmsCollector.finalize`)
    partial: bool = False


class LdmsCollector:
    """Samples a :class:`CounterBank` on a periodic cadence.

    Usage: give the collector the system's live bank; call
    :meth:`sample` whenever simulated time crosses an interval boundary
    (the facility harness drives this).  The collector stores interval
    deltas, never raw cumulative values — mirroring how LDMS data is
    post-processed.
    """

    def __init__(self, bank: CounterBank, *, interval: float = 60.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.bank = bank
        self.interval = interval
        self.samples: list[LdmsSample] = []
        self._last = bank.snapshot()
        self._t = 0.0

    def sample(self, time: float | None = None) -> LdmsSample:
        """Record the delta since the previous sample."""
        now = self._t + self.interval if time is None else float(time)
        snap = self.bank.snapshot()
        s = LdmsSample(time=now, delta=snap - self._last)
        self._last = snap
        self._t = now
        self.samples.append(s)
        return s

    def finalize(self, time: float | None = None) -> LdmsSample | None:
        """Emit the trailing sub-cadence interval instead of dropping it.

        A run rarely ends exactly on a cadence boundary; whatever the
        bank accumulated since the last :meth:`sample` call belongs to a
        final interval shorter than the cadence.  That residual is
        recorded as a sample flagged ``partial=True`` (so downstream
        rate analyses can weight or skip it) rather than silently lost.

        ``time`` is the run's end time; ``None`` means "an unknown
        point inside the next interval".  Returns ``None`` — and records
        nothing — when the residual interval is empty (``time`` on the
        last boundary and no counter movement since).
        """
        snap = self.bank.snapshot()
        delta = snap - self._last
        if time is not None:
            time = float(time)
            if time < self._t:
                raise ValueError(
                    f"finalize time {time} precedes the last sample at {self._t}"
                )
            span = time - self._t
            partial = span < self.interval
        else:
            # end time unknown: the residual covers at most one cadence
            time = self._t + self.interval
            span = self.interval
            partial = True
        moved = any(
            delta.flits[c].any() or delta.stalls[c].any() for c in TILE_CLASSES
        )
        if span <= 0 and not moved:
            return None
        s = LdmsSample(time=time, delta=delta, partial=partial)
        self._last = snap
        self._t = time
        self.samples.append(s)
        return s

    # ------------------------------------------------------------------
    def series(self, cls: str | None = None) -> dict[str, np.ndarray]:
        """Time series of total flits, stalls, and ratio.

        ``cls`` restricts to one tile class; ``None`` aggregates the
        40 network tiles (rank-1/2/3), the paper's system-wide metric.
        """
        times = np.array([s.time for s in self.samples])
        if cls is None:
            classes = ("rank1", "rank2", "rank3")
        else:
            classes = (cls,)
        flits = np.array(
            [sum(s.delta.flits[c].sum() for c in classes) for s in self.samples]
        )
        stalls = np.array(
            [sum(s.delta.stalls[c].sum() for c in classes) for s in self.samples]
        )
        ratio = np.divide(stalls, flits, out=np.zeros_like(stalls), where=flits > 0)
        return {"time": times, "flits": flits, "stalls": stalls, "ratio": ratio}

    def per_router_series(self, cls: str) -> tuple[np.ndarray, np.ndarray]:
        """(flits, stalls) arrays shaped (n_samples, n_routers) for a class.

        The per-router scatter data behind Figs. 10 and 12.
        """
        flits = np.stack([s.delta.flits[cls] for s in self.samples])
        stalls = np.stack([s.delta.stalls[cls] for s in self.samples])
        return flits, stalls

    def cumulative(self) -> CounterSnapshot:
        """Sum of all recorded deltas."""
        if not self.samples:
            raise RuntimeError("no samples recorded")
        out = self.samples[0].delta
        for s in self.samples[1:]:
            out = CounterSnapshot(
                flits={c: out.flits[c] + s.delta.flits[c] for c in TILE_CLASSES},
                stalls={c: out.stalls[c] + s.delta.stalls[c] for c in TILE_CLASSES},
            )
        return out
