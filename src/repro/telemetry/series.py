"""Sim-time cadence sampling of counter and latency state (live series).

The paper's production analyses consume LDMS windows: periodic counter
deltas keyed to wall-clock cadence on the real machine.  Inside the
simulator the analogue is *simulated* time — a run's series must be a
pure function of the run itself, never of host speed.  This module
provides that layer:

* :class:`SeriesConfig` — opt-in knob carried on
  :class:`repro.telemetry.Telemetry`; engines sample only when present.
* :class:`CadenceRecorder` — accepts ``(sim_time, flit_delta,
  stall_delta)`` observations from an engine hot loop and bins them into
  contiguous cadence windows.  The window store is ring-bounded: when
  ``capacity`` windows accumulate, adjacent pairs coalesce and the
  cadence doubles, so memory stays fixed while totals are preserved
  exactly.
* :class:`QuantileSketch` — fixed-size deterministic sketch for tail
  latency (p50/p95/p99/max).  Compaction keeps every second element of
  the sorted buffer and doubles the weight — no randomness, so serial
  and parallel campaigns produce byte-identical sketches.
* :class:`CounterSeries` — the finalized, picklable result attached to
  :class:`repro.core.experiment.RunRecord` and serialized through the
  checkpoint/CSV/JSON export paths.

Everything here is deterministic given the same observation sequence:
no wall clocks, no randomness, no dict-order dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SeriesConfig:
    """Opt-in configuration for cadence-sampled run series.

    ``cadence`` is in *simulated* seconds.  ``capacity`` bounds the
    window count (must be even: full rings coalesce pairwise);
    ``sketch_size`` bounds the latency sketch buffer.
    """

    cadence: float
    capacity: int = 512
    sketch_size: int = 256

    def __post_init__(self) -> None:
        if self.cadence <= 0:
            raise ValueError("cadence must be > 0")
        if self.capacity < 2 or self.capacity % 2:
            raise ValueError("capacity must be an even integer >= 2")
        if self.sketch_size < 8:
            raise ValueError("sketch_size must be >= 8")


class QuantileSketch:
    """Fixed-capacity deterministic quantile sketch.

    A systematic sample of the observation stream: every ``stride``-th
    value is kept in arrival order; when the buffer fills, every second
    kept value (by arrival) is dropped and the stride doubles.  All
    retained values therefore carry equal weight, so quantiles reduce to
    order statistics over the buffer.  ``max`` and ``min`` are tracked
    exactly — the paper's headline tail metrics must not be sketched
    away.  No randomness: serial and parallel campaigns produce
    identical sketches from identical streams.
    """

    __slots__ = ("capacity", "count", "_stride", "_values", "_min", "_max")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 8:
            raise ValueError("sketch capacity must be >= 8")
        self.capacity = int(capacity)
        self.count = 0
        self._stride = 1
        self._values: list[float] = []
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if (self.count - 1) % self._stride:
            return
        self._values.append(v)
        if len(self._values) >= self.capacity:
            # thin by arrival order: survivors sit at stream positions
            # 0, 2*stride, 4*stride, ... — consistent with the new stride
            self._values = self._values[::2]
            self._stride *= 2

    def observe_many(self, values) -> None:
        for v in values:
            self.observe(v)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]); exact at 0 and 1."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return float("nan")
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        vals = sorted(self._values)
        idx = min(int(q * len(vals)), len(vals) - 1)
        return vals[idx]

    @property
    def min(self) -> float:
        return self._min if self.count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.count else float("nan")

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "count": self.count,
            "stride": self._stride,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "values": list(self._values),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuantileSketch":
        sk = cls(capacity=d["capacity"])
        sk.count = int(d["count"])
        sk._stride = int(d["stride"])
        sk._values = [float(v) for v in d["values"]]
        sk._min = float(d["min"]) if d.get("min") is not None else float("inf")
        sk._max = float(d["max"]) if d.get("max") is not None else float("-inf")
        return sk

    def summary(self) -> dict[str, float]:
        """The headline percentiles (Fig. 14 style)."""
        return {
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max,
        }


@dataclass
class SeriesWindow:
    """One cadence window's counter deltas."""

    t_start: float
    t_end: float
    flits: float
    stalls: float
    #: True for the end-of-run residual covering less than one cadence
    partial: bool = False

    @property
    def ratio(self) -> float:
        """Stall-to-flit ratio for the window (0 where idle)."""
        return self.stalls / self.flits if self.flits > 0 else 0.0

    def to_dict(self) -> dict:
        d = {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "flits": self.flits,
            "stalls": self.stalls,
        }
        if self.partial:
            d["partial"] = True
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SeriesWindow":
        return cls(
            t_start=float(d["t_start"]),
            t_end=float(d["t_end"]),
            flits=float(d["flits"]),
            stalls=float(d["stalls"]),
            partial=bool(d.get("partial", False)),
        )


@dataclass
class CounterSeries:
    """Finalized cadence series for one run (picklable, JSON-ready)."""

    cadence: float
    windows: list[SeriesWindow] = field(default_factory=list)
    #: end-of-run aggregate totals the windows must sum to (invariant
    #: checked by the tier-1 suite)
    aggregate_flits: float = 0.0
    aggregate_stalls: float = 0.0
    latency: QuantileSketch | None = None
    #: how many times the ring coalesced (cadence = requested * 2**n)
    n_coalesced: int = 0

    def total_flits(self) -> float:
        return sum(w.flits for w in self.windows)

    def total_stalls(self) -> float:
        return sum(w.stalls for w in self.windows)

    def to_dict(self) -> dict:
        d = {
            "cadence": self.cadence,
            "aggregate_flits": self.aggregate_flits,
            "aggregate_stalls": self.aggregate_stalls,
            "n_coalesced": self.n_coalesced,
            "windows": [w.to_dict() for w in self.windows],
        }
        if self.latency is not None:
            d["latency"] = self.latency.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CounterSeries":
        return cls(
            cadence=float(d["cadence"]),
            windows=[SeriesWindow.from_dict(w) for w in d["windows"]],
            aggregate_flits=float(d["aggregate_flits"]),
            aggregate_stalls=float(d["aggregate_stalls"]),
            n_coalesced=int(d.get("n_coalesced", 0)),
            latency=(
                QuantileSketch.from_dict(d["latency"]) if "latency" in d else None
            ),
        )


class CadenceRecorder:
    """Bins engine observations into contiguous sim-time cadence windows.

    Engines call :meth:`add` with the counter deltas accumulated up to
    sim time ``t`` (monotone non-decreasing).  Windows are contiguous
    from t=0; a delta observed at ``t`` lands in the window whose span
    contains it, and crossing a boundary closes the window.  Gaps emit
    empty windows — the ring coalescing keeps that bounded even for
    idle-heavy runs.

    Call :meth:`finalize` once at end of run with the run's end time and
    the engine's aggregate counter totals; the trailing sub-cadence
    residue is flagged ``partial=True`` (same contract as
    :meth:`repro.monitoring.ldms.LdmsCollector.finalize`).
    """

    def __init__(self, config: SeriesConfig) -> None:
        self.config = config
        self.cadence = float(config.cadence)
        self._windows: list[SeriesWindow] = []
        self._wstart = 0.0
        self._facc = 0.0
        self._sacc = 0.0
        self._t = 0.0
        self._n_coalesced = 0
        self.sketch = QuantileSketch(config.sketch_size)
        self.result: CounterSeries | None = None

    def add(self, t: float, flit_delta: float, stall_delta: float) -> None:
        """Attribute counter deltas accumulated up to sim time ``t``."""
        t = float(t)
        if t < self._t:
            raise ValueError(f"time {t} precedes prior observation at {self._t}")
        self._t = t
        while t > self._wstart + self.cadence:
            self._close_window()
        self._facc += float(flit_delta)
        self._sacc += float(stall_delta)

    def observe_latency(self, values) -> None:
        """Feed latency samples (scalar or iterable) into the sketch."""
        try:
            self.sketch.observe_many(values)
        except TypeError:
            self.sketch.observe(values)

    def _close_window(self) -> None:
        self._windows.append(
            SeriesWindow(
                t_start=self._wstart,
                t_end=self._wstart + self.cadence,
                flits=self._facc,
                stalls=self._sacc,
            )
        )
        self._wstart += self.cadence
        self._facc = 0.0
        self._sacc = 0.0
        if len(self._windows) >= self.config.capacity:
            self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent window pairs and double the cadence.

        ``_wstart`` is ``capacity * cadence`` here; capacity is even, so
        alignment to the doubled cadence is preserved exactly and totals
        are conserved.
        """
        merged = [
            SeriesWindow(
                t_start=a.t_start,
                t_end=b.t_end,
                flits=a.flits + b.flits,
                stalls=a.stalls + b.stalls,
            )
            for a, b in zip(self._windows[0::2], self._windows[1::2])
        ]
        self._windows = merged
        self.cadence *= 2.0
        self._n_coalesced += 1

    def finalize(
        self, t_end: float, aggregate_flits: float, aggregate_stalls: float
    ) -> CounterSeries:
        """Close the trailing window and freeze the series."""
        t_end = float(max(t_end, self._t))
        # runs ending past several boundaries (idle tails) close full
        # windows first; strict >= so an exact-boundary end is full
        while t_end >= self._wstart + self.cadence:
            self._close_window()
        if t_end > self._wstart or self._facc or self._sacc:
            self._windows.append(
                SeriesWindow(
                    t_start=self._wstart,
                    t_end=max(t_end, self._wstart),
                    flits=self._facc,
                    stalls=self._sacc,
                    partial=True,
                )
            )
            self._facc = 0.0
            self._sacc = 0.0
            self._wstart = max(t_end, self._wstart)
        self.result = CounterSeries(
            cadence=self.cadence,
            windows=list(self._windows),
            aggregate_flits=float(aggregate_flits),
            aggregate_stalls=float(aggregate_stalls),
            latency=self.sketch if self.sketch.count else None,
            n_coalesced=self._n_coalesced,
        )
        return self.result
