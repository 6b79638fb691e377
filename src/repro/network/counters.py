"""Per-router, per-tile-class cumulative counters (the Aries counter model).

Aries exposes per-tile flit and stall counters; AutoPerf reads the tiles
of the routers a job's nodes attach to (a *local* view), LDMS reads every
router once a minute (a *global* view).  Both views are served by
:class:`CounterBank`: cumulative per-router arrays per tile class, with
request/response virtual channels split out on the processor tiles, plus
snapshot/delta arithmetic so monitoring code works exactly like the
paper's collection pipeline.

Class names match the paper's figures: ``rank1``, ``rank2``, ``rank3``
network tiles; ``proc_req`` / ``proc_rsp`` processor-tile VCs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.dragonfly import DragonflyTopology, LinkClass

#: counter classes, in the order used throughout reports
TILE_CLASSES: tuple[str, ...] = ("rank1", "rank2", "rank3", "proc_req", "proc_rsp")

_NETWORK_CLASSES: tuple[str, ...] = ("rank1", "rank2", "rank3")

_LINK_TO_TILE = {
    int(LinkClass.RANK1): "rank1",
    int(LinkClass.RANK2): "rank2",
    int(LinkClass.RANK3): "rank3",
}


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable copy of counter state at one instant.

    ``flits[cls]`` / ``stalls[cls]`` are ``(n_routers,)`` float arrays.
    Subtraction of two snapshots yields the interval delta.
    """

    flits: dict[str, np.ndarray]
    stalls: dict[str, np.ndarray]

    def __sub__(self, other: "CounterSnapshot") -> "CounterSnapshot":
        return CounterSnapshot(
            flits={c: self.flits[c] - other.flits[c] for c in TILE_CLASSES},
            stalls={c: self.stalls[c] - other.stalls[c] for c in TILE_CLASSES},
        )

    def total_flits(self, classes: tuple[str, ...] = TILE_CLASSES) -> float:
        return float(sum(self.flits[c].sum() for c in classes))

    def total_stalls(self, classes: tuple[str, ...] = TILE_CLASSES) -> float:
        return float(sum(self.stalls[c].sum() for c in classes))

    def ratio(self, cls: str) -> np.ndarray:
        """Per-router stalls-to-flits ratio for one class (0 where idle)."""
        f = self.flits[cls]
        s = self.stalls[cls]
        return np.divide(s, f, out=np.zeros_like(s), where=f > 0)

    def class_ratio(self, cls: str) -> float:
        """System-aggregate stalls-to-flits ratio for one class."""
        f = self.flits[cls].sum()
        return float(self.stalls[cls].sum() / f) if f > 0 else 0.0

    def network_ratio(self) -> float:
        """Aggregate ratio over the 40 network tiles (paper's headline)."""
        f = sum(self.flits[c].sum() for c in _NETWORK_CLASSES)
        s = sum(self.stalls[c].sum() for c in _NETWORK_CLASSES)
        return float(s / f) if f > 0 else 0.0


class CounterBank:
    """Mutable cumulative counters for every router of a system.

    All accumulation APIs take *per-link* flit/stall arrays indexed by the
    topology's flat link ids and scatter them onto the transmit router of
    each link, by tile class.  Processor-tile traffic is split into the
    request VC (bulk data, Put-style) and the response VC (acks), per the
    paper's Fig. 6 discussion.
    """

    def __init__(self, top: DragonflyTopology) -> None:
        self.top = top
        n = top.n_routers
        self._flits = {c: np.zeros(n, dtype=np.float64) for c in TILE_CLASSES}
        self._stalls = {c: np.zeros(n, dtype=np.float64) for c in TILE_CLASSES}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero all counters."""
        for c in TILE_CLASSES:
            self._flits[c][:] = 0.0
            self._stalls[c][:] = 0.0

    def add_network_link_counts(
        self,
        link_ids: np.ndarray,
        flits: np.ndarray,
        stalls: np.ndarray,
    ) -> None:
        """Accumulate flit/stall counts for rank-1/2/3 links.

        ``link_ids`` may contain processor links; they are ignored here
        (use :meth:`add_proc_counts`).
        """
        link_ids = np.asarray(link_ids)
        flits = np.asarray(flits, dtype=np.float64)
        stalls = np.asarray(stalls, dtype=np.float64)
        cls = self.top.link_class[link_ids]
        routers = self.top.link_src_router[link_ids]
        for link_cls, tile_cls in _LINK_TO_TILE.items():
            m = cls == link_cls
            if m.any():
                np.add.at(self._flits[tile_cls], routers[m], flits[m])
                np.add.at(self._stalls[tile_cls], routers[m], stalls[m])

    def add_proc_counts(
        self,
        node_ids: np.ndarray,
        req_flits: np.ndarray,
        req_stalls: np.ndarray,
        rsp_flits: np.ndarray,
        rsp_stalls: np.ndarray,
    ) -> None:
        """Accumulate processor-tile VC counts for the given nodes."""
        routers = self.top.node_router(np.asarray(node_ids))
        np.add.at(self._flits["proc_req"], routers, np.asarray(req_flits, dtype=np.float64))
        np.add.at(self._stalls["proc_req"], routers, np.asarray(req_stalls, dtype=np.float64))
        np.add.at(self._flits["proc_rsp"], routers, np.asarray(rsp_flits, dtype=np.float64))
        np.add.at(self._stalls["proc_rsp"], routers, np.asarray(rsp_stalls, dtype=np.float64))

    def merge(self, other: "CounterBank", *, fraction: float = 1.0) -> None:
        """Add ``fraction`` of another bank's cumulative counts into this one."""
        if other.top.n_routers != self.top.n_routers:
            raise ValueError("cannot merge banks from different systems")
        for c in TILE_CLASSES:
            self._flits[c] += other._flits[c] * fraction
            self._stalls[c] += other._stalls[c] * fraction

    def scale(self, factor: float) -> None:
        """Multiply all cumulative counts (e.g. per-iteration -> per-run)."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        for c in TILE_CLASSES:
            self._flits[c] *= factor
            self._stalls[c] *= factor

    # ------------------------------------------------------------------
    def snapshot(self) -> CounterSnapshot:
        """Immutable copy of the current cumulative state."""
        return CounterSnapshot(
            flits={c: self._flits[c].copy() for c in TILE_CLASSES},
            stalls={c: self._stalls[c].copy() for c in TILE_CLASSES},
        )

    def local_view(self, node_ids: np.ndarray) -> CounterSnapshot:
        """AutoPerf-style view: counters of the routers hosting ``node_ids``.

        Values for routers not hosting any of the nodes are zeroed.  As in
        the paper, multiple processes on the same router read the same
        tile values; the monitoring layer averages duplicates away.
        """
        routers = np.unique(self.top.node_router(np.asarray(node_ids)))
        mask = np.zeros(self.top.n_routers, dtype=bool)
        mask[routers] = True
        return CounterSnapshot(
            flits={c: np.where(mask, self._flits[c], 0.0) for c in TILE_CLASSES},
            stalls={c: np.where(mask, self._stalls[c], 0.0) for c in TILE_CLASSES},
        )

    def per_tile_flits(self, cls: str) -> np.ndarray:
        """Mean flits per physical tile of ``cls`` on each router."""
        return self._flits[cls] / self.top.tiles.count_for(cls)
