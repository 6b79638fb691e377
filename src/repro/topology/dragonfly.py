"""Parametric Aries dragonfly structure with flat directed-link tables.

Geometry (Cray XC-40, following Alverson et al., "Cray XC Series Network"):

* a **group** is ``chassis_per_group`` chassis of ``routers_per_chassis``
  Aries routers (6 x 16 = 96 on Theta/Cori),
* **rank-1** links connect every router pair within a chassis (a "row"),
* **rank-2** links connect, for each slot position, every chassis pair
  within the group (a "column"); each rank-2 connection is a bundle of
  ``rank2_links_per_bundle`` (3) physical links which we aggregate,
* **rank-3** optical cables connect groups; each group pair is wired with
  ``cables_per_group_pair`` cables of ``lanes_per_cable`` lanes, and each
  cable lands on a specific (gateway) router in each group,
* each router hosts ``nodes_per_router`` (4) nodes via processor tiles.

All links are represented **directed** in a single flat numbering so the
congestion engines can accumulate loads with ``np.add.at`` over plain
integer arrays.  The transmit side of a directed link is attributed to the
source router's tiles for counter purposes.

Link-id layout (contiguous blocks)::

    [rank-1 | rank-2 | rank-3 | injection (per node) | ejection (per node)]

Rank-1 and rank-3 blocks are allocated as dense cubes including the unused
diagonal (a router has no link to itself, a group none to itself); those
slots have zero capacity and are never emitted by the path builders, at the
cost of a few unused array entries and O(1) id arithmetic in return.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from repro.util import GB, check_positive
from repro.topology.tiles import TileInventory


class LinkClass(IntEnum):
    """Directed-link classes, matching the paper's tile taxonomy."""

    RANK1 = 0  # green tiles: intra-chassis row links
    RANK2 = 1  # grey tiles: intra-group column bundles
    RANK3 = 2  # blue tiles: inter-group optical cables
    INJECTION = 3  # processor tiles, node -> router
    EJECTION = 4  # processor tiles, router -> node


@dataclass(frozen=True)
class DragonflyParams:
    """Static description of a dragonfly system.

    Bandwidths are quoted *bidirectional* per link, as in the paper
    (Section II-A); the topology converts them to per-direction capacities.
    """

    name: str
    n_groups: int
    chassis_per_group: int = 6
    routers_per_chassis: int = 16
    nodes_per_router: int = 4
    n_compute_nodes: int | None = None
    cables_per_group_pair: int = 12
    lanes_per_cable: int = 3
    rank2_links_per_bundle: int = 3
    rank1_bw_bidir: float = 10.5 * GB
    rank2_bw_bidir: float = 10.5 * GB
    rank3_bw_bidir: float = 9.38 * GB  # per lane
    nic_bw_bidir: float = 10.0 * GB  # per node NIC
    def __post_init__(self) -> None:
        check_positive("n_groups", self.n_groups)
        check_positive("chassis_per_group", self.chassis_per_group)
        check_positive("routers_per_chassis", self.routers_per_chassis)
        check_positive("nodes_per_router", self.nodes_per_router)
        check_positive("cables_per_group_pair", self.cables_per_group_pair)
        check_positive("lanes_per_cable", self.lanes_per_cable)
        if self.n_groups < 2:
            raise ValueError("a dragonfly needs at least 2 groups")
        cap = (
            self.n_groups
            * self.chassis_per_group
            * self.routers_per_chassis
            * self.nodes_per_router
        )
        n = self.n_compute_nodes
        if n is not None and not (0 < n <= cap):
            raise ValueError(
                f"n_compute_nodes={n} exceeds node capacity {cap} of {self.name}"
            )

    @property
    def routers_per_group(self) -> int:
        return self.chassis_per_group * self.routers_per_chassis

    @property
    def n_routers(self) -> int:
        return self.n_groups * self.routers_per_group

    @property
    def node_capacity(self) -> int:
        return self.n_routers * self.nodes_per_router

    @property
    def n_nodes(self) -> int:
        """Number of usable compute nodes (<= capacity)."""
        return self.n_compute_nodes if self.n_compute_nodes is not None else self.node_capacity


class DragonflyTopology:
    """Concrete dragonfly with directed-link tables and index arithmetic.

    Parameters
    ----------
    params:
        Static system description.
    seed:
        Seed for the deterministic cable-to-gateway-router assignment.
        The assignment is round-robin with a seeded offset per group pair,
        mirroring how real systems spread optical cables across routers.
    """

    MAX_LOCAL_HOPS = 2  # longest minimal route within a group (rank1 + rank2)

    def __init__(self, params: DragonflyParams, *, seed: int = 0) -> None:
        self.params = params
        #: cable-assignment seed; with ``params`` it fully determines the
        #: structure, so ``DragonflyTopology(top.params, seed=top.seed)``
        #: rebuilds an identical system (the parallel workers rely on this)
        self.seed = seed
        p = params
        G, C, R = p.n_groups, p.chassis_per_group, p.routers_per_chassis
        self.n_groups = G
        self.routers_per_group = p.routers_per_group
        self.n_routers = p.n_routers
        self.n_nodes = p.n_nodes
        self.nodes_per_router = p.nodes_per_router

        # --- link-block layout -------------------------------------------
        self._r1_per_chassis = R * R  # dense (i, j) cube incl. diagonal
        self._n_r1 = G * C * self._r1_per_chassis
        self._r2_per_slot = C * C
        self._n_r2 = G * R * self._r2_per_slot
        self._n_r3 = G * G * p.cables_per_group_pair
        self._n_proc = p.n_nodes

        self.r1_base = 0
        self.r2_base = self.r1_base + self._n_r1
        self.r3_base = self.r2_base + self._n_r2
        self.inj_base = self.r3_base + self._n_r3
        self.eje_base = self.inj_base + self._n_proc
        self.n_links = self.eje_base + self._n_proc

        # --- per-link capacity (bytes/s, per direction) and class --------
        cap = np.zeros(self.n_links, dtype=np.float64)
        cls = np.full(self.n_links, -1, dtype=np.int8)
        src_router = np.full(self.n_links, -1, dtype=np.int32)
        dst_router = np.full(self.n_links, -1, dtype=np.int32)

        self._fill_rank1(cap, cls, src_router, dst_router)
        self._fill_rank2(cap, cls, src_router, dst_router)
        self._fill_rank3(cap, cls, src_router, dst_router, seed)
        self._fill_proc(cap, cls, src_router, dst_router)

        self.capacity = cap
        self.link_class = cls
        self.link_src_router = src_router
        self.link_dst_router = dst_router
        self.tiles = TileInventory.aries()
        #: per-link capacity multiplier of an applied fault view, or
        #: ``None`` on a pristine topology (see :meth:`with_faults`)
        self.fault_scale: np.ndarray | None = None
        #: the unmasked capacities; identical to ``capacity`` when pristine
        self.base_capacity = cap

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _fill_rank1(self, cap, cls, srcr, dstr) -> None:
        p = self.params
        G, C, R = p.n_groups, p.chassis_per_group, p.routers_per_chassis
        per_dir = p.rank1_bw_bidir / 2.0
        g, c, i, j = np.meshgrid(
            np.arange(G), np.arange(C), np.arange(R), np.arange(R), indexing="ij"
        )
        ids = self.r1_base + ((g * C + c) * R + i) * R + j
        off_diag = (i != j).ravel()
        ids = ids.ravel()[off_diag]
        cap[ids] = per_dir
        cls[ids] = LinkClass.RANK1
        srcr[ids] = ((g * C + c) * R + i).ravel()[off_diag]
        dstr[ids] = ((g * C + c) * R + j).ravel()[off_diag]

    def _fill_rank2(self, cap, cls, srcr, dstr) -> None:
        p = self.params
        G, C, R = p.n_groups, p.chassis_per_group, p.routers_per_chassis
        per_dir = p.rank2_bw_bidir / 2.0 * p.rank2_links_per_bundle
        g, s, a, b = np.meshgrid(
            np.arange(G), np.arange(R), np.arange(C), np.arange(C), indexing="ij"
        )
        ids = self.r2_base + ((g * R + s) * C + a) * C + b
        off_diag = (a != b).ravel()
        ids = ids.ravel()[off_diag]
        cap[ids] = per_dir
        cls[ids] = LinkClass.RANK2
        srcr[ids] = ((g * C + a) * R + s).ravel()[off_diag]
        dstr[ids] = ((g * C + b) * R + s).ravel()[off_diag]

    def _fill_rank3(self, cap, cls, srcr, dstr, seed: int) -> None:
        p = self.params
        G, K = p.n_groups, p.cables_per_group_pair
        per_dir = p.rank3_bw_bidir / 2.0 * p.lanes_per_cable
        rng = np.random.default_rng(seed)
        # cable_gw[g, h, k] = gateway router index *within group g* carrying
        # cable k of the (g, h) bundle.  Round-robin with a random per-pair
        # offset spreads gateways across the group deterministically.
        Rg = self.routers_per_group
        offs = rng.integers(0, Rg, size=(G, G))
        k = np.arange(K)
        stride = max(1, Rg // max(K, 1))
        gw = (offs[:, :, None] + k[None, None, :] * stride) % Rg
        self.cable_gateway = gw.astype(np.int32)  # (G, G, K), local router idx

        g, h, kk = np.meshgrid(np.arange(G), np.arange(G), k, indexing="ij")
        ids = self.r3_base + (g * G + h) * K + kk
        off_diag = (g != h).ravel()
        ids = ids.ravel()[off_diag]
        cap[ids] = per_dir
        cls[ids] = LinkClass.RANK3
        # transmit gateway sits in group g; receive gateway is the cable's
        # landing router in group h (the reverse cable's gateway).
        srcr[ids] = (g * Rg + gw[g, h, kk]).ravel()[off_diag]
        dstr[ids] = (h * Rg + gw[h, g, kk]).ravel()[off_diag]

    def _fill_proc(self, cap, cls, srcr, dstr) -> None:
        p = self.params
        per_dir = p.nic_bw_bidir / 2.0
        nodes = np.arange(p.n_nodes)
        routers = nodes // p.nodes_per_router
        inj = self.inj_base + nodes
        eje = self.eje_base + nodes
        cap[inj] = per_dir
        cls[inj] = LinkClass.INJECTION
        srcr[inj] = routers
        dstr[inj] = routers
        cap[eje] = per_dir
        cls[eje] = LinkClass.EJECTION
        srcr[eje] = routers
        dstr[eje] = routers

    # ------------------------------------------------------------------
    # index arithmetic (all vectorized: accept scalars or arrays)
    # ------------------------------------------------------------------
    def node_router(self, node):
        """Router index hosting ``node``."""
        return np.asarray(node) // self.params.nodes_per_router

    def router_group(self, router):
        """Group index of ``router``."""
        return np.asarray(router) // self.routers_per_group

    def node_group(self, node):
        """Group index hosting ``node``."""
        return self.node_router(node) // self.routers_per_group

    def router_chassis(self, router):
        """Chassis index (within its group) of ``router``."""
        r = np.asarray(router) % self.routers_per_group
        return r // self.params.routers_per_chassis

    def router_slot(self, router):
        """Slot (position within chassis) of ``router``."""
        return np.asarray(router) % self.params.routers_per_chassis

    def rank1_link(self, group, chassis, i, j):
        """Directed rank-1 link id from slot ``i`` to slot ``j``."""
        C = self.params.chassis_per_group
        R = self.params.routers_per_chassis
        return self.r1_base + ((np.asarray(group) * C + chassis) * R + i) * R + j

    def rank2_link(self, group, slot, chassis_a, chassis_b):
        """Directed rank-2 bundle id from chassis ``a`` to chassis ``b``."""
        C = self.params.chassis_per_group
        R = self.params.routers_per_chassis
        return self.r2_base + ((np.asarray(group) * R + slot) * C + chassis_a) * C + chassis_b

    def rank3_link(self, group_a, group_b, cable):
        """Directed rank-3 cable id from group ``a`` to group ``b``."""
        G = self.params.n_groups
        K = self.params.cables_per_group_pair
        return self.r3_base + (np.asarray(group_a) * G + group_b) * K + cable

    def injection_link(self, node):
        """NIC injection link id of ``node``."""
        return self.inj_base + np.asarray(node)

    def ejection_link(self, node):
        """NIC ejection link id of ``node``."""
        return self.eje_base + np.asarray(node)

    def gateway_router(self, group_a, group_b, cable):
        """Global router index of the gateway in ``group_a`` for the cable."""
        gw_local = self.cable_gateway[group_a, group_b, cable]
        return np.asarray(group_a) * self.routers_per_group + gw_local

    @cached_property
    def local_routes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Intra-group route table ``(hop0, hop1, stride0, stride1)``.

        Entry ``(a * routers_per_group + b) * 2 + rank1_first`` describes
        the minimal route from local router ``a`` to local router ``b``
        of one group: its ``j``-th link in group ``g`` is
        ``hop_j + g * stride_j``, and ``-1`` (stride 0) where no hop is
        needed.  ``rank1_first`` picks the dimension order of two-hop
        routes (both are minimal on Aries).  Built on first use; O(routers
        per group ** 2) and shared by fault views made afterwards.
        """
        p = self.params
        C, R, Rg = p.chassis_per_group, p.routers_per_chassis, self.routers_per_group
        a, b, r1_first = np.meshgrid(
            np.arange(Rg), np.arange(Rg), np.array([False, True]), indexing="ij"
        )
        c1, s1 = np.divmod(a, R)
        c2, s2 = np.divmod(b, R)
        r1_row = self.rank1_link(0, c1, s1, s2)  # row move in the src chassis
        r1_dst = self.rank1_link(0, c2, s1, s2)  # row move in the dst chassis
        r2_src = self.rank2_link(0, s1, c1, c2)  # column move at the src slot
        r2_dst = self.rank2_link(0, s2, c1, c2)  # column move at the dst slot
        r1_stride, r2_stride = C * R * R, R * C * C  # per-group id offsets

        same_chassis, same_slot = c1 == c2, s1 == s2
        one_r1 = same_chassis & ~same_slot
        one_r2 = same_slot & ~same_chassis
        two = ~same_chassis & ~same_slot
        hop0 = np.select(
            [one_r1, one_r2, two & r1_first, two & ~r1_first],
            [r1_row, r2_src, r1_row, r2_src],
            -1,
        )
        hop1 = np.select([two & r1_first, two & ~r1_first], [r2_dst, r1_dst], -1)
        stride0 = np.select(
            [one_r1 | (two & r1_first), one_r2 | (two & ~r1_first)], [r1_stride, r2_stride], 0
        )
        stride1 = np.select([two & r1_first, two & ~r1_first], [r2_stride, r1_stride], 0)
        return tuple(t.astype(np.int64).ravel() for t in (hop0, hop1, stride0, stride1))

    # ------------------------------------------------------------------
    # degraded operation
    # ------------------------------------------------------------------
    @property
    def has_faults(self) -> bool:
        """Whether this topology is a fault-masked view."""
        return self.fault_scale is not None

    def with_faults(self, schedule, *, at_time: float = 0.0) -> "DragonflyTopology":
        """A capacity-masked view of this topology under ``schedule``.

        Parameters
        ----------
        schedule:
            A :class:`repro.faults.FaultSchedule` (or ``None``).  An
            empty (or ``None``) schedule returns ``self`` unchanged — a
            strict no-op, so pristine runs stay byte-identical.
        at_time:
            Engine time at which to evaluate the schedule's activity
            windows; campaign-level (static) views use t=0.

        The view shares every structural array with the original and
        replaces only ``capacity`` (scaled per link).  Applying faults
        to an already-masked view composes the multipliers.
        """
        if schedule is None or not schedule:
            return self
        scale = schedule.capacity_scale(self, at_time=at_time)
        if scale is None:
            return self
        view = copy.copy(self)
        view.capacity = self.capacity * scale
        view.fault_scale = scale if self.fault_scale is None else self.fault_scale * scale
        view.base_capacity = self.base_capacity
        return view

    # ------------------------------------------------------------------
    # summary / sanity
    # ------------------------------------------------------------------
    @property
    def bisection_bw_per_group_pair(self) -> float:
        """Per-direction optical bandwidth of one group-pair bundle."""
        p = self.params
        return p.cables_per_group_pair * p.lanes_per_cable * p.rank3_bw_bidir / 2.0

    @property
    def injection_bw_per_group(self) -> float:
        """Aggregate per-direction NIC bandwidth of one (full) group."""
        p = self.params
        return self.routers_per_group * p.nodes_per_router * p.nic_bw_bidir / 2.0

    @property
    def bisection_to_injection_ratio(self) -> float:
        """Optical egress of a group / its injection bandwidth.

        The paper notes Cori's reduced ratio (4 vs 12 cables per group
        pair); this property exposes that contrast directly.
        """
        egress = self.bisection_bw_per_group_pair * (self.n_groups - 1)
        return egress / self.injection_bw_per_group

    def describe(self) -> str:
        """Human-readable one-paragraph summary of the system."""
        p = self.params
        return (
            f"{p.name}: {self.n_groups} groups x {self.routers_per_group} routers "
            f"({p.chassis_per_group} chassis x {p.routers_per_chassis}), "
            f"{self.n_nodes} compute nodes, "
            f"{p.cables_per_group_pair} cables/group-pair x {p.lanes_per_cable} lanes, "
            f"bisection:injection = {self.bisection_to_injection_ratio:.2f}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DragonflyTopology({self.describe()})"
