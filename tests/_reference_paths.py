# Frozen copy of src/repro/topology/paths.py from before the column-major
# path-table rewrite, kept verbatim as the golden reference for the path
# builders (tests/test_path_golden.py) and the path_build_theta perf-gate
# kernel.  Do not edit: the live builders must match it byte for byte,
# RNG post-state included.

"""Vectorized minimal and Valiant (non-minimal) path construction.

A *path* is the ordered list of directed link ids a packet traverses from
source NIC to destination NIC.  For the fluid congestion engine we build,
per flow, a small sampled set of candidate **sub-paths** of each kind:

* **minimal** — up to ``k`` sub-paths that differ only in which rank-3
  cable of the direct group-pair bundle they use (and in the rank-1/rank-2
  order of the local legs).  Aries minimal adaptive routing spreads packets
  over exactly this set.
* **non-minimal (Valiant)** — up to ``k`` sub-paths through distinct
  randomly chosen intermediate groups, each taking *two* global hops.
  Within a group, the non-minimal variant detours via a random
  intermediate router.

Paths are stored in a fixed-width ``(n_subpaths, MAX_HOPS)`` int array
padded with ``-1``; unused columns are simply masked during load
accumulation, which keeps every operation a flat NumPy gather/scatter.

Column layout::

    0     injection (NIC -> router)
    1-2   source-group local leg          (rank-1 / rank-2)
    3     first global hop                (rank-3)
    4-5   intermediate- or dest-group leg (rank-1 / rank-2)
    6     second global hop               (rank-3, Valiant only)
    7-8   dest-group local leg            (Valiant only)
    9     ejection (router -> NIC)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.errors import NetworkPartitionedError
from repro.topology.dragonfly import DragonflyTopology

#: fixed path width (see module docstring for the column layout)
MAX_HOPS = 10

_COL_INJ = 0
_COL_LOCAL_A = 1
_COL_GLOBAL_1 = 3
_COL_LOCAL_B = 4
_COL_GLOBAL_2 = 6
_COL_LOCAL_C = 7
_COL_EJE = 9


@dataclass
class PathBundle:
    """A set of candidate sub-paths, each owned by one flow.

    Attributes
    ----------
    links:
        ``(n_subpaths, MAX_HOPS)`` int64 array of directed link ids,
        ``-1``-padded.
    flow:
        ``(n_subpaths,)`` index of the owning flow.
    kind:
        ``"minimal"`` or ``"nonminimal"``.
    """

    links: np.ndarray
    flow: np.ndarray
    kind: str

    @property
    def n_subpaths(self) -> int:
        return self.links.shape[0]

    @property
    def hops(self) -> np.ndarray:
        """Number of valid links per sub-path (including NIC hops)."""
        return (self.links >= 0).sum(axis=1)

    @property
    def router_hops(self) -> np.ndarray:
        """Router-to-router hops only (excluding injection/ejection)."""
        return (self.links[:, 1:_COL_EJE] >= 0).sum(axis=1)

    def subpaths_per_flow(self, n_flows: int) -> np.ndarray:
        """How many sub-paths each flow owns."""
        return np.bincount(self.flow, minlength=n_flows)


def _local_route(
    top: DragonflyTopology,
    src_r: np.ndarray,
    dst_r: np.ndarray,
    rank1_first: np.ndarray,
    out: np.ndarray,
    col0: int,
) -> None:
    """Fill the (up to 2) intra-group links from ``src_r`` to ``dst_r``.

    Both router arrays must be in the same group element-wise.  Writes the
    link ids into ``out[:, col0]`` and ``out[:, col0 + 1]``; leaves ``-1``
    where no hop is needed.  ``rank1_first`` selects the dimension order
    for the two-hop case (both orders are minimal on Aries).
    """
    g = top.router_group(src_r)
    c1 = top.router_chassis(src_r)
    s1 = top.router_slot(src_r)
    c2 = top.router_chassis(dst_r)
    s2 = top.router_slot(dst_r)

    same = src_r == dst_r
    same_chassis = (~same) & (c1 == c2)
    same_slot = (~same) & (s1 == s2)
    two_hop = (~same) & (c1 != c2) & (s1 != s2)

    # single-hop cases
    idx = np.flatnonzero(same_chassis)
    if idx.size:
        out[idx, col0] = top.rank1_link(g[idx], c1[idx], s1[idx], s2[idx])
    idx = np.flatnonzero(same_slot)
    if idx.size:
        out[idx, col0] = top.rank2_link(g[idx], s1[idx], c1[idx], c2[idx])

    # two-hop cases, rank-1 first: row move in src chassis, then column
    idx = np.flatnonzero(two_hop & rank1_first)
    if idx.size:
        out[idx, col0] = top.rank1_link(g[idx], c1[idx], s1[idx], s2[idx])
        out[idx, col0 + 1] = top.rank2_link(g[idx], s2[idx], c1[idx], c2[idx])

    # two-hop cases, rank-2 first: column move, then row in dst chassis
    idx = np.flatnonzero(two_hop & ~rank1_first)
    if idx.size:
        out[idx, col0] = top.rank2_link(g[idx], s1[idx], c1[idx], c2[idx])
        out[idx, col0 + 1] = top.rank1_link(g[idx], c2[idx], s1[idx], s2[idx])


def _sample_distinct(rng: np.random.Generator, n: int, k: int, modulus: int) -> np.ndarray:
    """Sample ``k`` distinct values per row from ``range(modulus)``.

    Uses a random base + unit stride, which is distinct as long as
    ``k <= modulus`` and is dramatically cheaper than per-row permutation.
    """
    if k > modulus:
        raise ValueError(f"cannot sample {k} distinct values from {modulus}")
    base = rng.integers(0, modulus, size=n)
    return (base[:, None] + np.arange(k)[None, :]) % modulus


def minimal_paths(
    top: DragonflyTopology,
    src_node: np.ndarray,
    dst_node: np.ndarray,
    *,
    k: int = 2,
    rng: np.random.Generator,
) -> PathBundle:
    """Build ``k`` minimal candidate sub-paths per flow.

    Inter-group flows get ``k`` sub-paths over distinct rank-3 cables of the
    direct group-pair bundle (capped by the bundle size); intra-group flows
    get ``k`` sub-paths that differ in local-leg dimension order.
    """
    src_node = np.asarray(src_node, dtype=np.int64)
    dst_node = np.asarray(dst_node, dtype=np.int64)
    if src_node.shape != dst_node.shape:
        raise ValueError("src_node and dst_node must have the same shape")
    if np.any(src_node == dst_node):
        raise ValueError("self-flows are not allowed; filter them upstream")
    n = src_node.size
    K = top.params.cables_per_group_pair
    k_eff = min(k, K)

    flow = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    src = np.repeat(src_node, k_eff)
    dst = np.repeat(dst_node, k_eff)
    src_r = top.node_router(src)
    dst_r = top.node_router(dst)
    g_src = top.router_group(src_r)
    g_dst = top.router_group(dst_r)

    m = flow.size
    links = np.full((m, MAX_HOPS), -1, dtype=np.int64)
    links[:, _COL_INJ] = top.injection_link(src)
    links[:, _COL_EJE] = top.ejection_link(dst)
    rank1_first = rng.integers(0, 2, size=m).astype(bool)

    intra = g_src == g_dst
    idx = np.flatnonzero(intra)
    if idx.size:
        sub = links[idx]
        _local_route(top, src_r[idx], dst_r[idx], rank1_first[idx], sub, _COL_LOCAL_A)
        links[idx] = sub

    idx = np.flatnonzero(~intra)
    if idx.size:
        cables = _sample_distinct(rng, n, k_eff, K).reshape(-1)[idx]
        ga, gb = g_src[idx], g_dst[idx]
        gw_a = top.gateway_router(ga, gb, cables)
        gw_b = top.gateway_router(gb, ga, cables)
        sub = links[idx]
        _local_route(top, src_r[idx], gw_a, rank1_first[idx], sub, _COL_LOCAL_A)
        sub[:, _COL_GLOBAL_1] = top.rank3_link(ga, gb, cables)
        _local_route(top, gw_b, dst_r[idx], ~rank1_first[idx], sub, _COL_LOCAL_B)
        links[idx] = sub

    if top.fault_scale is not None:
        links = _repair_faulted(top, links, flow, src, dst, rng, prefer_minimal=True)
    return PathBundle(links=links, flow=flow, kind="minimal")


def valiant_paths(
    top: DragonflyTopology,
    src_node: np.ndarray,
    dst_node: np.ndarray,
    *,
    k: int = 2,
    rng: np.random.Generator,
) -> PathBundle:
    """Build ``k`` non-minimal (Valiant) candidate sub-paths per flow.

    Inter-group flows detour through ``k`` distinct intermediate groups
    (two global hops each); intra-group flows detour through a random
    intermediate router of the same group.
    """
    src_node = np.asarray(src_node, dtype=np.int64)
    dst_node = np.asarray(dst_node, dtype=np.int64)
    if src_node.shape != dst_node.shape:
        raise ValueError("src_node and dst_node must have the same shape")
    if np.any(src_node == dst_node):
        raise ValueError("self-flows are not allowed; filter them upstream")
    n = src_node.size
    G = top.n_groups
    K = top.params.cables_per_group_pair
    k_eff = min(k, max(G - 2, 1))

    flow = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    src = np.repeat(src_node, k_eff)
    dst = np.repeat(dst_node, k_eff)
    src_r = top.node_router(src)
    dst_r = top.node_router(dst)
    g_src = top.router_group(src_r)
    g_dst = top.router_group(dst_r)

    m = flow.size
    links = np.full((m, MAX_HOPS), -1, dtype=np.int64)
    links[:, _COL_INJ] = top.injection_link(src)
    links[:, _COL_EJE] = top.ejection_link(dst)
    rank1_first = rng.integers(0, 2, size=m).astype(bool)

    intra = g_src == g_dst
    idx = np.flatnonzero(intra)
    if idx.size:
        # detour via a random distinct router of the same group
        Rg = top.routers_per_group
        via_local = rng.integers(0, Rg, size=idx.size)
        via = g_src[idx] * Rg + via_local
        clash = (via == src_r[idx]) | (via == dst_r[idx])
        via = np.where(clash, g_src[idx] * Rg + (via_local + 1) % Rg, via)
        # a second collision is possible when Rg is tiny; nudge once more
        clash = (via == src_r[idx]) | (via == dst_r[idx])
        via = np.where(clash, g_src[idx] * Rg + (via_local + 2) % Rg, via)
        sub = links[idx]
        _local_route(top, src_r[idx], via, rank1_first[idx], sub, _COL_LOCAL_A)
        _local_route(top, via, dst_r[idx], ~rank1_first[idx], sub, _COL_LOCAL_B)
        links[idx] = sub

    idx = np.flatnonzero(~intra)
    if idx.size and G == 2:
        # A 2-group dragonfly has no intermediate group; the only
        # non-minimal diversity is over cables, with a forced detour
        # through a random gateway.  Emit minimal-shaped paths over
        # random cables so the bias machinery still has two path sets.
        cables = rng.integers(0, K, size=idx.size)
        ga, gb = g_src[idx], g_dst[idx]
        gw_a = top.gateway_router(ga, gb, cables)
        gw_b = top.gateway_router(gb, ga, cables)
        sub = links[idx]
        _local_route(top, src_r[idx], gw_a, rank1_first[idx], sub, _COL_LOCAL_A)
        sub[:, _COL_GLOBAL_1] = top.rank3_link(ga, gb, cables)
        _local_route(top, gw_b, dst_r[idx], ~rank1_first[idx], sub, _COL_LOCAL_B)
        links[idx] = sub
    elif idx.size:
        # distinct intermediate groups, skipping src and dst groups
        raw = _sample_distinct(rng, n, k_eff, max(G - 2, 1)).reshape(-1)[idx]
        lo = np.minimum(g_src[idx], g_dst[idx])
        hi = np.maximum(g_src[idx], g_dst[idx])
        g_int = raw + (raw >= lo) + (raw + (raw >= lo) >= hi)
        cab1 = rng.integers(0, K, size=idx.size)
        cab2 = rng.integers(0, K, size=idx.size)
        ga, gb = g_src[idx], g_dst[idx]
        gw1_a = top.gateway_router(ga, g_int, cab1)
        gw1_b = top.gateway_router(g_int, ga, cab1)
        gw2_a = top.gateway_router(g_int, gb, cab2)
        gw2_b = top.gateway_router(gb, g_int, cab2)
        sub = links[idx]
        _local_route(top, src_r[idx], gw1_a, rank1_first[idx], sub, _COL_LOCAL_A)
        sub[:, _COL_GLOBAL_1] = top.rank3_link(ga, g_int, cab1)
        _local_route(top, gw1_b, gw2_a, ~rank1_first[idx], sub, _COL_LOCAL_B)
        sub[:, _COL_GLOBAL_2] = top.rank3_link(g_int, gb, cab2)
        _local_route(top, gw2_b, dst_r[idx], rank1_first[idx], sub, _COL_LOCAL_C)
        links[idx] = sub

    if top.fault_scale is not None:
        links = _repair_faulted(top, links, flow, src, dst, rng, prefer_minimal=False)
    return PathBundle(links=links, flow=flow, kind="nonminimal")


# ----------------------------------------------------------------------
# fault-aware repair (only reached on a fault-masked topology view)
# ----------------------------------------------------------------------

def _scalar_local(
    top: DragonflyTopology,
    r_a: int,
    r_b: int,
    dead: np.ndarray,
    rng: np.random.Generator,
) -> list[int] | None:
    """An alive intra-group route of at most 2 hops, or ``None``.

    Tries the direct link / both two-hop dimension orders first, then
    same-dimension detours through a third slot or chassis.  Routes of
    3+ local hops do not fit the fixed path layout and are treated as
    unreachable (the surviving-gateway search above compensates).
    """
    if r_a == r_b:
        return []
    g = int(top.router_group(r_a))
    c1, s1 = int(top.router_chassis(r_a)), int(top.router_slot(r_a))
    c2, s2 = int(top.router_chassis(r_b)), int(top.router_slot(r_b))
    R = top.params.routers_per_chassis
    C = top.params.chassis_per_group
    if c1 == c2:
        direct = int(top.rank1_link(g, c1, s1, s2))
        if not dead[direct]:
            return [direct]
        for k in rng.permutation(R):
            k = int(k)
            if k == s1 or k == s2:
                continue
            l1 = int(top.rank1_link(g, c1, s1, k))
            l2 = int(top.rank1_link(g, c1, k, s2))
            if not dead[l1] and not dead[l2]:
                return [l1, l2]
        return None
    if s1 == s2:
        direct = int(top.rank2_link(g, s1, c1, c2))
        if not dead[direct]:
            return [direct]
        for m in rng.permutation(C):
            m = int(m)
            if m == c1 or m == c2:
                continue
            l1 = int(top.rank2_link(g, s1, c1, m))
            l2 = int(top.rank2_link(g, s1, m, c2))
            if not dead[l1] and not dead[l2]:
                return [l1, l2]
        return None
    orders = [
        (int(top.rank1_link(g, c1, s1, s2)), int(top.rank2_link(g, s2, c1, c2))),
        (int(top.rank2_link(g, s1, c1, c2)), int(top.rank1_link(g, c2, s1, s2))),
    ]
    if rng.integers(0, 2):
        orders.reverse()
    for l1, l2 in orders:
        if not dead[l1] and not dead[l2]:
            return [l1, l2]
    return None


def _place(row: list[int], col0: int, legs: list[int]) -> None:
    for off, link in enumerate(legs):
        row[col0 + off] = link


def _scalar_route(
    top: DragonflyTopology,
    s_node: int,
    d_node: int,
    dead: np.ndarray,
    rng: np.random.Generator,
    *,
    prefer_minimal: bool,
    max_detour_groups: int = 8,
    max_detour_cables: int = 4,
) -> list[int] | None:
    """Rebuild one candidate sub-path around dead links.

    Returns a ``MAX_HOPS`` row or ``None`` when the bounded search finds
    no surviving route.  Raises :class:`NetworkPartitionedError`
    immediately when an endpoint's own NIC link is dead (its router is
    down): no route can exist.
    """
    inj = int(top.injection_link(s_node))
    eje = int(top.ejection_link(d_node))
    if dead[inj] or dead[eje]:
        downed = s_node if dead[inj] else d_node
        raise NetworkPartitionedError(
            f"node {downed} sits on a dead router/NIC; "
            f"flow {s_node}->{d_node} cannot be routed"
        )
    src_r = int(top.node_router(s_node))
    dst_r = int(top.node_router(d_node))
    g_s = src_r // top.routers_per_group
    g_d = dst_r // top.routers_per_group
    G, K = top.n_groups, top.params.cables_per_group_pair
    row = [-1] * MAX_HOPS
    row[_COL_INJ] = inj
    row[_COL_EJE] = eje

    if g_s == g_d:
        legs = _scalar_local(top, src_r, dst_r, dead, rng)
        if legs is not None:
            _place(row, _COL_LOCAL_A, legs)
            return row
        Rg = top.routers_per_group
        for v in rng.permutation(Rg)[: max(8, Rg // 4)]:
            via = g_s * Rg + int(v)
            if via == src_r or via == dst_r:
                continue
            a = _scalar_local(top, src_r, via, dead, rng)
            b = _scalar_local(top, via, dst_r, dead, rng)
            if a is not None and b is not None:
                _place(row, _COL_LOCAL_A, a)
                _place(row, _COL_LOCAL_B, b)
                return row
        return None

    def _direct() -> list[int] | None:
        for c in rng.permutation(K):
            c = int(c)
            l3 = int(top.rank3_link(g_s, g_d, c))
            if dead[l3]:
                continue
            gw_a = int(top.gateway_router(g_s, g_d, c))
            gw_b = int(top.gateway_router(g_d, g_s, c))
            a = _scalar_local(top, src_r, gw_a, dead, rng)
            b = _scalar_local(top, gw_b, dst_r, dead, rng)
            if a is not None and b is not None:
                out = list(row)
                _place(out, _COL_LOCAL_A, a)
                out[_COL_GLOBAL_1] = l3
                _place(out, _COL_LOCAL_B, b)
                return out
        return None

    def _detour() -> list[int] | None:
        others = [g for g in range(G) if g != g_s and g != g_d]
        if not others:
            return None
        for oi in rng.permutation(len(others))[:max_detour_groups]:
            g_int = others[int(oi)]
            for c1 in rng.permutation(K)[:max_detour_cables]:
                c1 = int(c1)
                l3a = int(top.rank3_link(g_s, g_int, c1))
                if dead[l3a]:
                    continue
                gw1_a = int(top.gateway_router(g_s, g_int, c1))
                gw1_b = int(top.gateway_router(g_int, g_s, c1))
                a = _scalar_local(top, src_r, gw1_a, dead, rng)
                if a is None:
                    continue
                for c2 in rng.permutation(K)[:max_detour_cables]:
                    c2 = int(c2)
                    l3b = int(top.rank3_link(g_int, g_d, c2))
                    if dead[l3b]:
                        continue
                    gw2_a = int(top.gateway_router(g_int, g_d, c2))
                    gw2_b = int(top.gateway_router(g_d, g_int, c2))
                    b = _scalar_local(top, gw1_b, gw2_a, dead, rng)
                    tail = _scalar_local(top, gw2_b, dst_r, dead, rng)
                    if b is not None and tail is not None:
                        out = list(row)
                        _place(out, _COL_LOCAL_A, a)
                        out[_COL_GLOBAL_1] = l3a
                        _place(out, _COL_LOCAL_B, b)
                        out[_COL_GLOBAL_2] = l3b
                        _place(out, _COL_LOCAL_C, tail)
                        return out
        return None

    first, second = (_direct, _detour) if prefer_minimal else (_detour, _direct)
    return first() or second()


def _repair_faulted(
    top: DragonflyTopology,
    links: np.ndarray,
    flow: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    rng: np.random.Generator,
    *,
    prefer_minimal: bool,
) -> np.ndarray:
    """Replace sub-paths that traverse zero-capacity links.

    Rows whose links all survive are left untouched (and consume no
    extra RNG draws), so a fault that spares a flow cannot perturb it.
    Broken rows are rebuilt by the scalar fallback search; rows the
    search cannot rebuild are replaced with a duplicate of a surviving
    row of the same flow.  A flow left with no surviving row raises
    :class:`NetworkPartitionedError` — the fabric is partitioned for
    that flow.
    """
    dead = top.capacity <= 0.0
    used = links >= 0
    broken = (used & dead[np.where(used, links, 0)]).any(axis=1)
    if not broken.any():
        return links
    alive_row = ~broken
    for i in np.flatnonzero(broken):
        row = _scalar_route(
            top, int(src[i]), int(dst[i]), dead, rng, prefer_minimal=prefer_minimal
        )
        if row is not None:
            links[i] = row
            alive_row[i] = True
    for i in np.flatnonzero(~alive_row):
        same = np.flatnonzero((flow == flow[i]) & alive_row)
        if same.size == 0:
            raise NetworkPartitionedError(
                f"flow {int(src[i])}->{int(dst[i])} has no surviving path "
                f"(all candidates and detours traverse dead links)"
            )
        links[i] = links[same[0]]
    return links
