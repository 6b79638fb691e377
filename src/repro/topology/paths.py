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

Paths have a fixed width of ``MAX_HOPS`` link ids padded with ``-1``;
unused columns are simply masked during load accumulation, which keeps
every operation a flat NumPy gather/scatter.  The builders fill a
C-contiguous ``(MAX_HOPS, n_subpaths)`` table one path column at a time
(:attr:`PathBundle.cols`, what the fluid solver reads);
:attr:`PathBundle.links` is its ``(n_subpaths, MAX_HOPS)`` transpose.
Intra-group legs are gathers from the topology's precomputed
:attr:`~repro.topology.dragonfly.DragonflyTopology.local_routes` table,
and intra- and inter-group flows are built in the same pass (an
intra-group flow is an inter-group one whose gateway is its destination
router and whose global hop is ``-1``).

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
    cols:
        ``(MAX_HOPS, n_subpaths)`` C-contiguous int64 table of directed
        link ids, ``-1``-padded: row ``j`` is path column ``j`` of every
        sub-path.
    flow:
        ``(n_subpaths,)`` index of the owning flow.  The builders emit
        flow-major bundles with the same number of sub-paths per flow.
    kind:
        ``"minimal"`` or ``"nonminimal"``.
    """

    cols: np.ndarray
    flow: np.ndarray
    kind: str

    @property
    def links(self) -> np.ndarray:
        """``(n_subpaths, MAX_HOPS)`` int64 link ids, ``-1``-padded (a
        view of :attr:`cols`)."""
        return self.cols.T

    @property
    def n_subpaths(self) -> int:
        return self.cols.shape[1]

    @property
    def hops(self) -> np.ndarray:
        """Number of valid links per sub-path (including NIC hops)."""
        return (self.cols >= 0).sum(axis=0)

    @property
    def router_hops(self) -> np.ndarray:
        """Router-to-router hops only (excluding injection/ejection)."""
        return (self.cols[1:_COL_EJE] >= 0).sum(axis=0)

    def subpaths_per_flow(self, n_flows: int) -> np.ndarray:
        """How many sub-paths each flow owns."""
        return np.bincount(self.flow, minlength=n_flows)


def _cable(
    top: DragonflyTopology, group_a: np.ndarray, group_b: np.ndarray, cable: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both gateways (router indices within their groups) and the rank-3
    link id of ``cable`` from ``group_a`` to ``group_b``."""
    G, K = top.n_groups, top.params.cables_per_group_pair
    gateway = top.cable_gateway.reshape(-1)
    fwd = (group_a * G + group_b) * K + cable
    rev = (group_b * G + group_a) * K + cable
    return gateway.take(fwd), gateway.take(rev), top.r3_base + fwd


def _sample_distinct(rng: np.random.Generator, n: int, k: int, modulus: int) -> np.ndarray:
    """Sample ``k`` distinct values per row from ``range(modulus)``.

    Uses a random base + unit stride, which is distinct as long as
    ``k <= modulus`` and is dramatically cheaper than per-row permutation.
    """
    if k > modulus:
        raise ValueError(f"cannot sample {k} distinct values from {modulus}")
    base = rng.integers(0, modulus, size=n)
    out = base[:, None] + np.arange(k)[None, :]
    # base < modulus and k <= modulus: one conditional wrap is ``% modulus``
    out -= modulus * (out >= modulus)
    return out


class _Layout:
    """Per-flow endpoints and the path table shared by both builders.

    Both builders fill every sub-path as if its flow were inter-group,
    then :meth:`patch` overwrites the intra-group flows' rows (usually a
    small minority) with their values.
    """

    def __init__(self, top: DragonflyTopology, src_node, dst_node, k: int, table: bool) -> None:
        self.top = top
        src_node = np.asarray(src_node, dtype=np.int64)
        dst_node = np.asarray(dst_node, dtype=np.int64)
        if src_node.shape != dst_node.shape:
            raise ValueError("src_node and dst_node must have the same shape")
        if np.any(src_node == dst_node):
            raise ValueError("self-flows are not allowed; filter them upstream")
        n = src_node.size
        self.src, self.dst, self.n, self.k = src_node.ravel(), dst_node.ravel(), n, k
        if table:  # a draw-only layout (:func:`advance_paths`) allocates none
            self.flow = np.repeat(np.arange(n, dtype=np.int64), k)
            self.cols = np.empty((MAX_HOPS, n * k), dtype=np.int64)
            self.table = self.cols.reshape(MAX_HOPS, n, k)
            self.table[_COL_INJ] = (top.inj_base + self.src)[:, None]
            self.table[_COL_EJE] = (top.eje_base + self.dst)[:, None]
        # (n, 1) columns broadcast against the (n, k) sub-path arrays
        npr, Rg = top.nodes_per_router, top.routers_per_group
        self.g_src, self.a_src = np.divmod(self.src[:, None] // npr, Rg)
        self.g_dst, self.a_dst = np.divmod(self.dst[:, None] // npr, Rg)
        intra = self.g_src[:, 0] == self.g_dst[:, 0]
        self.intra = np.flatnonzero(intra)
        self.inter = ~intra
        self.n_inter = n - self.intra.size

    # The random draws mirror the row-by-row builders call for call: a
    # draw over some sub-paths is made only when there are any.

    def draw(self, rng: np.random.Generator, n_flows: int, high: int) -> np.ndarray:
        """``(n_flows, k)`` integers in ``[0, high)`` from one call."""
        if n_flows * self.k:
            return rng.integers(0, high, size=n_flows * self.k).reshape(n_flows, self.k)
        return np.zeros((n_flows, self.k), dtype=np.int64)

    def draw_inter(self, rng: np.random.Generator, high: int) -> np.ndarray:
        """:meth:`draw` for the inter-group flows, scattered to ``(n, k)``
        (0 on the intra-group flows' rows)."""
        drawn = self.draw(rng, self.n_inter, high)
        if self.n_inter == self.n:
            return drawn
        out = np.zeros((self.n, self.k), dtype=np.int64)
        out[self.inter] = drawn
        return out

    def distinct_inter(self, rng: np.random.Generator, modulus: int) -> np.ndarray:
        """:func:`_sample_distinct` for every flow, drawn only if some flow
        is inter-group (the only ones that use it); 0 otherwise."""
        if self.n_inter * self.k:
            return _sample_distinct(rng, self.n, self.k, modulus)
        return np.zeros((self.n, self.k), dtype=np.int64)

    def patch(self, inter_value: np.ndarray, intra_value) -> np.ndarray:
        """``inter_value`` with the intra-group flows' rows overwritten (in
        place) by ``intra_value``: a scalar or an array over those flows."""
        if self.intra.size:
            inter_value[self.intra] = intra_value
        return inter_value

    def global_hop(self, col: int, rank3: np.ndarray) -> None:
        """Fill a global-hop column; intra-group flows take none."""
        np.copyto(self.table[col], rank3)
        self.patch(self.table[col], -1)

    def local_route(self, col0: int, group, a, b, rank1_first) -> None:
        """Fill the (up to 2) intra-group links from local router ``a`` to ``b``.

        The legs land in columns ``col0`` and ``col0 + 1`` (``-1`` where
        no hop is needed).  ``a`` and ``b`` are router indices within
        ``group``; ``rank1_first`` (0/1) selects the dimension order for
        the two-hop case (both orders are minimal on Aries).  All
        arguments broadcast to ``(n, k)``; each column is two flat
        gathers from the topology's route table.
        """
        hop0, hop1, stride0, stride1 = self.top.local_routes
        key = a * (2 * self.top.routers_per_group) + rank1_first
        key += b * 2
        for col, hop, stride in ((col0, hop0, stride0), (col0 + 1, hop1, stride1)):
            out = self.table[col]
            np.multiply(group, stride.take(key), out=out)
            out += hop.take(key)

    def finish(self, rng: np.random.Generator, kind: str) -> PathBundle:
        if self.top.fault_scale is not None:
            _repair_faulted(
                self.top, self.cols, self.flow, self.src, self.dst, rng,
                prefer_minimal=kind == "minimal",
            )
        return PathBundle(cols=self.cols, flow=self.flow, kind=kind)


def _minimal_draws(top: DragonflyTopology, src_node, dst_node, k: int, rng, table: bool = True):
    """:func:`minimal_paths`' layout and draws: dimension orders, cables."""
    K = top.params.cables_per_group_pair
    lay = _Layout(top, src_node, dst_node, min(k, K), table)
    return lay, lay.draw(rng, lay.n, 2), lay.distinct_inter(rng, K)


def _valiant_draws(top: DragonflyTopology, src_node, dst_node, k: int, rng, table: bool = True):
    """:func:`valiant_paths`' layout and draws: dimension orders, detour
    routers, then the cables (2 groups) or intermediate groups and cables."""
    G, K = top.n_groups, top.params.cables_per_group_pair
    lay = _Layout(top, src_node, dst_node, min(k, max(G - 2, 1)), table)
    rank1_first = lay.draw(rng, lay.n, 2)
    via_local = lay.draw(rng, lay.intra.size, top.routers_per_group)
    if G == 2:
        return lay, rank1_first, via_local, (lay.draw_inter(rng, K),)
    inter = (lay.distinct_inter(rng, G - 2), lay.draw_inter(rng, K), lay.draw_inter(rng, K))
    return lay, rank1_first, via_local, inter


def advance_paths(
    top: DragonflyTopology, src_node, dst_node, *, k_min: int, k_nonmin: int,
    rng: np.random.Generator,
) -> None:
    """Advance ``rng`` as :func:`minimal_paths` then :func:`valiant_paths`
    would, building no table: on a pristine view each builder draws all
    it needs before it writes a table.  A faulted view's repair draws
    depend on the tables, so it is refused."""
    if top.fault_scale is not None:
        raise ValueError("advance_paths needs a pristine topology view")
    _minimal_draws(top, src_node, dst_node, k_min, rng, table=False)
    _valiant_draws(top, src_node, dst_node, k_nonmin, rng, table=False)


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
    lay, rank1_first, cable = _minimal_draws(top, src_node, dst_node, k, rng)

    # an intra-group flow is routed as if both gateways were its
    # destination router, with no global hop
    gw_a, gw_b, rank3 = _cable(top, lay.g_src, lay.g_dst, cable)
    a_dst = lay.a_dst[lay.intra]
    lay.local_route(_COL_LOCAL_A, lay.g_src, lay.a_src, lay.patch(gw_a, a_dst), rank1_first)
    lay.global_hop(_COL_GLOBAL_1, rank3)
    lay.local_route(_COL_LOCAL_B, lay.g_dst, lay.patch(gw_b, a_dst), lay.a_dst, 1 - rank1_first)
    lay.table[_COL_GLOBAL_2:_COL_EJE] = -1
    return lay.finish(rng, "minimal")


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
    lay, rank1_first, via_local, inter = _valiant_draws(top, src_node, dst_node, k, rng)

    # intra-group flows detour via a random distinct router of the group
    Rg = top.routers_per_group
    a_src, a_dst = lay.a_src[lay.intra], lay.a_dst[lay.intra]
    via = via_local
    clash = (via == a_src) | (via == a_dst)
    via = np.where(clash, (via_local + 1) % Rg, via)
    # a second collision is possible when Rg is tiny; nudge once more
    clash = (via == a_src) | (via == a_dst)
    via = np.where(clash, (via_local + 2) % Rg, via)

    if top.n_groups == 2:
        # A 2-group dragonfly has no intermediate group; the only
        # non-minimal diversity is over cables, with a forced detour
        # through a random gateway.  Emit minimal-shaped paths over
        # random cables so the bias machinery still has two path sets.
        gw_a, gw_b, rank3 = _cable(top, lay.g_src, lay.g_dst, *inter)
        lay.local_route(_COL_LOCAL_A, lay.g_src, lay.a_src, lay.patch(gw_a, via), rank1_first)
        lay.global_hop(_COL_GLOBAL_1, rank3)
        lay.local_route(_COL_LOCAL_B, lay.g_dst, lay.patch(gw_b, via), lay.a_dst, 1 - rank1_first)
        lay.table[_COL_GLOBAL_2:_COL_EJE] = -1
        return lay.finish(rng, "nonminimal")

    # distinct intermediate groups, skipping src and dst groups
    raw, cab1, cab2 = inter
    lo = np.minimum(lay.g_src, lay.g_dst)
    hi = np.maximum(lay.g_src, lay.g_dst)
    g_int = raw + (raw >= lo)
    g_int += g_int >= hi
    gw1_a, gw1_b, rank3_1 = _cable(top, lay.g_src, g_int, cab1)
    gw2_a, gw2_b, rank3_2 = _cable(top, g_int, lay.g_dst, cab2)
    # intra-group flows: src -> via, via -> dst, and no third leg
    lay.local_route(_COL_LOCAL_A, lay.g_src, lay.a_src, lay.patch(gw1_a, via), rank1_first)
    lay.global_hop(_COL_GLOBAL_1, rank3_1)
    lay.local_route(
        _COL_LOCAL_B, lay.patch(g_int, lay.g_dst[lay.intra]),
        lay.patch(gw1_b, via), lay.patch(gw2_a, a_dst), 1 - rank1_first,
    )
    lay.global_hop(_COL_GLOBAL_2, rank3_2)
    lay.local_route(_COL_LOCAL_C, lay.g_dst, lay.patch(gw2_b, a_dst), lay.a_dst, rank1_first)
    return lay.finish(rng, "nonminimal")


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
    cols: np.ndarray,
    flow: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    rng: np.random.Generator,
    *,
    prefer_minimal: bool,
) -> None:
    """Replace, in place, sub-paths that traverse zero-capacity links.

    ``cols`` is a bundle's ``(MAX_HOPS, n_subpaths)`` table; ``src`` and
    ``dst`` are per flow.  Rows whose links all survive are left
    untouched (and consume no extra RNG draws), so a fault that spares a
    flow cannot perturb it.  Broken rows are rebuilt by the scalar
    fallback search; rows the search cannot rebuild are replaced with a
    duplicate of a surviving row of the same flow.  A flow left with no
    surviving row raises :class:`NetworkPartitionedError` — the fabric is
    partitioned for that flow.
    """
    dead = top.capacity <= 0.0
    used = cols >= 0
    broken = (used & dead[np.where(used, cols, 0)]).any(axis=0)
    if not broken.any():
        return
    links = cols.T
    alive_row = ~broken
    for i in np.flatnonzero(broken):
        f = flow[i]
        row = _scalar_route(
            top, int(src[f]), int(dst[f]), dead, rng, prefer_minimal=prefer_minimal
        )
        if row is not None:
            links[i] = row
            alive_row[i] = True
    for i in np.flatnonzero(~alive_row):
        same = np.flatnonzero((flow == flow[i]) & alive_row)
        if same.size == 0:
            raise NetworkPartitionedError(
                f"flow {int(src[flow[i]])}->{int(dst[flow[i]])} has no surviving path "
                f"(all candidates and detours traverse dead links)"
            )
        links[i] = links[same[0]]
