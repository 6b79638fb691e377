"""Node placement strategies.

Section II-C of the paper: *compact* placement minimizes rank-3 exposure
(fewer groups, contiguous routers) at the cost of rank-3 bandwidth
availability; *dispersed* placement draws nodes from many groups, gaining
rank-3 bandwidth but inviting interference.  Production placements on a
busy machine are fragmented — mostly contiguous chunks from several
groups.  All strategies operate on a :class:`FreeNodePool` so campaign
code can carve multiple jobs out of one machine state.
"""

from __future__ import annotations

import numpy as np

from repro.topology.dragonfly import DragonflyTopology
from repro.util.validation import UnknownNameError


class FreeNodePool:
    """Mutable set of free nodes of a system."""

    def __init__(self, top: DragonflyTopology, free: np.ndarray | None = None) -> None:
        self.top = top
        self._free = np.ones(top.n_nodes, dtype=bool)
        if free is not None:
            self._free[:] = False
            self._free[np.asarray(free)] = True

    @property
    def n_free(self) -> int:
        return int(self._free.sum())

    def free_nodes(self) -> np.ndarray:
        return np.flatnonzero(self._free)

    def take(self, nodes: np.ndarray) -> None:
        """Mark ``nodes`` allocated; raises if any is already taken."""
        nodes = np.asarray(nodes)
        if not self._free[nodes].all():
            raise ValueError("allocation overlaps already-taken nodes")
        self._free[nodes] = False

    def release(self, nodes: np.ndarray) -> None:
        """Return ``nodes`` to the pool."""
        self._free[np.asarray(nodes)] = True


def _pool_or_all(top: DragonflyTopology, pool: FreeNodePool | None) -> np.ndarray:
    return pool.free_nodes() if pool is not None else np.arange(top.n_nodes)


def _commit(pool: FreeNodePool | None, nodes: np.ndarray) -> np.ndarray:
    if pool is not None:
        pool.take(nodes)
    return nodes


def compact_placement(
    top: DragonflyTopology,
    n_nodes: int,
    rng: np.random.Generator,
    *,
    pool: FreeNodePool | None = None,
) -> np.ndarray:
    """Contiguous nodes from as few groups as possible.

    Picks a random starting group with enough contiguous free capacity
    and fills node ids in order (node order follows router order, so
    consecutive nodes share routers, chassis, then groups).
    """
    free = _pool_or_all(top, pool)
    if free.size < n_nodes:
        raise ValueError(f"need {n_nodes} nodes, only {free.size} free")
    # order free nodes by (group, node) and choose the rotation whose
    # window is most group-compact, starting from a random group offset
    start_group = rng.integers(0, top.n_groups)
    key = (top.node_group(free) - start_group) % top.n_groups
    order = np.lexsort((free, key))
    nodes = free[order][:n_nodes]
    return _commit(pool, np.sort(nodes))


def dispersed_placement(
    top: DragonflyTopology,
    n_nodes: int,
    rng: np.random.Generator,
    *,
    n_groups_span: int | None = None,
    pool: FreeNodePool | None = None,
) -> np.ndarray:
    """Nodes spread evenly over ``n_groups_span`` groups (default: all)."""
    free = _pool_or_all(top, pool)
    if free.size < n_nodes:
        raise ValueError(f"need {n_nodes} nodes, only {free.size} free")
    span = n_groups_span or top.n_groups
    groups = rng.permutation(top.n_groups)[:span]
    g_of_free = top.node_group(free)
    chosen: list[np.ndarray] = []
    per_group = int(np.ceil(n_nodes / span))
    for g in groups:
        cands = free[g_of_free == g]
        k = min(per_group, cands.size)
        if k:
            chosen.append(rng.choice(cands, size=k, replace=False))
    nodes = np.concatenate(chosen) if chosen else np.zeros(0, dtype=np.int64)
    if nodes.size < n_nodes:
        # top up from anywhere free
        rest = np.setdiff1d(free, nodes)
        extra = rng.choice(rest, size=n_nodes - nodes.size, replace=False)
        nodes = np.concatenate([nodes, extra])
    nodes = np.sort(rng.permutation(nodes)[:n_nodes])
    return _commit(pool, nodes)


def random_placement(
    top: DragonflyTopology,
    n_nodes: int,
    rng: np.random.Generator,
    *,
    pool: FreeNodePool | None = None,
) -> np.ndarray:
    """Uniformly random free nodes."""
    free = _pool_or_all(top, pool)
    if free.size < n_nodes:
        raise ValueError(f"need {n_nodes} nodes, only {free.size} free")
    nodes = np.sort(rng.choice(free, size=n_nodes, replace=False))
    return _commit(pool, nodes)


def production_placement(
    top: DragonflyTopology,
    n_nodes: int,
    rng: np.random.Generator,
    *,
    pool: FreeNodePool | None = None,
) -> np.ndarray:
    """Fragmented production-style placement.

    A busy scheduler hands out contiguous chunks from whichever groups
    have holes.  We sample a chunk-size scale and stitch chunks from
    random groups until the request is met — reproducing the paper's
    observation that medium jobs typically span several groups (Fig. 3's
    x-axis covers 1..12 groups for the same job size).
    """
    free = _pool_or_all(top, pool)
    if free.size < n_nodes:
        raise ValueError(f"need {n_nodes} nodes, only {free.size} free")
    mean_chunk = max(8, int(rng.lognormal(mean=np.log(64), sigma=1.0)))
    g_of_free = top.node_group(free)
    group_order = rng.permutation(top.n_groups)
    taken: list[np.ndarray] = []
    need = n_nodes
    for g in group_order:
        if need <= 0:
            break
        cands = free[g_of_free == g]
        if cands.size == 0:
            continue
        chunk = int(min(need, cands.size, max(1, rng.poisson(mean_chunk))))
        start = rng.integers(0, cands.size - chunk + 1)
        taken.append(cands[start : start + chunk])
        need -= chunk
    nodes = np.sort(np.concatenate(taken))
    if nodes.size < n_nodes:
        rest = np.setdiff1d(free, nodes)
        nodes = np.sort(
            np.concatenate([nodes, rng.choice(rest, size=n_nodes - nodes.size, replace=False)])
        )
    return _commit(pool, nodes[:n_nodes])


def groups_spanned(top: DragonflyTopology, nodes: np.ndarray) -> int:
    """Number of dragonfly groups a node set touches (Fig. 3's x-axis)."""
    return int(np.unique(top.node_group(np.asarray(nodes))).size)


def make_placement(
    kind: str,
    top: DragonflyTopology,
    n_nodes: int,
    rng: np.random.Generator,
    *,
    pool: FreeNodePool | None = None,
) -> np.ndarray:
    """Dispatch by placement name: compact|dispersed|random|production."""
    table = {
        "compact": compact_placement,
        "dispersed": dispersed_placement,
        "random": random_placement,
        "production": production_placement,
    }
    if kind not in table:
        raise UnknownNameError(f"unknown placement {kind!r}; have {sorted(table)}")
    return table[kind](top, n_nodes, rng, pool=pool)
