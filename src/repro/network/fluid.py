"""Fluid (rate-equilibrium) congestion engine.

This is the campaign-scale engine: it resolves one communication phase —
a set of flows plus an ambient background utilization field — into
per-flow completion times, per-packet latency estimates, per-link loads,
and Aries tile counter increments, with the minimal/non-minimal split of
every flow decided by the biased comparison of
:mod:`repro.core.policy`.

Model
-----
Each flow gets ``k_min`` sampled minimal sub-paths and ``k_nonmin``
sampled Valiant sub-paths (:mod:`repro.topology.paths`).  A fraction
``x`` of the flow's bytes takes the minimal set (split evenly over its
sub-paths), ``1 - x`` the non-minimal set.  The solver iterates:

1. accumulate per-link byte loads from the current splits;
2. derive the phase timescale ``T`` (the slowest link's drain time given
   background-reduced capacity) and per-link utilizations
   ``u = load / (cap_eff * T) + u_bg``;
3. score each candidate side by the summed utilization along its best
   sub-path (non-minimal paths are longer, so they intrinsically score
   higher at uniform load — the hardware analogue is comparing total
   downstream credit backlog);
4. update each flow's split through
   :func:`repro.core.policy.split_fraction` with its traffic class's
   routing mode, with damping.

After convergence, flits/stalls per link follow the congestion model
(including backpressure flit inflation on overloaded links), and per-flow
times/latencies are extracted (unless ``link_field_only``).

The same solver produces steady-state *utilization fields* when given a
``fixed_duration``: the scheduler's background-traffic builder uses that
to convert background byte rates into the ambient ``u_bg`` field.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.biases import RoutingMode
from repro.core.policy import PolicyParams, DEFAULT_POLICY, split_fraction
from repro.guard.context import active_guard
from repro.guard.invariants import check_fluid_iterate, check_fluid_result
from repro.network.congestion import (
    CongestionModel,
    LatencyModel,
    FLIT_BYTES,
    PACKET_BYTES,
)
from repro.network.counters import CounterBank
from repro.telemetry import Telemetry, resolve_telemetry
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import MAX_HOPS, PathBundle
from repro.topology.pathcache import cached_minimal_paths, cached_valiant_paths


#: sub-paths per chunk of the ordered load and stall scatters: bounds
#: their expanded per-entry weights to about a megabyte
_SCATTER_CHUNK = 16384


class NonConvergenceWarning(RuntimeWarning):
    """The fluid solver hit its iteration cap before the splits settled."""


@dataclass
class FlowSet:
    """A batch of point-to-point byte demands for one phase.

    Attributes
    ----------
    src, dst:
        Node indices (``int64``), element-wise pairs; self-flows are
        rejected.
    nbytes:
        Total bytes each flow moves during the phase.
    cls:
        Traffic-class index of each flow, mapping into the ``modes``
        sequence passed to :func:`solve_fluid` (e.g. class 0 = the job's
        point-to-point mode, class 1 = its Alltoall mode, class 2 =
        another job in the ensemble, ...).
    """

    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    cls: np.ndarray

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.nbytes = np.asarray(self.nbytes, dtype=np.float64)
        self.cls = np.asarray(self.cls, dtype=np.int64)
        n = self.src.size
        for name, arr in (("dst", self.dst), ("nbytes", self.nbytes), ("cls", self.cls)):
            if arr.size != n:
                raise ValueError(f"{name} has {arr.size} entries, expected {n}")
        if n and np.any(self.src == self.dst):
            raise ValueError("FlowSet contains self-flows")
        if n and np.any(self.nbytes < 0):
            raise ValueError("FlowSet contains negative byte counts")
        if n and np.any(self.cls < 0):
            raise ValueError("FlowSet contains negative traffic classes")

    @property
    def n(self) -> int:
        return self.src.size

    @classmethod
    def empty(cls) -> "FlowSet":
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z, np.zeros(0), z)

    @classmethod
    def concat(cls, parts: list["FlowSet"]) -> "FlowSet":
        """Concatenate flow sets (classes are kept as-is; remap upstream)."""
        parts = [p for p in parts if p.n > 0]
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.src for p in parts]),
            np.concatenate([p.dst for p in parts]),
            np.concatenate([p.nbytes for p in parts]),
            np.concatenate([p.cls for p in parts]),
        )

    def with_class(self, cls_index: int) -> "FlowSet":
        """Copy with every flow assigned to one traffic class."""
        return FlowSet(self.src, self.dst, self.nbytes, np.full(self.n, cls_index, dtype=np.int64))

    def scaled(self, factor: float) -> "FlowSet":
        """Copy with byte counts scaled by ``factor``."""
        return FlowSet(self.src, self.dst, self.nbytes * factor, self.cls)


@dataclass(frozen=True)
class FluidParams:
    """Solver configuration."""

    k_min: int = 6
    k_nonmin: int = 4
    n_iter: int = 8
    damping: float = 0.5
    min_timescale: float = 1e-5
    policy: PolicyParams = DEFAULT_POLICY
    congestion: CongestionModel = field(default_factory=CongestionModel)
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: mean |Δx| of the split update between the last two iterations
    #: below which the solve is classified converged.  The mean is the
    #: criterion (the max is dominated by a handful of flows sitting on a
    #: decision boundary and is reported separately as the residual).
    #: The solver always runs ``n_iter`` iterations — the tolerance only
    #: classifies the result, it never changes the numbers.
    convergence_tol: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must be in [0, 1)")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be > 0")


@dataclass
class FluidResult:
    """Resolved state of one phase (a ``link_field_only`` solve of a
    non-empty phase leaves the per-flow and counter fields ``None``)."""

    flows: FlowSet
    phase_time: float
    min_fraction: np.ndarray
    link_load: np.ndarray
    link_util: np.ndarray
    link_raw_util: np.ndarray
    timescale: float
    #: solver diagnostics.  ``residual`` is the final max |Δx| of the
    #: split update; ``residual_mean`` the final mean |Δx| (the
    #: convergence criterion, see :attr:`FluidParams.convergence_tol`).
    #: Empty phases converge trivially.
    converged: bool = True
    iterations: int = 0
    residual: float = 0.0
    residual_mean: float = 0.0
    flow_time: np.ndarray | None = None
    flow_latency: np.ndarray | None = None
    flow_latency_ambient: np.ndarray | None = None
    flow_latency_worst: np.ndarray | None = None
    flow_hops: np.ndarray | None = None
    link_flits: np.ndarray | None = None
    link_stalls: np.ndarray | None = None

    def utilization_field(self) -> np.ndarray:
        """Per-link utilization (for use as another solve's background)."""
        return self.link_util

    def accumulate_counters(self, bank: CounterBank, top: DragonflyTopology) -> None:
        """Scatter this phase's flit/stall increments into a counter bank."""
        active = np.flatnonzero(self.link_flits > 0)
        if active.size == 0:
            return
        cls = top.link_class[active]
        net = active[cls <= 2]
        bank.add_network_link_counts(net, self.link_flits[net], self.link_stalls[net])

        # processor tiles: request VC carries the bulk (Put) data on both
        # injection and ejection; response VC carries per-packet acks.
        nodes = np.arange(top.n_nodes)
        inj = top.injection_link(nodes)
        eje = top.ejection_link(nodes)
        req_flits = self.link_flits[inj] + self.link_flits[eje]
        req_stalls = self.link_stalls[inj] + self.link_stalls[eje]
        rsp_flits = (self.link_load[inj] + self.link_load[eje]) / PACKET_BYTES
        # the paper: "the routing does not affect the response traffic" —
        # responses are tiny and rarely blocked.
        rsp_stalls = 0.02 * rsp_flits
        used = (req_flits > 0) | (rsp_flits > 0)
        if used.any():
            bank.add_proc_counts(
                nodes[used],
                req_flits[used],
                req_stalls[used],
                rsp_flits[used],
                rsp_stalls[used],
            )


class _BundleAux:
    """Gather/scatter geometry of one path bundle, read from its
    column-major table (:attr:`PathBundle.cols`).

    Built by the solver on first use and cached on the bundle.  Only
    inside a ``path_memo()`` scope (:mod:`repro.topology.pathcache`) is
    a bundle handed out again, so only there do repeated solves over the
    same flow set reuse it.
    """

    __slots__ = (
        "n_links",
        "n_flows",
        "k",
        "uniform",
        "flow",
        "safe",
        "slots",
        "repcnt",
        "w0",
        "hops",
        "visible",
    )

    def __init__(self, bundle: PathBundle, n_flows: int, n_links: int) -> None:
        cols = bundle.cols
        valid = cols >= 0
        self.n_links = n_links
        self.n_flows = n_flows
        self.flow = bundle.flow
        # paths.py builds flow-major bundles with a uniform candidate
        # count per flow (flow == repeat(arange(n), k_eff)), which lets
        # the per-flow reductions below run as cheap reshapes
        self.k = cols.shape[1] // n_flows if n_flows else 0
        self.uniform = self.k > 0 and self.k * n_flows == cols.shape[1]
        # path columns some sub-path uses (pristine minimal bundles never
        # reach columns 6-8); the per-path reductions skip the rest
        live = np.flatnonzero(valid.any(axis=1))
        # sentinel gather index over the live columns: invalid slots
        # (-1, i.e. the largest uint64) read vals_ext[n_links], which
        # every caller pins to 0.0
        self.safe = cols[live]
        np.minimum(self.safe.view(np.uint64), n_links, out=self.safe.view(np.uint64))
        # each path column's gather index, None for a dead column
        self.slots: list[np.ndarray | None] = [None] * MAX_HOPS
        for j, col in zip(live, self.safe):
            self.slots[j] = col
        # valid-entry count per sub-path: np.repeat over these counts
        # expands a per-sub-path weight to the flat valid-entry layout
        self.repcnt = valid.sum(axis=0)
        cnt = np.bincount(bundle.flow, minlength=n_flows)
        # uniform initial within-side weight of every sub-path
        self.w0 = (1.0 / np.maximum(cnt, 1.0))[bundle.flow]
        # injection and ejection are always valid: the rest are router hops
        self.hops = (self.repcnt - 2).astype(np.float64)
        # the first two router-output links of each sub-path, as
        # ``(link1, has1, link2, has2)`` (link 0 where absent); the links
        # are filled in by :meth:`link_ids`.  Aries routing decisions use
        # *local* load estimates: the source router's output-tile queues
        # (and, through credit backpressure, a shadow of the next hop) —
        # not the whole path.  The decision scores therefore see only
        # these links; distant congestion on a candidate is invisible at
        # decision time, which is precisely why an unbiased comparison
        # (AD0) wanders onto non-minimal routes that turn out to be
        # congested downstream (the paper's core observation).
        self.visible = (
            np.empty_like(self.repcnt), self.repcnt >= 3,
            np.empty_like(self.repcnt), self.repcnt >= 4,
        )

    def link_ids(self, out: np.ndarray) -> None:
        """Write the link ids of all valid path slots into ``out`` (of
        size ``repcnt.sum()``) in row-major, sub-path by sub-path order:
        the flat scatter layout of the load accumulation.  Then read
        :attr:`visible` from it.

        One scatter per live column, each sub-path's write position
        advancing past its valid slots.  An invalid slot writes the
        sentinel where the sub-path's next valid slot will land, so a
        later column always overwrites it: the ejection column is live
        and valid on every sub-path.
        """
        pos = np.cumsum(self.repcnt)
        pos -= self.repcnt
        for col in self.safe:
            out[pos] = col
            pos += col != self.n_links
        # a sub-path's entries are its injection, its router hops in path
        # order, then its ejection: the hops are at start + 1 and start + 2
        # when it has three or four entries.  Every sub-path has at least
        # two, so only the second hop's index can run past the end
        # (masked out by has2).
        l1, has1, l2, has2 = self.visible
        pos -= self.repcnt
        pos += 1
        out.take(pos, out=l1, mode="clip")
        l1 *= has1
        pos += 1
        out.take(pos, out=l2, mode="clip")
        l2 *= has2


def _bundle_aux(bundle: PathBundle, n_flows: int, n_links: int) -> _BundleAux:
    """The bundle's solver geometry (a bundle belongs to one flow set and
    one topology, so the cached copy always fits)."""
    aux = getattr(bundle, "_solver_aux", None)
    if aux is None:
        aux = bundle._solver_aux = _BundleAux(bundle, n_flows, n_links)
    return aux


def _add(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    # one node of the pairwise tree; a dead column is an exact 0.0 leaf,
    # the identity for these non-negative sums, so it is left out
    if a is None:
        return b
    if b is not None:
        a += b
    return a


def _masked_rowsum(vals_ext: np.ndarray, aux: _BundleAux) -> np.ndarray:
    """``np.where(valid, vals[links], 0.0).sum(axis=1)`` without the mask.

    Gathers one live column at a time through the sentinel-extended value
    table (``vals_ext[-1]`` must be 0.0), so invalid slots contribute
    exact zeros, and folds each column into numpy's own pairwise order
    for the fixed ``MAX_HOPS == 10`` row width as soon as it is gathered
    — byte-identical to the masked form, holding at most four per-sub-path
    vectors, and returning an array of its own.
    """
    def leaf(j: int) -> np.ndarray | None:
        col = aux.slots[j]
        return None if col is None else vals_ext.take(col)

    # numpy's pairwise reduction of a width-10 row: an 8-leaf balanced
    # tree followed by two sequential tail adds
    s = _add(
        _add(_add(leaf(0), leaf(1)), _add(leaf(2), leaf(3))),
        _add(_add(leaf(4), leaf(5)), _add(leaf(6), leaf(7))),
    )
    return _add(_add(s, leaf(8)), leaf(9))


def _masked_rowmax(vals_ext: np.ndarray, aux: _BundleAux) -> np.ndarray:
    """``np.where(valid, vals[links], 0.0).max(axis=1)`` as a running
    maximum over one sentinel gather per live column (max is order-exact,
    and a dead column's 0.0 cannot raise a max of non-negative values)."""
    cols = iter(aux.safe)
    out = vals_ext.take(next(cols))
    for col in cols:
        np.maximum(out, vals_ext.take(col), out=out)
    return out


def _scatter_add(
    out: np.ndarray, idx_cat: np.ndarray, w_lvl: np.ndarray, repcnt_cat: np.ndarray,
    chunk: int = _SCATTER_CHUNK,
) -> None:
    """``out[idx_cat] += np.repeat(w_lvl, repcnt_cat)``, entry by entry.

    ``np.add.at`` adds in index order — the order of a ``bincount`` bin
    — so each bin of ``out`` receives the same additions in the same
    order however the entries are chunked; only ``chunk`` sub-paths'
    expanded weights exist at a time.
    """
    ea = 0
    for a in range(0, w_lvl.size, chunk):
        w = np.repeat(w_lvl[a:a + chunk], repcnt_cat[a:a + chunk])
        np.add.at(out, idx_cat[ea:ea + w.size], w)
        ea += w.size


def _group_min(values: np.ndarray, aux: _BundleAux) -> np.ndarray:
    """Per-flow minimum of sub-path values (min is order-exact, so the
    column chain over the flow-major layout is byte-identical to any
    other grouping)."""
    if aux.uniform:
        s2 = values.reshape(aux.n_flows, aux.k)
        out = s2[:, 0].copy()
        for j in range(1, aux.k):
            np.minimum(out, s2[:, j], out=out)
        return out
    out = np.full(aux.n_flows, np.inf)
    np.minimum.at(out, aux.flow, values)
    return out


def _group_max(values: np.ndarray, aux: _BundleAux) -> np.ndarray:
    """Per-flow maximum of sub-path values, floored at 0."""
    if aux.uniform:
        s2 = values.reshape(aux.n_flows, aux.k)
        out = s2[:, 0].copy()
        for j in range(1, aux.k):
            np.maximum(out, s2[:, j], out=out)
        np.maximum(out, 0.0, out=out)
        return out
    out = np.zeros(aux.n_flows)
    np.maximum.at(out, aux.flow, values)
    return out


def _group_sum(values: np.ndarray, aux: _BundleAux) -> np.ndarray:
    """Per-flow sum of (already weighted) sub-path values.

    ``np.bincount`` accumulates each bin sequentially in input order —
    the same order ``np.add.at`` onto zeros uses — so this is
    byte-identical to the scatter-add form at a fraction of the cost.
    """
    return np.bincount(aux.flow, weights=values, minlength=aux.n_flows)


def _softmin_weights(scores: np.ndarray, aux: _BundleAux, temp: float) -> np.ndarray:
    """Softmin weights within each flow's candidate group.

    ``exp(-(score - group_min) / temp)`` normalized per group: candidates
    near the group's best share the traffic, clearly-worse ones are
    avoided — the fluid analogue of per-packet adaptive candidate choice.
    """
    n, k = aux.n_flows, aux.k
    if aux.uniform:
        s2 = scores.reshape(n, k)
        m = s2[:, 0].copy()
        for j in range(1, k):
            np.minimum(m, s2[:, j], out=m)
        e = s2 - m[:, None]
        e /= temp
        np.minimum(e, 60.0, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        if k < 8:
            # the left-to-right column chain is the accumulation order of
            # both a sub-8-lane numpy row sum and a bincount bin
            denom = e[:, 0].copy()
            for j in range(1, k):
                denom += e[:, j]
        else:  # pragma: no cover - default k_min/k_nonmin are < 8
            denom = np.bincount(aux.flow, weights=e.reshape(-1), minlength=n)
        e /= denom[:, None]
        return e.reshape(-1)
    m = np.full(n, np.inf)
    np.minimum.at(m, aux.flow, scores)
    e = np.exp(-np.minimum((scores - m[aux.flow]) / temp, 60.0))
    denom = np.bincount(aux.flow, weights=e, minlength=n)
    return e / denom[aux.flow]


def _extract_flows(
    top: DragonflyTopology, flows: FlowSet, params: FluidParams,
    aux_min: _BundleAux, aux_non: _BundleAux,
    x: np.ndarray, w_sub_min: np.ndarray, w_sub_non: np.ndarray,
    load: np.ndarray, t_link: np.ndarray, util: np.ndarray, raw_util: np.ndarray,
    bg: np.ndarray, w_lvl: np.ndarray, idx_cat: np.ndarray, repcnt_cat: np.ndarray,
) -> dict[str, np.ndarray]:
    """The converged solve's per-flow times, latencies and hops, and its
    per-link flit and stall counters."""
    cm, lm, cap = params.congestion, params.latency, top.capacity
    n_links, ns1 = top.n_links, aux_min.flow.size
    hops_sub_min, hops_sub_non = aux_min.hops, aux_non.hops
    # sentinel-extended per-link scratch reused by every gather below
    ext = np.empty(n_links + 1)
    ext[n_links] = 0.0

    # flow completion: each side finishes when the slowest *meaningfully
    # used* sub-path's bottleneck link drains; the flow when its slower
    # used side does.
    ext[:n_links] = t_link
    t_sub_min = _masked_rowmax(ext, aux_min)
    t_sub_non = _masked_rowmax(ext, aux_non)
    # sub-paths the adaptive weighting has suppressed carry few of the
    # flow's packets and do not gate its completion
    used_min_sub = w_sub_min > 0.15
    used_non_sub = w_sub_non > 0.15
    t_min_flow = _group_max(t_sub_min * used_min_sub, aux_min)
    t_non_flow = _group_max(t_sub_non * used_non_sub, aux_non)
    used_non = x < 0.995
    flow_time = np.where(used_non, np.maximum(t_min_flow * (x > 0.005), t_non_flow), t_min_flow)

    base_lat_min = lm.base_latency(hops_sub_min)
    base_lat_non = lm.base_latency(hops_sub_non)

    # per-packet latency: base + queueing along each sub-path ...
    def _sub_latency(qd_link: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ext[:n_links] = qd_link
        return (
            base_lat_min + _masked_rowsum(ext, aux_min),
            base_lat_non + _masked_rowsum(ext, aux_non),
        )

    # ... weighted by the side split and the within-side weights
    def _flow_latency(lat_sub_min: np.ndarray, lat_sub_non: np.ndarray) -> np.ndarray:
        lat_min = _group_sum(lat_sub_min * w_sub_min, aux_min)
        lat_non = _group_sum(lat_sub_non * w_sub_non, aux_non)
        return x * lat_min + (1.0 - x) * lat_non

    flow_latency = _flow_latency(*_sub_latency(cm.queue_delay(util, cap)))
    # latency against ambient (background) traffic only: what a message
    # experiences once the phase's own burst has drained around it
    lat_sub_min, lat_sub_non = _sub_latency(cm.queue_delay(bg, cap))
    flow_latency_ambient = _flow_latency(lat_sub_min, lat_sub_non)

    # worst-packet latency: the slowest used sub-path of any used side —
    # what a globally synchronizing collective round actually waits for
    lat_max_min = _group_max(lat_sub_min * (w_sub_min > 0.05), aux_min)
    lat_max_non = _group_max(lat_sub_non * (w_sub_non > 0.05), aux_non)
    # a side only contributes its worst path when it carries a meaningful
    # share of the flow's packets (a strongly-biased mode's few stray
    # non-minimal packets do not gate every collective round)
    flow_latency_worst = np.maximum(
        lat_max_min * (x > 0.15), lat_max_non * (x < 0.85)
    )
    hops_min = _group_sum(hops_sub_min * w_sub_min, aux_min)
    hops_non = _group_sum(hops_sub_non * w_sub_non, aux_non)
    flow_hops = x * hops_min + (1.0 - x) * hops_non

    # counters: stalls follow the congestion curve; saturated links
    # additionally inflate flits (retransmission / backpressure
    # re-injection -- the Fig. 12 effect), and that backpressure
    # propagates upstream into the injecting NICs as processor-tile
    # request stalls (Fig. 6 / Fig. 12's higher Proc stalls under strong
    # minimal bias).
    sr = cm.stall_ratio(util)
    bp = cm.backpressure_factor(raw_util) * (1.0 + 0.6 * sr / cm.stall_cap)
    link_flits = load / FLIT_BYTES * bp
    link_stalls = link_flits * sr

    # congestion spreading (the paper's own conclusion: "non-minimal
    # routing can end up spreading the congestion"): a flow that crosses
    # a saturated link exhausts credits back along its *whole* path, so
    # every upstream link it uses — including its injection tile —
    # accrues stalls proportional to the worst downstream congestion.
    # Long (Valiant) paths spread that backpressure over more links.
    # The extras are scattered onto the existing stall counts, so each
    # bin accumulates existing + minimal extras + non-minimal extras in
    # the seed's exact scatter-add order.
    coupling = cm.backpressure_inj_coupling
    ext[:n_links] = sr
    sr_sub_min = _masked_rowmax(ext, aux_min)
    sr_sub_non = _masked_rowmax(ext, aux_non)
    w_min_final = (flows.nbytes * x)[aux_min.flow] * w_sub_min
    w_non_final = (flows.nbytes * (1.0 - x))[aux_non.flow] * w_sub_non
    w_lvl[:ns1] = w_min_final / FLIT_BYTES * coupling * sr_sub_min
    w_lvl[ns1:] = w_non_final / FLIT_BYTES * coupling * sr_sub_non
    _scatter_add(link_stalls, idx_cat, w_lvl, repcnt_cat)
    return dict(
        flow_time=flow_time, flow_latency=flow_latency,
        flow_latency_ambient=flow_latency_ambient, flow_latency_worst=flow_latency_worst,
        flow_hops=flow_hops, link_flits=link_flits, link_stalls=link_stalls,
    )


def sample_paths(
    top: DragonflyTopology,
    flows: FlowSet,
    params: FluidParams,
    rng: np.random.Generator,
) -> Iterator[PathBundle]:
    """Draw the candidate paths of ``flows``: the solver's only use of ``rng``.

    Yields the minimal bundle, then the Valiant one, each drawn only
    when the caller asks for it, so the solver can free one path table
    before the next is built.  An empty flow set draws nothing.  A caller
    that needs only the stream's post-state (a background scenario that
    is never read) calls :func:`repro.topology.paths.advance_paths`
    instead, which makes the same draws and builds no table.
    """
    if flows.n:
        yield cached_minimal_paths(top, flows.src, flows.dst, k=params.k_min, rng=rng)
        yield cached_valiant_paths(top, flows.src, flows.dst, k=params.k_nonmin, rng=rng)


def solve_fluid(
    top: DragonflyTopology,
    flows: FlowSet,
    modes: list[RoutingMode],
    *,
    background_util: np.ndarray | None = None,
    rng: np.random.Generator,
    params: FluidParams | None = None,
    fixed_duration: float | None = None,
    min_duration: float = 0.0,
    telemetry: Telemetry | None = None,
    link_field_only: bool = False,
) -> FluidResult:
    """Resolve one phase to its routing/congestion equilibrium.

    Parameters
    ----------
    flows:
        The phase's byte demands.  ``flows.cls`` indexes into ``modes``.
    modes:
        Routing mode per traffic class.
    background_util:
        Optional per-link ambient utilization in [0, 1) from other
        system activity (production noise).  Reduces effective capacity
        and inflates queueing.
    fixed_duration:
        When given, the phase timescale is pinned (rate mode): loads are
        interpreted as bytes over that window.  Used to build background
        utilization fields from byte *rates*.
    min_duration:
        Utilization-timescale floor for phases whose traffic is known to
        be spread over a wall-clock window (see
        :attr:`repro.mpi.patterns.Phase.spread_time`).  Ignored when
        ``fixed_duration`` is set.  Link drain times (and therefore flow
        completion times) are unaffected.
    rng:
        Drives path sampling only (:func:`sample_paths`).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; defaults to the
        ambient handle (a null sink unless the CLI installed one).
    link_field_only:
        Stop at the link field, for a caller that reads nothing per flow
        (a background field): the iterations, event and metrics are the
        same, and the per-flow and counter fields stay ``None``.
    """
    params = params or FluidParams()
    tel = resolve_telemetry(telemetry)
    # None unless a GuardPolicy is active (campaign-installed or
    # $REPRO_GUARD); the unguarded path costs this one call per solve
    guard = active_guard()
    t_start = time.perf_counter() if tel.enabled else 0.0
    n = flows.n
    cap = top.capacity

    bg = np.zeros(top.n_links) if background_util is None else np.asarray(background_util)
    if bg.shape != (top.n_links,):
        raise ValueError(f"background_util must have shape ({top.n_links},)")
    # the floor reflects that a job's bursts still win a minimum share on
    # a background-busy link (the background is itself adaptive and backs
    # off); production hotspots are also transient rather than run-long.
    cap_eff = cap * np.clip(1.0 - bg, 0.25, 1.0)

    if n == 0:
        zero = np.zeros(0)
        return FluidResult(
            flows=flows,
            phase_time=0.0,
            flow_time=zero,
            flow_latency=zero,
            flow_latency_ambient=zero,
            flow_latency_worst=zero,
            flow_hops=zero,
            min_fraction=zero,
            link_load=np.zeros(top.n_links),
            link_util=bg.copy(),
            link_raw_util=bg.copy(),
            link_flits=np.zeros(top.n_links),
            link_stalls=np.zeros(top.n_links),
            timescale=fixed_duration or 0.0,
        )

    if max(flows.cls.max(), 0) >= len(modes):
        raise ValueError("flow class index out of range of modes list")

    # the solver reads only the bundles' geometry, so outside a memo
    # scope each path table is freed as soon as its geometry is built
    n_links = top.n_links
    paths = sample_paths(top, flows, params, rng)
    aux_min = _bundle_aux(next(paths), n, n_links)
    aux_non = _bundle_aux(next(paths), n, n_links)
    hops_sub_min = aux_min.hops
    hops_sub_non = aux_non.hops
    # UGAL-style hop component of the load estimate: longer candidates
    # carry more downstream queue even when idle, so at zero load every
    # biased mode prefers minimal while AD0 stays close to indifferent.
    bias_min = params.policy.hop_bias * hops_sub_min
    bias_non = params.policy.hop_bias * hops_sub_non
    x = np.full(n, 0.75)  # initial lean toward minimal (zero-load preference)
    w_sub_min = aux_min.w0  # rebound to fresh arrays every iteration
    w_sub_non = aux_non.w0
    load = np.zeros(n_links)
    T = fixed_duration or params.min_timescale

    inv_cap_eff = np.divide(1.0, cap_eff, out=np.zeros_like(cap_eff), where=cap_eff > 0)
    adaptive_temp = params.policy.adaptive_temp
    cap1 = np.maximum(cap, 1.0)

    # The concatenated (minimal ++ non-minimal) valid-entry link ids:
    # one ordered scatter over them (_scatter_add) adds into each bin in
    # exactly the order two sequential ``np.add.at`` calls would, so the
    # per-link loads and the final stall counts are byte-identical to
    # the scatter-add formulation.
    ns1 = aux_min.flow.size
    n_valid_min = int(aux_min.repcnt.sum())
    idx_cat = np.empty(n_valid_min + int(aux_non.repcnt.sum()), dtype=np.int64)
    aux_min.link_ids(idx_cat[:n_valid_min])
    aux_non.link_ids(idx_cat[n_valid_min:])
    # local visibility window of the routing decision (see _BundleAux)
    m1_l, m1_h, m2_l, m2_h = aux_min.visible
    n1_l, n1_h, n2_l, n2_h = aux_non.visible
    repcnt_cat = np.concatenate([aux_min.repcnt, aux_non.repcnt])
    w_lvl = np.empty(ns1 + aux_non.flow.size)
    util_ext = np.empty(n_links + 1)
    util_ext[n_links] = 0.0  # sentinel read by invalid path slots
    u = util_ext[:n_links]
    denom = np.empty(n_links)
    nbx_min = np.empty(n)
    nbx_non = np.empty(n)

    # each traffic class that has flows, with its flow mask
    class_sel = []
    for ci, mode in enumerate(modes):
        sel = flows.cls == ci
        if sel.any():
            class_sel.append((mode, sel))

    residual = 0.0
    residual_mean = 0.0
    iters_to_tol: int | None = None
    t_loop = time.perf_counter() if tel.enabled else 0.0
    for it in range(params.n_iter):
        # 1. per-link loads from the current side splits and within-side
        #    adaptive weights: each sub-path's byte weight, scattered
        #    onto the hoisted flat link ids of its valid path slots
        np.multiply(flows.nbytes, x, out=nbx_min)
        np.subtract(1.0, x, out=nbx_non)
        np.multiply(flows.nbytes, nbx_non, out=nbx_non)
        np.multiply(nbx_min[aux_min.flow], w_sub_min, out=w_lvl[:ns1])
        np.multiply(nbx_non[aux_non.flow], w_sub_non, out=w_lvl[ns1:])
        load = np.zeros(n_links)
        _scatter_add(load, idx_cat, w_lvl, repcnt_cat)

        # 2. timescale and utilizations
        t_link = load * inv_cap_eff
        if fixed_duration is None:
            T = max(float(t_link.max()), params.min_timescale, min_duration)
        else:
            T = fixed_duration
        np.multiply(cap1, T, out=denom)
        np.divide(load, denom, out=u)
        np.clip(u, 0.0, 1.5, out=u)
        u += bg

        # 3. two kinds of scores.
        #    (a) full-path scores drive the *within-side* candidate
        #        weights: per-hop adaptivity lets every router on the way
        #        steer packets off its hot output tiles, so over the whole
        #        path the candidate set is effectively load-aware;
        s_min_full = _masked_rowsum(util_ext, aux_min)
        s_min_full += bias_min
        s_non_full = _masked_rowsum(util_ext, aux_non)
        s_non_full += bias_non
        w_sub_min = _softmin_weights(s_min_full, aux_min, adaptive_temp)
        w_sub_non = _softmin_weights(s_non_full, aux_non, adaptive_temp)

        #    (b) the minimal-vs-non-minimal *side* decision is made once,
        #        near the source, from locally visible load only — distant
        #        congestion on a non-minimal detour is invisible to it
        #        (the paper's core deficiency of unbiased adaptive routing)
        s_min_loc = u[m1_l] * m1_h + u[m2_l] * m2_h + bias_min
        s_non_loc = u[n1_l] * n1_h + u[n2_l] * n2_h + bias_non
        score_min = _group_min(s_min_loc, aux_min)
        score_non = _group_min(s_non_loc, aux_non)

        # 4. biased split per traffic class
        x_new = np.empty(n)
        for mode, sel in class_sel:
            x_new[sel] = split_fraction(mode, score_min[sel], score_non[sel], params.policy)
        x_prev = x
        x = params.damping * x + (1.0 - params.damping) * x_new
        dx = np.abs(x - x_prev)
        residual = float(dx.max())
        residual_mean = float(dx.mean())
        if iters_to_tol is None and residual_mean <= params.convergence_tol:
            iters_to_tol = it + 1

        if guard is not None:
            # cooperative budget/deadline enforcement + NaN/Inf monitors;
            # runs after the split update so a diverging iterate is
            # caught in the same iteration it appears
            guard.tick_iterations(1, where="fluid.solve")
            if guard.check_invariants:
                check_fluid_iterate(guard, it, x, load)

    iter_wall = (time.perf_counter() - t_loop) / params.n_iter if tel.enabled else 0.0

    # ---- final link field ------------------------------------------------
    t_link = load * inv_cap_eff
    if fixed_duration is None:
        T = max(float(t_link.max()), params.min_timescale, min_duration)
    raw_util = load / (cap1 * T) + bg
    util = np.clip(raw_util, 0.0, 1.0)

    per_flow = {} if link_field_only else _extract_flows(
        top, flows, params, aux_min, aux_non, x, w_sub_min, w_sub_non,
        load, t_link, util, raw_util, bg, w_lvl, idx_cat, repcnt_cat,
    )
    if guard is not None and guard.check_invariants:
        get = per_flow.get
        check_fluid_result(guard, top, load, get("link_flits"), get("link_stalls"), get("flow_time"))

    converged = residual_mean <= params.convergence_tol
    if not converged and fixed_duration is None:
        # rate-mode (fixed_duration) solves build deliberately coarse,
        # clipped background fields and are expected to stay unsettled on
        # overloaded links; only equilibrium results feed calibration and
        # campaign statistics, so only those warn.
        warnings.warn(
            f"fluid solver hit the {params.n_iter}-iteration cap with mean "
            f"split residual {residual_mean:.2g} > tol "
            f"{params.convergence_tol:g} (max {residual:.2g}, {n} flows); "
            f"result may be off-equilibrium",
            NonConvergenceWarning,
            stacklevel=2,
        )

    if tel.enabled:
        wall = time.perf_counter() - t_start
        links_saturated = int((raw_util >= 1.0).sum())
        m = tel.metrics
        if m.enabled:
            m.counter("fluid_solves_total", "fluid solver invocations").inc()
            if not converged:
                m.counter(
                    "fluid_nonconverged_total", "solves that hit the iteration cap"
                ).inc()
            m.histogram("fluid_solve_seconds", "wall time per solve").observe(wall)
            m.histogram(
                "solver_iter_seconds", "mean wall time per solver iteration"
            ).observe(iter_wall)
            m.histogram(
                "fluid_solve_residual",
                "final mean |dx| of the split update",
                buckets=(1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0),
            ).observe(residual_mean)
            m.gauge(
                "fluid_links_saturated", "links at/above capacity in the last solve"
            ).set(links_saturated)
        tel.event(
            "fluid.solve",
            flows=n,
            iterations=params.n_iter,
            residual=residual,
            residual_mean=residual_mean,
            converged=converged,
            iters_to_tol=iters_to_tol,
            phase_time=float(T if fixed_duration is None else t_link.max()),
            timescale=float(T),
            links_saturated=links_saturated,
            max_util=float(raw_util.max()),
            min_fraction_mean=float(x.mean()),
            wall_ms=wall * 1e3,
            iter_ms=iter_wall * 1e3,
        )

    return FluidResult(
        flows=flows,
        phase_time=float(T if fixed_duration is None else t_link.max()),
        min_fraction=x,
        link_load=load,
        link_util=util,
        link_raw_util=raw_util,
        timescale=T,
        converged=converged,
        iterations=params.n_iter,
        residual=residual,
        residual_mean=residual_mean,
        **per_flow,
    )
