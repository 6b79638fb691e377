"""Seed (pre-arena/bincount) fluid solver, kept verbatim as the golden reference.

This is a frozen copy of src/repro/network/fluid.py as of the commit before
the engine hot-path overhaul.  The golden-equivalence and perf-gate suites
compare the optimized engine against this implementation byte for byte.
Do not optimize or otherwise edit this file except to track intentional,
documented re-baselines (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import time
import warnings
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
from repro.topology.paths import PathBundle
from repro.topology.pathcache import cached_minimal_paths, cached_valiant_paths


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
    """Resolved state of one phase."""

    flows: FlowSet
    phase_time: float
    flow_time: np.ndarray
    flow_latency: np.ndarray
    flow_latency_ambient: np.ndarray
    flow_latency_worst: np.ndarray
    flow_hops: np.ndarray
    min_fraction: np.ndarray
    link_load: np.ndarray
    link_util: np.ndarray
    link_raw_util: np.ndarray
    link_flits: np.ndarray
    link_stalls: np.ndarray
    timescale: float
    #: solver diagnostics.  ``residual`` is the final max |Δx| of the
    #: split update; ``residual_mean`` the final mean |Δx| (the
    #: convergence criterion, see :attr:`FluidParams.convergence_tol`).
    #: Empty phases converge trivially.
    converged: bool = True
    iterations: int = 0
    residual: float = 0.0
    residual_mean: float = 0.0

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


def _side_arrays(bundle: PathBundle, n_flows: int):
    """Precompute gather/scatter helpers for one path bundle."""
    # the seed only ever saw C-ordered (row-major) path tables, and the
    # float reductions over its rows below follow the memory layout
    links = np.ascontiguousarray(bundle.links)
    valid = links >= 0
    safe_links = np.where(valid, links, 0)
    count = np.bincount(bundle.flow, minlength=n_flows).astype(np.float64)
    return valid, safe_links, count


def _flow_min(values: np.ndarray, flow: np.ndarray, n_flows: int) -> np.ndarray:
    """Per-flow minimum of sub-path values."""
    out = np.full(n_flows, np.inf)
    np.minimum.at(out, flow, values)
    return out


def _flow_max(values: np.ndarray, flow: np.ndarray, n_flows: int) -> np.ndarray:
    """Per-flow maximum of sub-path values."""
    out = np.zeros(n_flows)
    np.maximum.at(out, flow, values)
    return out


def _flow_mean(values: np.ndarray, flow: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per-flow mean of sub-path values."""
    out = np.zeros(count.size)
    np.add.at(out, flow, values)
    return out / np.maximum(count, 1.0)


def _flow_weighted_sum(values: np.ndarray, flow: np.ndarray, n_flows: int) -> np.ndarray:
    """Per-flow sum of (already weighted) sub-path values."""
    out = np.zeros(n_flows)
    np.add.at(out, flow, values)
    return out


def _visible_links(links: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first two router-output links of each sub-path.

    Aries routing decisions use *local* load estimates: the source
    router's output-tile queues (and, through credit backpressure, a
    shadow of the next hop) — not the whole path.  The decision scores
    therefore see only these links; distant congestion on a candidate is
    invisible at decision time, which is precisely why an unbiased
    comparison (AD0) wanders onto non-minimal routes that turn out to be
    congested downstream (the paper's core observation).

    Returns ``(link1, has1, link2, has2)``; injection (column 0) and
    ejection (last column) are excluded.
    """
    body = links[:, 1:-1]
    valid = body >= 0
    rows = np.arange(body.shape[0])
    i1 = np.argmax(valid, axis=1)
    has1 = valid.any(axis=1)
    l1 = np.where(has1, body[rows, i1], 0)
    valid2 = valid.copy()
    valid2[rows, i1] = False
    i2 = np.argmax(valid2, axis=1)
    has2 = valid2.any(axis=1)
    l2 = np.where(has2, body[rows, i2], 0)
    return l1, has1, l2, has2


def _softmin_weights(
    scores: np.ndarray, flow: np.ndarray, n_flows: int, temp: float
) -> np.ndarray:
    """Softmin weights within each flow's candidate group.

    ``exp(-(score - group_min) / temp)`` normalized per group: candidates
    near the group's best share the traffic, clearly-worse ones are
    avoided — the fluid analogue of per-packet adaptive candidate choice.
    """
    m = _flow_min(scores, flow, n_flows)
    e = np.exp(-np.minimum((scores - m[flow]) / temp, 60.0))
    s = np.zeros(n_flows)
    np.add.at(s, flow, e)
    return e / s[flow]


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
        Drives path sampling only.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; defaults to the
        ambient handle (a null sink unless the CLI installed one).
    """
    params = params or FluidParams()
    tel = resolve_telemetry(telemetry)
    # None unless a GuardPolicy is active (campaign-installed or
    # $REPRO_GUARD); the unguarded path costs this one call per solve
    guard = active_guard()
    t_start = time.perf_counter() if tel.enabled else 0.0
    cm = params.congestion
    lm = params.latency
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

    pmin = cached_minimal_paths(top, flows.src, flows.dst, k=params.k_min, rng=rng)
    pnon = cached_valiant_paths(top, flows.src, flows.dst, k=params.k_nonmin, rng=rng)
    vmin, lmin, cnt_min = _side_arrays(pmin, n)
    vnon, lnon, cnt_non = _side_arrays(pnon, n)
    hops_sub_min = pmin.router_hops.astype(np.float64)
    hops_sub_non = pnon.router_hops.astype(np.float64)
    # UGAL-style hop component of the load estimate: longer candidates
    # carry more downstream queue even when idle, so at zero load every
    # biased mode prefers minimal while AD0 stays close to indifferent.
    bias_min = params.policy.hop_bias * hops_sub_min
    bias_non = params.policy.hop_bias * hops_sub_non
    # local visibility window of the routing decision (see _visible_links)
    m1_l, m1_h, m2_l, m2_h = _visible_links(pmin.links)
    n1_l, n1_h, n2_l, n2_h = _visible_links(pnon.links)

    x = np.full(n, 0.75)  # initial lean toward minimal (zero-load preference)
    w_sub_min = np.broadcast_to((1.0 / np.maximum(cnt_min, 1.0))[pmin.flow], pmin.flow.shape).copy()
    w_sub_non = np.broadcast_to((1.0 / np.maximum(cnt_non, 1.0))[pnon.flow], pnon.flow.shape).copy()
    load = np.zeros(top.n_links)
    util = bg.copy()
    T = fixed_duration or params.min_timescale

    inv_cap_eff = np.divide(1.0, cap_eff, out=np.zeros_like(cap_eff), where=cap_eff > 0)
    adaptive_temp = params.policy.adaptive_temp

    residual = 0.0
    residual_mean = 0.0
    iters_to_tol: int | None = None
    for it in range(params.n_iter):
        # 1. per-link loads from the current side splits and within-side
        #    adaptive weights
        w_min = (flows.nbytes * x)[pmin.flow] * w_sub_min
        w_non = (flows.nbytes * (1.0 - x))[pnon.flow] * w_sub_non
        load[:] = 0.0
        np.add.at(load, lmin[vmin], np.broadcast_to(w_min[:, None], vmin.shape)[vmin])
        np.add.at(load, lnon[vnon], np.broadcast_to(w_non[:, None], vnon.shape)[vnon])

        # 2. timescale and utilizations
        t_link = load * inv_cap_eff
        if fixed_duration is None:
            T = max(float(t_link.max()), params.min_timescale, min_duration)
        else:
            T = fixed_duration
        util = np.clip(load / (np.maximum(cap, 1.0) * T), 0.0, 1.5) + bg

        # 3. two kinds of scores.
        #    (a) full-path scores drive the *within-side* candidate
        #        weights: per-hop adaptivity lets every router on the way
        #        steer packets off its hot output tiles, so over the whole
        #        path the candidate set is effectively load-aware;
        s_min_full = np.where(vmin, util[lmin], 0.0).sum(axis=1) + bias_min
        s_non_full = np.where(vnon, util[lnon], 0.0).sum(axis=1) + bias_non
        w_sub_min = _softmin_weights(s_min_full, pmin.flow, n, adaptive_temp)
        w_sub_non = _softmin_weights(s_non_full, pnon.flow, n, adaptive_temp)

        #    (b) the minimal-vs-non-minimal *side* decision is made once,
        #        near the source, from locally visible load only — distant
        #        congestion on a non-minimal detour is invisible to it
        #        (the paper's core deficiency of unbiased adaptive routing)
        s_min_loc = util[m1_l] * m1_h + util[m2_l] * m2_h + bias_min
        s_non_loc = util[n1_l] * n1_h + util[n2_l] * n2_h + bias_non
        score_min = _flow_min(s_min_loc, pmin.flow, n)
        score_non = _flow_min(s_non_loc, pnon.flow, n)

        # 4. biased split per traffic class
        x_new = np.empty(n)
        for ci, mode in enumerate(modes):
            sel = flows.cls == ci
            if sel.any():
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

    # ---- final extraction ------------------------------------------------
    t_link = load * inv_cap_eff
    if fixed_duration is None:
        T = max(float(t_link.max()), params.min_timescale, min_duration)
    raw_util = load / (np.maximum(cap, 1.0) * T) + bg
    util = np.clip(raw_util, 0.0, 1.0)

    # flow completion: each side finishes when the slowest *meaningfully
    # used* sub-path's bottleneck link drains; the flow when its slower
    # used side does.
    t_sub_min = np.where(vmin, t_link[lmin], 0.0).max(axis=1)
    t_sub_non = np.where(vnon, t_link[lnon], 0.0).max(axis=1)
    # sub-paths the adaptive weighting has suppressed carry few of the
    # flow's packets and do not gate its completion
    used_min_sub = w_sub_min > 0.15
    used_non_sub = w_sub_non > 0.15
    t_min_flow = _flow_max(t_sub_min * used_min_sub, pmin.flow, n)
    t_non_flow = _flow_max(t_sub_non * used_non_sub, pnon.flow, n)
    used_non = x < 0.995
    flow_time = np.where(used_non, np.maximum(t_min_flow * (x > 0.005), t_non_flow), t_min_flow)

    # per-packet latency: base + queueing along the path, weighted by the
    # side split and the within-side weights
    def _latency_at(util_field: np.ndarray) -> np.ndarray:
        qd_link = cm.queue_delay(util_field, cap)
        qd_sub_min = np.where(vmin, qd_link[lmin], 0.0).sum(axis=1)
        qd_sub_non = np.where(vnon, qd_link[lnon], 0.0).sum(axis=1)
        lat_min = _flow_weighted_sum(
            (lm.base_latency(hops_sub_min) + qd_sub_min) * w_sub_min, pmin.flow, n
        )
        lat_non = _flow_weighted_sum(
            (lm.base_latency(hops_sub_non) + qd_sub_non) * w_sub_non, pnon.flow, n
        )
        return x * lat_min + (1.0 - x) * lat_non

    flow_latency = _latency_at(util)
    # latency against ambient (background) traffic only: what a message
    # experiences once the phase's own burst has drained around it
    flow_latency_ambient = _latency_at(bg)

    # worst-packet latency: the slowest used sub-path of any used side —
    # what a globally synchronizing collective round actually waits for
    qd_link_amb = cm.queue_delay(bg, cap)
    lat_sub_min = lm.base_latency(hops_sub_min) + np.where(vmin, qd_link_amb[lmin], 0.0).sum(axis=1)
    lat_sub_non = lm.base_latency(hops_sub_non) + np.where(vnon, qd_link_amb[lnon], 0.0).sum(axis=1)
    lat_max_min = _flow_max(lat_sub_min * (w_sub_min > 0.05), pmin.flow, n)
    lat_max_non = _flow_max(lat_sub_non * (w_sub_non > 0.05), pnon.flow, n)
    # a side only contributes its worst path when it carries a meaningful
    # share of the flow's packets (a strongly-biased mode's few stray
    # non-minimal packets do not gate every collective round)
    flow_latency_worst = np.maximum(
        lat_max_min * (x > 0.15), lat_max_non * (x < 0.85)
    )
    hops_min = _flow_weighted_sum(hops_sub_min * w_sub_min, pmin.flow, n)
    hops_non = _flow_weighted_sum(hops_sub_non * w_sub_non, pnon.flow, n)
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
    coupling = cm.backpressure_inj_coupling
    sr_sub_min = np.where(vmin, sr[lmin], 0.0).max(axis=1)
    sr_sub_non = np.where(vnon, sr[lnon], 0.0).max(axis=1)
    w_min_final = (flows.nbytes * x)[pmin.flow] * w_sub_min
    w_non_final = (flows.nbytes * (1.0 - x))[pnon.flow] * w_sub_non
    extra_min = w_min_final / FLIT_BYTES * coupling * sr_sub_min
    extra_non = w_non_final / FLIT_BYTES * coupling * sr_sub_non
    np.add.at(
        link_stalls,
        lmin[vmin],
        np.broadcast_to(extra_min[:, None], vmin.shape)[vmin],
    )
    np.add.at(
        link_stalls,
        lnon[vnon],
        np.broadcast_to(extra_non[:, None], vnon.shape)[vnon],
    )

    if guard is not None and guard.check_invariants:
        check_fluid_result(guard, top, load, link_flits, link_stalls, flow_time)

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
        )

    return FluidResult(
        flows=flows,
        phase_time=float(T if fixed_duration is None else t_link.max()),
        flow_time=flow_time,
        flow_latency=flow_latency,
        flow_latency_ambient=flow_latency_ambient,
        flow_latency_worst=flow_latency_worst,
        flow_hops=flow_hops,
        min_fraction=x,
        link_load=load,
        link_util=util,
        link_raw_util=raw_util,
        link_flits=link_flits,
        link_stalls=link_stalls,
        timescale=T,
        converged=converged,
        iterations=params.n_iter,
        residual=residual,
        residual_mean=residual_mean,
    )
