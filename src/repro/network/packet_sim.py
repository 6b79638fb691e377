"""Time-stepped packet-level network simulator.

The fluid engine resolves phases to equilibrium; this engine actually
moves packets.  It exists to (a) validate the fluid solver's routing
decisions with genuinely emergent queueing on small systems, (b) run
latency microbenchmarks where per-packet dynamics matter, and (c) back
the imperative :class:`repro.mpi.api.SimComm` MPI layer.

Model
-----
* Messages are segmented into 64-byte packets queued on their source
  NIC's **injection link**.
* Every directed link is a FIFO served at its capacity (fractional
  per-step credits with a one-step burst clamp).
* When a packet is served off its injection link (i.e. enters the source
  router), the **adaptive routing decision** runs: the best minimal and
  best non-minimal candidate sub-paths of its message are scored by
  summed queue occupancy (in credit units) and compared through
  :func:`repro.core.policy.minimal_preferred` with the message's routing
  mode — the same arithmetic the fluid solver uses fractionally.  A
  candidate crossing a dead link scores ``+inf``; a message with no
  finite candidate drops the packets.
* The decision reads a window of ``k_min + k_nonmin`` candidate rows
  starting at the message's first row: its minimal rows, then the
  rows after them as the non-minimal side.  A message that owns fewer
  than ``k_nonmin`` non-minimal rows (on a 2-group system Valiant
  yields one per flow) therefore also scores the next message's
  leading rows, and may route packets onto them; rows past the end of
  the table score ``+inf``.  This is the frozen reference's window,
  kept byte for byte; ROADMAP item 11 lists fixing it as a model
  change.
* Served packets advance to the next link of their chosen path; packets
  left waiting accrue one **stall** per step on their link, served
  packets accrue their **flits** — giving hardware-shaped counters.

Scale: the simulator is O(active packets) per step and intended for the
``toy``/``mini`` topologies and microbenchmark-sized traffic (up to ~1e5
packets); campaigns use the fluid engine.

Implementation notes (docs/PERFORMANCE.md has the full story)
-------------------------------------------------------------
Packet state lives in one preallocated capacity-doubling
structure-of-arrays block (``_ai``, one contiguous int64 row per field,
live prefix ``[:, :_n]``) instead of per-event ``np.concatenate``
growth, with swap-from-end removal when packets leave the simulation.
FIFO ranks are maintained incrementally — served packets vacate the
front of their queues and arrivals append behind the survivors — so the
per-step full ``np.lexsort`` of the naive formulation is needed only
for the queues a re-route, dead-link retransmit, or drop actually
perturbed.  Counter scatter-adds run as ``np.bincount`` kernels; every
count involved is an exact integer-valued float, so the results are
byte-identical to sequential ``np.add.at``
(``tests/test_golden_equivalence.py`` enforces this against the frozen
reference copy in ``tests/_reference_packet_sim.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.biases import RoutingMode
from repro.faults.model import FaultSchedule
from repro.guard.context import active_guard
from repro.guard.invariants import check_packet_state
from repro.network.congestion import PACKET_BYTES, FLIT_BYTES
from repro.telemetry import Telemetry, resolve_telemetry
from repro.topology.dragonfly import DragonflyTopology, LinkClass
from repro.topology.paths import MAX_HOPS
from repro.topology.pathcache import cached_minimal_paths, cached_valiant_paths

# rows of the packet-state block ``_ai`` (int64, shape (N_FIELDS, cap));
# each row is contiguous so a field's live slice is a plain view
MSG, ROW, HOP, LNK, SEQ, BIRTH, WSC, RETRY, RNK = range(9)
N_FIELDS = 9

#: "no pending activation" sentinel, far past any reachable step count
_NEVER = 1 << 62


@dataclass(frozen=True)
class PacketSimConfig:
    """Simulator tuning.

    Attributes
    ----------
    step_time:
        Seconds per simulation step.  At the default 50 ns a 5.25 GB/s
        rank-1 link serves ~4 packets per step.
    occupancy_credit_unit:
        Queued packets per credit unit when scoring candidate paths
        (hardware load estimates are coarse queue-depth buckets).
    k_min, k_nonmin:
        Candidate sub-paths per side per message.
    max_steps:
        Safety limit for :meth:`PacketSimulator.run`.
    """

    step_time: float = 50e-9
    occupancy_credit_unit: float = 4.0
    #: credit units a candidate is charged per router hop (the UGAL
    #: convention: a longer path means more downstream queue even when
    #: idle, so biased modes prefer minimal at zero load)
    hop_bias_credits: float = 0.25
    #: steps a packet may wait at its first router-output queue before the
    #: router re-runs the adaptive decision for it (Aries re-adapts while
    #: blocked; AD1's per-hop shift schedule applies at the retry).
    #: 0 disables re-routing.
    reroute_patience: int = 8
    #: times a packet stranded on a **dead** link may be retransmitted
    #: from its source NIC before it is dropped.  Independent of
    #: ``reroute_patience``: survivability retries still run when
    #: adaptive re-routing is disabled (patience 0).
    max_reroute_attempts: int = 4
    k_min: int = 2
    k_nonmin: int = 2
    max_steps: int = 200_000
    #: emit a ``packet.step`` trace event every this many steps while a
    #: trace sink is attached (0 disables the periodic events; the
    #: end-of-run ``packet.run`` summary is always emitted when tracing)
    trace_every: int = 0

    def __post_init__(self) -> None:
        if self.step_time <= 0:
            raise ValueError("step_time must be > 0")
        if self.occupancy_credit_unit <= 0:
            raise ValueError("occupancy_credit_unit must be > 0")
        if self.max_reroute_attempts < 0:
            raise ValueError("max_reroute_attempts must be >= 0")


@dataclass
class InjectionSpec:
    """One message to inject: ``src``/``dst`` node, size, mode, start step."""

    src: int
    dst: int
    nbytes: int
    mode: RoutingMode
    start_step: int = 0


@dataclass
class MessageStats:
    """Completion record for one injected message."""

    spec: InjectionSpec
    n_packets: int
    finish_step: int = -1
    min_packets: int = 0
    nonmin_packets: int = 0
    #: packets abandoned after exhausting dead-link retransmits; a
    #: message with drops still *finishes* (the sim would otherwise
    #: never drain) but is not fully delivered.
    dropped_packets: int = 0

    @property
    def done(self) -> bool:
        return self.finish_step >= 0

    @property
    def delivered(self) -> bool:
        return self.done and self.dropped_packets == 0

    def latency(self, step_time: float) -> float:
        """Message completion time in seconds (start -> last packet out)."""
        if not self.done:
            raise RuntimeError("message has not completed")
        return (self.finish_step - self.spec.start_step) * step_time


def _occurrence_index(dest: np.ndarray) -> np.ndarray:
    """Position of each element within its equal-value group, in order.

    ``dest`` is a batch of arrival links in seq-assignment order; the
    result is each arrival's offset behind earlier same-link arrivals of
    the batch.
    """
    order = np.argsort(dest, kind="stable")
    ds = dest[order]
    n = ds.size
    ar = np.arange(n)
    ng = np.empty(n, dtype=bool)
    ng[0] = True
    np.not_equal(ds[1:], ds[:-1], out=ng[1:])
    gs = np.maximum.accumulate(np.where(ng, ar, 0))
    out = np.empty(n, dtype=np.int64)
    out[order] = ar - gs
    return out


class PacketSimulator:
    """Packet-level simulator over a dragonfly topology."""

    def __init__(
        self,
        top: DragonflyTopology,
        config: PacketSimConfig | None = None,
        *,
        rng: np.random.Generator | None = None,
        telemetry: Telemetry | None = None,
        faults: FaultSchedule | None = None,
    ) -> None:
        self.config = config or PacketSimConfig()
        self.rng = rng or np.random.default_rng(0)
        self.telemetry = telemetry
        c = self.config

        # Faults: ``top`` is the pristine fabric; the simulator derives
        # the degraded view itself so timed specs can flip mid-run.
        self.faults = faults if faults else None
        self._base_top = top
        if self.faults is not None:
            top = top.with_faults(self.faults, at_time=0.0)
        self.top = top
        self._fault_changes: list[float] = (
            list(self.faults.change_times()) if self.faults is not None else []
        )

        # per-link service rate, packets per step; _dead lists the links
        # a fault has killed, which candidate scoring reads as +inf
        self._base_rate = self._base_top.capacity * c.step_time / PACKET_BYTES
        self.rate = top.capacity * c.step_time / PACKET_BYTES
        self._dead = np.zeros(0, dtype=np.int64)
        if self.faults is not None:
            self._dead = np.flatnonzero(self.rate <= 0.0)
        self.credit = np.zeros(top.n_links)
        self.flits = np.zeros(top.n_links)
        self.stalls = np.zeros(top.n_links)
        self._clamp = 2.0 * self.rate + 1.0  # one-step burst limit

        self.step = 0
        self._seq = 0
        #: adaptive re-route decisions re-run for blocked packets
        self.reroutes = 0
        #: packets retransmitted from their source NIC off a dead link
        self.retries = 0
        #: packets dropped after exhausting ``max_reroute_attempts``
        self.dropped = 0
        #: messages that have reached ``finish_step`` so far (maintained
        #: at completion/drop time; equals ``sum(1 for s in self.messages
        #: if s.done)`` at every step boundary)
        self.messages_done = 0

        # message bookkeeping
        self.messages: list[MessageStats] = []
        #: pending activations as (start_step, message id) pairs
        self._pending: list[tuple[int, int]] = []
        self._pending_min = _NEVER

        # per-message arenas for vectorized use; _msg_min/_msg_nonmin
        # accumulate the routing attribution and are mirrored into
        # MessageStats at step end
        self._msg_cap = 0
        self._msg_remaining = np.zeros(0, dtype=np.int64)
        self._msg_inj = np.zeros(0, dtype=np.int64)
        self._cand_start_arr = np.zeros(0, dtype=np.int64)
        self._msg_modegrp = np.zeros(0, dtype=np.int64)
        self._msg_min = np.zeros(0, dtype=np.int64)
        self._msg_nonmin = np.zeros(0, dtype=np.int64)
        self._mid_lut = np.zeros(0, dtype=np.int64)
        self._mode_registry: list[RoutingMode] = []
        self._mode_ids: dict[int, int] = {}
        self._attr_dirty = False

        # candidate paths, stacked: per message k_min minimal rows then
        # its non-minimal rows, in capacity-doubling arenas (live prefix
        # [:_cand_rows], followed by one window of padding rows that
        # score +inf).  _cand_safe/_cand_bias are the precomputed
        # scoring geometry: sentinel-masked link columns 1.. and the
        # hop-count bias term of each row.
        L = self.top.n_links
        self._L = L
        self._cand_rows = 0
        self._cand_links = np.zeros((0, MAX_HOPS), dtype=np.int64)
        self._cand_safe = np.zeros((0, MAX_HOPS - 1), dtype=np.int64)
        self._cand_bias = np.zeros(0, dtype=np.float64)

        # packet arenas (live prefix [:, :_n] / [:_n])
        self._n = 0
        self._cap = 0
        self._ai = np.zeros((N_FIELDS, 0), dtype=np.int64)
        self._a_flits = np.zeros(0, dtype=np.float64)
        self._a_drop = np.zeros(0, dtype=bool)
        self._pkt_latencies: list[np.ndarray] = []

        # incremental queue state: per-link live-packet counts, the
        # dirty-queue set whose FIFO ranks need a rebuild at step end,
        # and preallocated scratch
        self._qlen = np.zeros(L, dtype=np.int64)
        self._link_dirty = np.zeros(L, dtype=bool)
        self._any_dirty = False
        self._dropped_flagged = 0
        self._occ_scratch = np.zeros(L + 1, dtype=np.float64)
        self._budget = np.zeros(L, dtype=np.float64)
        self._inj_mask = self.top.link_class == int(LinkClass.INJECTION)
        # per-packet scratch (sized with _cap) so the serve decision
        # allocates nothing
        self._sf = np.zeros(0, dtype=np.float64)
        self._si = np.zeros(0, dtype=np.int64)
        self._sb = np.zeros(0, dtype=bool)
        #: earliest step at which a hop-1 packet could be re-route
        #: eligible; lets quiet steps skip the O(n) stuck scan entirely
        self._stuck_check_at = _NEVER

        # cadence sampling (repro.telemetry.series); created lazily in
        # run() when the telemetry bundle carries a SeriesConfig, so
        # unobserved runs pay one None-check per step and nothing else
        self._series = None
        self._series_every = 0
        self._series_next = 0
        self._series_flits = 0.0
        self._series_stalls = 0.0
        self._series_lat_idx = 0

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def add_message(self, spec: InjectionSpec) -> int:
        """Register a message; returns its message id."""
        if spec.src == spec.dst:
            raise ValueError("src and dst must differ")
        if not (0 <= spec.src < self.top.n_nodes and 0 <= spec.dst < self.top.n_nodes):
            raise ValueError("node index out of range")
        if spec.nbytes <= 0:
            raise ValueError("nbytes must be > 0")
        if spec.start_step < self.step:
            raise ValueError("start_step is in the past")
        c = self.config
        src = np.array([spec.src])
        dst = np.array([spec.dst])
        bmin = cached_minimal_paths(self.top, src, dst, k=c.k_min, rng=self.rng)
        bnon = cached_valiant_paths(self.top, src, dst, k=c.k_nonmin, rng=self.rng)
        self._n_min_cand = bmin.links.shape[0]  # same for every message
        mid = len(self.messages)
        n_pkts = int(np.ceil(spec.nbytes / PACKET_BYTES))
        start_row = self._append_candidates(bmin.links, bnon.links)
        self.messages.append(MessageStats(spec=spec, n_packets=n_pkts))

        if mid >= self._msg_cap:
            new_cap = max(16, self._msg_cap * 2)
            for name in (
                "_msg_remaining",
                "_msg_inj",
                "_cand_start_arr",
                "_msg_modegrp",
                "_msg_min",
                "_msg_nonmin",
                "_mid_lut",
            ):
                old = getattr(self, name)
                buf = np.zeros(new_cap, dtype=np.int64)
                buf[:mid] = old[:mid]
                setattr(self, name, buf)
            self._msg_cap = new_cap
        self._msg_remaining[mid] = n_pkts
        self._msg_inj[mid] = self.top.injection_link(spec.src)
        self._cand_start_arr[mid] = start_row
        grp = self._mode_ids.get(id(spec.mode))
        if grp is None:
            grp = len(self._mode_registry)
            self._mode_registry.append(spec.mode)
            self._mode_ids[id(spec.mode)] = grp
        self._msg_modegrp[mid] = grp

        self._pending.append((spec.start_step, mid))
        if spec.start_step < self._pending_min:
            self._pending_min = spec.start_step
        return mid

    def _append_candidates(self, links_min: np.ndarray, links_non: np.ndarray) -> int:
        """Append one message's candidate rows to the arenas, then one
        window of padding rows; returns the first row index."""
        km = links_min.shape[0]
        k = km + links_non.shape[0]
        r0 = self._cand_rows
        need = r0 + k
        pad = need + km + self.config.k_nonmin
        cap = self._cand_links.shape[0]
        if pad > cap:
            new_cap = max(64, cap)
            while new_cap < pad:
                new_cap *= 2
            for name in ("_cand_links", "_cand_safe", "_cand_bias"):
                old = getattr(self, name)
                shape = (new_cap,) + old.shape[1:]
                buf = np.empty(shape, dtype=old.dtype)
                buf[:r0] = old[:r0]
                setattr(self, name, buf)
        block = self._cand_links[r0:need]
        block[:km] = links_min
        block[km:] = links_non
        order = np.argsort(block < 0, axis=1, kind="stable")
        block[:] = np.take_along_axis(block, order, axis=1)
        valid = block >= 0
        self._cand_safe[r0:need] = np.where(valid[:, 1:], block[:, 1:], self._L)
        self._cand_bias[r0:need] = self.config.hop_bias_credits * valid[:, 1:].sum(axis=1)
        # a window running past the last message's rows must never pick
        # a row there: the padding scores +inf
        self._cand_safe[need:pad] = self._L
        self._cand_bias[need:pad] = np.inf
        self._cand_rows = need
        return r0

    def _activate_pending(self) -> None:
        """Enqueue packets of messages whose start step has arrived."""
        due = [p for p in self._pending if p[0] <= self.step]
        self._pending = [p for p in self._pending if p[0] > self.step]
        self._pending_min = min((p[0] for p in self._pending), default=_NEVER)
        for _, mid in due:
            stats = self.messages[mid]
            n_pkts = stats.n_packets
            tail = stats.spec.nbytes - (n_pkts - 1) * PACKET_BYTES
            flits = np.full(n_pkts, PACKET_BYTES / FLIT_BYTES)
            flits[-1] = max(1.0, np.ceil(tail / FLIT_BYTES))
            self._append_packets(mid, int(self._msg_inj[mid]), flits)

    def _append_packets(self, mid: int, link: int, flits: np.ndarray) -> None:
        n_new = flits.size
        need = self._n + n_new
        if need > self._cap:
            new_cap = max(256, self._cap)
            while new_cap < need:
                new_cap *= 2
            buf = np.empty((N_FIELDS, new_cap), dtype=np.int64)
            buf[:, : self._n] = self._ai[:, : self._n]
            self._ai = buf
            for name, dtype in (("_a_flits", np.float64), ("_a_drop", np.bool_)):
                old = getattr(self, name)
                fbuf = np.empty(new_cap, dtype=dtype)
                fbuf[: self._n] = old[: self._n]
                setattr(self, name, fbuf)
            self._sf = np.empty(new_cap, dtype=np.float64)
            self._si = np.empty(new_cap, dtype=np.int64)
            self._sb = np.empty(new_cap, dtype=bool)
            self._cap = new_cap
        a, b = self._n, need
        blk = self._ai[:, a:b]
        blk[MSG] = mid
        blk[ROW] = -1
        blk[HOP] = 0
        blk[LNK] = link
        blk[SEQ] = np.arange(self._seq, self._seq + n_new, dtype=np.int64)
        self._seq += n_new
        blk[BIRTH] = self.step
        # "wait" is derived: a packet's wait count after this step's
        # increment is (step - wsince); fresh packets are waiting in the
        # step that injects them, hence the -1
        blk[WSC] = self.step - 1
        blk[RETRY] = 0
        self._a_flits[a:b] = flits
        self._a_drop[a:b] = False
        # join the back of the injection queue, in arrival order
        blk[RNK] = self._qlen[link] + np.arange(n_new, dtype=np.int64)
        self._qlen[link] += n_new
        self._n = b

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return self._n

    @property
    def idle(self) -> bool:
        return self._n == 0 and not self._pending

    def occupancy(self) -> np.ndarray:
        """Current queued-packet count per link."""
        return self._qlen.astype(np.float64)

    def advance(self) -> None:
        """Execute one simulation step."""
        if self._fault_changes and self.now >= self._fault_changes[0]:
            while self._fault_changes and self.now >= self._fault_changes[0]:
                self._fault_changes.pop(0)
            self._apply_fault_state()
        if self._pending_min <= self.step:
            self._activate_pending()
        n = self._n
        if n == 0:
            self.step += 1
            self._maybe_trace_step()
            return

        L = self._L
        ai = self._ai
        lk = ai[LNK, :n]
        rank = ai[RNK, :n]
        qlen = self._qlen
        credit = self.credit

        # replenish credits on links with waiting packets (burst-clamped)
        active = qlen > 0
        np.add(credit, self.rate, out=credit, where=active)
        np.minimum(credit, self._clamp, out=credit, where=active)
        # the first floor(credit) packets of each link's FIFO are served
        budget = np.floor(credit, out=self._budget)
        bl = np.take(budget, lk, out=self._sf[:n])
        served_m = np.less(rank, bl, out=self._sb[:n])
        sidx = served_m.nonzero()[0]
        slk = lk[sidx]
        scnt = np.bincount(slk, minlength=L)

        # account service and stalls
        if sidx.size:
            self.flits += np.bincount(slk, weights=self._a_flits[sidx], minlength=L)
            credit -= scnt
            # survivors shift toward the queue front; served entries of
            # `rank` become garbage until their packets re-queue
            rank -= np.take(scnt, lk, out=self._si[:n])
        # post-service queue depth, which is both the per-link stall
        # increment (one per still-waiting packet) and the FIFO position
        # the next arrival takes
        flen = qlen - scnt
        all_served = sidx.size == n
        if not all_served:
            self.stalls += flen

        patience = self.config.reroute_patience

        # packets stranded on a link that died mid-run can never be
        # served there: retransmit them from their source NIC (bounded
        # by max_reroute_attempts, then dropped).  This runs even with
        # reroute_patience=0 — survivability is not adaptivity.
        if self.faults is not None and not all_served:
            dead_w = ~served_m & (self.rate[lk] <= 0.0)
            if dead_w.any():
                due_m = dead_w & (ai[WSC, :n] <= self.step - max(1, patience))
                due = due_m.nonzero()[0]
                if due.size:
                    # enumerate in (link, seq) order: the retransmit seq
                    # assignment is observable through FIFO ordering
                    due = due[np.lexsort((ai[SEQ, due], lk[due]))]
                    self._retry_dead(due)

        # a packet stuck at its first router-output queue gets its
        # adaptive decision re-run (with hops_taken=1, so AD1's schedule
        # has started ramping).  This must run before the served packets
        # advance, against the queue state they still occupy.
        # _stuck_check_at is a conservative lower bound on the earliest
        # step any hop-1 packet could be eligible, so quiet steps skip
        # the scan entirely.
        if patience > 0 and not all_served and self.step >= self._stuck_check_at:
            h1 = ai[HOP, :n] == 1
            h1 &= ~served_m
            if self.faults is not None:
                h1 &= ~self._a_drop[:n]
                h1 &= self.rate[ai[LNK, :n]] > 0.0
            wsince = ai[WSC, :n]
            stuck_m = h1 & (wsince <= self.step - patience)
            stuck = stuck_m.nonzero()[0]
            if stuck.size:
                old_links = ai[LNK, stuck]
                self._route(stuck, hops_taken=1, at_hop=1)
                ai[WSC, stuck] = self.step
                self.reroutes += int(stuck.size)
                new_links = ai[LNK, stuck]
                qlen += np.bincount(new_links, minlength=L)
                qlen -= np.bincount(old_links, minlength=L)
                # old seqs land mid-queue on the new links: rebuild both
                # ends' FIFO ranks at step end
                self._link_dirty[old_links] = True
                self._link_dirty[new_links] = True
                self._any_dirty = True
                h1 &= ~stuck_m
                nxt = self.step + patience
                if h1.any():
                    nxt = min(nxt, int(wsince[h1].min()) + patience)
            else:
                nxt = int(wsince[h1].min()) + patience if h1.any() else _NEVER
            self._stuck_check_at = nxt

        ai[WSC, sidx] = self.step
        if sidx.size:
            self._advance_served(sidx, flen)
        if self._dropped_flagged:
            self._flush_drops()
        self.step += 1
        if self._any_dirty:
            self._rebuild_dirty_ranks()
        if self._attr_dirty:
            self._sync_attribution()
        self._maybe_trace_step()

    def _sync_attribution(self) -> None:
        """Mirror the vectorized routing attribution into MessageStats."""
        mn = self._msg_min
        nmn = self._msg_nonmin
        for i, st in enumerate(self.messages):
            st.min_packets = int(mn[i])
            st.nonmin_packets = int(nmn[i])
        self._attr_dirty = False

    def _apply_fault_state(self) -> None:
        """Recompute per-link rates after a timed fault/recovery edge."""
        assert self.faults is not None
        scale = self.faults.capacity_scale(self._base_top, at_time=self.now)
        new_rate = self._base_rate if scale is None else self._base_rate * scale
        newly_dead = (new_rate <= 0.0) & (self.rate > 0.0)
        recovered = (new_rate > 0.0) & (self.rate <= 0.0) & (self._base_rate > 0.0)
        self.rate = new_rate
        self._clamp = 2.0 * new_rate + 1.0
        self._dead = np.flatnonzero(new_rate <= 0.0)
        # rate edges change which hop-1 packets are re-route eligible
        # (the dead-link exclusion): re-arm the stuck scan
        self._stuck_check_at = self.step
        if newly_dead.any():
            self.credit[newly_dead] = 0.0
        # later add_message calls should route around the current state
        self.top = self._base_top.with_faults(self.faults, at_time=self.now)
        tel = resolve_telemetry(self.telemetry)
        if tel.trace.enabled:
            tel.event(
                "packet.fault",
                step=self.step,
                t=self.now,
                links_died=int(newly_dead.sum()),
                links_recovered=int(recovered.sum()),
            )

    def _retry_dead(self, pkts: np.ndarray) -> None:
        """Retransmit packets stranded on dead links; drop repeat offenders.

        ``pkts`` are arena indices in (link, seq) order.
        """
        ai = self._ai
        ai[RETRY, pkts] += 1
        over = ai[RETRY, pkts] > self.config.max_reroute_attempts
        give_up = pkts[over]
        retry = pkts[~over]
        if give_up.size:
            self._a_drop[give_up] = True
            self._dropped_flagged += int(give_up.size)
        if retry.size == 0:
            return
        old_links = ai[LNK, retry]
        # the packets will be routed from scratch
        self._unattribute(retry)
        ai[LNK, retry] = self._msg_inj[ai[MSG, retry]]
        ai[ROW, retry] = -1
        ai[HOP, retry] = 0
        ai[WSC, retry] = self.step
        ai[SEQ, retry] = np.arange(self._seq, self._seq + retry.size, dtype=np.int64)
        self._seq += retry.size
        self.retries += int(retry.size)
        new_links = ai[LNK, retry]
        L = self._L
        self._qlen += np.bincount(new_links, minlength=L)
        self._qlen -= np.bincount(old_links, minlength=L)
        self._link_dirty[old_links] = True
        self._link_dirty[new_links] = True
        self._any_dirty = True

    def _flush_drops(self) -> None:
        """Remove packets flagged for dropping and settle their messages."""
        n = self._n
        drop = np.flatnonzero(self._a_drop[:n])
        self._dropped_flagged = 0
        if drop.size == 0:
            return
        self.dropped += int(drop.size)
        for mid, cnt in zip(*np.unique(self._ai[MSG, drop], return_counts=True)):
            mid = int(mid)
            self.messages[mid].dropped_packets += int(cnt)
            self._msg_remaining[mid] -= int(cnt)
            if self._msg_remaining[mid] == 0:
                self.messages[mid].finish_step = self.step + 1
                self.messages_done += 1
        tel = resolve_telemetry(self.telemetry)
        if tel.trace.enabled:
            tel.event("packet.drop", step=self.step, dropped=int(drop.size))
        dl = self._ai[LNK, drop]
        self._qlen -= np.bincount(dl, minlength=self._L)
        self._link_dirty[dl] = True
        self._any_dirty = True
        self._remove(drop)

    def _maybe_trace_step(self) -> None:
        """Periodic queue-state event (``trace_every`` steps apart)."""
        every = self.config.trace_every
        if every <= 0 or self.step % every:
            return
        tel = resolve_telemetry(self.telemetry)
        if not tel.trace.enabled:
            return
        occ = self.occupancy()
        tel.event(
            "packet.step",
            step=self.step,
            active_packets=self.n_active,
            pending_messages=len(self._pending),
            queued_max=float(occ.max()) if occ.size else 0.0,
            busy_links=int((occ > 0).sum()),
            stall_ratio=self.stall_to_flit_ratio(),
        )

    def _advance_served(self, sidx: np.ndarray, flen: np.ndarray) -> None:
        ai = self._ai
        L = self._L
        qlen = self._qlen
        # enumerate served packets in (link, FIFO) order — the order the
        # per-tick lexsort of the naive formulation yields, observable
        # through seq assignment and the completion-latency batches
        so = sidx[np.lexsort((ai[SEQ, sidx], ai[LNK, sidx]))]
        so_links = ai[LNK, so]
        is_inj = self._inj_mask[so_links]
        entering = so[is_inj]
        edrop = None

        # 1. packets leaving their injection link: route them now.  The
        # chosen row's first link (column 1) is where they queue next,
        # so they advance no further this step — otherwise the first
        # router-output queue would be skipped entirely and the hop-1
        # re-route window could never open.
        if entering.size:
            self._route(entering)
            # freshly routed packets sit at hop 1 from now on: they
            # become re-route eligible patience steps out
            nxt = self.step + self.config.reroute_patience
            if nxt < self._stuck_check_at:
                self._stuck_check_at = nxt
            if self.faults is not None:
                edrop = self._a_drop[entering]
            routed = entering if edrop is None or not edrop.any() else entering[~edrop]
            ai[SEQ, routed] = np.arange(
                self._seq, self._seq + routed.size, dtype=np.int64
            )
            self._seq += routed.size
            rest = so[~is_inj]
        else:
            routed = entering
            rest = so

        # all served packets vacate their queues, except entering packets
        # whose routing found no live candidate (they keep their link
        # until the end-of-step drop flush)
        qlen -= np.bincount(so_links, minlength=L)
        if edrop is not None and edrop.any():
            qlen += np.bincount(so_links[is_inj][edrop], minlength=L)

        # 2. all other served packets advance one hop along their row
        if rest.size:
            hop = ai[HOP, rest] + 1
            ncol = self._cand_links.shape[1]
            next_link = self._cand_links[ai[ROW, rest], np.minimum(hop, ncol - 1)]
            valid = (hop < ncol) & (next_link >= 0)
            moving = rest[valid]
            done = rest[~valid]
            if moving.size:
                ml = next_link[valid]
                ai[HOP, moving] = hop[valid]
                ai[LNK, moving] = ml
                ai[SEQ, moving] = np.arange(
                    self._seq, self._seq + moving.size, dtype=np.int64
                )
                self._seq += moving.size
            else:
                ml = moving
        else:
            moving = done = rest
            ml = rest

        # one combined arrival batch, in seq-assignment order (routed
        # packets took their new seqs before moving ones): each arrival
        # queues behind this step's survivors and earlier batch arrivals
        # to the same link
        nr = routed.size
        if nr or moving.size:
            dest = np.empty(nr + moving.size, dtype=np.int64)
            dest[:nr] = ai[LNK, routed]
            dest[nr:] = ml
            ranks = flen[dest] + _occurrence_index(dest)
            ai[RNK, routed] = ranks[:nr]
            ai[RNK, moving] = ranks[nr:]
            qlen += np.bincount(dest, minlength=L)

        if done.size:
            self._complete(done)
            self._remove(done)

    @staticmethod
    def _hard_decision(
        mode: RoutingMode, lm: np.ndarray, ln: np.ndarray, hops_taken: int
    ) -> np.ndarray:
        """:func:`repro.core.policy.minimal_preferred` with the scalar
        ``hops_taken`` shift resolved up front — same arithmetic, fewer
        array dispatches on the per-step path."""
        if mode.increasing:
            sched = mode.hop_shift_schedule
            shift = sched[min(hops_taken, len(sched) - 1)]
        else:
            shift = mode.shift
        return lm <= np.ldexp(ln, shift) + mode.add

    def _route(self, packets: np.ndarray, *, hops_taken: int = 0, at_hop: int = 1) -> None:
        """(Re-)run the adaptive decision for packets at the source router.

        ``at_hop`` is the path column the packets will occupy on the
        chosen row (1 right after injection; also 1 when a blocked
        packet is re-routed to a different output port of the same
        router).  ``hops_taken`` feeds AD1's per-hop shift schedule.

        Every affected message is scored in one batch: its window of
        ``_n_min_cand + k_nonmin`` rows from its first candidate row is
        gathered as one (messages x window) score matrix through the
        sentinel-extended occupancy table.  Dead links read ``+inf``
        occupancy, so a row crossing one scores ``+inf``, as do the
        padding rows past the end of the table; a message whose whole
        window scores ``+inf`` has its packets flagged for drop.
        """
        c = self.config
        L = self._L
        ai = self._ai
        mids = ai[MSG, packets]
        # bincount-based unique: message ids are dense small ints, so a
        # count + scatter lookup beats np.unique's sort
        cnt = np.bincount(mids, minlength=len(self.messages))
        umids = cnt.nonzero()[0]
        U = umids.size
        lut = self._mid_lut
        lut[umids] = np.arange(U)
        nm = self._n_min_cand
        W = nm + c.k_nonmin
        starts = self._cand_start_arr[umids]
        occ_ext = self._occ_scratch
        occ_ext[:L] = self._qlen  # == occupancy(); occ_ext[L] stays 0.0
        occ_ext[self._dead] = np.inf

        ridx = (starts[:, None] + np.arange(W)).ravel()
        s = occ_ext[self._cand_safe[ridx]].sum(axis=1)
        s /= c.occupancy_credit_unit
        s += self._cand_bias[ridx]
        S = s.reshape(U, W)
        smin = S[:, :nm]
        snon = S[:, nm:]
        bm = np.argmin(smin, axis=1)
        lm = smin.min(axis=1)
        bn = np.argmin(snon, axis=1)
        ln = snon.min(axis=1)
        # an infinite side loses the comparison: lm <= ldexp(inf) + add
        # holds and inf <= finite does not
        if len(self._mode_registry) == 1:
            tm = self._hard_decision(self._mode_registry[0], lm, ln, hops_taken)
        else:
            tm = np.empty(U, dtype=bool)
            grp = self._msg_modegrp[umids]
            for g in np.unique(grp):
                gsel = grp == g
                tm[gsel] = self._hard_decision(
                    self._mode_registry[g], lm[gsel], ln[gsel], hops_taken
                )
        chosen = starts + np.where(tm, bm, nm + bn)

        live = np.minimum(lm, ln) < np.inf
        if not live.all():
            # no surviving candidate at all: drop these packets, leaving
            # their row and attribution as they were
            pdrop = ~live[lut[mids]]
            self._a_drop[packets[pdrop]] = True
            self._dropped_flagged += int(pdrop.sum())
            packets = packets[~pdrop]
            mids = mids[~pdrop]
            umids = umids[live]
            tm = tm[live]

        # apply the per-message decision to every affected packet; the
        # attribution lands in the _msg_min/_msg_nonmin accumulators and
        # is mirrored into MessageStats at the end of the step
        self._unattribute(packets)
        cnt_u = cnt[umids]
        self._msg_min[umids[tm]] += cnt_u[tm]
        self._msg_nonmin[umids[~tm]] += cnt_u[~tm]
        self._attr_dirty = True
        row_pp = chosen[lut[mids]]
        ai[ROW, packets] = row_pp
        ai[HOP, packets] = at_hop
        ai[LNK, packets] = self._cand_links[row_pp, at_hop]

    def _unattribute(self, packets: np.ndarray) -> None:
        """Un-count already routed packets from their message's side."""
        ai = self._ai
        rows = ai[ROW, packets]
        routed = rows >= 0
        if not routed.any():
            return
        mids = ai[MSG, packets[routed]]
        prev_min = rows[routed] - self._cand_start_arr[mids] < self._n_min_cand
        M = len(self.messages)
        self._msg_min[:M] -= np.bincount(mids[prev_min], minlength=M)
        self._msg_nonmin[:M] -= np.bincount(mids[~prev_min], minlength=M)
        self._attr_dirty = True

    def _complete(self, done: np.ndarray) -> None:
        ai = self._ai
        lat = ((self.step + 1) - ai[BIRTH, done]).astype(np.float64)
        lat *= self.config.step_time
        self._pkt_latencies.append(lat)
        M = len(self.messages)
        cnts = np.bincount(ai[MSG, done], minlength=M)
        rem = self._msg_remaining
        rem[:M] -= cnts
        fin = ((rem[:M] == 0) & (cnts > 0)).nonzero()[0]
        for mid in fin:
            self.messages[int(mid)].finish_step = self.step + 1
            self.messages_done += 1

    def _remove(self, idx: np.ndarray) -> None:
        """Drop arena columns ``idx``, filling holes from the live tail."""
        k = idx.size
        if k == 0:
            return
        new_n = self._n - k
        in_tail = idx >= new_n
        holes = idx[~in_tail]
        if holes.size:
            keep_tail = np.ones(k, dtype=bool)
            keep_tail[idx[in_tail] - new_n] = False
            src = new_n + keep_tail.nonzero()[0]
            self._ai[:, holes] = self._ai[:, src]
            self._a_flits[holes] = self._a_flits[src]
            self._a_drop[holes] = self._a_drop[src]
        self._n = new_n

    def _rebuild_dirty_ranks(self) -> None:
        """Recompute FIFO ranks of the queues perturbed this step."""
        n = self._n
        dirty = self._link_dirty
        if n:
            lk = self._ai[LNK, :n]
            sel = dirty[lk].nonzero()[0]
            if sel.size:
                sl = lk[sel]
                order = np.lexsort((self._ai[SEQ, sel], sl))
                ss = sl[order]
                ng = np.ones(ss.size, dtype=bool)
                ng[1:] = ss[1:] != ss[:-1]
                gs = np.maximum.accumulate(np.where(ng, np.arange(ss.size), 0))
                self._ai[RNK, sel[order]] = np.arange(ss.size) - gs
        dirty[:] = False
        self._any_dirty = False

    # ------------------------------------------------------------------
    def run(self, *, max_steps: int | None = None) -> int:
        """Step until idle (or the step limit); returns steps executed."""
        limit = max_steps if max_steps is not None else self.config.max_steps
        start = self.step
        tel = resolve_telemetry(self.telemetry)
        # None unless a GuardPolicy is active; the unguarded loop pays
        # one None-check per step and nothing else
        guard = active_guard()
        trace_steps = self.config.trace_every > 0 and tel.trace.enabled
        can_skip = guard is None and not self._fault_changes and not trace_steps
        if tel.series is not None and self._series is None:
            self._series_init(tel.series)
        # idle fast-forward stays legal with sampling on: counters do
        # not move while the arena is empty, so the catch-up sample
        # after the jump emits the same (empty) windows step-by-step
        # execution would
        rec = self._series
        t0 = time.perf_counter() if tel.enabled else 0.0
        while not self.idle:
            if self.step - start >= limit:
                raise RuntimeError(
                    f"packet simulation did not drain within {limit} steps "
                    f"({self.n_active} packets active)"
                )
            if self._n == 0 and can_skip:
                # idle stretch: nothing can happen until the earliest
                # pending activation, so take it in closed form (capped
                # at the step limit so overruns still raise above)
                target = min(self._pending_min, start + limit)
                if target > self.step:
                    self.step = target
                    continue
            self.advance()
            if rec is not None and self.step >= self._series_next:
                self._sample_series(rec)
            if guard is not None:
                guard.tick_steps(1, where="packet.run")
                if guard.check_invariants and (self.step - start) % 64 == 0:
                    check_packet_state(guard, self)
        steps = self.step - start
        if guard is not None and guard.check_invariants and steps:
            check_packet_state(guard, self)
        if tel.enabled:
            wall = time.perf_counter() - t0
            step_wall = wall / steps if steps else 0.0
            m = tel.metrics
            if m.enabled:
                m.counter("packet_steps_total", "packet-sim steps executed").inc(steps)
                m.counter(
                    "packet_messages_total", "messages drained by packet-sim runs"
                ).inc(self.messages_done)
                m.histogram("packet_run_seconds", "wall time per packet-sim run").observe(
                    wall
                )
                if steps:
                    m.histogram(
                        "engine_step_seconds", "mean wall time per packet-sim step"
                    ).observe(step_wall)
                if self.dropped:
                    m.counter(
                        "packet_drops_total", "packets dropped on dead links"
                    ).inc(self.dropped)
            tel.event(
                "packet.run",
                steps=steps,
                sim_time_s=self.now,
                messages=len(self.messages),
                messages_done=self.messages_done,
                flits=float(self.flits.sum()),
                stalls=float(self.stalls.sum()),
                stall_ratio=self.stall_to_flit_ratio(),
                reroutes=self.reroutes,
                retries=self.retries,
                dropped=self.dropped,
                wall_ms=wall * 1e3,
                step_us=step_wall * 1e6,
            )
        return steps

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.step * self.config.step_time

    # ------------------------------------------------------------------
    # cadence sampling (sim-time keyed; never touches a wall clock)
    # ------------------------------------------------------------------
    def _series_init(self, cfg) -> None:
        from repro.telemetry.series import CadenceRecorder

        self._series = CadenceRecorder(cfg)
        self._series_every = max(1, int(round(cfg.cadence / self.config.step_time)))
        self._series_next = self.step + self._series_every
        self._series_flits = float(self.flits.sum())
        self._series_stalls = float(self.stalls.sum())
        self._series_lat_idx = 0

    def _sample_series(self, rec) -> None:
        """Record flit/stall deltas and new packet latencies at ``now``."""
        f = float(self.flits.sum())
        s = float(self.stalls.sum())
        rec.add(self.now, f - self._series_flits, s - self._series_stalls)
        self._series_flits = f
        self._series_stalls = s
        chunks = self._pkt_latencies
        for arr in chunks[self._series_lat_idx :]:
            rec.observe_latency(arr)
        self._series_lat_idx = len(chunks)
        while self._series_next <= self.step:
            self._series_next += self._series_every

    def counter_series(self):
        """Finalize and return the run's cadence series.

        ``None`` when the run was not sampled (no
        :class:`~repro.telemetry.series.SeriesConfig` on the telemetry
        bundle).  Idempotent after the first call.
        """
        rec = self._series
        if rec is None:
            return None
        if rec.result is None:
            self._sample_series(rec)
            rec.finalize(
                self.now, float(self.flits.sum()), float(self.stalls.sum())
            )
        return rec.result

    def packet_latencies(self) -> np.ndarray:
        """Latencies (seconds) of all completed packets."""
        if not self._pkt_latencies:
            return np.zeros(0)
        return np.concatenate(self._pkt_latencies)

    def stall_to_flit_ratio(self) -> float:
        """Aggregate network stalls-to-flits ratio observed so far."""
        cls = self.top.link_class
        net = cls <= int(LinkClass.RANK3)
        f = self.flits[net].sum()
        return float(self.stalls[net].sum() / f) if f > 0 else 0.0
