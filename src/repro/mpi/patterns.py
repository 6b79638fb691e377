"""Declarative communication phases.

An application iteration is a sequence of :class:`Phase` objects.  Each
phase carries:

* a point-to-point :class:`P2PSpec` — aggregated byte flows for the
  iteration plus the count of latency-exposed (non-overlapped) messages,
* a list of :class:`CollectiveSpec` — each lowered to flows by
  :mod:`repro.mpi.collectives`, with the latency-round count of its
  algorithm,
* a per-rank compute time.

The experiment harness resolves a phase with the fluid engine and turns
the result into wall-clock time::

    t_p2p  = max flow completion (bandwidth)
           + exposed_messages * mean flow latency        -> wait_op
    t_coll = rounds * mean round latency
           + max flow completion of the collective flows -> its MPI op
    t_phase = compute + t_p2p + sum(t_coll)

Traffic classes: within a phase, flows are tagged with a
:class:`TrafficOp` that the harness maps to a routing mode via the job's
:class:`~repro.mpi.env.RoutingEnv` (point-to-point and non-A2A
collectives use the main mode; Alltoall[v] uses the A2A mode, which is
AD1 by default in Cray MPI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


from repro.network.fluid import FlowSet
from repro.util import check_nonnegative


class TrafficOp(IntEnum):
    """Routing-relevant traffic categories within a phase."""

    P2P = 0  # point-to-point and non-alltoall collectives
    A2A = 1  # MPI_Alltoall[v] traffic (separate Cray MPI routing mode)


@dataclass
class P2PSpec:
    """Aggregated point-to-point traffic of one iteration.

    Attributes
    ----------
    flows:
        Byte flows for the whole iteration (bytes already multiplied by
        the number of inner messages they aggregate).
    exposed_messages:
        Number of per-rank message latencies *not* hidden behind compute
        (overlapped sends contribute bandwidth but no exposed latency).
    wait_op:
        MPI interface the wait time is attributed to (``MPI_Wait``,
        ``MPI_Waitall``, ``MPI_Recv``...).
    post_op:
        Interface charged with the (small, fixed) per-message posting
        overhead, typically ``MPI_Isend``.
    messages_per_rank:
        Total messages posted per rank per iteration (for call counts and
        posting overhead).
    overlap_fraction:
        Fraction of the exchange's drain time hidden behind computation
        (apps that interleave communication with compute — MILC's CG
        stencil — hide most of the bandwidth term; only the residual
        shows up in the wait call).
    """

    flows: FlowSet
    exposed_messages: float = 0.0
    wait_op: str = "MPI_Wait"
    post_op: str = "MPI_Isend"
    messages_per_rank: float = 0.0
    overlap_fraction: float = 0.0
    #: which statistic of the per-flow ambient latency prices an exposed
    #: message: "mean" for independent waits, "p90" for serialized
    #: pipelines where stragglers chain along the critical path
    latency_stat: str = "mean"

    def __post_init__(self) -> None:
        check_nonnegative("exposed_messages", self.exposed_messages)
        check_nonnegative("messages_per_rank", self.messages_per_rank)
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise ValueError("overlap_fraction must be in [0, 1)")


@dataclass
class CollectiveSpec:
    """One collective operation instance within a phase.

    Attributes
    ----------
    op:
        The MPI interface name (``MPI_Allreduce``, ``MPI_Alltoallv``...).
    flows:
        Flows carrying the collective's total traffic for the iteration
        (all rounds and all inner calls aggregated).
    rounds:
        Total latency-bound rounds for the iteration (e.g. calls per
        iteration x 2*log2(P) for recursive-doubling allreduce).
    traffic_op:
        :data:`TrafficOp.A2A` for Alltoall[v], else :data:`TrafficOp.P2P`.
    calls:
        MPI call count per rank per iteration.
    msg_bytes:
        Bytes passed into each call per rank (what AutoPerf reports as
        the interface's average bytes — e.g. 8 for MILC's allreduces —
        as opposed to the aggregate on-wire traffic in ``flows``).
    """

    op: str
    flows: FlowSet
    rounds: float
    traffic_op: TrafficOp = TrafficOp.P2P
    calls: float = 1.0
    msg_bytes: float = 0.0
    #: "global" collectives (allreduce/barrier/bcast trees) synchronize
    #: every round on the slowest participant — the paper's V-D point
    #: that collectives are limited by the slowest process.  "pairwise"
    #: rounds (alltoall exchanges) only synchronize each pair.
    sync: str = "global"

    def __post_init__(self) -> None:
        check_nonnegative("rounds", self.rounds)


@dataclass
class Phase:
    """One communication/compute phase of an application iteration.

    ``spread_time``: wall-clock over which the phase's traffic is
    actually spread.  Bursty exchanges leave it 0 (the burst drains at
    full rate, and utilization during the burst is what drives queueing
    and stalls).  Aggregates of many small calls interleaved with
    compute (e.g. a CG solver's per-iteration allreduces bundled into
    one phase) set it to the interleave window, so their *own* traffic
    does not masquerade as a single dense burst.
    """

    name: str
    compute_time: float
    p2p: P2PSpec | None = None
    collectives: list[CollectiveSpec] = field(default_factory=list)
    spread_time: float = 0.0

    def __post_init__(self) -> None:
        check_nonnegative("compute_time", self.compute_time)
        check_nonnegative("spread_time", self.spread_time)

    def total_bytes(self) -> float:
        """Total bytes moved by the phase per iteration."""
        total = 0.0
        if self.p2p is not None:
            total += float(self.p2p.flows.nbytes.sum())
        for c in self.collectives:
            total += float(c.flows.nbytes.sum())
        return total
