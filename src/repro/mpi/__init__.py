"""Simulated MPI layer.

Two complementary views of MPI traffic:

* **declarative** (:mod:`~repro.mpi.patterns`,
  :mod:`~repro.mpi.collectives`) — applications describe each iteration
  as a :class:`~repro.mpi.patterns.Phase` of point-to-point flows and
  collective operations; collectives lower to flows + latency-round
  counts through the standard algorithms (recursive doubling, pairwise
  exchange, dissemination).  The fluid engine consumes these.
* **imperative** (:mod:`~repro.mpi.api`) — a rank-level ``SimComm`` with
  ``isend/irecv/wait/allreduce/alltoall/barrier`` executing on the
  packet simulator, for examples and microbenchmarks.

Routing-mode selection follows Cray MPI's environment variables
(:mod:`~repro.mpi.env`): ``MPICH_GNI_ROUTING_MODE`` for most operations
(default ``ADAPTIVE_0``), ``MPICH_GNI_A2A_ROUTING_MODE`` for
``MPI_Alltoall[v]`` (default ``ADAPTIVE_1``).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".patterns": "Phase CollectiveSpec P2PSpec TrafficOp",
    ".collectives": "allreduce_flows alltoall_flows alltoallv_flows barrier_flows "
    "bcast_flows allgather_flows reduce_flows gather_flows scatter_flows",
    ".env": "RoutingEnv",
    ".api": "SimComm Request",
})
