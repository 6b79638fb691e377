"""MILC — lattice QCD (su3_rmd-style), the paper's primary case study.

Communication (paper Section IV, Table I): a **4D stencil** with
overlapped ``MPI_Isend``/``MPI_Irecv`` neighbor exchange of KB-range
messages, punctuated by **frequent 8-byte ``MPI_Allreduce``** calls from
the CG solver — making the application latency-bound at the end of every
neighbor exchange.  Top MPI interfaces by time: ``MPI_Allreduce``,
``MPI_Wait``, ``MPI_Isend``.  52% of runtime in MPI at 256 nodes; strong
scaling; paper AD0 mean 542.6 s at 256 nodes on Theta.

``MILCReorder`` is the paper's MILCREORDER variant: the same code with a
topology-aware rank reordering that places grid-adjacent ranks on
adjacent nodes, shortening stencil paths (its top interface becomes
``MPI_Wait``; AD0 mean 509.6 s).

Model constants (at the 256-node reference):

* one outer iteration bundles ``cg_per_iter`` CG iterations,
* each CG iteration exchanges one ``stencil_msg_bytes`` message per 4D
  neighbor (8 of them) and performs two 8-byte allreduces,
* a fraction ``exposed_fraction`` of the per-message latencies is not
  hidden by the computation overlap.
"""

from __future__ import annotations

import numpy as np

from repro import mpi
from repro.apps.base import Application, grid_dims, stencil_flows
from repro.util import KiB


class MILC(Application):
    """4D-stencil lattice QCD with frequent small allreduces."""

    name = "MILC"
    scaling = "strong"
    base_nodes = 256
    reference_runtime = 542.6
    reference_mpi_fraction = 0.52

    #: CG iterations bundled into one outer iteration
    cg_per_iter = 2400
    #: per-neighbor message size per CG iteration at the reference size
    stencil_msg_bytes = 48 * KiB
    #: allreduce calls per CG iteration (residual + alpha)
    allreduces_per_cg = 2
    #: fraction of stencil message latencies exposed (not overlapped)
    exposed_fraction = 0.35
    #: fraction of the exchange drain hidden behind CG compute
    overlap_fraction = 0.85
    #: compute seconds per outer iteration at the reference size
    compute_per_iter = 0.245
    #: whether ranks are topology-reordered (MILCREORDER)
    reorder = False

    def n_iterations(self, P: int) -> int:
        return 1150

    def rank_to_node(self, nodes: np.ndarray) -> np.ndarray:
        """Rank placement onto the allocated nodes.

        Plain MILC uses the scheduler's rank order; MILCREORDER's
        surface optimization enters through its reduced message volume.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if not self.reorder:
            return nodes
        # the reordered variant keeps the scheduler's (already contiguous)
        # order; its gain is the smaller per-node halo surface, which is
        # expressed through the reduced ``stencil_msg_bytes``
        return nodes

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = self.rank_to_node(nodes)
        P = nodes.size
        s = self.scale_factor(P)
        dims = grid_dims(P, 4)

        msg = self.stencil_msg_bytes * s
        stencil = stencil_flows(nodes, dims, msg * self.cg_per_iter)
        msgs_per_rank = 2 * sum(1 for d in dims if d > 1) * self.cg_per_iter
        p2p = mpi.P2PSpec(
            flows=stencil,
            exposed_messages=self.exposed_fraction * msgs_per_rank,
            wait_op="MPI_Wait",
            post_op="MPI_Isend",
            messages_per_rank=msgs_per_rank,
            overlap_fraction=self.overlap_fraction,
        )

        ar_calls = self.allreduces_per_cg * self.cg_per_iter
        ar_flows, ar_rounds = mpi.allreduce_flows(nodes, 8.0)
        allreduce = mpi.CollectiveSpec(
            op="MPI_Allreduce",
            flows=ar_flows.scaled(ar_calls),
            rounds=ar_rounds * ar_calls,
            traffic_op=mpi.TrafficOp.P2P,
            calls=ar_calls,
            msg_bytes=8.0,
        )

        # the paper: "at the end of each neighbor exchange the application
        # is latency bound by small message Allreduces" — the allreduces
        # run after the exchange drains, so they see background (not the
        # stencil burst) on their paths: separate phases.
        return [
            mpi.Phase(
                name="stencil_exchange",
                compute_time=self.compute_per_iter * s,
                p2p=p2p,
                # per-CG-iteration exchange bursts interleave with the
                # CG compute, so the sustained utilization that drives
                # the stall counters is measured over the full window
                spread_time=self.compute_per_iter * s,
            ),
            mpi.Phase(
                name="cg_allreduce",
                compute_time=0.0,
                collectives=[allreduce],
                spread_time=self.compute_per_iter * s,
            ),
        ]


class MILCReorder(MILC):
    """MILC with topology-aware rank reordering (paper's MILCREORDER).

    The reordered build packs 4D sub-blocks onto nodes so each node's
    halo surface (and with it the off-node message volume) shrinks, and
    batches the CG reductions; the remaining communication is relatively
    more exchange-wait than allreduce, which is why ``MPI_Wait`` tops its
    Table-I profile while the mean runtime drops to 509.6 s.
    """

    name = "MILCREORDER"
    reference_runtime = 509.6
    reference_mpi_fraction = 0.50
    reorder = True
    stencil_msg_bytes = int(40 * KiB)
    compute_per_iter = 0.24

    def n_iterations(self, P: int) -> int:
        return 1000
