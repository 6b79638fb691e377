"""Qbox — first-principles molecular dynamics (plane-wave DFT).

Communication (Table I): **medium alltoallv (128 KB)** on column
sub-communicators from the plane-wave transposes, plus **medium 50 KB
point-to-point** with blocking receives from the dense-linear-algebra
(ScaLAPACK-style) layer.  Top interfaces: ``MPI_Alltoallv``,
``MPI_Recv``, ``MPI_Wait``.  66% of runtime in MPI at 256 nodes — the
most communication-bound app in the set; paper AD0 mean 677.3 s, with a
4.8% AD3 improvement.

Model: ranks form a near-square process grid; each iteration runs
alltoallv over the grid columns (A2A traffic class, so it follows the
``MPICH_GNI_A2A_ROUTING_MODE`` setting) and a blocking-recv halo over
grid rows.
"""

from __future__ import annotations

import numpy as np

from repro import mpi, network
from repro.apps.base import Application, grid_dims
from repro.util import KiB


class Qbox(Application):
    """Column alltoallv + row blocking point-to-point."""

    name = "Qbox"
    scaling = "strong"
    base_nodes = 256
    reference_runtime = 677.3
    reference_mpi_fraction = 0.66

    #: alltoallv calls per outer iteration (wavefunction transposes)
    a2a_calls_per_iter = 40
    #: per-pair bytes within a column alltoallv
    a2a_pair_bytes = 128 * KiB
    #: per-message bytes of the row exchange
    row_msg_bytes = 50 * KiB
    #: small blocking pipeline messages per rank per iteration
    pipe_msgs_per_iter = 800
    #: row-exchange messages per rank per iteration (blocking recv)
    row_msgs_per_iter = 60
    #: compute seconds per outer iteration at the reference size
    compute_per_iter = 0.029

    def n_iterations(self, P: int) -> int:
        return 7900

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = np.asarray(nodes, dtype=np.int64)
        P = nodes.size
        s = self.scale_factor(P)
        rows, cols = grid_dims(P, 2)

        # column alltoallv: ranks r, r+cols, r+2*cols, ... share a column.
        # Per-pair bytes are sized so each rank's aggregate transpose
        # volume strong-scales (the wavefunction data is fixed): at the
        # 256-node reference the column holds 16 ranks and pairs carry
        # the Table-I 128 KB.
        ref_partners = int(np.sqrt(self.base_nodes)) - 1
        col_size = P // cols
        pair_bytes = self.a2a_pair_bytes * s * ref_partners / max(col_size - 1, 1)
        col_parts: list[network.FlowSet] = []
        rounds_total = 0.0
        for c in range(cols):
            members = nodes[np.arange(c, P, cols)]
            if members.size < 2:
                continue
            fl, rounds = mpi.alltoallv_flows(
                members,
                pair_bytes,
                imbalance=0.3,
                max_partners=16,
                rng=rng,
            )
            col_parts.append(fl)
            rounds_total = rounds  # same size per column; rounds not summed
        a2a = mpi.CollectiveSpec(
            op="MPI_Alltoallv",
            flows=network.FlowSet.concat(col_parts).scaled(self.a2a_calls_per_iter),
            rounds=rounds_total * self.a2a_calls_per_iter,
            traffic_op=mpi.TrafficOp.A2A,
            calls=self.a2a_calls_per_iter,
            msg_bytes=pair_bytes,
            sync="pairwise",
        )

        # row halo with blocking receives
        ranks = np.arange(P)
        right = (ranks // cols) * cols + (ranks + 1) % cols
        keep = right != ranks
        row = network.FlowSet(
            nodes[ranks[keep]],
            nodes[right[keep]],
            np.full(int(keep.sum()), self.row_msg_bytes * s * self.row_msgs_per_iter),
            np.zeros(int(keep.sum()), dtype=np.int64),
        )
        p2p = mpi.P2PSpec(
            flows=row,
            exposed_messages=float(self.row_msgs_per_iter),  # blocking
            wait_op="MPI_Recv",
            post_op="MPI_Send",
            messages_per_rank=float(self.row_msgs_per_iter),
            overlap_fraction=0.4,  # ScaLAPACK lookahead hides part of it
        )

        # dense-linear-algebra pipeline: many small blocking receives
        # interleaved with the DGEMMs (latency-exposed, mode-sensitive)
        down = (ranks + cols) % P
        keep2 = down != ranks
        pipe = network.FlowSet(
            nodes[ranks[keep2]],
            nodes[down[keep2]],
            np.full(int(keep2.sum()), 2 * KiB * self.pipe_msgs_per_iter),
            np.zeros(int(keep2.sum()), dtype=np.int64),
        )
        pipe_spec = mpi.P2PSpec(
            flows=pipe,
            exposed_messages=float(self.pipe_msgs_per_iter),
            wait_op="MPI_Recv",
            post_op="MPI_Send",
            messages_per_rank=float(self.pipe_msgs_per_iter),
            latency_stat="p90",  # serialized pipeline: stragglers chain
        )

        return [
            mpi.Phase(
                name="wf_transpose",
                compute_time=self.compute_per_iter * s,
                p2p=p2p,
                collectives=[a2a],
            ),
            mpi.Phase(
                name="dgemm_pipeline",
                compute_time=0.0,
                p2p=pipe_spec,
                spread_time=self.compute_per_iter * s,
            ),
        ]
