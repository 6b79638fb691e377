"""Rayleigh — pseudo-spectral convection (dynamo simulation).

Communication (Table I): essentially **no point-to-point**; dominated by
**heavy ``MPI_Alltoallv`` (23 MB aggregate per call)** from the global
spectral transposes, with some ``MPI_Send`` staging and ``MPI_Barrier``.
28% of runtime in MPI at 256 nodes; paper AD0 mean 653.1 s.  The paper
measures Rayleigh as routing-insensitive (0.2% difference): its traffic
is a *uniform* bisection-bound alltoall, for which minimal routing across
the (uniformly loaded) group-pair bundles and non-minimal spreading give
the same saturated throughput.

Model: one global alltoallv per transpose with per-pair bytes sized so
the aggregate per-call buffer is ``a2a_total_bytes``; a light send
pipeline and per-iteration barriers.
"""

from __future__ import annotations

import numpy as np

from repro import mpi, network
from repro.apps.base import Application
from repro.util import KiB, MiB


class Rayleigh(Application):
    """Global heavy alltoallv, barrier-synchronized."""

    name = "Rayleigh"
    scaling = "strong"
    base_nodes = 256
    reference_runtime = 653.1
    reference_mpi_fraction = 0.28

    #: aggregate per-rank buffer per alltoallv call (Table I's 23 MB)
    a2a_total_bytes = 23 * MiB
    #: transposes (alltoallv calls) per outer iteration
    a2a_calls_per_iter = 1
    #: staging sends per rank per iteration
    sends_per_iter = 2
    send_bytes = 256 * KiB
    #: barriers per outer iteration
    barriers_per_iter = 4
    #: compute seconds per outer iteration at the reference size
    compute_per_iter = 0.055

    def n_iterations(self, P: int) -> int:
        return 8500

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = np.asarray(nodes, dtype=np.int64)
        P = nodes.size
        s = self.scale_factor(P)

        per_pair = self.a2a_total_bytes * s / max(P - 1, 1)
        fl, rounds = mpi.alltoallv_flows(
            nodes, per_pair, imbalance=0.2, max_partners=64, rng=rng
        )
        a2a = mpi.CollectiveSpec(
            op="MPI_Alltoallv",
            flows=fl.scaled(self.a2a_calls_per_iter),
            rounds=rounds * self.a2a_calls_per_iter,
            traffic_op=mpi.TrafficOp.A2A,
            calls=self.a2a_calls_per_iter,
            msg_bytes=self.a2a_total_bytes * s,
            sync="pairwise",
        )

        bfl, brounds = mpi.barrier_flows(nodes)
        barrier = mpi.CollectiveSpec(
            op="MPI_Barrier",
            flows=bfl.scaled(self.barriers_per_iter),
            rounds=brounds * self.barriers_per_iter,
            traffic_op=mpi.TrafficOp.P2P,
            calls=self.barriers_per_iter,
        )

        # staging pipeline: blocking sends up the radial decomposition
        ring = network.FlowSet(
            nodes,
            np.roll(nodes, -1),
            np.full(P, self.send_bytes * s * self.sends_per_iter),
            np.zeros(P, dtype=np.int64),
        )
        p2p = mpi.P2PSpec(
            flows=ring,
            exposed_messages=float(self.sends_per_iter),
            wait_op="MPI_Send",
            post_op="MPI_Send",
            messages_per_rank=float(self.sends_per_iter),
        )

        # barriers run between transposes against a drained network, not
        # inside the alltoallv burst
        return [
            mpi.Phase(
                name="spectral_transpose",
                compute_time=self.compute_per_iter * s,
                p2p=p2p,
                collectives=[a2a],
            ),
            mpi.Phase(
                name="sync",
                compute_time=0.0,
                collectives=[barrier],
                spread_time=self.compute_per_iter * s,
            ),
        ]
