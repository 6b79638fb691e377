"""Nek5000 — spectral-element CFD.

Communication (Table I): **medium KB-range point-to-point** from the
gather-scatter (``gs``) nearest-neighbor exchange on the unstructured
spectral-element mesh, plus **light 16-byte collectives** from the
iterative solvers.  Top interfaces: ``MPI_Allreduce``, ``MPI_Waitall``,
``MPI_Recv``.  48% of runtime in MPI at 256 nodes; strong scaling; paper
AD0 mean 467.1 s.  The paper measures a modest 2.2% AD3 improvement —
the exchange is mostly local and the collectives light.

Model: a locality-weighted random graph of degree ``gs_degree`` stands in
for the mesh adjacency (spectral-element meshes are partitioned for
locality, so most neighbors are nearby ranks); pressure/velocity solves
contribute small allreduces and a blocking-receive pipeline stage.
"""

from __future__ import annotations

import numpy as np

from repro import mpi, network
from repro.apps.base import Application
from repro.util import KiB


class Nek5000(Application):
    """Gather-scatter CFD with light small collectives."""

    name = "Nek5000"
    scaling = "strong"
    base_nodes = 256
    reference_runtime = 467.1
    reference_mpi_fraction = 0.48

    #: mesh-graph neighbors per rank
    gs_degree = 12
    #: rank-distance scale of the locality-weighted neighbor sampling
    locality_scale = 8.0
    #: inner solver iterations bundled per outer iteration
    solves_per_iter = 420
    #: per-neighbor bytes per solve iteration at the reference size
    gs_msg_bytes = 4 * KiB
    #: 16-byte allreduces per solve iteration
    allreduces_per_solve = 1.0
    #: fraction of exchange latencies exposed (gs waits on all neighbors)
    exposed_fraction = 0.25
    #: compute seconds per outer iteration at the reference size
    compute_per_iter = 0.038

    def n_iterations(self, P: int) -> int:
        return 7700

    def _mesh_flows(
        self, nodes: np.ndarray, nbytes: float, rng: np.random.Generator
    ) -> network.FlowSet:
        """Locality-weighted degree-``gs_degree`` neighbor flows."""
        P = nodes.size
        k = min(self.gs_degree, P - 1)
        ranks = np.repeat(np.arange(P), k)
        # geometric-ish rank offsets: mostly close, occasionally far
        raw = rng.geometric(p=min(0.9, 1.0 / self.locality_scale), size=ranks.size)
        sign = rng.choice((-1, 1), size=ranks.size)
        partners = (ranks + sign * raw) % P
        clash = partners == ranks
        partners[clash] = (ranks[clash] + 1) % P
        return network.FlowSet(
            nodes[ranks],
            nodes[partners],
            np.full(ranks.size, float(nbytes)),
            np.zeros(ranks.size, dtype=np.int64),
        )

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = np.asarray(nodes, dtype=np.int64)
        P = nodes.size
        s = self.scale_factor(P)

        gs = self._mesh_flows(nodes, self.gs_msg_bytes * s * self.solves_per_iter, rng)
        msgs_per_rank = self.gs_degree * self.solves_per_iter
        p2p = mpi.P2PSpec(
            flows=gs,
            exposed_messages=self.exposed_fraction * msgs_per_rank,
            wait_op="MPI_Waitall",
            post_op="MPI_Irecv",
            messages_per_rank=msgs_per_rank,
            overlap_fraction=0.3,
        )

        ar_calls = self.allreduces_per_solve * self.solves_per_iter
        ar_flows, ar_rounds = mpi.allreduce_flows(nodes, 16.0)
        allreduce = mpi.CollectiveSpec(
            op="MPI_Allreduce",
            flows=ar_flows.scaled(ar_calls),
            rounds=ar_rounds * ar_calls,
            traffic_op=mpi.TrafficOp.P2P,
            calls=ar_calls,
            msg_bytes=16.0,
        )

        # a blocking-receive pipeline stage (coarse-grid solve gathers)
        ring = network.FlowSet(
            nodes,
            np.roll(nodes, -1),
            np.full(P, 2 * KiB * s * 20),
            np.zeros(P, dtype=np.int64),
        )
        pipeline = mpi.P2PSpec(
            flows=ring,
            exposed_messages=20.0,
            wait_op="MPI_Recv",
            post_op="MPI_Send",
            messages_per_rank=20.0,
        )

        # the small solver allreduces run between gs exchanges, against
        # background congestion rather than the exchange burst
        return [
            mpi.Phase(name="gs_exchange", compute_time=self.compute_per_iter * s, p2p=p2p),
            mpi.Phase(
                name="solver_allreduce",
                compute_time=0.0,
                collectives=[allreduce],
                spread_time=self.compute_per_iter * s,
            ),
            mpi.Phase(name="coarse_grid", compute_time=0.0, p2p=pipeline),
        ]
