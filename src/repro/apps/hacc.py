"""HACC — cosmological N-body (the paper's bisection-bound exception).

Communication (Section IV-C, Table I): dominated by a **3D-FFT
pencil-transpose pattern over effectively random rank pairs**, using
asynchronous send/recv of **large (1.2 MB) messages** that stress the
global (rank-3) bisection — these show up as ``MPI_Wait``.  A light
neighbor-wise particle exchange and occasional 1 KB allreduces complete
the picture.  Only 22% of runtime is MPI at 256 nodes; paper AD0 mean
442.9 s.

HACC is the one application that *loses* under AD3 (-2.7%): forcing the
FFT's bisection traffic onto the few minimal rank-3 cables of each group
pair concentrates load (Fig. 12's localized rank-3 stall peaks and
backpressure flit inflation), while AD0's non-minimal paths spread it.
The model reproduces this through the fluid solver: the transpose flows
are large and rank-3-bound, so their completion time is set by bundle
bandwidth — minimal-only routing halves the usable path set.
"""

from __future__ import annotations

import numpy as np

from repro import mpi
from repro.apps.base import Application, grid_dims, random_pair_flows, stencil_flows
from repro.util import KiB, MiB


class HACC(Application):
    """3D-FFT transpose (bisection-bound) plus particle exchange."""

    name = "HACC"
    scaling = "strong"
    base_nodes = 256
    reference_runtime = 442.9
    reference_mpi_fraction = 0.22

    #: FFT transposes per outer iteration (forward + inverse pencils)
    transposes_per_iter = 3
    #: random partners per rank per transpose
    fft_partners = 12
    #: message size per partner (the paper's 1.2 MB sends)
    fft_msg_bytes = 1.2 * MiB
    #: per-neighbor particle-exchange bytes per iteration
    particle_msg_bytes = 192 * KiB
    #: 1 KB allreduces per iteration
    allreduces_per_iter = 8
    #: compute seconds per outer iteration at the reference size
    compute_per_iter = 0.060

    def n_iterations(self, P: int) -> int:
        return 5600

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = np.asarray(nodes, dtype=np.int64)
        P = nodes.size
        s = self.scale_factor(P)

        fft = random_pair_flows(
            nodes,
            self.fft_partners,
            self.fft_msg_bytes * s * self.transposes_per_iter,
            rng,
        )
        fft_spec = mpi.P2PSpec(
            flows=fft,
            # large async messages: latency fully hidden, Wait is pure
            # bandwidth time
            exposed_messages=0.0,
            wait_op="MPI_Wait",
            post_op="MPI_Isend",
            messages_per_rank=self.fft_partners * self.transposes_per_iter,
        )

        dims3 = grid_dims(P, 3)
        particles = stencil_flows(nodes, dims3, self.particle_msg_bytes * s)
        particle_spec = mpi.P2PSpec(
            flows=particles,
            exposed_messages=2.0,
            wait_op="MPI_Waitall",
            post_op="MPI_Isend",
            messages_per_rank=2 * sum(1 for d in dims3 if d > 1),
        )

        ar_flows, ar_rounds = mpi.allreduce_flows(nodes, 1 * KiB)
        allreduce = mpi.CollectiveSpec(
            op="MPI_Allreduce",
            flows=ar_flows.scaled(self.allreduces_per_iter),
            rounds=ar_rounds * self.allreduces_per_iter,
            traffic_op=mpi.TrafficOp.P2P,
            calls=self.allreduces_per_iter,
            msg_bytes=1 * KiB,
        )

        return [
            mpi.Phase(
                name="fft_transpose",
                compute_time=self.compute_per_iter * s,
                p2p=fft_spec,
            ),
            mpi.Phase(name="particle_exchange", compute_time=0.0, p2p=particle_spec),
            mpi.Phase(
                name="global_sums",
                compute_time=0.0,
                collectives=[allreduce],
                spread_time=self.compute_per_iter * s,
            ),
        ]
