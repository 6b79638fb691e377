"""Synthetic microbenchmark applications.

One app per network-boundness class of Section II-E, used for controlled
characterization, the advisor's unit tests, and the ablation benches:

* :class:`LatencyBound` — an allreduce storm of 8-byte messages:
  pure small-message latency; should prefer AD3 under load.
* :class:`BisectionBound` — large-message random-permutation traffic:
  pure global-bandwidth; should prefer AD0/non-minimal headroom.
* :class:`InjectionBound` — each rank streams to one fixed partner at
  NIC rate; the NIC is the bottleneck, so routing mode is irrelevant.
* :class:`ComputeBound` — negligible communication; routing-insensitive.
"""

from __future__ import annotations

import numpy as np

from repro import mpi, network
from repro.apps.base import Application, random_pair_flows
from repro.util import MiB


class LatencyBound(Application):
    """8-byte allreduce storm (latency-bound)."""

    name = "latencybound"
    scaling = "strong"
    reference_mpi_fraction = 0.9
    allreduces_per_iter = 400
    compute_per_iter = 0.002

    def n_iterations(self, P: int) -> int:
        return 1000

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = np.asarray(nodes, dtype=np.int64)
        fl, rounds = mpi.allreduce_flows(nodes, 8.0)
        coll = mpi.CollectiveSpec(
            op="MPI_Allreduce",
            flows=fl.scaled(self.allreduces_per_iter),
            rounds=rounds * self.allreduces_per_iter,
            calls=self.allreduces_per_iter,
        )
        return [
            mpi.Phase(
                name="allreduce_storm",
                compute_time=self.compute_per_iter * self.scale_factor(nodes.size),
                collectives=[coll],
            )
        ]


class BisectionBound(Application):
    """Large-message random-permutation streams (bisection-bound)."""

    name = "bisectionbound"
    scaling = "strong"
    reference_mpi_fraction = 0.8
    partners = 8
    msg_bytes = 4 * MiB
    compute_per_iter = 0.004

    def n_iterations(self, P: int) -> int:
        return 500

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = np.asarray(nodes, dtype=np.int64)
        fl = random_pair_flows(nodes, self.partners, self.msg_bytes * self.scale_factor(nodes.size), rng)
        p2p = mpi.P2PSpec(
            flows=fl,
            exposed_messages=0.0,
            wait_op="MPI_Wait",
            messages_per_rank=float(self.partners),
        )
        return [
            mpi.Phase(
                name="permutation_stream",
                compute_time=self.compute_per_iter * self.scale_factor(nodes.size),
                p2p=p2p,
            )
        ]


class InjectionBound(Application):
    """Fixed-partner NIC-rate streams (message-rate / injection-bound)."""

    name = "injectionbound"
    scaling = "strong"
    reference_mpi_fraction = 0.8
    msg_bytes = 8 * MiB
    compute_per_iter = 0.002

    def n_iterations(self, P: int) -> int:
        return 500

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = np.asarray(nodes, dtype=np.int64)
        P = nodes.size
        # pair adjacent ranks (typically the same or a neighboring
        # router): the NIC, not any network link, is the bottleneck, so
        # the routing mode cannot matter
        partner = np.arange(P) ^ 1
        partner = np.where(partner < P, partner, np.arange(P))
        keep = partner != np.arange(P)
        src = nodes[np.arange(P)[keep]]
        dst = nodes[partner[keep]]
        fl = network.FlowSet(
            src,
            dst,
            np.full(int(keep.sum()), self.msg_bytes * self.scale_factor(P)),
            np.zeros(int(keep.sum()), dtype=np.int64),
        )
        p2p = mpi.P2PSpec(flows=fl, exposed_messages=0.0, wait_op="MPI_Wait", messages_per_rank=1.0)
        return [
            mpi.Phase(
                name="nic_stream",
                compute_time=self.compute_per_iter * self.scale_factor(P),
                p2p=p2p,
            )
        ]


class ComputeBound(Application):
    """Almost no communication (routing-insensitive)."""

    name = "computebound"
    scaling = "strong"
    reference_mpi_fraction = 0.02
    compute_per_iter = 0.05

    def n_iterations(self, P: int) -> int:
        return 1000

    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        nodes = np.asarray(nodes, dtype=np.int64)
        fl, rounds = mpi.allreduce_flows(nodes, 8.0)
        coll = mpi.CollectiveSpec(op="MPI_Allreduce", flows=fl, rounds=rounds, calls=1.0)
        return [
            mpi.Phase(
                name="compute",
                compute_time=self.compute_per_iter * self.scale_factor(nodes.size),
                collectives=[coll],
            )
        ]
