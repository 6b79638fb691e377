"""Production background-traffic synthesis.

A production run of the paper's target applications shared the machine
with whatever else was scheduled; all of that traffic was routed with the
system default (AD0 before the facilities' change, AD3 after).  This
module converts a sampled active-job mix into a per-link **utilization
field** by

1. placing each job (production-fragmented placement),
2. emitting its archetype's byte-rate flows (stencil, alltoall,
   allreduce, bisection streams, I/O incast, or quiet),
3. routing everything with the default
   :class:`~repro.mpi.env.RoutingEnv` through the fluid engine in
   fixed-duration (rate) mode.

Campaigns draw scenarios from a pre-built pool (scenario construction is
the expensive part) and jitter the overall intensity per run, which is
how the paper's "wide range of production congestion scenarios over four
months" enters the simulation.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.mpi.collectives import alltoall_flows, allreduce_flows
from repro.mpi.env import RoutingEnv
from repro.network.fluid import FlowSet, FluidParams, solve_fluid
from repro.scheduler.jobs import Job
from repro.scheduler.placement import FreeNodePool, production_placement
from repro.scheduler.workload import WorkloadModel
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import advance_paths
from repro.util import GB
from repro.apps.base import grid_dims, random_pair_flows, stencil_flows

#: per-node aggregate byte rates (bytes/s) by archetype, at intensity 1.0.
#: These are *busy-phase* rates: the intensity jitter models duty cycle,
#: and the levels are calibrated so production stalls-to-flits ratios and
#: latency tails land in the paper's observed ranges (Figs. 11, 14).
ARCHETYPE_RATES: dict[str, float] = {
    "stencil": 2.8 * GB,
    "alltoall": 3.6 * GB,
    "allreduce": 0.5 * GB,
    "bisection": 4.5 * GB,
    "io_incast": 1.5 * GB,
    "quiet": 0.1 * GB,
}


@dataclass
class BackgroundScenario:
    """One ambient-congestion snapshot.

    ``util`` is the per-link utilization field at intensity 1.0;
    :meth:`at_intensity` rescales it for per-run jitter.
    """

    util: np.ndarray
    n_jobs: int
    fill: float
    default_env: RoutingEnv

    def at_intensity(self, intensity: float) -> np.ndarray:
        """Utilization field scaled by ``intensity`` (clipped to 0.9)."""
        return np.clip(self.util * intensity, 0.0, 0.9)


def _job_flows(
    job: Job,
    nodes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[FlowSet, FlowSet]:
    """(p2p-class flows, a2a-class flows) at 1-second rate volumes."""
    rate = ARCHETYPE_RATES[job.archetype]
    P = nodes.size
    empty = FlowSet.empty()
    if P < 2 or rate <= 0:
        return empty, empty
    if job.archetype == "stencil":
        # 64 ranks per node fan a node's halo out to many neighbor nodes;
        # model the node-level adjacency as ~12 partners (3D grid plus
        # the diagonal/secondary surfaces), which spreads the local load
        # the way real multi-rank-per-node stencils do
        dims = grid_dims(P, 3)
        n_dirs = 2 * sum(1 for d in dims if d > 1)
        near = stencil_flows(nodes, dims, 0.5 * rate / max(n_dirs, 1))
        far = random_pair_flows(nodes, min(6, P - 1), 0.5 * rate / min(6, max(P - 1, 1)), rng)
        return FlowSet.concat([near, far]), empty
    if job.archetype == "alltoall":
        fl, _ = alltoall_flows(nodes, rate / (P - 1), max_partners=8, rng=rng)
        return empty, fl
    if job.archetype == "allreduce":
        fl, _ = allreduce_flows(nodes, 8.0)
        # many calls per second; scale the 8-byte rounds up to the rate
        calls = rate * P / max(fl.nbytes.sum(), 1.0)
        return fl.scaled(calls), empty
    if job.archetype == "bisection":
        return random_pair_flows(nodes, min(8, P - 1), rate / min(8, P - 1), rng), empty
    if job.archetype == "io_incast":
        # everyone streams to a handful of I/O-forwarding endpoints; the
        # forwarder's ingest (``rate``) is the bottleneck, so each source
        # contributes its fair share of one target's ingest — incast
        # pressure without physically impossible ejection demand
        n_io = max(1, P // 64)
        targets = nodes[rng.choice(P, size=n_io, replace=False)]
        src = np.repeat(nodes, 1)
        dst = targets[rng.integers(0, n_io, size=P)]
        keep = src != dst
        per_src = 2.0 * rate * n_io / max(P, 1)
        return (
            FlowSet(src[keep], dst[keep], np.full(int(keep.sum()), per_src), np.zeros(int(keep.sum()), dtype=np.int64)),
            empty,
        )
    if job.archetype == "quiet":
        return random_pair_flows(nodes, 1, rate, rng), empty
    raise KeyError(f"unknown archetype {job.archetype!r}")


@dataclass
class BackgroundModel:
    """Builds and pools background scenarios for a system."""

    top: DragonflyTopology
    workload: WorkloadModel | None = None
    default_env: RoutingEnv = field(default_factory=RoutingEnv)
    target_fill: float = 0.85
    #: log-normal intensity jitter applied per run.  A run averages over
    #: many transient congestion episodes, so the *effective* per-run
    #: intensity is tighter than the instantaneous load swing.
    intensity_log_mean: float = np.log(0.62)
    intensity_log_sigma: float = 0.34

    def __post_init__(self) -> None:
        if self.workload is None:
            self.workload = WorkloadModel(self.top)

    def build_scenario(
        self,
        rng: np.random.Generator,
        *,
        reserve_nodes: int = 0,
        solve: bool = True,
    ) -> BackgroundScenario | None:
        """Sample a job mix, place it, and solve for the utilization field.

        The solve stops at the link field, the only part a scenario
        reads.  With ``solve=False`` it is skipped and ``None`` returned,
        but :func:`~repro.topology.paths.advance_paths` makes the solve's
        path draws (its only use of ``rng``) without building the tables,
        so later scenarios drawn from ``rng`` are unchanged.
        """
        jobs = self.workload.sample_active_jobs(
            rng, target_fill=self.target_fill, reserve_nodes=reserve_nodes
        )
        pool = FreeNodePool(self.top)
        p2p_parts: list[FlowSet] = []
        a2a_parts: list[FlowSet] = []
        placed = 0
        for job in jobs:
            if pool.n_free < job.n_nodes + reserve_nodes:
                continue
            nodes = production_placement(self.top, job.n_nodes, rng, pool=pool)
            job.nodes = nodes
            p2p, a2a = _job_flows(job, nodes, rng)
            if p2p.n:
                p2p_parts.append(p2p.with_class(0))
            if a2a.n:
                a2a_parts.append(a2a.with_class(1))
            placed += job.n_nodes
        flows = FlowSet.concat(p2p_parts + a2a_parts)
        params = FluidParams(k_min=2, k_nonmin=2, n_iter=4)
        if not solve:
            advance_paths(
                self.top, flows.src, flows.dst,
                k_min=params.k_min, k_nonmin=params.k_nonmin, rng=rng,
            )
            return None
        res = solve_fluid(
            self.top,
            flows,
            [self.default_env.p2p_mode, self.default_env.a2a_mode],
            rng=rng,
            params=params,
            fixed_duration=1.0,
            link_field_only=True,
        )
        return BackgroundScenario(
            util=np.clip(res.link_raw_util, 0.0, 0.95),
            n_jobs=len([j for j in jobs if j.nodes is not None]),
            fill=placed / self.top.n_nodes,
            default_env=self.default_env,
        )

    def build_pool(
        self,
        n_scenarios: int,
        rng: np.random.Generator,
        *,
        reserve_nodes: int = 0,
        solve: Collection[int] | None = None,
    ) -> list[BackgroundScenario | None]:
        """Pre-build a pool of scenarios for campaign sampling.

        ``solve`` names the slots to solve (default: all); every other
        slot is ``None``.  Each slot draws from ``rng`` in order whether
        solved or not, so a solved slot holds the same scenario as in
        the full pool, while an unsolved one builds no path table.
        """
        return [
            self.build_scenario(
                rng,
                reserve_nodes=reserve_nodes,
                solve=solve is None or slot in solve,
            )
            for slot in range(n_scenarios)
        ]

    def solve_pool(
        self,
        rng: np.random.Generator,
        order: Sequence[int],
        on_solved: Callable[[int, BackgroundScenario], None],
        *,
        reserve_nodes: int = 0,
    ) -> None:
        """Solve the slots ``order`` of :meth:`build_pool`, in that order.

        Each slot is passed to ``on_solved(slot, scenario)`` as soon as it
        is done, and not kept.  The draws run in slot order, as in
        ``build_pool(..., solve=order)``: a slot is solved when reached if
        it is next in ``order``; a slot wanted later is built then from a
        copy of ``rng`` taken when it was reached, so every slot holds the
        same scenario as in the eager pool.
        """
        pending = list(order)
        marks: dict[int, np.random.Generator] = {}
        slot = 0
        while pending:
            if pending[0] in marks:
                on_solved(pending[0], self.build_scenario(
                    marks.pop(pending[0]), reserve_nodes=reserve_nodes
                ))
            elif pending[0] == slot:
                on_solved(slot, self.build_scenario(rng, reserve_nodes=reserve_nodes))
                slot += 1
            else:
                if slot in pending:
                    marks[slot] = copy.deepcopy(rng)
                self.build_scenario(rng, reserve_nodes=reserve_nodes, solve=False)
                slot += 1
                continue
            pending.pop(0)

    def sample_intensity(self, rng: np.random.Generator) -> float:
        """Per-run intensity jitter."""
        return float(
            np.clip(rng.lognormal(self.intensity_log_mean, self.intensity_log_sigma), 0.05, 1.3)
        )
