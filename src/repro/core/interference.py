"""Pairwise job-interference analysis.

Section II-C of the paper discusses how a job's exposure to *other*
jobs' traffic depends on sizes, placements, and routing; its related
work cites the "watch out for the bully" study (Yang et al., SC'16).
This module quantifies that directly: run a victim application twice —
once alone, once sharing the machine with a single aggressor job of a
given traffic archetype — and report the slowdown.  Sweeping archetypes
and routing modes yields the interference matrix facilities use to
reason about co-scheduling, and shows how the AD3 default shrinks the
bully effect for latency-bound victims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import Application
from repro.core.biases import RoutingMode
from repro.core.experiment import mask_endpoint_background, run_app_once
from repro.mpi.env import RoutingEnv
from repro.network.fluid import FluidParams, solve_fluid
from repro.scheduler.background import _job_flows
from repro.scheduler.jobs import Job
from repro.scheduler.placement import FreeNodePool, production_placement
from repro.topology.dragonfly import DragonflyTopology
from repro.util import derive_rng

#: aggressor traffic archetypes swept by default
DEFAULT_AGGRESSORS = ("stencil", "alltoall", "bisection", "io_incast")


@dataclass(frozen=True)
class InterferenceEntry:
    """One (victim, aggressor, mode) measurement."""

    victim: str
    aggressor: str
    mode: str
    baseline: float
    disturbed: float

    @property
    def slowdown(self) -> float:
        """Disturbed / baseline runtime (1.0 = no interference)."""
        return self.disturbed / self.baseline if self.baseline > 0 else float("nan")


def _aggressor_field(
    top: DragonflyTopology,
    archetype: str,
    aggressor_nodes: np.ndarray,
    env: RoutingEnv,
    rng: np.random.Generator,
) -> np.ndarray:
    """Steady-state utilization field of one aggressor job."""
    job = Job(n_nodes=aggressor_nodes.size, duration_hours=1.0, archetype=archetype)
    p2p, a2a = _job_flows(job, aggressor_nodes, rng)
    from repro.network.fluid import FlowSet

    flows = FlowSet.concat([p2p.with_class(0), a2a.with_class(1)])
    res = solve_fluid(
        top,
        flows,
        env.modes_list(),
        rng=rng,
        params=FluidParams(k_min=3, k_nonmin=2, n_iter=5),
        fixed_duration=1.0,
        link_field_only=True,
    )
    return np.clip(res.link_raw_util, 0.0, 0.9)


def interference_matrix(
    top: DragonflyTopology,
    victim: Application,
    *,
    modes: tuple[RoutingMode, ...],
    aggressors: tuple[str, ...] = DEFAULT_AGGRESSORS,
    victim_nodes: int = 256,
    aggressor_nodes: int = 512,
    seed: int = 77,
) -> list[InterferenceEntry]:
    """Victim slowdown per (aggressor archetype, routing mode).

    Both the victim and the aggressor run under the same default mode
    (the facility-default question).  The placements are fixed across
    all cells so only the traffic archetype and the mode vary.
    """
    rng_place = derive_rng(seed, "interference-placement", victim.name)
    pool = FreeNodePool(top)
    v_nodes = production_placement(top, victim_nodes, rng_place, pool=pool)
    a_nodes = production_placement(top, aggressor_nodes, rng_place, pool=pool)

    entries: list[InterferenceEntry] = []
    for mode in modes:
        env = RoutingEnv.uniform(mode)
        baseline, _, _ = run_app_once(
            top,
            victim,
            v_nodes,
            env,
            rng=derive_rng(seed, "interference-victim", mode.name),
            collect_counters=False,
        )
        for archetype in aggressors:
            field = _aggressor_field(
                top,
                archetype,
                a_nodes,
                env,
                derive_rng(seed, "interference-aggressor", archetype, mode.name),
            )
            bg = mask_endpoint_background(top, field, v_nodes)
            disturbed, _, _ = run_app_once(
                top,
                victim,
                v_nodes,
                env,
                background_util=bg,
                rng=derive_rng(seed, "interference-victim", mode.name),
                collect_counters=False,
            )
            entries.append(
                InterferenceEntry(
                    victim=victim.name,
                    aggressor=archetype,
                    mode=mode.name,
                    baseline=baseline,
                    disturbed=disturbed,
                )
            )
    return entries


def format_matrix(entries: list[InterferenceEntry]) -> str:
    """Render the matrix as text: rows = aggressors, columns = modes."""
    modes = sorted({e.mode for e in entries})
    aggressors = sorted({e.aggressor for e in entries})
    by_key = {(e.aggressor, e.mode): e for e in entries}
    width = max(len(a) for a in aggressors)
    header = " " * width + "  " + "  ".join(f"{m:>8s}" for m in modes)
    lines = [header]
    for a in aggressors:
        cells = []
        for m in modes:
            e = by_key.get((a, m))
            cells.append(f"{e.slowdown:8.3f}" if e else " " * 8)
        lines.append(f"{a.ljust(width)}  " + "  ".join(cells))
    return "\n".join(lines)
