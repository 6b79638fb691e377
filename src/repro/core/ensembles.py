"""Controlled full-reservation ensembles (the paper's Section V).

During the paper's controlled experiments the whole machine was reserved
and filled with ``n_jobs`` simultaneous instances of the same application
at the same size and routing mode (e.g. eight 512-node MILC jobs on 4K
Theta nodes, Fig. 10; sixteen 256-node HACC jobs, Fig. 12).  Because the
jobs are each other's only background, the ensemble is resolved
**jointly**: every job's phase flows enter one fluid solve, so mutual
interference — and its dependence on the shared routing mode — emerges
from the equilibrium.

LDMS-style sampling distributes the accumulated counters over the
ensemble makespan at the collector's cadence, reproducing the per-router
scatter data behind the paper's Figs. 10 and 12.

A list of ensembles is a job kind of the pipeline
(:mod:`repro.core.pipeline`): each config derives its RNG from its own
fields, so :func:`run_ensembles` runs them on any backend and delivers
them in list order, identical to a serial loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.apps.base import Application
from repro.core.biases import AD0, RoutingMode
from repro.core.experiment import PhaseTiming, phase_slices, phase_times_from_result
from repro.core.pipeline import MISS, Merger, Plan, RunTask, select_backend
from repro.faults import FaultSchedule
from repro.monitoring.ldms import LdmsCollector
from repro.mpi.env import RoutingEnv
from repro.network.counters import CounterBank
from repro.network.fluid import FlowSet, FluidParams, solve_fluid
from repro.scheduler.placement import FreeNodePool, make_placement
from repro.telemetry import Telemetry, resolve_telemetry
from repro.topology.dragonfly import DragonflyTopology
from repro.util import check_positive, derive_rng


@dataclass
class EnsembleConfig:
    """A controlled same-app ensemble run."""

    app: Application
    n_jobs: int = 8
    n_nodes: int = 512
    mode: RoutingMode = AD0
    placement: str = "compact"
    seed: int = 7
    ldms_interval: float = 60.0
    params: FluidParams | None = None
    #: degraded-network state for the whole ensemble (empty = no-op)
    faults: "FaultSchedule | None" = None

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        check_positive("n_nodes (--nodes)", self.n_nodes)


@dataclass
class EnsembleResult:
    """Joint outcome of one controlled ensemble."""

    config: EnsembleConfig
    job_nodes: list[np.ndarray]
    job_runtimes: np.ndarray
    job_timings: list[list[PhaseTiming]]
    bank: CounterBank
    ldms: LdmsCollector

    @property
    def makespan(self) -> float:
        """Slowest job's runtime; 0.0 for a (degenerate) empty ensemble."""
        if self.job_runtimes.size == 0:
            return 0.0
        return float(self.job_runtimes.max())

    def stalls_to_flits(self, cls: str) -> float:
        """System-aggregate stalls-to-flits ratio for a tile class."""
        return self.bank.snapshot().class_ratio(cls)

    def network_ratio_per_router(self) -> np.ndarray:
        """Per-router network-tile ratio (Fig. 11's sample values)."""
        snap = self.bank.snapshot()
        f = sum(snap.flits[c] for c in ("rank1", "rank2", "rank3"))
        s = sum(snap.stalls[c] for c in ("rank1", "rank2", "rank3"))
        return np.divide(s, f, out=np.zeros_like(s), where=f > 0)

    def job_local_ratio(self, job: int, top: DragonflyTopology) -> float:
        """One job's AutoPerf-style local network stalls-to-flits ratio.

        This is what an instrumented job inside the controlled ensemble
        would have reported — the "controlled" samples of Fig. 11.
        """
        return self.bank.local_view(self.job_nodes[job]).network_ratio()


def run_ensemble(
    top: DragonflyTopology,
    cfg: EnsembleConfig,
    *,
    rng: np.random.Generator | None = None,
    telemetry: Telemetry | None = None,
) -> EnsembleResult:
    """Place and jointly resolve all jobs of the ensemble."""
    app = cfg.app
    tel = resolve_telemetry(telemetry)
    if cfg.n_jobs * cfg.n_nodes > top.n_nodes:
        raise ValueError(
            f"{cfg.n_jobs} x {cfg.n_nodes} nodes exceed the machine "
            f"({top.n_nodes} nodes)"
        )
    rng = rng or derive_rng(cfg.seed, "ensemble", app.name, cfg.n_jobs, cfg.n_nodes, cfg.mode.name)
    env = RoutingEnv.uniform(cfg.mode)
    # placement/counters stay on the pristine structure; the joint solve
    # sees the degraded capacities (strict no-op for an empty schedule)
    solve_top = top.with_faults(cfg.faults) if cfg.faults is not None else top

    pool = FreeNodePool(top)
    job_nodes = [
        make_placement(cfg.placement, top, cfg.n_nodes, rng, pool=pool)
        for _ in range(cfg.n_jobs)
    ]
    job_phases = [app.phases(nodes, rng) for nodes in job_nodes]
    n_phases = len(job_phases[0])
    n_iter = app.n_iterations(cfg.n_nodes)

    bank = CounterBank(top)
    per_iter = np.zeros(cfg.n_jobs)
    job_timings: list[list[PhaseTiming]] = [[] for _ in range(cfg.n_jobs)]

    # two traffic classes (p2p, a2a) per job, all mapped to the same mode
    modes = []
    for _ in range(cfg.n_jobs):
        modes.extend(env.modes_list())

    for p in range(n_phases):
        parts: list[FlowSet] = []
        job_slices: list[tuple[int, list[tuple[str, int, int]], int]] = []
        cursor = 0
        spread = 0.0
        for j in range(cfg.n_jobs):
            phase = job_phases[j][p]
            fl, slices = phase_slices(phase, base_class=2 * j)
            job_slices.append((j, slices, cursor))
            parts.append(fl)
            cursor += fl.n
            spread = max(spread, phase.spread_time)
        flows = FlowSet.concat(parts)
        t0 = time.perf_counter() if tel.enabled else 0.0
        res = solve_fluid(
            solve_top,
            flows,
            modes,
            rng=rng,
            params=cfg.params,
            min_duration=spread,
            telemetry=tel,
        )
        res.accumulate_counters(bank, top)
        if tel.enabled:
            if tel.metrics.enabled:
                tel.metrics.counter(
                    "ensemble_phases_total", "jointly solved ensemble phases"
                ).inc()
            tel.event(
                "ensemble.phase",
                app=app.name,
                phase=p,
                jobs=cfg.n_jobs,
                flows=flows.n,
                converged=res.converged,
                residual=res.residual,
                residual_mean=res.residual_mean,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        for j, slices, offset in job_slices:
            phase = job_phases[j][p]
            pt = phase_times_from_result(phase, res, slices, offset=offset)
            job_timings[j].append(pt)
            compute = phase.compute_time * float(rng.lognormal(0.0, 0.004))
            per_iter[j] += compute + pt.comm_time

    noise = rng.lognormal(0.0, 0.008, size=cfg.n_jobs)
    job_runtimes = per_iter * n_iter * noise

    # scale the per-phase counter increments by the iteration count, then
    # spread them over the makespan for the LDMS view
    bank.scale(n_iter)

    ldms_bank = CounterBank(top)
    ldms = LdmsCollector(ldms_bank, interval=cfg.ldms_interval)
    makespan = float(job_runtimes.max())
    n_samples = max(1, int(np.ceil(makespan / cfg.ldms_interval)))
    for k in range(n_samples):
        ldms_bank.merge(bank, fraction=1.0 / n_samples)
        ldms.sample(time=(k + 1) * cfg.ldms_interval)

    tel.event(
        "ensemble.end",
        app=app.name,
        jobs=cfg.n_jobs,
        mode=cfg.mode.name,
        makespan_s=makespan,
        runtime_min_s=float(job_runtimes.min()),
        runtime_max_s=float(job_runtimes.max()),
    )
    return EnsembleResult(
        config=cfg,
        job_nodes=job_nodes,
        job_runtimes=job_runtimes,
        job_timings=job_timings,
        bank=bank,
        ldms=ldms,
    )


@dataclass
class EnsembleJob:
    """The ensemble kind: task ``i`` runs ``cfgs[i]``; the fold hands
    each result to ``on_result`` in list order."""

    top: DragonflyTopology
    cfgs: list[EnsembleConfig]
    tel: Telemetry
    on_result: Callable[[int, EnsembleResult], None] | None = None
    worker_ids: dict = field(default_factory=dict)
    #: no watchdog and no diagnostics bundles
    guard = None

    def prepare(self) -> None:
        """Nothing to share: each ensemble builds its own state."""

    def execute(self, task: RunTask, tel: Telemetry) -> EnsembleResult:
        return run_ensemble(self.top, self.cfgs[task.index], telemetry=tel)

    def encode(self, res: EnsembleResult) -> None:
        """An ensemble result has no line of its own (``on_result`` writes)."""

    def lost(self, outcome: Any) -> EnsembleResult:
        # an ensemble has no per-run error record to degrade into
        raise RuntimeError(
            f"ensemble {outcome.task.index} lost its worker process "
            f"{outcome.attempts} times"
        ) from outcome.error

    def fold(self, index: int, res: EnsembleResult, line: str | None) -> None:
        if self.on_result is not None:
            self.on_result(index, res)


def run_ensembles(
    top: DragonflyTopology,
    cfgs: list[EnsembleConfig],
    *,
    jobs: int | None = None,
    telemetry: Telemetry | None = None,
    on_result: Callable[[int, EnsembleResult], None] | None = None,
    scramble_seed: int | None = None,
) -> list[EnsembleResult]:
    """Run every ensemble config; returns results in list order.

    ``jobs`` > 1 (``None`` reads ``$REPRO_JOBS``) runs them on the fork
    pool; worker trace events are forwarded with ``worker``/``run_index``
    tags and worker metrics merged in list order, as for a campaign.
    ``on_result`` sees each result in list order as soon as its prefix
    is complete.  A worker process dying repeatedly raises
    ``RuntimeError``.  ``scramble_seed`` shuffles a pool's completions
    (a test hook that must not change any output).
    """
    plan = Plan()
    for cfg in cfgs:
        plan.add(None, MISS, 0, cfg.mode.name)
    backend = select_backend(jobs, None)
    if scramble_seed is not None and hasattr(backend, "scramble_seed"):
        backend.scramble_seed = scramble_seed
    job = EnsembleJob(top, list(cfgs), resolve_telemetry(telemetry), on_result)
    Merger(plan, job).drain(backend)
    return plan.records
