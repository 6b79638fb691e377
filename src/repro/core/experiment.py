"""Production / isolated / controlled run harness.

This is the reproduction of the paper's Section III methodology: run an
application at a job size, under a routing-mode setting, against sampled
production background congestion (or none, for isolated runs), many
times, with AutoPerf attached.

Pairing: sample ``i`` of every mode shares the same placement, background
scenario, and intensity draw (same derived RNG streams), so mode
comparisons are paired exactly as the paper's repeated A/B runs over the
same four-month production window aimed to be.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

# the engine packages resolve a name on first read (repro.util.lazy), so
# campaign identity (configs, records, fingerprints) loads no engine
from repro import mpi, network, scheduler
from repro.apps.base import Application
from repro.core import checkpoint as ckpt
from repro.core.biases import AD0, AD3, RoutingMode
from repro.core.metrics import SampleStats, remove_outliers
from repro.faults.errors import NetworkPartitionedError
from repro.guard.errors import InvariantViolation, RunTimeoutError
from repro.guard.policy import GuardPolicy
from repro.monitoring.autoperf import AutoPerf, AutoPerfReport
from repro.network.counters import CounterBank
from repro.telemetry import MultiTraceWriter, RingTraceWriter, Telemetry
from repro.topology.dragonfly import DragonflyTopology
from repro.util import check_nonnegative, check_positive, check_unique, derive_rng

if TYPE_CHECKING:
    from repro.faults.model import FaultSchedule
    from repro.guard.context import RunGuard
    from repro.telemetry.series import CadenceRecorder, CounterSeries

#: fixed software overhead charged per posted message (MPI_Isend etc.)
POST_OVERHEAD = 0.4e-6


def load_engine() -> None:
    """Import the whole run path now: the fluid solver and its path
    tables, the MPI patterns and the placements.  A run loads them where
    it first needs them; a process about to fork workers, or to wait for
    tasks, loads them here up front."""
    import repro.mpi.collectives  # noqa: F401  (the patterns and the solver)
    import repro.mpi.env  # noqa: F401
    import repro.scheduler.placement  # noqa: F401


def solve_fluid(*args, **kwargs) -> network.FluidResult:
    """:func:`repro.network.fluid.solve_fluid`; every phase of a run is
    solved through this name, so a test can swap the solver here."""
    return network.solve_fluid(*args, **kwargs)


def mask_endpoint_background(
    top: DragonflyTopology, bg: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Zero the ambient utilization on the job's own NIC links.

    The batch scheduler gives a job exclusive nodes, so no background
    traffic injects or ejects at the job's NICs; the pooled background
    scenarios are built machine-wide and must be masked per placement.
    Network (rank-1/2/3) links stay shared, as on the real systems.
    """
    bg = np.asarray(bg).copy()
    nodes = np.asarray(nodes)
    bg[top.injection_link(nodes)] = 0.0
    bg[top.ejection_link(nodes)] = 0.0
    return bg


@dataclass
class PhaseTiming:
    """Resolved wall-clock pieces of one phase (per iteration)."""

    phase: mpi.Phase
    comm_time: float
    op_times: dict[str, float]
    op_calls: dict[str, float]
    op_bytes: dict[str, float]
    result: network.FluidResult


def phase_slices(
    phase: mpi.Phase, base_class: int = 0
) -> tuple[network.FlowSet, list[tuple[str, int, int]]]:
    """Lower a phase to (flows, slices) with traffic classes offset.

    ``base_class`` offsets the TrafficOp class indices, so multiple jobs'
    phases can be concatenated into one joint solve (each job owning a
    (p2p, a2a) class pair).  Slice tags are ``"p2p"`` / ``"coll<i>"``.
    """
    parts: list[network.FlowSet] = []
    slices: list[tuple[str, int, int]] = []
    cursor = 0
    if phase.p2p is not None and phase.p2p.flows.n:
        fl = phase.p2p.flows.with_class(base_class + int(mpi.TrafficOp.P2P))
        parts.append(fl)
        slices.append(("p2p", cursor, cursor + fl.n))
        cursor += fl.n
    for i, coll in enumerate(phase.collectives):
        if not coll.flows.n:
            continue
        fl = coll.flows.with_class(base_class + int(coll.traffic_op))
        parts.append(fl)
        slices.append((f"coll{i}", cursor, cursor + fl.n))
        cursor += fl.n
    return network.FlowSet.concat(parts), slices


def phase_times_from_result(
    phase: mpi.Phase,
    res: network.FluidResult,
    slices: list[tuple[str, int, int]],
    *,
    offset: int = 0,
) -> PhaseTiming:
    """Convert a (possibly joint) solve into one phase's MPI-op times.

    ``offset`` shifts the slice windows into the combined result when the
    solve covered several jobs' flows.
    """
    n_ranks = 0
    if phase.p2p is not None and phase.p2p.flows.n:
        n_ranks = int(np.unique(phase.p2p.flows.src).size)
    for coll in phase.collectives:
        if coll.flows.n:
            n_ranks = max(n_ranks, int(np.unique(coll.flows.src).size))

    op_times: dict[str, float] = {}
    op_calls: dict[str, float] = {}
    op_bytes: dict[str, float] = {}

    def _add(op: str, t: float, calls: float, nbytes: float) -> None:
        op_times[op] = op_times.get(op, 0.0) + t
        op_calls[op] = op_calls.get(op, 0.0) + calls
        op_bytes[op] = op_bytes.get(op, 0.0) + nbytes

    comm_time = 0.0
    for tag, s0, s1 in slices:
        start, stop = offset + s0, offset + s1
        f_time = res.flow_time[start:stop]
        f_lat = res.flow_latency[start:stop]
        f_lat_amb = res.flow_latency_ambient[start:stop]
        f_lat_worst = res.flow_latency_worst[start:stop]
        if tag == "p2p":
            spec = phase.p2p
            t_bw = float(f_time.max()) if f_time.size else 0.0
            # exposed message latency is queueing behind *other* traffic;
            # waiting on the phase's own burst is the bandwidth term, of
            # which overlapped exchanges hide a fraction behind compute
            if f_lat_amb.size == 0:
                t_lat = 0.0
            elif spec.latency_stat == "p90":
                t_lat = spec.exposed_messages * float(np.percentile(f_lat_amb, 90))
            else:
                t_lat = spec.exposed_messages * float(f_lat_amb.mean())
            t_wait = (1.0 - spec.overlap_fraction) * t_bw + t_lat
            t_post = spec.messages_per_rank * POST_OVERHEAD
            # calls and bytes are reported per rank, as AutoPerf does
            _add(spec.wait_op, t_wait, spec.messages_per_rank, 0.0)
            _add(
                spec.post_op,
                t_post,
                spec.messages_per_rank,
                float(spec.flows.nbytes.sum()) / max(n_ranks, 1),
            )
            comm_time += t_wait + t_post
        else:
            coll = phase.collectives[int(tag[4:])]
            if f_lat.size == 0:
                t_rounds = 0.0
            elif coll.sync == "global":
                # every round waits for the slowest participant's slowest
                # packet (the paper's V-D point about collectives); the
                # partner pattern rotates per round, so the sustained
                # per-round cost is a high percentile, not the single
                # unluckiest pair
                t_rounds = coll.rounds * float(np.percentile(f_lat_worst, 99))
            else:
                t_rounds = coll.rounds * float(f_lat.mean())
            if f_time.size == 0:
                t_bw = 0.0
            elif coll.sync == "pairwise":
                # pairwise rounds pipeline past each other, so stragglers
                # of different rounds overlap: a high percentile, not the
                # absolute worst flow, sets the pace
                t_bw = float(np.percentile(f_time, 90))
            else:
                t_bw = float(f_time.max())
            t_coll = t_rounds + t_bw
            _add(coll.op, t_coll, coll.calls, coll.calls * coll.msg_bytes)
            comm_time += t_coll

    return PhaseTiming(
        phase=phase,
        comm_time=comm_time,
        op_times=op_times,
        op_calls=op_calls,
        op_bytes=op_bytes,
        result=res,
    )


def resolve_phase(
    top: DragonflyTopology,
    phase: mpi.Phase,
    env: mpi.RoutingEnv,
    *,
    background_util: np.ndarray | None,
    rng: np.random.Generator,
    params: network.FluidParams | None = None,
    telemetry: Telemetry | None = None,
) -> PhaseTiming:
    """Solve one phase and convert the equilibrium into MPI-op times."""
    flows, slices = phase_slices(phase)
    res = solve_fluid(
        top,
        flows,
        env.modes_list(),
        background_util=background_util,
        rng=rng,
        params=params,
        min_duration=phase.spread_time,
        telemetry=telemetry,
    )
    return phase_times_from_result(phase, res, slices)


@dataclass
class RunRecord:
    """One application run's outcome."""

    app: str
    mode: str
    n_nodes: int
    placement: str
    groups: int
    runtime: float
    report: AutoPerfReport
    background_intensity: float
    sample_index: int
    #: ``"ok"`` or ``"error"``; error records carry a NaN runtime, an
    #: empty report, and the exception text in :attr:`error`, so one
    #: failed run never aborts its campaign.
    status: str = "ok"
    error: str = ""
    #: executions it took to produce this record (>1 after transient
    #: solver-non-convergence retries)
    attempts: int = 1
    #: fluid-solver diagnostics aggregated over the run's phases: did
    #: every phase solve converge, how many did not, and the worst final
    #: residuals (max / mean |Δx|) seen across them.
    solver_converged: bool = True
    solver_nonconverged_phases: int = 0
    solver_max_residual: float = 0.0
    solver_max_residual_mean: float = 0.0
    solver_iterations: int = 0
    #: cadence-sampled counter/latency series (opt-in via
    #: ``Telemetry.series``); ``None`` — the default — keeps records and
    #: checkpoints byte-identical to unobserved campaigns
    series: CounterSeries | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def mpi_time(self) -> float:
        return self.report.mpi_time

    @property
    def mpi_fraction(self) -> float:
        return self.report.mpi_fraction


def solver_diagnostics(timings: list[PhaseTiming]) -> dict:
    """Aggregate per-phase fluid diagnostics for a run (RunRecord fields)."""
    results = [t.result for t in timings]
    nonconv = [r for r in results if not r.converged]
    return {
        "solver_converged": not nonconv,
        "solver_nonconverged_phases": len(nonconv),
        "solver_max_residual": max((r.residual for r in results), default=0.0),
        "solver_max_residual_mean": max((r.residual_mean for r in results), default=0.0),
        "solver_iterations": max((r.iterations for r in results), default=0),
    }


def run_app_once(
    top: DragonflyTopology,
    app: Application,
    nodes: np.ndarray,
    env: mpi.RoutingEnv,
    *,
    background_util: np.ndarray | None = None,
    rng: np.random.Generator,
    params: network.FluidParams | None = None,
    collect_counters: bool = True,
    telemetry: Telemetry | None = None,
    series_recorder: CadenceRecorder | None = None,
) -> tuple[float, AutoPerfReport, list[PhaseTiming]]:
    """One run: resolve each phase once, scale by iterations, add noise.

    Returns (runtime seconds, AutoPerf report, per-phase timings).

    ``series_recorder`` opts into cadence sampling: each resolved phase
    contributes its counter deltas at its position on the run's
    per-iteration sim-time axis, and the recorder is finalized against
    the run's aggregate counter totals (so the series windows sum to the
    end-of-run aggregate exactly).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    P = nodes.size
    n_iter = app.n_iterations(P)
    phases = app.phases(nodes, rng)

    autoperf = AutoPerf(app.name, P)
    bank = CounterBank(top) if collect_counters else None

    per_iter = 0.0
    timings: list[PhaseTiming] = []
    prev_f = prev_s = 0.0
    for phase in phases:
        pt = resolve_phase(
            top,
            phase,
            env,
            background_util=background_util,
            rng=rng,
            params=params,
            telemetry=telemetry,
        )
        timings.append(pt)
        # compute-time jitter: OS/core-spec noise, a fraction of a percent
        compute = phase.compute_time * float(rng.lognormal(0.0, 0.004))
        per_iter += compute + pt.comm_time
        for op, t in pt.op_times.items():
            autoperf.record_op(
                op,
                calls=pt.op_calls.get(op, 0.0) * n_iter,
                nbytes=pt.op_bytes.get(op, 0.0) * n_iter,
                time=t * n_iter,
            )
        if bank is not None:
            pt.result.accumulate_counters(bank, top)
        if series_recorder is not None:
            if bank is not None:
                snap = bank.snapshot()
                f, s = snap.total_flits(), snap.total_stalls()
            else:
                f, s = prev_f, prev_s
            series_recorder.add(per_iter, f - prev_f, s - prev_s)
            prev_f, prev_s = f, s
            series_recorder.observe_latency(pt.result.flow_latency)

    # run-level multiplicative noise (I/O, startup, residual OS noise)
    runtime = per_iter * n_iter * float(rng.lognormal(0.0, 0.008))
    autoperf.add_total_time(runtime)
    if bank is not None:
        autoperf.attach_counters(bank.local_view(nodes))
    if series_recorder is not None:
        series_recorder.finalize(per_iter, prev_f, prev_s)
    return runtime, autoperf.finalize(), timings


@dataclass
class CampaignConfig:
    """A production-style measurement campaign.

    One campaign = one application at one job size, sampled ``samples``
    times per routing mode, with paired noise across modes.
    """

    app: Application
    n_nodes: int = 256
    modes: tuple[RoutingMode, ...] = (AD0, AD3)
    samples: int = 30
    placement: str = "production"
    background: str = "production"  # "production" | "isolated"
    seed: int = 2021
    scenario_pool: int = 12
    uniform_env: bool = True  # set both routing env vars to the mode
    params: network.FluidParams | None = None
    #: degraded-network state the whole campaign runs under (an empty
    #: schedule is a strict no-op: byte-identical results)
    faults: FaultSchedule | None = None
    #: executions allowed per run; >1 retries transient solver
    #: non-convergence with a freshly-derived RNG stream.  Partition
    #: errors are deterministic and never retried.
    max_attempts: int = 1
    #: seconds slept before retry ``k`` (scaled by ``k``); 0 = no sleep
    retry_backoff: float = 0.0
    #: run guardrails (deadlines, budgets, invariant checks, watchdog);
    #: ``None`` or an inactive policy is a strict no-op — results are
    #: byte-identical to an unguarded campaign (see docs/GUARDRAILS.md).
    #: Deliberately excluded from :func:`campaign_fingerprint`: guards
    #: change how failures are *bounded*, never what a healthy run
    #: produces, so guarded and unguarded checkpoints stay compatible.
    guard: GuardPolicy | None = None

    def __post_init__(self) -> None:
        # named after their CLI flags: a bad value is a config error (exit 2)
        check_nonnegative("samples (--samples)", self.samples)
        check_positive("n_nodes (--nodes)", self.n_nodes)
        # a repeated mode would pool its runs and collapse in a checkpoint
        check_unique("modes (--modes)", [m.name for m in self.modes])


def campaign_fingerprint(top: DragonflyTopology, cfg: CampaignConfig) -> dict:
    """Identity of a campaign for checkpoint compatibility checks.

    Everything that changes the produced records is included; retry and
    checkpointing knobs themselves are not (they only change *how* the
    records get produced).
    """
    return {
        "system": top.params.name,
        "app": cfg.app.name,
        "n_nodes": cfg.n_nodes,
        "modes": [m.name for m in cfg.modes],
        "samples": cfg.samples,
        "placement": cfg.placement,
        "background": cfg.background,
        "seed": cfg.seed,
        "scenario_pool": cfg.scenario_pool,
        "uniform_env": cfg.uniform_env,
        "faults": cfg.faults.describe() if cfg.faults else "",
    }


def _error_record(
    cfg: CampaignConfig,
    mode: RoutingMode,
    sample: int,
    groups: int,
    intensity: float,
    exc: BaseException,
    attempts: int,
) -> RunRecord:
    """Degenerate record for a run that raised: NaN runtime, empty report."""
    return RunRecord(
        app=cfg.app.name,
        mode=mode.name,
        n_nodes=cfg.n_nodes,
        placement=cfg.placement,
        groups=groups,
        runtime=float("nan"),
        report=AutoPerfReport(
            app=cfg.app.name, n_nodes=cfg.n_nodes, ops={}, total_time=0.0
        ),
        background_intensity=intensity,
        sample_index=sample,
        status="error",
        error=f"{type(exc).__name__}: {exc}",
        attempts=attempts,
    )


def sample_slot(
    top: DragonflyTopology, cfg: CampaignConfig, i: int
) -> tuple[np.random.Generator, np.ndarray, int | None]:
    """Sample ``i``'s stream, placement, and the pool slot it reads.

    The one rule for which background scenario a sample selects: a pure
    function of ``(top, cfg, i)``, drawn over ``cfg.scenario_pool``
    slots.  The slot is ``None`` for an isolated campaign.  The stream
    is returned positioned after the slot draw, for the draws that
    follow it in :func:`sample_draws`.
    """
    sample_rng = derive_rng(cfg.seed, cfg.app.name, cfg.n_nodes, cfg.placement, i)
    nodes = scheduler.make_placement(cfg.placement, top, cfg.n_nodes, sample_rng)
    slot = None
    if cfg.background == "production":
        slot = int(sample_rng.integers(0, cfg.scenario_pool))
    return sample_rng, nodes, slot


def drawn_slots(top: DragonflyTopology, cfg: CampaignConfig) -> set[int]:
    """The pool slots the campaign's ``cfg.samples`` samples read."""
    return {sample_slot(top, cfg, i)[2] for i in range(cfg.samples)}


def resolve_scenarios(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    order: Sequence[int] | None = None,
    on_solved: Callable[[int, scheduler.BackgroundScenario], None] | None = None,
) -> tuple[
    scheduler.BackgroundModel | None, list[scheduler.BackgroundScenario | None] | None
]:
    """The ``(model, scenario pool)`` a campaign samples its background from.

    A pure function of ``(top, cfg)``: the pool RNG is derived from the
    campaign seed, and only the slots in :func:`drawn_slots` are solved
    (in slot order, drawing no slot after the last of them), so any
    process (a ``-j`` child, a queue worker, the service) rebuilds the
    identical pool from the config alone.  The other slots are ``None``.
    Isolated campaigns have neither model nor pool.

    With ``order``, only those slots are solved, in that order, and each
    is passed to ``on_solved`` as soon as it is done
    (:meth:`~repro.scheduler.background.BackgroundModel.solve_pool`), so
    a queue coordinator can publish each one to its workers at once.
    None is kept: every slot of the returned pool is ``None``.
    """
    if cfg.background == "production":
        bm = scheduler.BackgroundModel(top)
        pool_rng = derive_rng(cfg.seed, "bgpool", cfg.app.name, cfg.n_nodes)
        scenarios: list[scheduler.BackgroundScenario | None] = [None] * cfg.scenario_pool
        if order is None:
            order, on_solved = sorted(drawn_slots(top, cfg)), scenarios.__setitem__
        bm.solve_pool(pool_rng, order, on_solved, reserve_nodes=cfg.n_nodes)
        return bm, scenarios
    if cfg.background != "isolated":
        raise ValueError(f"unknown background kind {cfg.background!r}")
    return None, None


def sample_draws(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    i: int,
    bm: scheduler.BackgroundModel | None,
    scenarios: list[scheduler.BackgroundScenario | None] | None,
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Per-sample shared draws (paired across modes): placement, background.

    The sample stream is derived fresh from ``(seed, app, size,
    placement, i)`` on every call, so any process can reproduce sample
    ``i``'s context without replaying samples ``0..i-1``.  Raises
    ``ValueError`` if the sample reads a pool slot that was not solved.
    """
    sample_rng, nodes, slot = sample_slot(top, cfg, i)
    if cfg.background == "production":
        scenario = scenarios[slot]
        if scenario is None:
            raise ValueError(
                f"sample {i} reads background scenario {slot}, which this "
                f"campaign's pool did not solve"
            )
        intensity = bm.sample_intensity(sample_rng)
        bg = mask_endpoint_background(top, scenario.at_intensity(intensity), nodes)
    else:
        bg, intensity = None, 0.0
    return nodes, bg, intensity


class CampaignBackground:
    """The background a campaign samples from, built on first use.

    Holds the :class:`BackgroundModel` and scenario pool and resolves
    them through :func:`resolve_scenarios` only when a run first needs a
    draw (or :meth:`build` is called), so a campaign whose runs are all
    resumed or served from a store builds no pool.  The pool comes only
    from the config, through its own derived RNG stream, so every process
    that runs the campaign holds the same one, whenever it is built.  It
    solves only the :func:`drawn_slots`, to their link field; the other
    slots build no path table.

    Also the campaign's one per-sample draw cache: the modes of a sample
    share its placement and background, so each process keeps the last
    few samples' draws.  Fork-pool workers inherit the object by memory
    image; the parent must :meth:`build` it before forking, or every
    worker would build its own pool.

    A queue worker or coordinator passes ``published``:
    ``published(slot)`` returns a slot the coordinator solved, as
    ``(link field, n_jobs, fill)``, or ``None`` when there is none to
    wait for.  Each slot a draw reads is loaded that way, and so is every
    drawn slot on :meth:`build`; the first ``None`` builds the whole pool
    instead.
    """

    #: samples whose draws are kept (each entry holds a placement plus a
    #: masked background array)
    DRAW_CACHE_CAP = 4

    def __init__(
        self,
        top: DragonflyTopology,
        cfg: CampaignConfig,
        published: Callable[[int], tuple[np.ndarray, int, float] | None] | None = None,
    ) -> None:
        if cfg.background not in ("production", "isolated"):
            raise ValueError(f"unknown background kind {cfg.background!r}")
        self.top = top
        self.cfg = cfg
        self.published = published if cfg.background == "production" else None
        self.model = None
        self.scenarios = None
        self.built = False
        self._draws: dict[int, tuple] = {}

    def build(self) -> None:
        """Resolve the model and pool now; a no-op once built."""
        if not self.built:
            if not (
                self.published is not None
                and all(self._fetch(slot) for slot in sorted(drawn_slots(self.top, self.cfg)))
            ):
                self.model, self.scenarios = resolve_scenarios(self.top, self.cfg)
            self.built = True

    def solve(
        self, order: Sequence[int], on_solved: Callable[[int, scheduler.BackgroundScenario], None]
    ) -> None:
        """Solve only the slots ``order``, in that order, passing each to
        ``on_solved`` as it is done (a queue coordinator publishing
        them).  None is kept: draws load them back through ``published``."""
        self.model, self.scenarios = resolve_scenarios(self.top, self.cfg, order, on_solved)

    def _fetch(self, slot: int) -> bool:
        """Load ``slot`` through ``published`` unless it is loaded; False,
        and no more fetching, when it is not published."""
        if self.scenarios is None:
            self.model = scheduler.BackgroundModel(self.top)
            self.scenarios = [None] * self.cfg.scenario_pool
        if self.scenarios[slot] is None:
            got = self.published(slot)
            if got is None:
                self.published = None
                return False
            self.scenarios[slot] = scheduler.BackgroundScenario(*got, self.model.default_env)
        return True

    def draws(self, i: int) -> tuple[np.ndarray, np.ndarray | None, float]:
        """Sample ``i``'s :func:`sample_draws`, building the pool if needed."""
        d = self._draws.get(i)
        if d is None:
            if not self.built and not (
                self.published is not None and self._fetch(sample_slot(self.top, self.cfg, i)[2])
            ):
                self.build()
            d = sample_draws(self.top, self.cfg, i, self.model, self.scenarios)
            if len(self._draws) >= self.DRAW_CACHE_CAP:
                self._draws.pop(next(iter(self._draws)))
            self._draws[i] = d
        return d

    def lost_record(
        self, sample: int, mode: str, exc: BaseException, attempts: int
    ) -> RunRecord:
        """Error record for a run lost outside :func:`execute_run`: its
        worker process kept dying, or its queue retry budget ran out."""
        nodes, _, intensity = self.draws(sample)
        routing = next(m for m in self.cfg.modes if m.name == mode)
        return _error_record(
            self.cfg, routing, sample, scheduler.groups_spanned(self.top, nodes),
            intensity, exc, attempts,
        )


def _write_guard_bundle(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    policy: GuardPolicy | None,
    guard: RunGuard | None,
    ring: RingTraceWriter | None,
    label: str,
    sample: int,
    mode: str,
    attempt: int,
    exc: BaseException,
    tel: Telemetry,
) -> None:
    """Best-effort diagnostics bundle for a guard-terminated run."""
    if policy is None or policy.bundle_dir is None:
        return
    from repro.guard.bundle import write_bundle

    path = write_bundle(
        policy.bundle_dir,
        label=label,
        reason={"type": type(exc).__name__, "message": str(exc)},
        fingerprint=campaign_fingerprint(top, cfg),
        rng_key={
            "seed": cfg.seed,
            "app": cfg.app.name,
            "n_nodes": cfg.n_nodes,
            "sample": sample,
            "mode": mode,
            "attempt": attempt,
        },
        policy=asdict(policy),
        events=ring.tail() if ring is not None else [],
        violations=list(guard.violations) if guard is not None else [],
        counters=tel.metrics.to_dict() if tel.metrics.enabled else {},
    )
    if path is not None:
        tel.event("guard.bundle", label=label, path=str(path))


def execute_run(
    top: DragonflyTopology,
    run_top: DragonflyTopology,
    cfg: CampaignConfig,
    i: int,
    mode: RoutingMode,
    nodes: np.ndarray,
    bg: np.ndarray | None,
    intensity: float,
    tel: Telemetry,
) -> RunRecord:
    """One campaign run: the retry loop, error isolation, and telemetry.

    This is the unit the parallel dispatcher fans out; its RNG stream is
    derived solely from ``(seed, app, size, sample, mode)``, so the
    record is identical no matter which process executes it or when.

    With an active :attr:`CampaignConfig.guard`, a :class:`RunGuard` is
    installed around the engines for the run's duration; budget/invariant
    failures are deterministic, so they are never retried — they become
    error-status records (plus a diagnostics bundle when configured).
    """
    from repro.guard.context import RunGuard, use_guard

    app = cfg.app
    env = mpi.RoutingEnv.uniform(mode) if cfg.uniform_env else mpi.RoutingEnv(p2p_mode=mode)
    policy = cfg.guard if (cfg.guard is not None and cfg.guard.active) else None
    label = f"{app.name}-{mode.name}-s{i}"
    t0 = time.perf_counter() if tel.enabled else 0.0
    rec: RunRecord | None = None
    attempt = 0
    while rec is None:
        attempt += 1
        # attempt 1 uses the canonical paired stream; retries use
        # a fresh derivation so the transient draw changes
        key = (cfg.seed, app.name, cfg.n_nodes, i, mode.name)
        run_rng = (
            derive_rng(*key)
            if attempt == 1
            else derive_rng(*key, "retry", attempt)
        )
        guard: RunGuard | None = None
        ring: RingTraceWriter | None = None
        run_tel = tel
        if policy is not None:
            if policy.bundle_dir is not None:
                # capture the run's trailing events for the bundle without
                # requiring the campaign to persist full traces
                ring = RingTraceWriter(policy.bundle_events)
                run_tel = Telemetry(
                    trace=MultiTraceWriter([tel.trace, ring]), metrics=tel.metrics
                )
            guard = RunGuard(policy, telemetry=run_tel, label=label)
        # a fresh recorder per attempt: a retried run's series must
        # reflect only the attempt that produced the record
        recorder = None
        if tel.series is not None:
            from repro.telemetry.series import CadenceRecorder

            recorder = CadenceRecorder(tel.series)
        try:
            with use_guard(guard):
                runtime, report, timings = run_app_once(
                    run_top,
                    app,
                    nodes,
                    env,
                    background_util=bg,
                    rng=run_rng,
                    params=cfg.params,
                    telemetry=run_tel,
                    series_recorder=recorder,
                )
        except NetworkPartitionedError as exc:
            # deterministic: retrying cannot help
            rec = _error_record(
                cfg, mode, i, scheduler.groups_spanned(top, nodes), intensity, exc, attempt
            )
        except (RunTimeoutError, InvariantViolation) as exc:
            # budget exhaustion and broken conservation laws are
            # deterministic too: isolate, bundle, never retry
            rec = _error_record(
                cfg, mode, i, scheduler.groups_spanned(top, nodes), intensity, exc, attempt
            )
            _write_guard_bundle(
                top, cfg, policy, guard, ring, label, i, mode.name, attempt, exc, tel
            )
        except Exception as exc:
            if attempt < cfg.max_attempts:
                if cfg.retry_backoff > 0:
                    time.sleep(cfg.retry_backoff * attempt)
                continue
            rec = _error_record(
                cfg, mode, i, scheduler.groups_spanned(top, nodes), intensity, exc, attempt
            )
        else:
            diag = solver_diagnostics(timings)
            if not diag["solver_converged"] and attempt < cfg.max_attempts:
                if cfg.retry_backoff > 0:
                    time.sleep(cfg.retry_backoff * attempt)
                continue
            rec = RunRecord(
                app=app.name,
                mode=mode.name,
                n_nodes=cfg.n_nodes,
                placement=cfg.placement,
                groups=scheduler.groups_spanned(top, nodes),
                runtime=runtime,
                report=report,
                background_intensity=intensity,
                sample_index=i,
                attempts=attempt,
                series=recorder.result if recorder is not None else None,
                **diag,
            )
    if tel.enabled:
        wall = time.perf_counter() - t0
        m = tel.metrics
        if m.enabled:
            m.counter("campaign_samples_total", "campaign runs executed").inc()
            if not rec.ok:
                m.counter(
                    "campaign_failures_total", "campaign runs ending in error"
                ).inc()
            m.histogram(
                "campaign_sample_seconds", "wall time per campaign run"
            ).observe(wall)
        tel.event(
            "campaign.sample",
            app=app.name,
            mode=mode.name,
            sample=i,
            status=rec.status,
            error=rec.error,
            attempts=rec.attempts,
            runtime_s=rec.runtime,
            mpi_time_s=rec.report.mpi_time,
            background_intensity=intensity,
            solver_converged=rec.solver_converged,
            solver_nonconverged_phases=rec.solver_nonconverged_phases,
            solver_max_residual=rec.solver_max_residual,
            wall_ms=wall * 1e3,
        )
    return rec


def prepare_checkpoint(
    checkpoint_path: str | None,
    top: DragonflyTopology,
    cfg: CampaignConfig,
    resume: bool,
) -> dict[tuple[int, str], RunRecord]:
    """Open (or resume) a campaign checkpoint; returns completed runs."""
    if checkpoint_path is None:
        return {}
    return ckpt.prepare(checkpoint_path, campaign_fingerprint(top, cfg), resume)


def emit_campaign_start(
    tel: Telemetry, cfg: CampaignConfig, done: dict, **extra
) -> None:
    """The ``campaign.start`` trace event (see :mod:`repro.core.pipeline`)."""
    tel.event(
        "campaign.start",
        app=cfg.app.name,
        n_nodes=cfg.n_nodes,
        modes=[m.name for m in cfg.modes],
        samples=cfg.samples,
        placement=cfg.placement,
        background=cfg.background,
        seed=cfg.seed,
        faults=cfg.faults.describe() if cfg.faults else "",
        resumed_runs=len(done),
        **extra,
    )


def emit_campaign_end(tel: Telemetry, cfg: CampaignConfig, records: list[RunRecord]) -> None:
    """The ``campaign.end`` trace event (see :mod:`repro.core.pipeline`)."""
    tel.event(
        "campaign.end",
        app=cfg.app.name,
        records=len(records),
        failed_runs=sum(1 for r in records if not r.ok),
        nonconverged_runs=sum(1 for r in records if not r.solver_converged),
    )


def _effective_jobs(jobs: int | None) -> int:
    """Resolve the worker count: explicit argument, else ``$REPRO_JOBS``."""
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def run_campaign(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    telemetry: Telemetry | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    jobs: int | None = None,
    queue_dir: str | None = None,
) -> list[RunRecord]:
    """Run the campaign; returns one RunRecord per (mode, sample).

    A run that raises is isolated into an error-status record instead of
    aborting the sweep.  With ``checkpoint_path`` set, finished runs are
    appended to a JSONL file; ``resume=True`` loads compatible completed
    runs from it and skips re-executing them (records come out identical
    to an uninterrupted campaign, because each run's RNG stream is
    derived independently).

    ``jobs`` > 1 dispatches the runs over that many worker processes via
    :mod:`repro.parallel`; records, checkpoint bytes, and the resume
    behaviour are identical to serial execution (see docs/PARALLEL.md).
    ``jobs=None`` reads ``$REPRO_JOBS`` (default 1).

    ``queue_dir`` hands the runs to a shared-directory work queue
    instead: any number of ``repro worker --queue DIR`` processes on any
    number of hosts execute them, and this process coordinates and
    merges — falling back to the local pool if no worker ever shows up
    (see docs/DISTRIBUTED.md).  Results stay byte-identical either way.
    """
    from repro.core.pipeline import run_pipeline, select_backend

    return run_pipeline(
        top,
        cfg,
        select_backend(jobs, queue_dir),
        telemetry=telemetry,
        checkpoint_path=checkpoint_path,
        resume=resume,
    ).records


def runtimes_by_mode(records: list[RunRecord], *, filter_outliers: bool = True) -> dict[str, np.ndarray]:
    """Group runtimes by mode name, with the paper's outlier filter.

    Error-status records (NaN runtime) are excluded — a mode whose runs
    all failed still appears, with an empty array.
    """
    out: dict[str, np.ndarray] = {}
    for mode in sorted({r.mode for r in records}):
        v = np.array(
            [r.runtime for r in records if r.mode == mode and r.ok], dtype=np.float64
        )
        v = v[np.isfinite(v)]
        out[mode] = remove_outliers(v) if filter_outliers else v
    return out


def stats_by_mode(records: list[RunRecord]) -> dict[str, SampleStats]:
    """Mean/std/n per mode (Table II's left columns)."""
    return {m: SampleStats.from_values(v) for m, v in runtimes_by_mode(records).items()}
