"""Command-line interface for the routing study toolkit.

Usage (``python -m repro <command>``)::

    python -m repro describe --system theta
    python -m repro compare  --app milc --nodes 256 --samples 8
    python -m repro sweep    --app milc --samples 6 --jobs 4
    python -m repro advise   --app hacc
    python -m repro facility --intervals 12
    python -m repro ensemble --app milc --jobs 8 --nodes 512 --mode AD3
    python -m repro calibrate                 # score constants vs the paper
    python -m repro calibrate --param stall_kappa --values 1,3,6

Every command prints paper-style text output; nothing is written to
disk unless telemetry flags ask for it.  All commands accept ``--seed``
for reproducibility, plus the observability flags:

``--verbose/-v``
    Log progress to stderr (repeat for the full event stream).
``--trace PATH``
    Journal structured JSONL solver/engine events to a file
    (summarize later with ``repro-study report PATH``).
``--metrics PATH``
    Write accumulated metrics at exit — Prometheus text exposition, or
    JSON when the path ends in ``.json``.

Each handler imports what its command runs, so a process loads only the
code it uses (``report`` never imports numpy; see docs/PERFORMANCE.md,
"Start-up").
"""

from __future__ import annotations

import os

# No engine calls BLAS, yet OpenBLAS starts a worker thread per extra CPU
# when numpy loads, and each spins at start-up.  Run it on one thread in
# every CLI process (fork children inherit this) unless the user chose a
# count; it is read once, when numpy first loads, so it comes first.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import TYPE_CHECKING  # noqa: E402

from repro.faults.errors import NetworkPartitionedError  # noqa: E402
from repro.telemetry.context import Telemetry, use_telemetry  # noqa: E402
from repro.telemetry.trace import (  # noqa: E402
    NULL_TRACE,
    JsonlTraceWriter,
    LoggingTraceWriter,
    MultiTraceWriter,
)

if TYPE_CHECKING:
    from repro.faults.model import FaultSchedule
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.stream import CampaignProgress


def _preset(name: str):
    def build():
        from repro.topology import systems

        return getattr(systems, name)()

    return build


SYSTEMS = {name: _preset(name) for name in ("theta", "cori", "slingshot", "mini", "toy")}

logger = logging.getLogger("repro.cli")


def _system(name: str):
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}; choose from {sorted(SYSTEMS)}")
    return SYSTEMS[name]()


def _app(name: str):
    from repro.apps import app_by_name

    return app_by_name(name)()


def _modes(spec: str) -> tuple:
    from repro.core.biases import mode_by_name
    from repro.util.validation import check_unique

    modes = tuple(mode_by_name(m) for m in spec.split(","))
    check_unique("modes (--modes)", [m.name for m in modes])
    return modes


def _faults_from_args(args) -> FaultSchedule | None:
    """Parse ``--faults`` (see docs/FAULTS.md for the mini-language)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro.faults.model import FaultSchedule

    return FaultSchedule.parse(spec, seed=args.seed)


def _guard_from_args(args):
    """Build a :class:`GuardPolicy` from the guard flags (None if unset)."""
    from repro.guard import GuardPolicy

    deadline = getattr(args, "deadline", None)
    step_budget = getattr(args, "step_budget", None)
    invariants = getattr(args, "guard", None)
    hang_timeout = getattr(args, "hang_timeout", None)
    bundle_dir = getattr(args, "bundle_dir", None)
    if not any((deadline, step_budget, invariants, hang_timeout, bundle_dir)):
        return None
    return GuardPolicy(
        deadline=deadline,
        step_budget=step_budget,
        invariants="raise" if invariants == "strict" else (invariants or "off"),
        hang_timeout=hang_timeout,
        bundle_dir=bundle_dir,
    )


def _print_mode_stats(records) -> None:
    from repro.core.experiment import stats_by_mode

    for mode, st in sorted(
        stats_by_mode(records).items(),
        key=lambda kv: kv[1].mean if math.isfinite(kv[1].mean) else float("inf"),
    ):
        flag = "" if st.reliable else "  [unreliable: too few samples]"
        print(
            f"  {mode:6s} mean {st.mean:8.1f} s  std {st.std:7.1f}  "
            f"p95 {st.p95:8.1f}  (n={st.n}){flag}"
        )


def cmd_describe(args) -> int:
    from repro.core.biases import VENDOR_MODES

    top = _system(args.system)
    print(top.describe())
    print(f"  routers: {top.n_routers}  links: {top.n_links}")
    print(f"  tiles/router: {top.tiles.total} ({top.tiles.network} network, {top.tiles.proc} processor)")
    print("  routing modes:")
    for m in VENDOR_MODES:
        print(f"    {m.describe()}")
    return 0


def cmd_compare(args) -> int:
    from repro.core.analysis import improvement_table
    from repro.core.experiment import CampaignConfig, run_campaign

    top = _system(args.system)
    app = _app(args.app)
    modes = _modes(args.modes)
    faults = _faults_from_args(args)
    cfg = CampaignConfig(
        app=app,
        n_nodes=args.nodes,
        modes=modes,
        samples=args.samples,
        seed=args.seed,
        faults=faults,
        max_attempts=args.max_attempts,
        guard=_guard_from_args(args),
    )
    print(f"{app.describe()} on {top.params.name}, {args.samples} samples per mode ...")
    if faults:
        print(f"  degraded network: {faults.describe()}")
    cache_dir = getattr(args, "cache", None)
    if cache_dir is not None:
        from repro.service import RunRecordStore, run_campaign_cached

        outcome = run_campaign_cached(
            top,
            cfg,
            store=RunRecordStore(cache_dir),
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            jobs=args.jobs,
            queue_dir=getattr(args, "queue", None),
        )
        records = outcome.records
        print(
            f"  cache: {outcome.hits} hit(s)  {outcome.misses} miss(es)"
            + (f"  {outcome.resumed} resumed" if outcome.resumed else "")
        )
    else:
        records = run_campaign(
            top,
            cfg,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            jobs=args.jobs,
            queue_dir=getattr(args, "queue", None),
        )
    failed = [r for r in records if not r.ok]
    if failed:
        print(f"  {len(failed)}/{len(records)} runs failed (first: {failed[0].error})")
    _print_mode_stats(records)
    for row in improvement_table(records, base_mode=modes[0].name, test_mode=modes[-1].name):
        print(
            f"\n{row.test_mode} over {row.base_mode}: "
            f"{row.time_improvement:+.1f}% time, {row.mpi_improvement:+.1f}% MPI"
        )
    return 0


def cmd_sweep(args) -> int:
    # sweep is compare with its own --modes default (all four vendor
    # modes); the parser owns the default so --modes is honored and the
    # help text stays truthful.
    return cmd_compare(args)


def cmd_advise(args) -> int:
    import numpy as np

    from repro.core.advisor import recommend
    from repro.core.experiment import run_app_once
    from repro.mpi.env import RoutingEnv
    from repro.util import derive_rng

    top = _system(args.system)
    app = _app(args.app)
    print(f"profiling {app.name} on {top.params.name} ...")
    _, report, _ = run_app_once(
        top,
        app,
        np.arange(args.nodes),
        RoutingEnv(),
        rng=derive_rng(args.seed, "cli-advise", app.name),
    )
    print(report.summary())
    print(f"\n{recommend(report)}")
    return 0


def cmd_facility(args) -> int:
    from repro.core.facility import run_default_change_study
    from repro.core.metrics import LATENCY_PERCENTILES

    top = _system(args.system)
    print(f"simulating 2 x {args.intervals} production intervals on {top.params.name} ...")
    study = run_default_change_study(top, n_intervals=args.intervals, seed=args.seed)
    change = study.counter_change()
    print(
        f"flits {change['flits']:+.1%}  stalls {change['stalls']:+.1%}  "
        f"ratio {change['ratio']:+.1%}"
    )
    lat = study.latency_change()
    print("latency change: " + "  ".join(f"P{p:g}:{lat[p]:+.1f}%" for p in LATENCY_PERCENTILES))
    return 0


def cmd_calibrate(args) -> int:
    from repro.core.calibration import (
        check_sweepable,
        format_score,
        probe_observables,
        score_against_paper,
        sweep_parameter,
    )

    top = _system(args.system)
    if args.param:
        if not args.values:
            raise ValueError("--values is required with --param")
        check_sweepable(args.param)
        values = [float(v) for v in args.values.split(",")]
        print(f"sweeping {args.param} over {values} ...")
        out = sweep_parameter(
            top,
            args.param,
            values,
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
        )
        for v, obs in out.items():
            print(
                f"  {args.param}={v:g}: milc_imp {obs['milc_improvement_pct']:+.1f}%  "
                f"hacc_imp {obs['hacc_improvement_pct']:+.1f}%  "
                f"milc_mean {obs['milc_ad0_mean_s']:.0f}s"
            )
    else:
        print("scoring the shipped constants against the paper anchors ...")
        obs = probe_observables(top, samples=args.samples, seed=args.seed, jobs=args.jobs)
        print(format_score(score_against_paper(obs)))
    return 0


def _ensemble_lines(args, app, mode, faults, res) -> list[str]:
    snap = res.bank.snapshot()
    lines = [f"{args.jobs} x {args.nodes}-node {app.name} jobs under {mode.name}:"]
    if faults:
        lines.append(f"  degraded network: {faults.describe()}")
    lines.append(
        f"  job runtimes: {res.job_runtimes.min():.0f} - {res.job_runtimes.max():.0f} s"
    )
    for cls in ("rank1", "rank2", "rank3", "proc_req"):
        lines.append(
            f"  {cls:9s} flits {snap.flits[cls].sum():.3e}  "
            f"stalls {snap.stalls[cls].sum():.3e}  ratio {snap.class_ratio(cls):.3f}"
        )
    lines.append(f"  network stalls/flits: {snap.network_ratio():.3f}")
    return lines


def cmd_ensemble(args) -> int:
    from repro.core import checkpoint as ckpt
    from repro.core.ensembles import EnsembleConfig
    from repro.parallel import run_ensembles

    top = _system(args.system)
    app = _app(args.app)
    faults = _faults_from_args(args)
    cfgs = [
        EnsembleConfig(
            app=app,
            n_jobs=args.jobs,
            n_nodes=args.nodes,
            mode=mode,
            placement=args.placement,
            seed=args.seed,
            faults=faults,
        )
        for mode in _modes(args.modes or args.mode)
    ]
    fingerprint = {
        "kind": "ensemble",
        "system": args.system,
        "app": app.name,
        "jobs": args.jobs,
        "nodes": args.nodes,
        "mode": ",".join(cfg.mode.name for cfg in cfgs),
        "placement": args.placement,
        "seed": args.seed,
        "faults": faults.describe() if faults else "",
    }
    ck = Path(args.checkpoint) if args.checkpoint else None
    done = {}
    if ck is not None:
        resumed = args.resume and ck.exists()
        done = ckpt.prepare(ck, fingerprint, args.resume, ckpt.OUTPUT_LINES)
        if resumed:
            print(f"(resumed from {ck})")
            for cfg in cfgs:
                if cfg.mode.name in done:
                    print("\n".join(done[cfg.mode.name]["lines"]))
    remaining = [cfg for cfg in cfgs if cfg.mode.name not in done]

    def on_result(idx, res):
        mode = remaining[idx].mode
        lines = _ensemble_lines(args, app, mode, faults, res)
        print("\n".join(lines))
        if ck is not None:
            # one line per finished ensemble, so an interrupt or a failed
            # append leaves a resumable prefix
            ckpt.append_record(ck, {"mode": mode.name, "lines": lines}, ckpt.OUTPUT_LINES)

    run_ensembles(top, remaining, jobs=args.workers, on_result=on_result)
    return 0


def cmd_doctor(args) -> int:
    from repro.guard.doctor import exit_code, run_doctor

    findings = run_doctor(
        system=args.system,
        dims=args.dims,
        faults=args.faults,
        checkpoint=args.checkpoint,
        queue=getattr(args, "queue", None),
        selftest=not args.no_selftest,
        seed=args.seed,
    )
    for f in findings:
        print(f.format())
    rc = exit_code(findings)
    failed = sum(1 for f in findings if not f.ok)
    print(
        f"doctor: {len(findings) - failed}/{len(findings)} checks passed"
        + ("" if rc == 0 else f" -- NOT ready (exit {rc})")
    )
    return rc


def cmd_worker(args) -> int:
    """One distributed-campaign worker: claim, execute, commit, repeat."""
    from repro.dist import DistWorker, WorkQueue
    from repro.telemetry import resolve_telemetry

    tel = resolve_telemetry(None)
    queue = WorkQueue(args.queue)
    worker = DistWorker(
        queue,
        owner=args.owner,
        max_tasks=args.max_tasks,
        max_seconds=args.max_seconds,
        speculate=not args.no_speculate,
        poll=max(float(args.poll), 0.01),
        on_event=lambda name, **fields: tel.event(f"dist.{name}", **fields),
    )
    print(f"worker {worker.owner} joining queue {queue.root}", flush=True)
    stats = worker.run()
    print(
        "worker done: "
        + "  ".join(f"{k}={v}" for k, v in stats.to_dict().items()),
        flush=True,
    )
    return 0


def cmd_queue_status(args) -> int:
    """Point-in-time scan of a distributed campaign's queue directory."""
    from repro.dist.queue import WorkQueue
    from repro.telemetry.top import heartbeat_ages

    queue = WorkQueue(args.queue)
    manifest = queue.load_manifest()
    if manifest is None:
        print(f"queue {queue.root}: no manifest yet (coordinator not started)")
        return 0
    st = queue.status(queue.manifest_tasks(manifest))
    fp = manifest.get("fingerprint", {})
    print(
        f"queue {queue.root}: {fp.get('app', '?')} x{fp.get('samples', '?')} "
        f"on {fp.get('system', '?')} "
        f"(ttl {manifest.get('ttl')}s, retry budget {manifest.get('retry_budget')})"
    )
    print(
        f"  tasks: {st.total} total  {st.done} done  {st.claimed} claimed  "
        f"{st.available} available  {st.expired} expired-lease  "
        f"{len(st.exhausted)} exhausted"
    )
    now = time.time()
    beats = heartbeat_ages(str(queue.heartbeats_dir), now=now)
    for owner in sorted(set(st.workers) | set(beats)):
        held = [
            tid for tid, lease in st.leases.items() if lease.get("owner") == owner
        ]
        live = [
            tid
            for tid in held
            if float(st.leases[tid].get("expires_at", 0.0)) > now
        ]
        state = "live" if live else "expired"
        hb = beats.get(owner)
        # a worker with a guard heartbeat but no lease is between tasks
        # (or speculating); one with a lease but a stale heartbeat is
        # the watchdog's "hung" signature
        hb_note = f"  heartbeat {hb:.1f}s ago" if hb is not None else "  no heartbeat"
        if not held and hb is not None:
            state = "busy (no lease)"
        print(f"  worker {owner}: {len(held)} lease(s) [{state}]{hb_note}")
    return 0


def cmd_serve(args) -> int:
    """Long-running campaign service over a shared result cache.

    SIGTERM/SIGINT trigger a graceful drain: submissions are refused
    with 503, in-flight campaigns get ``--drain-grace`` seconds to
    finish (unfinished ones stay journalled for the next start's
    recovery), the cache flushes, and the process exits 0.
    """
    import threading

    from repro.service import CampaignService, RunRecordStore

    store = RunRecordStore(
        args.cache, max_bytes=args.max_bytes, max_entries=args.max_entries
    )
    journal_dir = None
    if not args.no_journal:
        journal_dir = args.journal if args.journal else str(Path(args.cache) / "journal")
    service = CampaignService(
        store,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_dir=getattr(args, "queue", None),
        journal_dir=journal_dir,
    ).start()
    st = store.stats()
    print(
        f"campaign service on {service.url}  "
        f"(cache {store.root}: {st.entries} entries, {st.bytes} bytes)",
        flush=True,
    )
    if service.recovered:
        print(
            f"recovered {len(service.recovered)} journalled campaign(s): "
            + ", ".join(service.recovered),
            flush=True,
        )
    stop = threading.Event()
    try:
        # take over main()'s exit-143 SIGTERM handler: the service owns
        # its shutdown now, and it must drain rather than unwind
        signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
        signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
    except ValueError:
        pass  # not the main thread (embedded use)
    deadline = (
        time.monotonic() + args.max_seconds if args.max_seconds is not None else None
    )
    try:
        while deadline is None or time.monotonic() < deadline:
            if stop.wait(timeout=0.2):
                break
    except KeyboardInterrupt:
        pass
    leftover = service.drain(timeout=args.drain_grace)
    if leftover:
        print(
            f"drain: {len(leftover)} campaign(s) still running after "
            f"{args.drain_grace}s grace — journalled for recovery on restart: "
            + ", ".join(leftover),
            flush=True,
        )
    else:
        print("drain: all campaigns finished", flush=True)
    service.close()
    return 0


def cmd_chaos(args) -> int:
    """Soak a campaign under a deterministic failure schedule."""
    import tempfile

    from repro.chaos.runner import run_soak, verify_replay
    from repro.chaos.schedule import ChaosSpecError
    from repro.core.experiment import CampaignConfig

    top = _system(args.system)
    app = _app(args.app)
    modes = _modes(args.modes)
    cfg = CampaignConfig(
        app=app,
        n_nodes=args.nodes,
        modes=modes,
        samples=args.samples,
        seed=args.seed,
        faults=_faults_from_args(args),
    )
    workdir = args.workdir
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = tmp.name
    try:
        try:
            if args.replay:
                first, second, same = verify_replay(
                    top, cfg, spec=args.schedule, seed=args.chaos_seed,
                    workdir=workdir, queue=args.queue,
                    max_restarts=args.max_restarts,
                )
                print(first.format())
                print(
                    f"replay: {'identical' if same else 'DIVERGED'} "
                    f"({len(first.fired)} vs {len(second.fired)} fires, "
                    f"{first.attempts} vs {second.attempts} attempts)"
                )
                return 0 if (first.ok and second.ok and same) else 1
            report = run_soak(
                top, cfg, spec=args.schedule, seed=args.chaos_seed,
                workdir=workdir, queue=args.queue,
                max_restarts=args.max_restarts,
            )
        except ChaosSpecError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(report.format())
        return 0 if report.ok else 1
    finally:
        if tmp is not None:
            tmp.cleanup()


def cmd_submit(args) -> int:
    """Submit a campaign to a running service (`repro serve`)."""
    from repro.core.experiment import CampaignConfig
    from repro.dist.manifest import campaign_to_manifest
    from repro.service import client
    from repro.telemetry import resolve_telemetry

    top = _system(args.system)
    app = _app(args.app)
    modes = _modes(args.modes)
    cfg = CampaignConfig(
        app=app,
        n_nodes=args.nodes,
        modes=modes,
        samples=args.samples,
        seed=args.seed,
        faults=_faults_from_args(args),
        max_attempts=args.max_attempts,
    )
    manifest = campaign_to_manifest(top, cfg, resolve_telemetry(None))
    try:
        resp = client.submit(args.url, manifest, jobs=args.jobs)
    except client.ServiceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    verb = "coalesced into in-flight campaign" if resp.get("deduped") else "submitted as"
    print(f"{verb} {resp['id']} [{resp['state']}] on {args.url}")
    if not args.wait:
        return 0
    try:
        doc = client.wait(args.url, resp["id"], timeout=args.timeout)
    except client.ServiceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    cache = doc.get("cache", {})
    print(
        f"  cache: {cache.get('hits', 0)} hit(s)  "
        f"{cache.get('misses', 0)} miss(es)"
    )
    from repro.core.checkpoint import record_from_dict

    _print_mode_stats([record_from_dict(d) for d in doc.get("records", [])])
    return 0


def cmd_cache_status(args) -> int:
    """Inspect a result cache: local directory scan or a live service."""
    if args.url is not None:
        from repro.service import client

        try:
            stats = client.cache_stats(args.url)
        except client.ServiceError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"cache at {args.url}:")
        for k, v in stats.items():
            print(f"  {k}: {v}")
        return 0
    if args.cache is None:
        print("error: need --cache DIR or --url URL", file=sys.stderr)
        return 2
    from repro.service import RunRecordStore

    store = RunRecordStore(args.cache)
    st = store.stats()
    print(
        f"cache {store.root}: {st.entries} entries  {st.bytes} bytes  "
        f"{st.quarantined_files} quarantined"
    )
    return 0


def cmd_report(args) -> int:
    from repro.telemetry.report import format_summary, summarize_trace
    from repro.telemetry.trace import scan_trace

    path = Path(args.trace_path)
    if getattr(args, "follow", False):
        return _report_follow(args, path)
    if not path.exists():
        raise SystemExit(f"no such trace file: {path}")
    scan = scan_trace(path)
    if scan.truncated_tail:
        print(
            f"warning: {path} ends mid-line — the writer is still live, or "
            "the run was interrupted mid-append (use --follow for live runs)",
            file=sys.stderr,
        )
    if scan.n_bad:
        print(
            f"warning: {path}: skipped {scan.n_bad} malformed line(s)",
            file=sys.stderr,
        )
    if not scan.events:
        print(f"trace: {path}  (0 events)")
        print(
            "  no events recorded yet — the run may not have started, or "
            "was launched without --trace"
        )
        return 0
    print(format_summary(summarize_trace(scan.events, top=args.top), str(path)))
    return 0


def _follow(args, path, fold: CampaignProgress):
    """Poll the trace at ``path`` (None: no trace) every ``--interval``
    until ``--max-seconds``; feed each poll's new events into ``fold``,
    then yield them."""
    from repro.telemetry.stream import TraceTail

    tail = TraceTail(path) if path else None
    max_seconds = getattr(args, "max_seconds", None)
    deadline = time.monotonic() + max_seconds if max_seconds else None
    while True:
        fresh = tail.poll() if tail is not None else []
        fold.feed_many(fresh)
        yield fresh
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(max(float(args.interval), 0.05))


def _report_follow(args, path: Path) -> int:
    """``report --follow``: fold each new event as the trace grows, until
    the campaign has ended and one more poll brings nothing new (a trace
    may hold several campaigns in a row, as ``calibrate``'s does)."""
    from repro.telemetry.report import format_summary
    from repro.telemetry.stream import CampaignProgress

    fold = CampaignProgress(top=args.top, keep_values=True)
    for fresh in _follow(args, path, fold):
        if fresh:
            try:
                print(format_summary(fold, f"{path} (following)"))
                print("-" * 64, flush=True)
            except BrokenPipeError:
                return 0  # downstream pager/head closed the pipe
        elif fold.ended_at is not None:
            return 0
    return 0


def cmd_top(args) -> int:
    """Live campaign progress from a trace another process is writing;
    ends like ``report --follow``, on a quiet poll after a campaign end."""
    from repro.telemetry.stream import CampaignProgress
    from repro.telemetry.top import heartbeat_ages, render_top

    prog = CampaignProgress()
    for fresh in _follow(args, args.trace_path, prog):
        hb_dir = args.heartbeats or prog.heartbeat_dir
        frame = render_top(prog.snapshot(), heartbeats=heartbeat_ages(hb_dir))
        if args.once:
            print(frame, end="")
            return 0
        sys.stdout.write("\x1b[2J\x1b[H" + frame)  # clear screen, home
        sys.stdout.flush()
        if prog.ended_at is not None and not fresh:
            return 0
    return 0


def _trace_metric_name(ev) -> str:
    # the fold counts events without a type under "?"
    return ("unknown" if ev == "?" else str(ev)).replace(".", "_").replace("-", "_")


def _fold_event_metrics(reg: MetricsRegistry, ev: dict) -> None:
    """Mirror one timed trace event into a per-type wall-time histogram."""
    wall = ev.get("wall_ms")
    if isinstance(wall, (int, float)):
        name = _trace_metric_name(ev.get("ev", "?"))
        reg.histogram(
            f"trace_{name}_seconds", "wall time of traced spans by type"
        ).observe(float(wall) / 1e3)


def _fold_progress_metrics(reg: MetricsRegistry, prog: CampaignProgress) -> None:
    totals: dict[str, float] = {}
    for ev, n in prog.by_type.items():
        name = _trace_metric_name(ev)
        totals[name] = totals.get(name, 0.0) + n
    for name, n in totals.items():
        reg.counter(f"trace_{name}_total", "trace events observed by type").value = n
    snap = prog.snapshot()
    reg.gauge("campaign_runs_total", "runs the campaign will produce").set(
        snap["total_runs"]
    )
    reg.gauge("campaign_runs_done", "runs completed so far").set(snap["done_runs"])
    reg.gauge("campaign_runs_failed", "runs ending in error").set(
        snap["failed_runs"]
    )
    reg.gauge("campaign_running", "1 while the campaign is live").set(
        1.0 if snap["running"] else 0.0
    )
    eta = snap["eta_seconds"]
    if eta is not None:
        reg.gauge("campaign_eta_seconds", "estimated wall time remaining").set(eta)


def cmd_serve_metrics(args) -> int:
    """Standalone sidecar exporter following a live campaign trace."""
    from repro.telemetry.exporter import MetricsExporter
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.stream import CampaignProgress

    reg = MetricsRegistry(enabled=True)
    prog = CampaignProgress()
    exporter = MetricsExporter(reg, progress=prog, host=args.host, port=args.port)
    print(f"serving /metrics /healthz /runs on {exporter.url}", flush=True)
    try:
        for fresh in _follow(args, args.trace, prog):
            for ev in fresh:
                _fold_event_metrics(reg, ev)
            _fold_progress_metrics(reg, prog)
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        exporter.close()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="Dragonfly adaptive-routing study toolkit"
    )
    sub = p.add_subparsers(dest="command", required=True)

    def observability(sp):
        sp.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="log progress to stderr (-vv for the full event stream)",
        )
        sp.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="journal structured JSONL engine events to PATH",
        )
        sp.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write metrics at exit (Prometheus text, or JSON for *.json)",
        )
        sp.add_argument(
            "--series",
            type=float,
            default=None,
            metavar="SECONDS",
            help="cadence-sample counter/latency series onto run records "
            "(sim-time seconds between windows)",
        )
        sp.add_argument(
            "--serve",
            type=int,
            default=None,
            metavar="PORT",
            help="serve live /metrics, /healthz, and /runs over HTTP while "
            "the command runs (0 picks an ephemeral port)",
        )

    def common(sp):
        sp.add_argument(
            "--system", default="theta", help="theta | cori | slingshot | mini | toy"
        )
        sp.add_argument("--seed", type=int, default=2021)
        observability(sp)

    def jobs_flag(sp):
        sp.add_argument(
            "-j",
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="worker processes for the campaign runs (default: $REPRO_JOBS "
            "or 1; results are identical for any value)",
        )

    def resumable_flags(sp):
        sp.add_argument(
            "--faults",
            default=None,
            metavar="SPEC",
            help='degraded-network spec, e.g. "rank3:0.05; router:3" (docs/FAULTS.md)',
        )
        sp.add_argument(
            "--checkpoint",
            default=None,
            metavar="PATH",
            help="append finished runs to a JSONL checkpoint file",
        )
        sp.add_argument(
            "--resume",
            action="store_true",
            help="skip runs already completed in --checkpoint",
        )

    def campaign_flags(sp):
        resumable_flags(sp)
        sp.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-run wall-clock budget; a run over it becomes an "
            "error-status record instead of hanging the campaign",
        )
        sp.add_argument(
            "--step-budget",
            type=int,
            default=None,
            metavar="N",
            help="per-run packet-simulator step budget (docs/GUARDRAILS.md)",
        )
        sp.add_argument(
            "--guard",
            default=None,
            choices=["off", "warn", "record", "raise", "strict"],
            help="invariant-monitor policy (strict == raise); see also "
            "the REPRO_GUARD environment variable",
        )
        sp.add_argument(
            "--hang-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="with -j: SIGKILL+retry a worker whose heartbeat goes "
            "stale for this long",
        )
        sp.add_argument(
            "--bundle-dir",
            default=None,
            metavar="DIR",
            help="write a diagnostics bundle per guard-terminated run",
        )
        sp.add_argument(
            "--queue",
            default=None,
            metavar="DIR",
            help="distribute the runs over a shared-directory work queue; "
            "start executors with `repro worker --queue DIR` on any host "
            "(docs/DISTRIBUTED.md)",
        )
        sp.add_argument(
            "--cache",
            default=None,
            metavar="DIR",
            help="memoize runs in a content-addressed result cache; hits "
            "are served from DIR without executing (docs/SERVICE.md)",
        )

    sp = sub.add_parser("describe", help="print a system's structure and the routing modes")
    common(sp)
    sp.set_defaults(func=cmd_describe)

    sp = sub.add_parser("compare", help="paired campaign over chosen modes")
    common(sp)
    sp.add_argument("--app", default="milc")
    sp.add_argument("--nodes", type=int, default=256)
    sp.add_argument("--samples", type=int, default=8)
    sp.add_argument("--modes", default="AD0,AD3", help="comma-separated, e.g. AD0,AD3")
    sp.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        help="retries per run on transient solver non-convergence",
    )
    campaign_flags(sp)
    jobs_flag(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sweep", help="campaign over all four vendor modes")
    common(sp)
    sp.add_argument("--app", default="milc")
    sp.add_argument("--nodes", type=int, default=256)
    sp.add_argument("--samples", type=int, default=6)
    sp.add_argument(
        "--modes",
        default="AD0,AD1,AD2,AD3",
        help="comma-separated mode subset to sweep (default: all four)",
    )
    sp.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        help="retries per run on transient solver non-convergence",
    )
    campaign_flags(sp)
    jobs_flag(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("advise", help="profile an app and recommend a bias")
    common(sp)
    sp.add_argument("--app", default="milc")
    sp.add_argument("--nodes", type=int, default=256)
    sp.set_defaults(func=cmd_advise)

    sp = sub.add_parser("facility", help="before/after default-change study")
    common(sp)
    sp.add_argument("--intervals", type=int, default=12)
    sp.set_defaults(func=cmd_facility)

    sp = sub.add_parser("calibrate", help="score (or sweep) the model constants")
    common(sp)
    sp.add_argument("--param", default=None, help="congestion constant to sweep")
    sp.add_argument("--values", default="", help="comma-separated sweep values")
    sp.add_argument("--samples", type=int, default=14)
    jobs_flag(sp)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("ensemble", help="controlled full-reservation ensemble")
    common(sp)
    sp.add_argument("--app", default="milc")
    sp.add_argument("--jobs", type=int, default=8)
    sp.add_argument("--nodes", type=int, default=512)
    sp.add_argument("--mode", default="AD3")
    sp.add_argument(
        "--modes",
        default=None,
        help="comma-separated mode sweep (one ensemble per mode); overrides --mode",
    )
    sp.add_argument("--placement", default="dispersed")
    sp.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes when sweeping multiple --modes "
        "(default: $REPRO_JOBS or 1); --jobs is the ensemble's job count",
    )
    resumable_flags(sp)
    sp.set_defaults(func=cmd_ensemble)

    sp = sub.add_parser("report", help="summarize a recorded JSONL trace")
    sp.add_argument("trace_path", help="trace file written with --trace")
    sp.add_argument("--top", type=int, default=10, help="rows per ranked section")
    sp.add_argument(
        "--follow",
        action="store_true",
        help="keep re-summarizing as the trace grows (live runs)",
    )
    sp.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll cadence with --follow (default: 2)",
    )
    sp.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --follow: stop after this long even if the run is live",
    )
    observability(sp)
    sp.set_defaults(func=cmd_report, passive=True)

    sp = sub.add_parser(
        "top", help="live progress view of a campaign writing a --trace file"
    )
    sp.add_argument("trace_path", help="trace file the campaign is writing")
    sp.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    sp.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh cadence (default: 1)",
    )
    sp.add_argument(
        "--heartbeats",
        default=None,
        metavar="DIR",
        help="worker heartbeat directory (auto-discovered from the trace "
        "when the campaign runs with -j)",
    )
    sp.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long even if the campaign is still live",
    )
    observability(sp)
    sp.set_defaults(func=cmd_top, passive=True)

    sp = sub.add_parser(
        "serve-metrics",
        help="sidecar HTTP exporter: /metrics, /healthz, /runs",
    )
    sp.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="live trace file to follow (progress + per-event counters)",
    )
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument(
        "--port",
        type=int,
        default=9137,
        metavar="PORT",
        help="listen port (default: 9137; 0 picks an ephemeral port)",
    )
    sp.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="trace poll cadence (default: 0.5)",
    )
    sp.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for this long, then exit 0 (default: until interrupted)",
    )
    sp.add_argument("-v", "--verbose", action="count", default=0)
    sp.set_defaults(func=cmd_serve_metrics, passive=True)

    sp = sub.add_parser(
        "doctor",
        help="validate a campaign's config and self-test the installation",
    )
    common(sp)
    sp.add_argument(
        "--dims",
        default=None,
        metavar="G,C,R,N",
        help="custom topology dims (groups, chassis/group, routers/chassis, "
        "nodes/router); overrides --system",
    )
    sp.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault schedule to validate against the chosen topology",
    )
    sp.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint destination to probe for writability",
    )
    sp.add_argument(
        "--no-selftest",
        action="store_true",
        help="skip the engine self-test matrix (config checks only)",
    )
    sp.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help="preflight a shared queue directory for a distributed "
        "campaign (O_EXCL, atomic rename, space, clock skew, stale leases)",
    )
    sp.set_defaults(func=cmd_doctor)

    sp = sub.add_parser(
        "worker",
        help="execute runs from a shared-directory campaign queue",
    )
    sp.add_argument(
        "--queue",
        required=True,
        metavar="DIR",
        help="queue directory a coordinator created (or will create) "
        "with --queue on compare/sweep",
    )
    sp.add_argument(
        "--owner",
        default=None,
        metavar="NAME",
        help="worker identity in leases and results (default: host:pid)",
    )
    sp.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N runs (default: until the campaign ends)",
    )
    sp.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long even if work remains (batch job budgets)",
    )
    sp.add_argument(
        "--no-speculate",
        action="store_true",
        help="never re-execute in-flight stragglers at the campaign tail",
    )
    sp.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="idle scan cadence (default: 0.2)",
    )
    sp.add_argument("--seed", type=int, default=2021)
    observability(sp)
    sp.set_defaults(func=cmd_worker)

    sp = sub.add_parser(
        "queue-status",
        help="inspect a distributed campaign's queue directory",
    )
    sp.add_argument(
        "--queue",
        required=True,
        metavar="DIR",
        help="queue directory to scan",
    )
    sp.set_defaults(func=cmd_queue_status, passive=True)

    sp = sub.add_parser(
        "serve",
        help="run the campaign service: HTTP submissions over a shared "
        "content-addressed result cache (docs/SERVICE.md)",
    )
    sp.add_argument(
        "--cache", required=True, metavar="DIR", help="result-cache directory"
    )
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    sp.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="LRU-evict cache entries beyond this total size",
    )
    sp.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="LRU-evict cache entries beyond this count",
    )
    sp.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help="fan cache misses out over a shared-directory work queue "
        "instead of the local fork pool",
    )
    sp.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="serve for this long, then exit (default: until SIGINT)",
    )
    sp.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="durable job journal for restart recovery "
        "(default: <cache>/journal)",
    )
    sp.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the job journal (a restart forgets in-flight campaigns)",
    )
    sp.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait this long for in-flight campaigns "
        "before exiting (unfinished ones recover on restart; default: 30)",
    )
    jobs_flag(sp)
    observability(sp)
    sp.set_defaults(func=cmd_serve, passive=True)

    sp = sub.add_parser(
        "chaos",
        help="soak a campaign under a deterministic failure schedule "
        "(docs/CHAOS.md)",
    )
    common(sp)
    sp.add_argument(
        "--schedule",
        required=True,
        metavar="SPEC",
        help='failpoint rules, e.g. "checkpoint.append:crash:at=3; '
        'store.commit.pre_rename:enospc:p=0.3"',
    )
    sp.add_argument(
        "--chaos-seed",
        type=int,
        default=2021,
        help="seed for the schedule's probability draws (replay key)",
    )
    sp.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="keep the soak's reference/survivor/fired files here "
        "(default: a temp dir, removed afterwards)",
    )
    sp.add_argument("--app", default="milc")
    sp.add_argument("--nodes", type=int, default=32)
    sp.add_argument("--samples", type=int, default=3)
    sp.add_argument("--modes", default="AD0,AD3", help="comma-separated, e.g. AD0,AD3")
    sp.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help='degraded-network spec, e.g. "rank3:0.05; router:3"',
    )
    sp.add_argument(
        "--queue",
        action="store_true",
        help="dispatch the soak through the shared-directory queue protocol",
    )
    sp.add_argument(
        "--max-restarts",
        type=int,
        default=25,
        metavar="N",
        help="give up after N child restarts (default: 25)",
    )
    sp.add_argument(
        "--replay",
        action="store_true",
        help="run the soak twice and verify the failure run replays "
        "identically (fires, attempts, surviving bytes)",
    )
    sp.set_defaults(func=cmd_chaos)

    sp = sub.add_parser(
        "submit", help="submit a campaign to a running `repro serve`"
    )
    common(sp)
    sp.add_argument("--url", required=True, help="service base URL (http://host:port)")
    sp.add_argument("--app", default="milc")
    sp.add_argument("--nodes", type=int, default=256)
    sp.add_argument("--samples", type=int, default=8)
    sp.add_argument("--modes", default="AD0,AD3", help="comma-separated, e.g. AD0,AD3")
    sp.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        help="retries per run on transient solver non-convergence",
    )
    sp.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help='degraded-network spec, e.g. "rank3:0.05; router:3"',
    )
    sp.add_argument(
        "--wait",
        action="store_true",
        help="block until the campaign finishes and print its mode stats",
    )
    sp.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait gives up after this many seconds",
    )
    jobs_flag(sp)
    sp.set_defaults(func=cmd_submit)

    sp = sub.add_parser(
        "cache-status", help="inspect a result cache (local dir or live service)"
    )
    sp.add_argument("--cache", default=None, metavar="DIR", help="cache directory")
    sp.add_argument(
        "--url", default=None, help="running service to query for /cache/stats"
    )
    sp.set_defaults(func=cmd_cache_status, passive=True)

    return p


def _telemetry_from_args(args) -> Telemetry:
    """Build the command's telemetry handle from the shared flags."""
    verbose = getattr(args, "verbose", 0)
    if verbose:
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO if verbose == 1 else logging.DEBUG,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
    writers = []
    # passive commands (report/top/serve-metrics) treat --trace as an
    # input to follow, never a journal to open for writing — opening it
    # here would truncate the live file they are about to read
    passive = getattr(args, "passive", False)
    trace_path = None if passive else getattr(args, "trace", None)
    if trace_path:
        try:
            writers.append(JsonlTraceWriter(trace_path))
        except OSError as e:
            raise SystemExit(f"cannot open trace file {trace_path}: {e.strerror}")
    if verbose >= 2:
        writers.append(LoggingTraceWriter(logging.getLogger("repro.telemetry")))
    if len(writers) == 1:
        trace = writers[0]
    elif writers:
        trace = MultiTraceWriter(writers)
    else:
        trace = NULL_TRACE
    tel = Telemetry(trace=trace)
    tel.metrics.enabled = bool(getattr(args, "metrics", None)) or (
        not passive and getattr(args, "serve", None) is not None
    )
    if not passive and getattr(args, "series", None) is not None:
        from repro.telemetry.series import SeriesConfig

        tel.series = SeriesConfig(cadence=args.series)
    if trace_path:
        logger.info("tracing engine events to %s", trace_path)
    return tel


def main(argv: list[str] | None = None) -> int:
    try:
        # a batch scheduler's SIGTERM should unwind like SystemExit so
        # pools reap their workers and checkpoints keep a clean tail
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    except ValueError:
        pass  # not the main thread (embedded use); keep default handling
    try:
        # honour $REPRO_CHAOS so subprocess workers and services run
        # under the same failure schedule as the soak that spawned them
        from repro.chaos import activate_from_env

        activate_from_env()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    tel = _telemetry_from_args(args)
    exporter = None
    serve_port = None if getattr(args, "passive", False) else getattr(
        args, "serve", None
    )
    try:
        if serve_port is not None:
            from repro.telemetry.exporter import MetricsExporter
            from repro.telemetry.stream import BusTraceWriter, CampaignProgress, EventBus

            # splice a bus into the trace path so the exporter's /runs view
            # tracks the campaign live, with zero changes to the engines
            bus = EventBus()
            progress = CampaignProgress()
            bus.subscribe(progress.feed)
            tel.trace = MultiTraceWriter([tel.trace, BusTraceWriter(bus)])
            exporter = MetricsExporter(tel.metrics, progress=progress, port=serve_port)
            print(
                f"serving /metrics /healthz /runs on {exporter.url}",
                file=sys.stderr,
                flush=True,
            )
        with use_telemetry(tel):
            rc = args.func(args)
    except NetworkPartitionedError as e:
        print(f"error: network partitioned: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        from repro.telemetry.exporter import BindError  # an OSError

        if not isinstance(e, (ValueError, BindError)):
            raise
        # bad config/topology/fault-spec values and unbindable ports are
        # user errors, not bugs
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if exporter is not None:
            exporter.close()
        tel.close()
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        path = Path(metrics_path)
        text = (
            tel.metrics.to_json()
            if path.suffix == ".json"
            else tel.metrics.to_prometheus()
        )
        try:
            path.write_text(text)
        except OSError as e:
            raise SystemExit(f"cannot write metrics file {path}: {e.strerror}")
        logger.info("wrote %d metrics to %s", len(tel.metrics), path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
