"""The chaos soak harness: a real campaign under a failure schedule.

``repro chaos`` (and the CI chaos leg) drive this module.  One soak:

1. **Reference** — the campaign runs clean (chaos inactive), serial,
   with a checkpoint.  Its bytes are the ground truth.
2. **Soak** — the same campaign runs in a forked child with the
   schedule active (epoch = restart attempt), writing to its own
   checkpoint/store/queue under the work directory.  Injected I/O
   failures that surface (exit 3) and ``crash`` actions (exit 137)
   restart the child with ``--resume``, up to ``max_restarts``.
3. **Invariants** — after the soak completes: the survivor checkpoint
   is byte-identical to the reference, every store entry passes its
   integrity hash (no torn entry became visible), and in queue mode
   every committed result parses and belongs to the campaign.

Because the child is serial (``jobs=1``) and every chaos decision is a
pure function of ``(seed, spec, epoch, hit index)``, the whole soak —
which sites fired, where the process died, what the survivor files
contain — replays exactly: :func:`verify_replay` runs it twice and
diffs the fired logs and final bytes.

Restart economics: per-process hit counters mean an ``at=N`` rule fires
again each epoch at the same point, so schedules should let resumed
epochs make progress — probabilistic rules (``p=``) decorrelate across
epochs by construction, and ``at=N`` rules with ``N > 1`` advance the
checkpoint by up to ``N-1`` records per epoch.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos import failpoints as fp
from repro.chaos.schedule import CRASH_EXIT_CODE, ChaosSchedule
from repro.core.checkpoint import StoreUnavailableError
from repro.core.experiment import CampaignConfig, run_campaign
from repro.service.executor import run_campaign_cached
from repro.service.store import RunRecordStore
from repro.topology.dragonfly import DragonflyTopology

#: child exit status when an injected I/O failure surfaced to the top
IO_FAILURE_EXIT_CODE = 3


@dataclass
class SoakReport:
    """Everything one soak did, plus the invariant verdicts."""

    spec: str
    seed: int
    queue: bool
    attempts: int = 0
    crashes: int = 0
    io_failures: int = 0
    completed: bool = False
    #: every chaos fire across all epochs, replayed from the fired logs
    fired: list[dict] = field(default_factory=list)
    #: (invariant name, held, detail)
    invariants: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.completed and all(held for _, held, _ in self.invariants)

    def format(self) -> str:
        lines = [
            f"chaos soak: spec={self.spec!r} seed={self.seed} "
            f"dispatch={'queue' if self.queue else 'serial'}",
            f"  attempts={self.attempts} crashes={self.crashes} "
            f"io_failures={self.io_failures} fires={len(self.fired)} "
            f"completed={self.completed}",
        ]
        for name, held, detail in self.invariants:
            mark = "ok  " if held else "FAIL"
            lines.append(f"  [{mark}] {name}: {detail}")
        lines.append(f"soak {'PASSED' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _child_main(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    spec: str,
    seed: int,
    epoch: int,
    log_path: str,
    ckpt_path: str,
    store_dir: str,
    queue_dir: str | None,
    fallback_after: float,
) -> None:
    """One soak epoch, inside the forked child.  Never returns."""
    # determinism requires the serial loop: one process, one hit order
    os.environ["REPRO_JOBS"] = "1"
    schedule = ChaosSchedule.parse(spec, seed=seed, epoch=epoch, log_path=log_path)
    fp.activate(schedule)
    try:
        store = RunRecordStore(store_dir)
        run_campaign_cached(
            top,
            cfg,
            store=store,
            checkpoint_path=ckpt_path,
            resume=epoch > 0,
            jobs=1,
            queue_dir=queue_dir,
            fallback_after=fallback_after,
            poll=0.05,
        )
    except (StoreUnavailableError, OSError):
        os._exit(IO_FAILURE_EXIT_CODE)
    except Exception:
        os._exit(1)
    os._exit(0)


def _load_fired(log_path: Path) -> list[dict]:
    out = []
    try:
        text = log_path.read_text()
    except OSError:
        return out
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            continue  # the child died mid-append; the fire still happened
    return out


def _queue_results_valid(queue_dir: Path) -> tuple[bool, str]:
    """Every committed result parses and names a task of this campaign."""
    task_ids = {p.stem for p in (queue_dir / "tasks").glob("*.json")}
    results = sorted((queue_dir / "results").glob("*.json"))
    for path in results:
        try:
            payload = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return False, f"torn/unreadable result {path.name}"
        if path.stem not in task_ids:
            return False, f"result {path.name} matches no campaign task"
        if not isinstance(payload, dict) or "line" not in payload:
            return False, f"result {path.name} is not a complete payload"
    return True, f"{len(results)} committed results, all complete and owned"


def run_soak(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    spec: str,
    seed: int,
    workdir: str | os.PathLike,
    queue: bool = False,
    max_restarts: int = 25,
    fallback_after: float = 0.3,
) -> SoakReport:
    """Run one campaign soak under ``spec`` (see module docstring)."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report = SoakReport(spec=spec, seed=seed, queue=queue)
    # the schedule is validated (and its rules site-checked) up front so
    # a typo fails the soak before any work happens
    for rule in ChaosSchedule.parse(spec, seed=seed).rules:
        rule.check_registered(fp.SITES)

    # ------------------------------------------------------------------
    # phase 1: clean serial reference (chaos must NOT be active here)
    # ------------------------------------------------------------------
    fp.deactivate()
    ref_ckpt = workdir / "reference.jsonl"
    run_campaign(top, cfg, checkpoint_path=str(ref_ckpt), jobs=1)
    ref_bytes = ref_ckpt.read_bytes()

    # ------------------------------------------------------------------
    # phase 2: the soak — fork, perturb, restart on death
    # ------------------------------------------------------------------
    soak_ckpt = workdir / "soak.jsonl"
    store_dir = workdir / "store"
    queue_dir = workdir / "queue" if queue else None
    mp = multiprocessing.get_context("fork")
    for epoch in range(max_restarts + 1):
        log_path = workdir / f"fired.{epoch}.jsonl"
        proc = mp.Process(
            target=_child_main,
            args=(
                top, cfg, spec, seed, epoch, str(log_path), str(soak_ckpt),
                str(store_dir), None if queue_dir is None else str(queue_dir),
                fallback_after,
            ),
        )
        proc.start()
        proc.join()
        report.attempts += 1
        report.fired.extend(_load_fired(log_path))
        code = proc.exitcode
        if code == 0:
            report.completed = True
            break
        if code == CRASH_EXIT_CODE or (code is not None and code < 0):
            report.crashes += 1  # chaos crash, or a raw signal
        elif code == IO_FAILURE_EXIT_CODE:
            report.io_failures += 1
        else:
            report.invariants.append(
                ("child exit", False, f"unexpected exit code {code} in epoch {epoch}")
            )
            return report
    if not report.completed:
        report.invariants.append(
            ("completion", False, f"campaign still unfinished after {report.attempts} epochs")
        )
        return report

    # ------------------------------------------------------------------
    # phase 3: the standing invariants
    # ------------------------------------------------------------------
    soak_bytes = soak_ckpt.read_bytes()
    report.invariants.append(
        (
            "checkpoint byte-identical to clean serial",
            soak_bytes == ref_bytes,
            f"{len(soak_bytes)} bytes vs {len(ref_bytes)} reference",
        )
    )
    ok_entries, bad_keys = RunRecordStore(store_dir).verify()
    report.invariants.append(
        (
            "no torn store entry became visible",
            not bad_keys,
            f"{ok_entries} entries verified"
            + (f", bad: {bad_keys}" if bad_keys else ""),
        )
    )
    if queue_dir is not None and queue_dir.exists():
        held, detail = _queue_results_valid(queue_dir)
        report.invariants.append(("queue results complete and owned", held, detail))
    return report


def verify_replay(
    top: DragonflyTopology,
    cfg: CampaignConfig,
    *,
    spec: str,
    seed: int,
    workdir: str | os.PathLike,
    queue: bool = False,
    max_restarts: int = 25,
    fallback_after: float = 0.3,
) -> tuple[SoakReport, SoakReport, bool]:
    """Run the soak twice from scratch; True iff they replayed identically.

    Identical means: same fired sequence (site, hit, action, epoch) and
    byte-identical surviving checkpoints — the whole failure run is a
    pure function of ``(seed, spec)``.
    """
    workdir = Path(workdir)
    first = run_soak(
        top, cfg, spec=spec, seed=seed, workdir=workdir / "run1",
        queue=queue, max_restarts=max_restarts, fallback_after=fallback_after,
    )
    second = run_soak(
        top, cfg, spec=spec, seed=seed, workdir=workdir / "run2",
        queue=queue, max_restarts=max_restarts, fallback_after=fallback_after,
    )
    same = (
        first.fired == second.fired
        and first.attempts == second.attempts
        and first.crashes == second.crashes
        and first.io_failures == second.io_failures
        and _soak_bytes(workdir / "run1") == _soak_bytes(workdir / "run2")
    )
    return first, second, same


def _soak_bytes(rundir: Path) -> bytes:
    try:
        return (rundir / "soak.jsonl").read_bytes()
    except OSError:
        return b""
