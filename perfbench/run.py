#!/usr/bin/env python3
"""End-to-end campaign benchmark of the ``repro`` CLI (see README.md).

    python3 perfbench/run.py --workload cold-milc512 --seed 2021 --seconds 15 --trace 0

Every rep is a real ``python -m repro`` campaign started by this script
as fresh processes and timed from the first launch until every
process is reaped.  The run first builds a serial reference checkpoint
(plus, for the warm workload, fills the result store), then measures for
about ``--seconds``:

* ``--trace 0``: campaign reps, and a ``--samples 0`` rep (set-up only)
  after every second one, tracing off; each end-to-end metric is a median.
* ``--trace 1``: pairs of one untraced rep and one rep run under
  ``tracer.py``; prints the traced main process's wall time split by
  layer, and reports the per-layer metrics of the median traced rep.

Every campaign rep's checkpoint is byte-compared with the reference.
The last stdout line is the JSON result; exit status is 0 only when every
record matched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import fold

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SYSTEM = "theta"
MODES = "AD0,AD3"
DEFAULT_SEED = 2021
#: maps to each workload's held-out campaign seed, never run while the
#: benchmark was tuned; confirm a claimed gain on it
HELD_OUT_SEED = 99991
#: a run must finish within 180 s: no invocation may outlive this budget
BUDGET_S = 170.0

#: end-to-end metrics (``--trace 0``) and their units
E2E_UNITS = {"campaign_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    app: str
    nodes: int
    samples: int
    #: campaign seeds with matching peak RSS and near-median wall times
    #: among the candidates 2000-2023 (README.md, "Seeds")
    seeds: tuple[int, ...]
    #: a close candidate kept out of ``seeds``, reached only through
    #: ``HELD_OUT_SEED``
    held_out: int
    jobs: int = 1  # -j: fork-pool workers
    cache: bool = False  # --cache over a store filled before timing
    queue: bool = False  # --queue coordinator plus one `repro worker`

    def campaign_seed(self, seed: int) -> int:
        """The ``--seed`` the CLI gets for benchmark seed ``seed``."""
        if seed == HELD_OUT_SEED:
            return self.held_out
        return self.seeds[seed % len(self.seeds)]

    @property
    def cpus(self) -> int:
        """Concurrent busy ``repro`` processes (never more than nproc)."""
        return 2 if self.queue else self.jobs

    @property
    def executors(self) -> int:
        """Processes that execute the runs when the main one dispatches."""
        return 1 if self.queue else self.jobs


WORKLOADS = {
    "cold-milc512": Workload("milc", 512, 12, (2009, 2020), 2021),
    "warm-milc512": Workload("milc", 512, 12, (2009, 2020), 2021, cache=True),
    "j2-hacc1024": Workload("hacc", 1024, 6, (2001, 2009), 2005, jobs=2),
    "queue1-milc256": Workload("milc", 256, 8, (2001, 2006), 2010, queue=True),
}


class BenchError(RuntimeError):
    """An invocation failed outright; the run prints no result."""


@dataclass
class Invocation:
    t_launch: float
    t_end: float
    cpu: float  # user + sys of every process and its reaped children
    rss_mb: float  # peak RSS of the largest process
    stdout: list[str]
    stderr: list[str]

    @property
    def wall(self) -> float:
        return self.t_end - self.t_launch


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Campaign:
    """The CLI invocations of one workload, inside a scratch directory."""

    def __init__(self, name: str, seed: int, smoke: bool, deadline: float) -> None:
        self.w = WORKLOADS[name]
        # --smoke keeps each workload's code path at a few seconds' cost
        self.system, self.nodes, self.samples, self.seed = (
            ("mini", 32, 2, seed) if smoke
            else (SYSTEM, self.w.nodes, self.w.samples, self.w.campaign_seed(seed))
        )
        self.runs = self.samples * len(MODES.split(","))
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.store = self.dir / "store"
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.n = 0

    def argvs(self, *, samples: int, serial: bool = False) -> tuple[Path, list[list[str]]]:
        """A fresh checkpoint path and the CLI argv of each process."""
        self.n += 1
        ckpt = self.dir / f"c{self.n}.jsonl"
        compare = [
            "compare", "--system", self.system, "--app", self.w.app,
            "--nodes", str(self.nodes), "--samples", str(samples),
            "--modes", MODES, "--seed", str(self.seed), "--checkpoint", str(ckpt),
        ]
        if serial:
            return ckpt, [compare]
        if self.w.jobs > 1:
            compare += ["-j", str(self.w.jobs)]
        if self.w.cache:
            compare += ["--cache", str(self.store)]
        if self.w.queue:
            queue = str(self.dir / f"q{self.n}")
            worker = ["worker", "--queue", queue, "--poll", "0.05"]
            return ckpt, [compare + ["--queue", queue], worker]
        return ckpt, [compare]

    def launch(self, argvs: list[list[str]], trace_dir: Path | None = None) -> Invocation:
        """Start every process at once; wait for all; raise unless all exit 0."""
        cmds = []
        for i, argv in enumerate(argvs):
            if trace_dir is None:
                cmds.append([sys.executable, "-m", "repro", *argv])
            else:
                role = "main" if i == 0 else "worker"
                cmds.append([
                    sys.executable, "-X", "importtime", str(BENCH / "tracer.py"),
                    str(trace_dir), role, "--", *argv,
                ])
        logs = [(self.dir / f"i{self.n}.{i}.out", self.dir / f"i{self.n}.{i}.err")
                for i in range(len(cmds))]
        procs: list[subprocess.Popen] = []
        timers: list[threading.Timer] = []
        cpu = rss = 0.0
        t_launch = time.perf_counter()
        try:
            for cmd, (out, err) in zip(cmds, logs):
                with open(out, "wb") as fo, open(err, "wb") as fe:
                    procs.append(subprocess.Popen(
                        cmd, stdout=fo, stderr=fe, env=self.env, cwd=ROOT
                    ))
                timer = threading.Timer(
                    max(1.0, self.deadline - time.perf_counter()), procs[-1].kill
                )
                timer.daemon = True
                timer.start()
                timers.append(timer)
            for p in procs:
                _, status, ru = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
                cpu += ru.ru_utime + ru.ru_stime
                rss = max(rss, ru.ru_maxrss / 1024.0)
                if p.returncode != 0:
                    break  # a dead coordinator leaves its worker polling
            t_end = time.perf_counter()
        finally:
            for timer in timers:
                timer.cancel()
            for p in procs:
                if p.returncode is None:
                    p.kill()
                    p.wait()
        stdout = [out.read_text(errors="replace") for out, _ in logs]
        stderr = [err.read_text(errors="replace") for _, err in logs]
        for i, p in enumerate(procs):
            if p.returncode != 0:
                tail = "\n".join(stderr[i].splitlines()[-5:])
                raise BenchError(f"repro {argvs[i][0]} exited {p.returncode}:\n{tail}")
        return Invocation(t_launch, t_end, cpu, rss, stdout, stderr)

    def reference(self) -> list[bytes]:
        """Checkpoint lines of the plain serial campaign (header + runs)."""
        ckpt, argvs = self.argvs(samples=self.samples, serial=True)
        self.launch(argvs)
        ref = ckpt.read_bytes().splitlines()
        if len(ref) != self.runs + 1:
            raise BenchError(f"reference holds {len(ref) - 1} records, not {self.runs}")
        return ref

    def check(self, ckpt: Path, inv: Invocation, ref: list[bytes]) -> int:
        """Failed records of one campaign rep: error status, bytes that
        differ from the reference, or runs the workload's contract lost."""
        lines = ckpt.read_bytes().splitlines()
        if len(lines) != len(ref) or lines[0] != ref[0]:
            return self.runs
        failed = sum(
            1 for got, want in zip(lines[1:], ref[1:])
            if got != want or json.loads(got).get("status") == "error"
        )
        if self.w.cache:
            # a warm replay must serve every run from the store
            m = re.search(r"cache: (\d+) hit\(s\)\s+(\d+) miss\(es\)", inv.stdout[0])
            hits = int(m.group(1)) if m and int(m.group(2)) == 0 else 0
            failed += self.runs - hits
        if self.w.queue:
            # the one worker, not the coordinator's fallback pool, ran them
            m = re.search(r"committed=(\d+)", inv.stdout[1])
            failed += self.runs - (int(m.group(1)) if m else 0)
        return min(failed, self.runs)


def _more(c: Campaign, t0: float, seconds: float, last: float) -> bool:
    """Start another rep: measuring time left, and room before the deadline."""
    now = time.perf_counter()
    return now - t0 < seconds and now + last < c.deadline


def measure(c: Campaign, seconds: float, ref: list[bytes]) -> tuple[dict, int, int, str]:
    camp: list[Invocation] = []
    setup: list[float] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    last = 0.0
    while not camp or _more(c, t0, seconds, last):
        rep = time.perf_counter()
        ckpt, argvs = c.argvs(samples=c.samples)
        inv = c.launch(argvs)
        camp.append(inv)
        attempted += c.runs
        failed += c.check(ckpt, inv, ref)
        if len(camp) % 2:  # set-up varies less: one per two campaign reps
            setup.append(c.launch(c.argvs(samples=0)[1]).wall)
        last = time.perf_counter() - rep
    reps = {
        "campaign_s": [i.wall for i in camp],
        "setup_s": setup,
        "cpu_s": [i.cpu for i in camp],
        "peak_rss_mb": [i.rss_mb for i in camp],
    }
    metrics = {name: statistics.median(values) for name, values in reps.items()}
    lines = [f"{len(camp)} campaign rep(s), {len(setup)} set-up rep(s); medians:"]
    for name, value in metrics.items():
        each = " ".join(f"{v:.3f}" for v in reps[name])
        lines.append(f"  {name:14s} {value:10.4f} {E2E_UNITS[name]:3s} (reps: {each})")
    lines.append(
        f"  {'failed_frac':14s} {failed / attempted:10.4f}      "
        f"({failed} of {attempted} records)"
    )
    return metrics, attempted, failed, "\n".join(lines)


def trace(c: Campaign, seconds: float, ref: list[bytes]) -> tuple[dict, int, int, str]:
    untraced: list[float] = []
    reps: list[dict] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    last = 0.0
    while not reps or _more(c, t0, seconds, last):
        rep = time.perf_counter()
        ckpt, argvs = c.argvs(samples=c.samples)
        inv = c.launch(argvs)
        untraced.append(inv.wall)
        attempted += c.runs
        failed += c.check(ckpt, inv, ref)

        ckpt, argvs = c.argvs(samples=c.samples)
        spans_dir = c.dir / f"spans{c.n}"
        spans_dir.mkdir()
        inv = c.launch(argvs, trace_dir=spans_dir)
        attempted += c.runs
        failed += c.check(ckpt, inv, ref)
        spans, procs = fold.load(spans_dir)
        metrics = fold.layer_metrics(
            spans, procs,
            t_launch=inv.t_launch, t_end=inv.t_end,
            importtime=inv.stderr[0],
            executors=c.w.executors,
            untraced_wall=statistics.median(untraced),
            checkpoint_bytes=ckpt.stat().st_size,
            store_bytes=_dir_bytes(c.store) if c.store.exists() else 0,
        )
        reps.append(metrics)
        last = time.perf_counter() - rep
    reps.sort(key=lambda m: m["traced_wall_s"])
    metrics = reps[(len(reps) - 1) // 2]
    wall = metrics["traced_wall_s"]
    parts = {p: metrics[f"part.{p}_s"] for p in fold.PARTS}
    parts["unattributed"] = metrics["unattributed_s"]
    lines = [
        f"median of {len(reps)} traced rep(s): main-process wall {wall:.4f} s by layer "
        f"(self time; untraced campaign {statistics.median(untraced):.4f} s)"
    ]
    for name, value in parts.items():
        lines.append(f"  {name:20s} {value:9.4f} s  {100 * value / wall:5.1f}%")
    lines.append(f"  {'sum':20s} {sum(parts.values()):9.4f} s  (traced wall {wall:.4f} s)")
    lines.append("per-layer metrics:")
    for name, value in metrics.items():
        if not name.startswith("part."):
            lines.append(f"  {name:26s} {value:12.4f} {fold.PER_LAYER[name]}")
    return metrics, attempted, failed, "\n".join(lines)


def stamp(workload: str, seed: int, c: Campaign) -> dict:
    """Where and on what a result was measured."""
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = "unknown"  # a checkout that is not a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload, "seed": seed, "campaign_seed": c.seed,
        "system": c.system, "nproc": nproc(),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=15.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced reps")
    p.add_argument("--smoke", action="store_true",
                   help="mini system, 32 nodes, 2 samples (harness self-tests)")
    args = p.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if w.cpus > nproc():
        print(f"skipped: {args.workload} runs {w.cpus} busy processes, "
              f"this machine has {nproc()} CPU(s)", file=sys.stderr)
        return 3

    c = Campaign(args.workload, args.seed, args.smoke, start + BUDGET_S)
    c.dir.mkdir(parents=True)
    try:
        print("env: " + json.dumps(stamp(args.workload, args.seed, c)))
        ref = c.reference()
        if w.cache:
            ckpt, argvs = c.argvs(samples=c.samples)
            c.launch(argvs)
            if ckpt.read_bytes().splitlines() != ref:
                raise BenchError("the cold --cache run that fills the store "
                                 "differs from the serial reference")
        run = trace if args.trace else measure
        metrics, attempted, failed, table = run(c, args.seconds, ref)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(c.dir, ignore_errors=True)

    units = fold.PER_LAYER if args.trace else E2E_UNITS
    print(f"{args.workload} (seed {args.seed}: campaign --seed {c.seed} on {c.system}):")
    print(table)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
