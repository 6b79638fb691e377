"""Fold the spans of one traced rep into the per-layer metrics.

Pure functions over the records ``tracer.py`` writes, shared by the
benchmark and its self-tests.  The *partition* splits the traced wall
time (launch of the first process until every process is reaped) into
the self times of the main process's spans: a span's duration minus the
durations of its children in the same process.  Spans nest by call, so
the rows plus ``unattributed`` (the root's own self time) add up to the
wall exactly.  Spans of other processes (fork-pool children, the queue
worker) run concurrently with the main one; they feed the per-layer
totals and counts but never the partition.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: partition rows, in print order (``unattributed`` comes last)
PARTS = [
    "interpreter.startup",
    "imports.cli",
    "tracer.setup",
    "topology.build",
    "background.pool",
    "experiment.draws",
    "experiment.run",
    "fluid.solve",
    "checkpoint.append",
    "store.get",
    "store.put",
    "queue.create",
    "queue.claim",
    "queue.commit",
    "queue.read",
    "queue.dispatch",
    "parallel.dispatch",
    "interpreter.exit",
]

#: every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    "imports.cli_s": "s",
    "imports.scipy_stats_s": "s",
    "topology.build_s": "s",
    "topology.pathcache_hits": "count",
    "topology.pathcache_misses": "count",
    "background.pool_s": "s",
    "background.pool_solves": "count",
    "experiment.draws_s": "s",
    "experiment.run_s.p50": "s",
    "experiment.run_s.p90": "s",
    "experiment.runs": "count",
    "fluid.solve_s": "s",
    "fluid.solves": "count",
    "fluid.iterations": "count",
    "checkpoint.append_s": "s",
    "checkpoint.bytes": "bytes",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hit_frac": "ratio",
    "store.bytes": "bytes",
    "queue.create_s": "s",
    "queue.claim_s": "s",
    "queue.commit_s": "s",
    "queue.read_s": "s",
    "parallel.wall_s": "s",
    "parallel.busy_s": "s",
    "parallel.efficiency": "ratio",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
    **{f"part.{p}_s": "s" for p in PARTS},
}


def load(span_dir: str | Path) -> tuple[list[dict], dict[int, dict]]:
    """All spans under ``span_dir`` plus each process's path-cache deltas."""
    spans: list[dict] = []
    procs: dict[int, dict] = {}
    for path in sorted(Path(span_dir).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec["name"] == "process":
                procs[rec["pid"]] = rec["attrs"]  # the last flush is cumulative
            else:
                spans.append(rec)
    return spans, procs


def import_time(stderr: str, package: str) -> float:
    """Seconds spent importing ``package`` per ``python -X importtime``.

    Sums the cumulative time of every import of ``package`` or one of its
    submodules that no other such import encloses: ``from scipy import
    stats`` logs the submodules but no line of its own.  A child line is
    indented one step deeper and printed before its parent.
    """
    total = 0.0
    pending: dict[int, list[tuple[bool, float]]] = {}  # depth -> (in package, s)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        cols = line[len("import time:"):].split("|")
        if len(cols) != 3 or not cols[1].strip().isdigit():
            continue  # the column header
        name = cols[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        mine = name == package or name.startswith(package + ".")
        for child_mine, seconds in pending.pop(depth + 1, []):
            if child_mine and not mine:
                total += seconds
        pending.setdefault(depth, []).append((mine, int(cols[1]) / 1e6))
    return total + sum(s for entries in pending.values() for mine, s in entries if mine)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def main_root(spans: list[dict]) -> dict:
    return next(
        s for s in spans if s["name"] == "root" and s["attrs"]["role"] == "main"
    )


def partition(spans: list[dict], t_launch: float, t_end: float) -> dict[str, float]:
    """``t_end - t_launch`` split into :data:`PARTS` plus ``unattributed``."""
    root = main_root(spans)
    own = [s for s in spans if s["pid"] == root["pid"]]
    covered: dict[str, float] = defaultdict(float)
    for s in own:
        if s["parent"] is not None:
            covered[s["parent"]] += _dur(s)
    parts = dict.fromkeys(PARTS, 0.0)
    parts["interpreter.startup"] = root["start"] - t_launch
    parts["interpreter.exit"] = t_end - root["end"]
    for s in own:
        if s is not root:
            parts[s["name"]] += _dur(s) - covered[s["id"]]
    parts["unattributed"] = _dur(root) - covered[root["id"]]
    return parts


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (0 for no values)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def layer_metrics(
    spans: list[dict],
    procs: dict[int, dict],
    *,
    t_launch: float,
    t_end: float,
    importtime: str,
    executors: int,
    untraced_wall: float,
    checkpoint_bytes: int,
    store_bytes: int,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced rep.

    ``importtime`` is the main process's ``-X importtime`` log.  Times named after a layer sum that layer's spans over all processes,
    except ``topology.build_s`` and ``background.pool_s``, which are the
    main process's set-up (a queue worker pays its own again, visible in
    ``background.pool_solves``).  ``parallel.*`` cover the dispatch span
    of a ``-j`` pool or a queue: busy is the run time spent in other
    processes, efficiency is busy / (executors x dispatch wall).
    """
    root = main_root(spans)
    main = root["pid"]
    by_id = {s["id"]: s for s in spans}

    def named(name: str, main_only: bool = False) -> list[dict]:
        return [
            s for s in spans
            if s["name"] == name and (not main_only or s["pid"] == main)
        ]

    def total(name: str, main_only: bool = False) -> float:
        return sum(_dur(s) for s in named(name, main_only))

    def under(span: dict, ancestor: str) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == ancestor:
                return True
            parent = by_id.get(parent["parent"])
        return False

    runs = named("experiment.run")
    solves = named("fluid.solve")
    gets = named("store.get")
    dispatch = total("parallel.dispatch", True) + total("queue.dispatch", True)
    busy = sum(_dur(s) for s in runs if s["pid"] != main)
    parts = partition(spans, t_launch, t_end)
    run_s = [_dur(s) for s in runs]
    metrics = {
        "imports.cli_s": import_time(importtime, "repro.cli"),
        "imports.scipy_stats_s": import_time(importtime, "scipy.stats"),
        "topology.build_s": total("topology.build", True),
        "topology.pathcache_hits": sum(p["hits"] for p in procs.values()),
        "topology.pathcache_misses": sum(p["misses"] for p in procs.values()),
        "background.pool_s": total("background.pool", True),
        "background.pool_solves": sum(1 for s in solves if under(s, "background.pool")),
        "experiment.draws_s": total("experiment.draws"),
        "experiment.run_s.p50": _quantile(run_s, 0.5),
        "experiment.run_s.p90": _quantile(run_s, 0.9),
        "experiment.runs": len(runs),
        "fluid.solve_s": sum(_dur(s) for s in solves),
        "fluid.solves": len(solves),
        "fluid.iterations": sum(s["attrs"].get("iterations", 0) for s in solves),
        "checkpoint.append_s": total("checkpoint.append"),
        "checkpoint.bytes": checkpoint_bytes,
        "store.get_s": total("store.get"),
        "store.put_s": total("store.put"),
        "store.hit_frac": sum(s["attrs"]["hit"] for s in gets) / len(gets) if gets else 0.0,
        "store.bytes": store_bytes,
        "queue.create_s": total("queue.create"),
        "queue.claim_s": total("queue.claim"),
        "queue.commit_s": total("queue.commit"),
        "queue.read_s": total("queue.read"),
        "parallel.wall_s": dispatch,
        "parallel.busy_s": busy,
        "parallel.efficiency": busy / (executors * dispatch) if dispatch > 0 else 0.0,
        "traced_wall_s": t_end - t_launch,
        "unattributed_s": parts["unattributed"],
        "trace_overhead_s": (t_end - t_launch) - untraced_wall,
    }
    metrics.update({f"part.{p}_s": parts[p] for p in PARTS})
    return metrics
