"""Run one ``repro`` CLI invocation with spans around each layer's public calls.

Usage::

    python3 -X importtime perfbench/tracer.py SPAN_DIR ROLE -- <repro args>

Nothing under ``src/`` changes.  After importing the CLI, every binding
of the layer functions in :data:`LAYERS` (module globals and class
attributes alike) is replaced by a timing wrapper.  A span is
``{id, parent, name, start, end, pid, attrs}`` on ``time.perf_counter``,
which on Linux reads ``CLOCK_MONOTONIC`` and is therefore comparable
across processes.  Spans stay in memory and are appended to
``SPAN_DIR/<pid>.jsonl``: by a fork-pool child each time its outermost
span closes (pool children leave through ``os._exit``, skipping atexit),
and by the traced process itself once the command returns.  ``ROLE`` tags
the root span: ``main`` for the process whose wall time the benchmark
splits, ``worker`` for a queue worker.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: (span name, module, attribute, attrs extractor); a dotted attribute
#: names a method, patched on its class
LAYERS = [
    ("topology.build", "repro.topology.dragonfly", "DragonflyTopology.__init__", None),
    ("background.pool", "repro.core.experiment", "resolve_scenarios", None),
    ("experiment.draws", "repro.core.experiment", "sample_draws", None),
    ("experiment.run", "repro.core.experiment", "execute_run", None),
    ("fluid.solve", "repro.network.fluid", "solve_fluid",
     lambda res: {"iterations": int(getattr(res, "iterations", 0))}),
    ("checkpoint.append", "repro.core.checkpoint", "append_record", None),
    ("store.get", "repro.service.store", "RunRecordStore.get",
     lambda entry: {"hit": entry is not None}),
    ("store.put", "repro.service.store", "RunRecordStore.put", None),
    ("queue.create", "repro.dist.queue", "WorkQueue.create", None),
    ("queue.claim", "repro.dist.queue", "WorkQueue.try_claim", None),
    ("queue.commit", "repro.dist.queue", "WorkQueue.commit_result", None),
    ("queue.read", "repro.dist.queue", "WorkQueue.read_result", None),
    ("queue.dispatch", "repro.dist.coordinator", "DistDispatcher.run", None),
    ("parallel.dispatch", "repro.parallel.executor", "run_tasks", None),
]

#: modules the CLI imports lazily; imported up front so that their
#: bindings exist to be patched (a trace-only cost, in ``tracer.setup``)
LAZY_MODULES = [
    "repro.parallel.campaign",
    "repro.service.executor",
    "repro.dist.coordinator",
    "repro.dist.worker",
]


def _pathcache() -> dict[str, int]:
    from repro.topology.pathcache import path_cache_stats

    s = path_cache_stats()
    return {"hits": s["hits"], "misses": s["misses"]}


class Recorder:
    """One process's span stack and buffer; re-based in fork children."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.main_pid = self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.base = 0  # stack depth at which this process's spans are outermost
        self.seq = 0
        self.pathcache_base = {"hits": 0, "misses": 0}
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # spans still open in the parent stay on the stack, so the child's
        # spans name their cross-process parent; finished ones are not ours
        self.pid = os.getpid()
        self.spans = []
        self.base = len(self.stack)
        self.pathcache_base = _pathcache()

    def open(self) -> tuple[str, str | None]:
        self.seq += 1
        sid = f"{self.pid}:{self.seq}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, start, end, attrs) -> None:
        self.stack.remove(sid)
        self.spans.append({
            "id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": self.pid, "attrs": attrs,
        })
        if self.pid != self.main_pid and len(self.stack) == self.base:
            self.flush()

    def flush(self, extra: tuple[dict, ...] = ()) -> None:
        """Append buffered spans plus this process's path-cache deltas."""
        now = _pathcache()
        proc = {
            "name": "process",
            "pid": self.pid,
            "attrs": {k: now[k] - self.pathcache_base[k] for k in now},
        }
        with open(os.path.join(self.out_dir, f"{self.pid}.jsonl"), "a") as f:
            for rec in (*self.spans, *extra, proc):
                f.write(json.dumps(rec) + "\n")
        self.spans = []


REC: Recorder | None = None


def _span(name: str, fn, attrs_of=None):
    """Wrap ``fn`` (a plain or generator function) in a span named ``name``."""
    if inspect.isgeneratorfunction(fn):
        # a generator's span runs from its first resumption to exhaustion;
        # the consumer's work between yields nests inside it by time
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            sid, parent = REC.open()
            start = time.perf_counter()
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                REC.close(sid, parent, name, start, time.perf_counter(), {})

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent = REC.open()
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            REC.close(sid, parent, name, start, end,
                      attrs_of(result) if attrs_of else {})

    return wrapper


def _rebind(orig, new) -> None:
    """Point every ``repro`` module global bound to ``orig`` at ``new``."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        g = vars(mod)
        for key, val in list(g.items()):
            if val is orig:
                g[key] = new


def install() -> None:
    """Wrap every entry of :data:`LAYERS` wherever it is bound."""
    for name, modname, attr, attrs_of in LAYERS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _span(name, vars(cls)[meth], attrs_of))
        else:
            orig = getattr(mod, attr)
            _rebind(orig, _span(name, orig, attrs_of))


def _record(name: str, start: float, end: float) -> None:
    sid, parent = REC.open()
    REC.close(sid, parent, name, start, end, {})


def main(argv: list[str]) -> int:
    global REC
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_dir, role, cli_args = argv[0], argv[1], argv[3:]
    REC = Recorder(out_dir)
    root, _ = REC.open()

    t = time.perf_counter()
    import repro.cli

    _record("imports.cli", t, time.perf_counter())
    t = time.perf_counter()
    for modname in LAZY_MODULES:
        importlib.import_module(modname)
    install()
    REC.pathcache_base = _pathcache()
    _record("tracer.setup", t, time.perf_counter())

    rc = repro.cli.main(cli_args)
    sys.stdout.flush()
    end = time.perf_counter()
    REC.stack.remove(root)
    REC.flush(extra=({
        "id": root, "parent": None, "name": "root", "start": T_START,
        "end": end, "pid": REC.pid, "attrs": {"role": role, "rc": rc},
    },))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
