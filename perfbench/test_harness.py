"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py

The smoke tests run every workload's code path on the ``mini`` system
(32 nodes, 2 samples) in a few seconds each; the full-size campaigns are
the benchmark itself.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fold  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


def test_metric_names_match_the_spec():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.match(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert e2e == list(run.E2E_UNITS)
    assert layer == list(fold.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.E2E_UNITS[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == fold.PER_LAYER[m["name"]]


def _span(sid, parent, name, start, end, pid=1, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "attrs": attrs}


def test_parts_sum_to_the_traced_wall():
    spans = [
        _span("1:1", None, "root", 1.0, 9.0, role="main"),
        _span("1:2", "1:1", "imports.cli", 1.0, 2.5),
        _span("1:3", "1:1", "background.pool", 3.0, 5.0),
        _span("1:4", "1:3", "fluid.solve", 3.5, 4.5, iterations=4),
        _span("1:5", "1:1", "parallel.dispatch", 5.0, 8.0),
        _span("1:6", "1:5", "checkpoint.append", 7.0, 7.25),
        # a pool child's run overlaps the dispatch; it is not a part
        _span("2:1", "1:5", "experiment.run", 5.1, 7.9, pid=2),
        _span("2:2", "2:1", "fluid.solve", 5.2, 7.0, pid=2, iterations=4),
    ]
    parts = fold.partition(spans, t_launch=0.5, t_end=9.5)
    assert sum(parts.values()) == pytest.approx(9.0, abs=1e-12)
    assert parts["interpreter.startup"] == pytest.approx(0.5)
    assert parts["background.pool"] == pytest.approx(1.0)
    assert parts["parallel.dispatch"] == pytest.approx(2.75)
    assert parts["experiment.run"] == 0.0
    assert parts["unattributed"] == pytest.approx(8.0 - 1.5 - 2.0 - 3.0)

    m = fold.layer_metrics(
        spans, {1: {"hits": 1, "misses": 2}, 2: {"hits": 3, "misses": 0}},
        t_launch=0.5, t_end=9.5, importtime="", executors=2,
        untraced_wall=8.5, checkpoint_bytes=10, store_bytes=0,
    )
    assert set(m) == set(fold.PER_LAYER)
    assert m["background.pool_solves"] == 1 and m["fluid.solves"] == 2
    assert m["parallel.busy_s"] == pytest.approx(2.8)
    assert m["parallel.efficiency"] == pytest.approx(2.8 / (2 * 3.0))
    assert m["topology.pathcache_hits"] == 4
    assert m["trace_overhead_s"] == pytest.approx(0.5)


def test_import_time_sums_unenclosed_submodules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.stats._a",
        "import time:       300 |        900 |   scipy.stats._b",
        "import time:       500 |       1500 |   numpy.ma",
        "import time:        50 |       2500 | repro.cli",
    ])
    assert fold.import_time(log, "scipy.stats") == pytest.approx(900e-6)
    assert fold.import_time(log, "repro.cli") == pytest.approx(2500e-6)
    assert fold.import_time(log, "json") == 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke(workload, trace):
    if run.WORKLOADS[workload].cpus > run.nproc():
        pytest.skip("needs more CPUs")
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert list(res) == ["correct", "attempted", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    if trace:
        assert list(metrics) == list(fold.PER_LAYER)
        parts = sum(v for k, v in metrics.items() if k.startswith("part."))
        assert parts + metrics["unattributed_s"] == pytest.approx(
            metrics["traced_wall_s"], abs=1e-9
        )
        warm = run.WORKLOADS[workload].cache
        assert metrics["experiment.runs"] == (0 if warm else 4)
        assert metrics["store.hit_frac"] == (1.0 if warm else 0.0)
    else:
        assert list(metrics) == list(run.E2E_UNITS)
        assert all(v > 0 for v in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cold-milc512", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert "{" not in proc.stdout
