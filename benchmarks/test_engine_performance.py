"""Engine performance benchmarks (the simulator's own speed).

Unlike the figure harnesses (one timed round each), these run multiple
rounds and track the throughput that makes campaign-scale reproduction
practical: path construction, fluid solves, packet-simulator stepping,
and a full application run.  Regressions here directly multiply every
campaign's wall-clock.
"""

import json
import os
import time

import numpy as np
import pytest

from _harness import RESULTS_DIR, SEED, n_samples, theta_top
from repro.apps import MILC
from repro.core.biases import AD0, AD1, AD2, AD3
from repro.core.checkpoint import record_to_dict
from repro.core.experiment import CampaignConfig, run_app_once, run_campaign
from repro.mpi.env import RoutingEnv
from repro.network.fluid import FlowSet, FluidParams, solve_fluid
from repro.network.packet_sim import InjectionSpec, PacketSimulator
from repro.telemetry import MetricsRegistry, Telemetry
from repro.topology.paths import minimal_paths, valiant_paths
from repro.util import derive_rng


@pytest.fixture(scope="module")
def perm_flows():
    top = theta_top()
    rng = np.random.default_rng(0)
    n = 4096
    src = rng.integers(0, top.n_nodes, n)
    dst = (src + 1 + rng.integers(0, top.n_nodes - 1, n)) % top.n_nodes
    return top, FlowSet(src, dst, np.full(n, 1e5), np.zeros(n, dtype=np.int64))


def test_perf_minimal_paths(benchmark, perm_flows):
    top, fl = perm_flows
    rng = np.random.default_rng(1)
    out = benchmark(lambda: minimal_paths(top, fl.src, fl.dst, k=4, rng=rng))
    assert out.n_subpaths == 4 * fl.n


def test_perf_valiant_paths(benchmark, perm_flows):
    top, fl = perm_flows
    rng = np.random.default_rng(1)
    out = benchmark(lambda: valiant_paths(top, fl.src, fl.dst, k=4, rng=rng))
    assert out.n_subpaths == 4 * fl.n


def test_perf_fluid_solve_4k_flows(benchmark, perm_flows):
    top, fl = perm_flows

    def solve():
        return solve_fluid(top, fl, [AD0], rng=np.random.default_rng(2))

    res = benchmark(solve)
    assert res.phase_time > 0


def test_perf_fluid_solve_fast_params(benchmark, perm_flows):
    top, fl = perm_flows
    params = FluidParams(k_min=2, k_nonmin=2, n_iter=4)

    def solve():
        return solve_fluid(top, fl, [AD0], rng=np.random.default_rng(2), params=params)

    res = benchmark(solve)
    assert res.phase_time > 0


def test_perf_packet_sim_steps(benchmark):
    from repro.topology.systems import toy

    top = toy()

    def run():
        sim = PacketSimulator(top, rng=np.random.default_rng(3))
        for s in range(16):
            sim.add_message(InjectionSpec(src=s, dst=16 + s, nbytes=8192, mode=AD0))
        return sim.run()

    steps = benchmark(run)
    assert steps > 0


def test_perf_full_milc_run(benchmark):
    top = theta_top()

    def run():
        rt, _, _ = run_app_once(
            top,
            MILC(),
            np.arange(256),
            RoutingEnv(),
            rng=derive_rng(4, "perf"),
            collect_counters=False,
        )
        return rt

    rt = benchmark(run)
    assert rt > 0


def _usable_cpus() -> int:
    # cpu_count() reports the machine; sched_getaffinity respects the
    # cpuset/affinity mask containers actually grant us
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_perf_parallel_campaign_speedup():
    """Paper-scale routing-mode sweep: 4 workers vs serial.

    Times the same theta/MILC campaign under ``jobs=1`` and ``jobs=4``,
    checks the records are identical (the parallel dispatcher's core
    contract), and records the measured speedup into
    ``benchmarks/results/parallel_speedup.json``.  The >=2x floor is
    asserted only where four cores are actually schedulable, and the
    whole measurement is skipped on single-CPU boxes where a "speedup"
    number would only mislead the benchmark trajectory (the serial ≡
    parallel contract itself is covered CPU-independently by
    ``tests/test_parallel_equivalence.py``).  Per-phase engine timings
    from the serial leg are recorded alongside, so regressions can be
    attributed to the solver rather than the dispatcher.  Timed by
    hand rather than through the ``benchmark`` fixture: one round is
    ~20 s of solver work.  Each leg builds the campaign's background
    pool from the config, as every campaign does.
    """
    usable = _usable_cpus()
    if usable < 2:
        pytest.skip(
            f"only {usable} usable CPU(s): parallel speedup is not measurable"
        )
    top = theta_top()
    cfg = CampaignConfig(
        app=MILC(),
        n_nodes=256,
        modes=(AD0, AD1, AD2, AD3),
        samples=n_samples(24),
        seed=SEED,
    )
    tel = Telemetry(metrics=MetricsRegistry())

    t0 = time.perf_counter()
    serial = run_campaign(top, cfg, jobs=1, telemetry=tel)
    t1 = time.perf_counter()
    parallel = run_campaign(top, cfg, jobs=4)
    t2 = time.perf_counter()

    assert [record_to_dict(r) for r in parallel] == [
        record_to_dict(r) for r in serial
    ]

    serial_s, parallel_s = t1 - t0, t2 - t1
    speedup = serial_s / parallel_s
    metrics = tel.metrics.to_dict()
    engine = {
        name: {
            "count": m["count"],
            "sum_seconds": round(m["sum"], 4),
            "mean_seconds": m["mean"],
        }
        for name, m in metrics.items()
        if m["type"] == "histogram"
        and name in ("fluid_solve_seconds", "solver_iter_seconds",
                     "packet_run_seconds", "engine_step_seconds")
    }
    payload = {
        "runs": len(serial),
        "jobs": 4,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "usable_cpus": usable,
        "serial_engine_phases": engine,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_speedup.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(f"\nserial {serial_s:.1f}s  4 workers {parallel_s:.1f}s  "
          f"speedup {speedup:.2f}x over {len(serial)} runs "
          f"({payload['usable_cpus']} usable cpus)")
    if payload["usable_cpus"] >= 4:
        assert speedup >= 2.0, payload
