"""Perf-regression gate over the engine hot-path kernels.

Times the engine kernels the hot-path overhauls target — packet-sim
stepping, the 4k-flow fluid solve (warm path memo), a cold Theta fluid
solve (path build and solver set-up included), the Theta path build, and
a full MILC run — and checks them two ways:

* **Regression vs the committed baseline** — each kernel must stay
  within ``REPRO_PERF_GATE_SLACK`` (default 2x) of the absolute seconds
  recorded in ``benchmarks/results/engine_baseline.json``.  Absolute
  times are box-dependent, so the slack is generous; the gate exists to
  catch order-of-magnitude regressions (an accidentally reintroduced
  quadratic path), not 10% noise.
* **Speedup vs the frozen seed** — the pre-overhaul engines are kept
  verbatim in ``tests/_reference_fluid.py`` / ``_reference_packet_sim.py``
  (and the row-by-row path builders in ``tests/_reference_paths.py``)
  and timed *in the same process on the same box*, so the measured
  speedup is box-independent.  It must not fall below the per-kernel
  ``min_speedup`` floor locked into the baseline file.

The measured numbers are written to
``benchmarks/results/engine_perf_current.json`` (uploaded as a CI
artifact by the ``perf-smoke`` job) so the trajectory is inspectable
even when the gate passes.  Re-baselining policy: docs/PERFORMANCE.md.
"""

import contextlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))  # for the frozen tests._reference_* engines

from repro.apps import MILC  # noqa: E402
from repro.core.biases import AD0  # noqa: E402
from repro.core.experiment import phase_slices, run_app_once  # noqa: E402
from repro.mpi.env import RoutingEnv  # noqa: E402
from repro.network.fluid import FlowSet, FluidParams, solve_fluid  # noqa: E402
from repro.network.packet_sim import InjectionSpec, PacketSimulator  # noqa: E402
from repro.topology.pathcache import path_memo  # noqa: E402
from repro.topology.paths import minimal_paths, valiant_paths  # noqa: E402
from repro.topology.systems import theta, toy  # noqa: E402
from repro.util import derive_rng  # noqa: E402

from tests import _reference_fluid as ref_fluid  # noqa: E402
from tests import _reference_packet_sim as ref_pkt  # noqa: E402
from tests import _reference_paths as ref_paths  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "results" / "engine_baseline.json"
CURRENT_PATH = Path(__file__).parent / "results" / "engine_perf_current.json"


def _time(fn, reps, warmup=2, memo=True):
    # the rounds replay one seeded input, so a path-table memo scope lets
    # the warmup build the tables every timed rep then reuses; cold
    # kernels (memo=False) pay the path build and solver set-up each rep
    with path_memo() if memo else contextlib.nullcontext():
        for _ in range(warmup):
            fn()
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps


def _packet_round(sim_cls):
    top = toy()

    def run():
        sim = sim_cls(top, rng=np.random.default_rng(3))
        for s in range(16):
            sim.add_message(InjectionSpec(src=s, dst=16 + s, nbytes=8192, mode=AD0))
        sim.run()

    return run


def _fluid_round(solver, flowset_cls, top):
    rng = np.random.default_rng(0)
    n = 4096
    src = rng.integers(0, top.n_nodes, n)
    dst = (src + 1 + rng.integers(0, top.n_nodes - 1, n)) % top.n_nodes
    fl = flowset_cls(src, dst, np.full(n, 1e5), np.zeros(n, dtype=np.int64))

    def run():
        solver(top, fl, [AD0], rng=np.random.default_rng(2))

    return run


def _milc512_phase(top):
    """The first phase of a 512-node MILC job on randomly placed nodes."""
    nodes = np.sort(np.random.default_rng(512).choice(top.n_nodes, 512, replace=False))
    phase = MILC().phases(nodes, derive_rng(4, "perf"))[0]
    return phase_slices(phase)[0], phase.spread_time


def _path_round(minimal, valiant, top, flows):
    params = FluidParams()  # the solver's default candidate counts

    def run():
        rng = np.random.default_rng(2)
        minimal(top, flows.src, flows.dst, k=params.k_min, rng=rng)
        valiant(top, flows.src, flows.dst, k=params.k_nonmin, rng=rng)

    return run


def test_perf_gate():
    warnings.simplefilter("ignore")
    baseline = json.loads(BASELINE_PATH.read_text())["kernels"]
    top = theta()

    measured = {}

    # packet-sim stepping: optimized vs frozen seed, same box, same run
    t_new = _time(_packet_round(PacketSimulator), reps=10)
    t_seed = _time(_packet_round(ref_pkt.PacketSimulator), reps=10)
    measured["packet_sim_steps"] = {
        "optimized_seconds": t_new,
        "seed_seconds": t_seed,
        "speedup": t_seed / t_new,
    }

    # 4k-flow fluid solve (warm path memo, as the microbenchmark runs)
    t_new = _time(_fluid_round(solve_fluid, FlowSet, top), reps=5)
    t_seed = _time(_fluid_round(ref_fluid.solve_fluid, ref_fluid.FlowSet, top), reps=5)
    measured["fluid_solve_4k_flows"] = {
        "optimized_seconds": t_new,
        "seed_seconds": t_seed,
        "speedup": t_seed / t_new,
    }

    # a cold MILC-512-shaped Theta solve: every rep draws its paths and
    # builds its solver geometry afresh, as each campaign run does
    milc_flows, spread = _milc512_phase(top)

    def cold_solve():
        solve_fluid(
            top, milc_flows, [AD0], rng=np.random.default_rng(2), min_duration=spread
        )

    measured["fluid_solve_theta_cold"] = {
        "optimized_seconds": _time(cold_solve, reps=5, memo=False)
    }

    # the same flows' minimal + Valiant path build: column-major builders
    # vs the frozen row-by-row ones
    t_new = _time(_path_round(minimal_paths, valiant_paths, top, milc_flows), reps=10, memo=False)
    t_seed = _time(
        _path_round(ref_paths.minimal_paths, ref_paths.valiant_paths, top, milc_flows),
        reps=10, memo=False,
    )
    measured["path_build_theta"] = {
        "optimized_seconds": t_new,
        "seed_seconds": t_seed,
        "speedup": t_seed / t_new,
    }

    # full MILC run (end-to-end sanity; regression-gated only)
    def milc():
        run_app_once(
            top, MILC(), np.arange(256), RoutingEnv(),
            rng=derive_rng(4, "perf"), collect_counters=False,
        )

    measured["full_milc_run"] = {"optimized_seconds": _time(milc, reps=3)}

    slack = float(os.environ.get("REPRO_PERF_GATE_SLACK", "2.0"))
    report = {"slack": slack, "kernels": measured, "failures": []}
    for name, m in measured.items():
        base = baseline[name]
        ceiling = base["optimized_seconds"] * slack
        if m["optimized_seconds"] > ceiling:
            report["failures"].append(
                f"{name}: {m['optimized_seconds']:.3f}s exceeds "
                f"{slack:g}x baseline ({base['optimized_seconds']:.3f}s)"
            )
        floor = base.get("min_speedup")
        if floor is not None and m["speedup"] < floor:
            report["failures"].append(
                f"{name}: speedup vs seed {m['speedup']:.2f}x fell below "
                f"locked floor {floor:g}x"
            )

    CURRENT_PATH.parent.mkdir(exist_ok=True)
    CURRENT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    for name, m in measured.items():
        spd = f"  {m['speedup']:.2f}x vs seed" if "speedup" in m else ""
        print(f"{name}: {m['optimized_seconds'] * 1e3:.1f} ms{spd}")
    assert not report["failures"], report["failures"]


def test_telemetry_overhead_gate():
    """Cadence sampling must cost <5% on the packet-sim kernel.

    The series hooks live inside the engine step loop guarded by
    ``rec is not None`` / one integer compare, so enabling a realistic
    sampling cadence (one window every ~200 steps) must not move the
    kernel's wall time.  Min-of-reps is used on both sides to shed
    scheduler noise; the slack is overridable for pathological CI boxes
    via ``REPRO_TELEMETRY_OVERHEAD_SLACK``.
    """
    from repro.telemetry import SeriesConfig, Telemetry

    top = toy()

    def round_with(telemetry):
        sim = PacketSimulator(top, rng=np.random.default_rng(3), telemetry=telemetry)
        for s in range(16):
            sim.add_message(InjectionSpec(src=s, dst=16 + s, nbytes=8192, mode=AD0))
        sim.run()
        return sim

    step_time = PacketSimulator(top, rng=np.random.default_rng(3)).config.step_time
    sampled_tel = Telemetry(series=SeriesConfig(cadence=200 * step_time))

    def best_of(fn, reps=5):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    with path_memo():
        round_with(None)  # warm the path memo and JIT-able numpy internals
        t_off = best_of(lambda: round_with(None))
        t_on = best_of(lambda: round_with(sampled_tel))

    # correctness side of the gate: sampling actually happened and the
    # windows reconcile with the end-of-run aggregate
    sim = round_with(Telemetry(series=SeriesConfig(cadence=200 * step_time)))
    series = sim.counter_series()
    assert series is not None and series.windows
    assert np.isclose(series.total_flits(), float(sim.flits.sum()))

    slack = float(os.environ.get("REPRO_TELEMETRY_OVERHEAD_SLACK", "1.05"))
    overhead = t_on / t_off
    print(f"telemetry overhead: off {t_off * 1e3:.1f} ms  on {t_on * 1e3:.1f} ms  "
          f"ratio {overhead:.3f} (gate {slack:g})")
    assert overhead < slack, (
        f"cadence sampling costs {100 * (overhead - 1):.1f}% on the packet-sim "
        f"kernel (gate: <{100 * (slack - 1):.0f}%)"
    )
