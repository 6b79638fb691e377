"""Ablation — the AD0/AD3 crossover as background load rises.

Section V: MILC at 512 nodes preferred AD0 in (underutilized) production
but AD3 under controlled high load.  Sweep the background intensity for
MILC and for HACC: MILC's AD3 advantage should *grow* with congestion,
while HACC's AD3 penalty persists (its bisection bottleneck is its own).
"""

from _harness import background_scenario, fmt_table, report, theta_top
from repro.apps import HACC, MILC
from repro.core.experiment import mask_endpoint_background, run_app_once
from repro.mpi.env import RoutingEnv
from repro.core.biases import AD0, AD3
from repro.scheduler.placement import production_placement
from repro.util import derive_rng


def run_ablation():
    top = theta_top()
    scenario = background_scenario()
    nodes = production_placement(top, 256, derive_rng(4, "abl-bg"))
    out = {}
    for cls in (MILC, HACC):
        for intensity in (0.0, 0.4, 0.8, 1.2):
            times = {}
            for mode in (AD0, AD3):
                bg = (
                    mask_endpoint_background(
                        top, scenario.at_intensity(intensity), nodes
                    )
                    if intensity
                    else None
                )
                rt, _, _ = run_app_once(
                    top,
                    cls(),
                    nodes,
                    RoutingEnv.uniform(mode),
                    background_util=bg,
                    rng=derive_rng(5, "abl-bg", cls.name, mode.name),
                )
                times[mode.name] = rt
            out[(cls.name, intensity)] = (
                100 * (times["AD0"] - times["AD3"]) / times["AD0"]
            )
    return out


def _fmt(out):
    rows = [
        [app, f"{i:.1f}", f"{imp:+.1f}%"]
        for (app, i), imp in sorted(out.items())
    ]
    return fmt_table(["app", "background intensity", "AD3 improvement"], rows)


def test_ablation_background_crossover(benchmark):
    out = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_background", _fmt(out))

    # MILC's AD3 advantage grows as the network gets busier
    assert out[("MILC", 1.2)] > out[("MILC", 0.0)]
    assert out[("MILC", 0.8)] > -2.0
    # HACC's penalty does not turn into a win at any load level
    for i in (0.0, 0.4, 0.8, 1.2):
        assert out[("HACC", i)] < 4.0
