"""Ablation — static bias vs an AWR-style adaptive runtime.

The paper's introduction dismisses the De Sensi et al. (SC'19) runtime
for two measured reasons: counter-polling overhead was unaffordable on
KNL, and "individual bias policies often outperformed the adaptive
runtime".  Reproduce that comparison: MILC over a drifting production
background under static AD0, static AD3, AWR on fast cores, and AWR
with KNL-class polling overhead.
"""

import numpy as np

from _harness import background_scenario, fmt_table, report, theta_top
from repro.apps import MILC
from repro.core.awr import AwrConfig, run_app_awr, run_app_static
from repro.core.biases import AD0, AD3
from repro.core.experiment import mask_endpoint_background
from repro.scheduler.placement import production_placement
from repro.util import derive_rng


def run_ablation():
    top = theta_top()
    scenario = background_scenario()
    nodes = production_placement(top, 256, derive_rng(2, "awr-place"))
    rng_i = derive_rng(3, "awr-drift")
    windows = [
        mask_endpoint_background(
            top,
            scenario.at_intensity(
                float(np.clip(rng_i.lognormal(np.log(0.7), 0.6), 0.05, 1.3))
            ),
            nodes,
        )
        for _ in range(12)
    ]

    app = MILC()
    out = {
        "static AD0": run_app_static(
            top, app, nodes, AD0, background_windows=windows, rng=derive_rng(4, "s0")
        ),
        "static AD3": run_app_static(
            top, app, nodes, AD3, background_windows=windows, rng=derive_rng(4, "s3")
        ),
    }
    awr = run_app_awr(top, app, nodes, background_windows=windows, rng=derive_rng(4, "a"))
    awr_knl = run_app_awr(
        top,
        app,
        nodes,
        background_windows=windows,
        rng=derive_rng(4, "a"),
        config=AwrConfig(core_slowdown=8.0),
    )
    out["AWR (fast cores)"] = awr.runtime
    out["AWR (KNL cores)"] = awr_knl.runtime
    return out, awr


def _fmt(out, awr):
    rows = [[k, f"{v:.0f}"] for k, v in sorted(out.items(), key=lambda kv: kv[1])]
    text = fmt_table(["policy", "runtime (s)"], rows)
    text += f"\n\nAWR window modes: {' '.join(awr.window_modes)} ({awr.mode_changes} changes)"
    return text


def test_ablation_awr_vs_static(benchmark):
    out, awr = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_awr", _fmt(out, awr))

    # the paper's two claims:
    # 1. a static strong minimal bias beats the adaptive runtime
    assert out["static AD3"] < out["AWR (fast cores)"]
    # 2. KNL-class polling overhead makes the runtime strictly worse
    assert out["AWR (KNL cores)"] > out["AWR (fast cores)"]
    # and the runtime actually adapts (it is not a straw man)
    assert len(set(awr.window_modes)) > 1
