"""Fig. 13 — system-wide counters before (AD0) vs after (AD3) the
default routing change, one production week each.

Paper: flit totals of the two windows are roughly in line (the windows
are comparable); stalls and the stalls-to-flits ratio drop markedly
after the change; MILC probe runs improve ~11.8%.
"""

import numpy as np

from _harness import fmt_table, n_samples, report, theta_top
from repro.core.reporting import series_plot


def run_fig13():
    # drive both windows with the same time-correlated machine state
    # from the batch-scheduler simulation (as the real LDMS weeks are
    # consecutive minutes of one evolving system)
    from repro.core.facility import DefaultChangeStudy, WindowConfig, simulate_production_window
    from repro.mpi.env import RoutingEnv
    from repro.core.biases import AD3
    from repro.scheduler.simulator import BatchScheduler

    top = theta_top()
    trace = BatchScheduler(top, arrival_rate=14).run(
        n_samples(30) / 60.0, np.random.default_rng(131), sample_interval_hours=1 / 60
    )
    before = simulate_production_window(
        top, WindowConfig(env=RoutingEnv(), n_intervals=n_samples(30), seed=131), trace=trace
    )
    after = simulate_production_window(
        top,
        WindowConfig(env=RoutingEnv.uniform(AD3), n_intervals=n_samples(30), seed=131),
        trace=trace,
    )
    return DefaultChangeStudy(before=before, after=after)


def _fmt(study):
    b, a = study.before.series(), study.after.series()
    change = study.counter_change()
    rows = [
        ["flits", f"{b['flits'].sum():.3e}", f"{a['flits'].sum():.3e}", f"{change['flits']:+.1%}"],
        ["stalls", f"{b['stalls'].sum():.3e}", f"{a['stalls'].sum():.3e}", f"{change['stalls']:+.1%}"],
        [
            "stalls/flits",
            f"{b['stalls'].sum() / b['flits'].sum():.4f}",
            f"{a['stalls'].sum() / a['flits'].sum():.4f}",
            f"{change['ratio']:+.1%}",
        ],
    ]
    text = fmt_table(["metric", "before (AD0 week)", "after (AD3 week)", "change"], rows)
    text += "\n\nstall series over the two windows (Fig. 13 panel):\n"
    text += series_plot(
        b["time"],
        {"before": b["stalls"], "after": a["stalls"]},
        width=60,
        height=8,
        ylabel="stalls/interval",
    )
    return text


def test_fig13_default_change_counters(benchmark):
    study = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    report("fig13_default_change", _fmt(study))

    change = study.counter_change()
    # the windows are comparable (the paper's FLIT sanity check); AD3
    # moves somewhat fewer flits because it takes fewer hops
    assert -0.35 < change["flits"] < 0.05
    # stalls improve under the AD3 default
    # KNOWN DEVIATION (EXPERIMENTS.md): the paper reports a *marked*
    # stall reduction; the trace-driven model reproduces a ~10-20% one
    assert change["stalls"] < 0.02
    # the LDMS series are non-degenerate week-long sequences
    assert study.before.series()["flits"].size == study.after.series()["flits"].size
    assert (study.before.series()["flits"] > 0).all()
