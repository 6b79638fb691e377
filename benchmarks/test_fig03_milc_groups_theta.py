"""Fig. 3 — MILC/MILCREORDER by groups spanned at 128/256/512 nodes (Theta).

Paper: normalized runtimes scatter across group spans at every size;
AD3 is consistently better at 128/256 nodes irrespective of placement
span; at 512 nodes on Theta AD3 shows a small mean *decrease* (-3%) in
production (the underutilized-network regime).
"""

from _harness import cached_campaign, fmt_table, n_samples, report
from repro.apps import MILC, MILCReorder
from repro.core.analysis import group_span_series
from repro.core.experiment import stats_by_mode


def run_fig03():
    out = {}
    for cls in (MILC, MILCReorder):
        for n_nodes in (128, 256, 512):
            recs = cached_campaign(cls(), n_nodes=n_nodes, samples=n_samples(10))
            out[(cls.name, n_nodes)] = recs
    return out


def _fmt(out):
    rows = []
    for (app, n_nodes), recs in out.items():
        st = stats_by_mode(recs)
        spans = sorted({r.groups for r in recs})
        imp = 100 * (st["AD0"].mean - st["AD3"].mean) / st["AD0"].mean
        rows.append(
            [
                app,
                n_nodes,
                f"{spans[0]}-{spans[-1]}",
                f"{st['AD0'].mean:.0f}",
                f"{st['AD3'].mean:.0f}",
                f"{imp:+.1f}%",
            ]
        )
    return fmt_table(
        ["app", "nodes", "groups spanned", "AD0 mean", "AD3 mean", "AD3 improvement"],
        rows,
    )


def test_fig03_groups_spanned_theta(benchmark):
    out = benchmark.pedantic(run_fig03, rounds=1, iterations=1)
    report("fig03_milc_groups_theta", _fmt(out))

    for (app, n_nodes), recs in out.items():
        series = group_span_series(recs)
        # placements cover several spans (the figure's x-axis)
        assert len(series) >= 3, (app, n_nodes)
        st = stats_by_mode(recs)
        if n_nodes <= 256:
            # AD3 consistently better at small/medium sizes
            assert st["AD3"].mean < st["AD0"].mean * 1.02, (app, n_nodes)
        # KNOWN DEVIATION (recorded in EXPERIMENTS.md): the paper's
        # 512-node Theta production runs slightly preferred AD0 (-3%)
        # because MILC could opportunistically use spare non-minimal
        # bandwidth; our 512-node model is latency-dominated and keeps
        # favoring AD3, so no assertion is made at 512.
