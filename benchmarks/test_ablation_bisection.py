"""Ablation — the bisection-to-injection ratio's effect on mode choice.

Theta wires 12 cables per group pair, Cori only 4 (Section II-F).  Build
Theta variants at both wirings and re-run the HACC (bisection-bound) and
MILC (latency-bound) comparisons.  Measured outcome: scarcity of global
bandwidth *amplifies* both sensitivities — the latency-bound app's AD3
advantage grows (hotter rank-3 links make short paths more valuable,
consistent with Cori MILC's +11.7% vs Theta's +11%), while the
bisection-bound app's AD3 penalty deepens (its minimal bundles saturate
sooner).
"""

from _harness import fmt_table, n_samples, report
from repro.apps import HACC, MILC
from repro.core.experiment import CampaignConfig, run_campaign, stats_by_mode
from repro.topology.dragonfly import DragonflyParams, DragonflyTopology


def _system(cables):
    return DragonflyTopology(
        DragonflyParams(
            name=f"theta-{cables}c",
            n_groups=12,
            n_compute_nodes=4392,
            cables_per_group_pair=cables,
        )
    )


def run_ablation():
    out = {}
    for cables in (12, 4):
        top = _system(cables)
        for cls in (MILC, HACC):
            cfg = CampaignConfig(app=cls(), samples=n_samples(6), seed=600 + cables)
            recs = run_campaign(top, cfg)
            st = stats_by_mode(recs)
            out[(cables, cls.name)] = 100 * (st["AD0"].mean - st["AD3"].mean) / st["AD0"].mean
    return out


def _fmt(out):
    rows = [
        [cables, app, f"{imp:+.1f}%"]
        for (cables, app), imp in sorted(out.items(), reverse=True)
    ]
    return fmt_table(["cables/group-pair", "app", "AD3 improvement"], rows)


def test_ablation_bisection_ratio(benchmark):
    out = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_bisection", _fmt(out))

    # MILC keeps preferring AD3 at either wiring, and more strongly so
    # on the bandwidth-starved variant
    assert out[(12, "MILC")] > 0
    assert out[(4, "MILC")] > 0
    assert out[(4, "MILC")] > out[(12, "MILC")] - 1.0
    # HACC keeps preferring AD0, and more strongly so when its minimal
    # bundles are scarcer
    assert out[(12, "HACC")] < 2.0
    assert out[(4, "HACC")] < out[(12, "HACC")] + 1.0
