"""Ablation — placement interaction with routing mode.

Paper: "the benefits of minimal bias routing were observed for both
compact and scattered process placement" — the mode *ranking* is
placement-independent even though absolute runtimes differ.
"""

from _harness import cached_campaign, fmt_table, n_samples, report
from repro.apps import MILC
from repro.core.experiment import stats_by_mode


def run_ablation():
    out = {}
    for placement in ("compact", "dispersed", "production"):
        recs = cached_campaign(
            MILC(), samples=n_samples(8), placement=placement, seed=700
        )
        out[placement] = stats_by_mode(recs)
    return out


def _fmt(out):
    rows = []
    for placement, st in out.items():
        imp = 100 * (st["AD0"].mean - st["AD3"].mean) / st["AD0"].mean
        rows.append(
            [
                placement,
                f"{st['AD0'].mean:.0f}",
                f"{st['AD3'].mean:.0f}",
                f"{imp:+.1f}%",
            ]
        )
    return fmt_table(["placement", "AD0 mean (s)", "AD3 mean (s)", "AD3 improvement"], rows)


def test_ablation_placement_independence(benchmark):
    out = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_placement", _fmt(out))

    # the ranking (AD3 <= AD0) holds for every placement policy
    for placement, st in out.items():
        assert st["AD3"].mean <= st["AD0"].mean * 1.03, placement
