"""Ablation — do the paper's insights transfer to a Slingshot dragonfly?

Section II-A: "we expect that many of the insights provided by this
paper will be applicable to future dragonfly systems ... because on any
dragonfly system applications will have a preference for minimal or
non-minimal routes, due to the communication patterns inherent to the
application."  Rerun the MILC (latency-bound) vs HACC (bisection-bound)
comparison on a Slingshot-generation system.
"""

from _harness import fmt_table, n_samples, report
from repro.apps import HACC, MILC
from repro.core.experiment import CampaignConfig, run_campaign, stats_by_mode
from repro.topology.systems import slingshot


def run_ablation():
    top = slingshot()
    out = {}
    for cls in (MILC, HACC):
        cfg = CampaignConfig(app=cls(), samples=n_samples(6), seed=990)
        recs = run_campaign(top, cfg)
        st = stats_by_mode(recs)
        out[cls.name] = 100 * (st["AD0"].mean - st["AD3"].mean) / st["AD0"].mean
    return top, out


def _fmt(top, out):
    rows = [[app, f"{imp:+.1f}%"] for app, imp in out.items()]
    return (
        f"{top.describe()}\n\n"
        + fmt_table(["app", "AD3 improvement over AD0"], rows)
    )


def test_ablation_slingshot_transfer(benchmark):
    top, out = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_slingshot", _fmt(top, out))

    # the per-application preferences transfer to the new topology:
    # latency-bound codes still want minimal bias...
    assert out["MILC"] > 0
    # ...and bisection-bound codes still do not
    assert out["HACC"] < out["MILC"]
