"""Ablation — runtime vs (shift, add) bias beyond the vendor presets.

The vendor exposes only AD0..AD3, but the bias space is any
(shift, add) in 0..15 (Section II-D).  Sweep a grid of custom biases on
MILC to map where the vendor presets sit in the broader space: runtime
should improve monotonically-ish with minimal bias for this
latency-bound app, saturating once the bias is strong enough.
"""

from _harness import fmt_table, n_samples, report, theta_top
from repro.apps import MILC
from repro.core.biases import custom_bias
from repro.core.experiment import CampaignConfig, run_campaign, stats_by_mode


def run_sweep():
    top = theta_top()
    modes = tuple(
        custom_bias(shift, add) for shift in (0, 1, 2, 3) for add in (0, 4)
    )
    cfg = CampaignConfig(app=MILC(), samples=n_samples(6), modes=modes, seed=555)
    recs = run_campaign(top, cfg)
    return stats_by_mode(recs)


def _fmt(st):
    rows = [
        [name, f"{s.mean:.1f}", f"{s.std:.1f}"]
        for name, s in sorted(st.items(), key=lambda kv: kv[1].mean)
    ]
    return fmt_table(["bias (shift/add)", "mean runtime (s)", "std"], rows)


def test_ablation_bias_sweep(benchmark):
    st = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report("ablation_bias_sweep", _fmt(st))

    # the unbiased default is the worst (or near-worst) choice for MILC
    assert st["S0A0"].mean > min(s.mean for s in st.values())
    # strong multiplicative bias (the AD3 family) beats no bias
    assert st["S2A0"].mean < st["S0A0"].mean
    # beyond AD3-strength, extra bias changes little (saturation)
    assert abs(st["S3A0"].mean - st["S2A0"].mean) / st["S2A0"].mean < 0.08
