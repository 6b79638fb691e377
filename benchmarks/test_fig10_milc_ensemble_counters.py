"""Fig. 10 — eight 512-node MILC jobs filling Theta: per-tile-class
counters under AD0 vs AD3.

Paper: a clear reduction in absolute stall counts (rank-1, rank-2,
processor tiles) under AD3, an overall reduction of total flits on all
three network classes (fewer packet transmissions with minimal paths),
and a lower aggregate stalls-to-flits ratio.
"""

from _harness import fmt_table, report, theta_top
from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.ensembles import EnsembleConfig, run_ensemble


def run_fig10():
    top = theta_top()
    out = {}
    for mode in (AD0, AD3):
        res = run_ensemble(
            top,
            EnsembleConfig(
                app=MILC(), n_jobs=8, n_nodes=512, mode=mode, placement="dispersed"
            ),
        )
        out[mode.name] = res
    return out


def _fmt(out):
    rows = []
    for cls in ("rank1", "rank2", "rank3", "proc_req"):
        s0 = out["AD0"].bank.snapshot()
        s3 = out["AD3"].bank.snapshot()
        rows.append(
            [
                cls,
                f"{s0.flits[cls].sum():.3e}",
                f"{s3.flits[cls].sum():.3e}",
                f"{s0.stalls[cls].sum():.3e}",
                f"{s3.stalls[cls].sum():.3e}",
            ]
        )
    s0 = out["AD0"].bank.snapshot()
    s3 = out["AD3"].bank.snapshot()
    footer = (
        f"\nnetwork stalls/flits ratio: AD0 {s0.network_ratio():.3f} "
        f"-> AD3 {s3.network_ratio():.3f}"
        f"\nmean job runtime: AD0 {out['AD0'].job_runtimes.mean():.0f} s "
        f"-> AD3 {out['AD3'].job_runtimes.mean():.0f} s"
    )
    return (
        fmt_table(
            ["tile class", "AD0 flits", "AD3 flits", "AD0 stalls", "AD3 stalls"], rows
        )
        + footer
    )


def test_fig10_milc_ensemble(benchmark):
    out = benchmark.pedantic(run_fig10, rounds=1, iterations=1)
    report("fig10_milc_ensemble_counters", _fmt(out))

    s0 = out["AD0"].bank.snapshot()
    s3 = out["AD3"].bank.snapshot()
    net = ("rank1", "rank2", "rank3")

    # fewer overall packet transmissions under minimal bias, per class
    for cls in net:
        assert s3.flits[cls].sum() < s0.flits[cls].sum(), cls

    # clear reduction in absolute stalls on the copper classes and the
    # processor tiles (the classes the paper's text calls out)
    assert s3.stalls["rank1"].sum() < s0.stalls["rank1"].sum()
    assert s3.stalls["rank2"].sum() < s0.stalls["rank2"].sum()
    assert s3.stalls["proc_req"].sum() < s0.stalls["proc_req"].sum()

    # under the heavy controlled load, AD3 jobs run no slower
    assert out["AD3"].job_runtimes.mean() <= out["AD0"].job_runtimes.mean() * 1.05

    # LDMS series cover the whole ensemble
    for mode in out:
        assert len(out[mode].ldms.samples) >= 2
