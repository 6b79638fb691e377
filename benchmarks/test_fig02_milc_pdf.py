"""Fig. 2 — MILC and MILCREORDER runtime PDFs, AD0 vs AD3, 256 nodes.

Paper: MILC mean drops 542.6 -> 482.5 s (11%) under AD3, and both the
95th-percentile tail and the spread shrink.  MILCREORDER shows the same
shape at lower absolute runtimes.
"""

from _harness import cached_campaign, fmt_table, n_samples, report
from repro.apps import MILC, MILCReorder
from repro.core.experiment import runtimes_by_mode, stats_by_mode
from repro.core.metrics import density
from repro.core.reporting import density_plot


def run_fig02():
    out = {}
    for cls in (MILC, MILCReorder):
        recs = cached_campaign(cls(), samples=n_samples(16))
        out[cls.name] = (stats_by_mode(recs), runtimes_by_mode(recs))
    return out


def _fmt(out):
    rows = []
    paper = {"MILC": (542.6, 482.5), "MILCREORDER": (509.6, 448.9)}
    for app, (st, rts) in out.items():
        p0, p3 = paper[app]
        rows.append(
            [
                app,
                f"{st['AD0'].mean:.1f} ± {st['AD0'].std:.1f}",
                f"{st['AD3'].mean:.1f} ± {st['AD3'].std:.1f}",
                f"{st['AD0'].p95:.0f} / {st['AD3'].p95:.0f}",
                f"{100 * (st['AD0'].mean - st['AD3'].mean) / st['AD0'].mean:+.1f}%",
                f"({p0:.0f} -> {p3:.0f}, +{100 * (p0 - p3) / p0:.1f}%)",
            ]
        )
    text = fmt_table(
        ["app", "AD0 mean±std (s)", "AD3 mean±std (s)", "p95 AD0/AD3", "improvement", "paper"],
        rows,
    )
    for app, (st, rts) in out.items():
        text += f"\n\n{app} runtime PDFs (Fig. 2 panel):\n"
        text += density_plot(rts, width=64, height=9, xlabel="runtime (s)")
    return text


def test_fig02_milc_runtime_pdfs(benchmark):
    out = benchmark.pedantic(run_fig02, rounds=1, iterations=1)
    report("fig02_milc_pdf", _fmt(out))

    for app, (st, rts) in out.items():
        # AD3 faster on average and with a shorter tail
        assert st["AD3"].mean < st["AD0"].mean, app
        assert st["AD3"].p95 < st["AD0"].p95 * 1.05, app
        # the PDFs are well-defined (the figure's curves)
        for mode, vals in rts.items():
            x, d = density(vals)
            assert d.max() > 0
