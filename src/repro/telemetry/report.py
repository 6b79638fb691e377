"""Summarize a recorded JSONL trace (the ``repro-study report`` command).

Answers the questions an operator asks of a run after the fact: where
did the time go (slowest instrumented spans), did the fluid solver
converge everywhere (non-converged solves, residual distribution,
iterations-to-tolerance histogram), and what did the run actually do
(event counts, campaign samples per mode).  The events are folded by
the same :class:`~repro.telemetry.stream.CampaignProgress` that drives
``top`` and ``/runs``; this module only orders and renders.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

from repro.telemetry.stream import CampaignProgress
from repro.telemetry.trace import read_trace


def _percentile(values: list[float], q: float) -> float:
    vals = sorted(values)
    if not vals:
        return float("nan")
    pos = q / 100.0 * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def order_events(events: list[dict]) -> list[dict]:
    """Canonical ordering of a possibly multi-worker trace.

    Events forwarded from pool workers carry ``run_index`` (the run's
    canonical position in the campaign) plus a worker-local ``seq``, so
    a stable sort by ``(run_index, seq)`` reconstructs the serial event
    order no matter how the workers' completions interleaved in the
    file.  Events without a ``run_index`` (parent lifecycle events such
    as ``campaign.start``) sort before every run, keeping their own
    relative order.

    Traces are external input (hand-edited, truncated, concatenated
    from several runs), so the keys are guarded rather than trusted:
    non-numeric / NaN ``run_index`` clamps to -1, bad or negative
    ``seq`` clamps to 0, and a single ``run_index`` claiming events
    from several distinct workers — the signature of two traces
    spliced together — each draw one ``RuntimeWarning``.
    """

    def _num(value, default, lo):
        # bool is an int subclass but True/1.0 as a run index is a
        # corrupt trace, not a coordinate
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return default, True
        if isinstance(value, float) and not math.isfinite(value):
            return default, True
        if value < lo:
            return default, True
        return value, False

    keys: list[tuple] = []
    bad = 0
    run_workers: dict = {}
    for e in events:
        run_index, clamped_r = _num(e.get("run_index", -1), -1, -1)
        seq, clamped_s = _num(e.get("seq", 0), 0, 0)
        bad += clamped_r + clamped_s
        if "worker" in e and not clamped_r and run_index >= 0:
            run_workers.setdefault(run_index, set()).add(e["worker"])
        keys.append((run_index, seq))
    if bad:
        warnings.warn(
            f"{bad} event ordering key(s) out of range or non-numeric; "
            "clamped to the pre-run position",
            RuntimeWarning,
            stacklevel=2,
        )
    for run_index, workers in sorted(run_workers.items()):
        if len(workers) > 1:
            warnings.warn(
                f"run_index {run_index} carries events from {len(workers)} "
                "distinct workers; the trace may be spliced from several "
                "runs and its per-run ordering is unreliable",
                RuntimeWarning,
                stacklevel=2,
            )
    # sort positions, not dicts: equal keys must never compare events
    order = sorted(range(len(events)), key=keys.__getitem__)
    return [events[i] for i in order]


def summarize_trace(
    source: str | Path | list[dict], *, top: int = 10
) -> CampaignProgress:
    """Fold a trace file (or already-parsed event list) for :func:`format_summary`.

    The events are put in canonical order first (see
    :func:`order_events`), so a trace written by a multi-worker campaign
    summarizes identically to its serial twin.  ``top`` bounds the
    slowest-span and worst-solve lists.
    """
    events = read_trace(source) if isinstance(source, (str, Path)) else source
    fold = CampaignProgress(top=top, keep_values=True)
    fold.feed_many(order_events(events))
    return fold


def _bar(count: int, peak: int, width: int = 32) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1, round(width * count / peak)) if count else ""


def _event_label(e: dict) -> str:
    """Compact context string for a timed event."""
    keys = ("app", "mode", "sample", "phase", "interval", "flows", "converged", "residual")
    parts = []
    for k in keys:
        if k in e:
            v = e[k]
            parts.append(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}")
    return " ".join(parts)


def format_summary(fold: CampaignProgress, source: str = "<memory>") -> str:
    """Render a folded trace as the CLI's plain-text report."""
    lines: list[str] = [f"trace: {source}  ({fold.n_events} events)"]
    for ev, n in fold.by_type.most_common():
        lines.append(f"  {ev:<20s} {n:6d}")

    if fold.n_solves:
        n, ok, residuals = fold.n_solves, fold.n_solves_converged, fold.solve_residuals
        lines.append("")
        lines.append(f"fluid solver: {n} solves")
        lines.append(
            f"  converged {ok}/{n} ({100.0 * ok / n:.1f}%)"
            + (
                f"   residual p50 {_percentile(residuals, 50):.2e}"
                f"  p95 {_percentile(residuals, 95):.2e}"
                f"  max {max(residuals):.2e}"
                if residuals
                else ""
            )
        )
        hist = fold.solve_iters_to_tol
        lines.append("  iterations to tolerance:")
        peak = max(hist.values())
        for it in sorted(hist, key=lambda v: (v < 0, v)):
            label = f"{it:>4d}" if it >= 0 else " cap"
            lines.append(f"    {label} | {_bar(hist[it], peak)} {hist[it]}")
        for e in fold.worst_solves:
            lines.append(
                f"  NON-CONVERGED: residual {e.get('residual', float('nan')):.2e}"
                f"  flows {e.get('flows', '?')}  iterations {e.get('iterations', '?')}"
            )

    if fold.slowest:
        lines.append("")
        lines.append("slowest instrumented spans:")
        for e in fold.slowest:
            lines.append(
                f"  {float(e['wall_ms']):9.2f} ms  {e['ev']:<18s} {_event_label(e)}"
            )

    if fold.dist_active:
        retries, steals = fold.retries_by_run, fold.steals_by_run
        lines.append("")
        lines.append(
            f"distributed queue: {len(fold.dist_workers)} worker(s)  "
            f"retries {fold.dist_retries}  steals {fold.dist_steals}"
            + (f"  exhausted {fold.dist_exhausted}" if fold.dist_exhausted else "")
            + (f"  outages {fold.dist_outages}" if fold.dist_outages else "")
            + ("  LOCAL FALLBACK" if fold.dist_fallback else "")
        )
        for owner in fold.dist_workers:
            lines.append(f"  worker {owner}")
        for r in sorted(set(retries) | set(steals)):
            label = f"run {r}" if r >= 0 else "run ?"
            parts = []
            if retries.get(r):
                parts.append(f"retried x{retries[r]}")
            if steals.get(r):
                parts.append(f"stolen x{steals[r]}")
            lines.append(f"  {label}: " + ", ".join(parts))

    if fold.sample_runtimes:
        lines.append("")
        lines.append("campaign samples:")
        for mode, runs in sorted(fold.sample_runtimes.items()):
            mean = sum(runs) / len(runs)
            lines.append(
                f"  {mode:<6s} n={len(runs):<3d} mean {mean:10.1f} s"
                f"  min {min(runs):10.1f}  max {max(runs):10.1f}"
            )
    return "\n".join(lines)
