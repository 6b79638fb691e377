"""Statistical toolkit used throughout the paper's analysis.

Z-score normalization of runtimes (Figs. 3, 4, 7, 9), complementary CDFs
(Fig. 1), probability-density estimates (Figs. 2, 11), percentile
summaries (Fig. 14), and the +-3-sigma outlier filter of Section III-A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def zscore(values: np.ndarray) -> np.ndarray:
    """Z-score normalization: 0 is the mean; positive is slower.

    Degenerate inputs (fewer than 2 values, or zero spread) normalize to
    zeros rather than dividing by zero.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        return np.zeros_like(v)
    sd = v.std(ddof=1)
    if sd == 0:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


def zscore_pooled(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Z-score ``values`` using the mean/std of ``pool``.

    The paper normalizes AD0 and AD3 runtimes of a (app, size) config
    *jointly* so the two modes are comparable on one axis.
    """
    pool = np.asarray(pool, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    sd = pool.std(ddof=1) if pool.size > 1 else 0.0
    if sd == 0:
        return np.zeros_like(v)
    return (v - pool.mean()) / sd


def remove_outliers(values: np.ndarray, *, n_sigma: float = 3.0) -> np.ndarray:
    """Drop samples beyond ``n_sigma`` standard deviations of the mean.

    Section III-A: extreme congestion events (incast, transient errors)
    are removed at +-3 sigma of normalized runtimes; the paper reports
    <0.6% of samples removed.

    The z-scores use the sample std (``ddof=1``), under which no value of
    ``n`` can lie more than ``(n - 1) / sqrt(n)`` sigma from the mean:
    2.47 at n = 8, 2.85 at n = 10, 3.02 at n = 11.  So at the default
    ``n_sigma`` a mode with 10 or fewer runs is never filtered, however
    far off one run is.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 3:
        return v
    z = zscore(v)
    return v[np.abs(z) <= n_sigma]


def ccdf(values: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Complementary CDF: fraction of (weighted) mass at >= each value."""
    v = np.asarray(values, dtype=np.float64)
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=np.float64)
    order = np.argsort(v)
    v_sorted, w_sorted = v[order], w[order]
    uniq, starts = np.unique(v_sorted, return_index=True)
    tail = w_sorted[::-1].cumsum()[::-1]
    return uniq, tail[starts] / w.sum()


def density(values: np.ndarray, grid: np.ndarray | None = None, *, n_grid: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-KDE probability density (the PDF curves of Figs. 2/11)."""
    # imported here: scipy.stats costs most of the CLI's import time, and
    # only the density plots need it
    from scipy import stats

    v = np.asarray(values, dtype=np.float64)
    if v.size < 3 or v.std() == 0:
        # degenerate: a spike at the mean
        g = grid if grid is not None else np.linspace(v.min() - 1, v.max() + 1, n_grid)
        d = np.zeros_like(g)
        d[np.argmin(np.abs(g - v.mean()))] = 1.0
        return g, d
    kde = stats.gaussian_kde(v)
    if grid is None:
        lo, hi = v.min(), v.max()
        pad = 0.15 * (hi - lo + 1e-12)
        grid = np.linspace(lo - pad, hi + pad, n_grid)
    return grid, kde(grid)


#: the percentiles reported in Fig. 14
LATENCY_PERCENTILES: tuple[float, ...] = (5, 25, 50, 75, 90, 95, 99, 99.9, 99.99)


def percentile_summary(
    values: np.ndarray,
    percentiles: tuple[float, ...] = LATENCY_PERCENTILES,
) -> dict[float, float]:
    """Named percentiles of a sample, NaNs dropped."""
    v = np.asarray(values, dtype=np.float64)
    v = v[np.isfinite(v)]
    if v.size == 0:
        return {p: float("nan") for p in percentiles}
    out = np.percentile(v, percentiles)
    return {p: float(x) for p, x in zip(percentiles, out)}


def percent_change(before: dict[float, float], after: dict[float, float]) -> dict[float, float]:
    """Per-percentile % change, negative = improvement (lower after)."""
    return {
        p: 100.0 * (after[p] - before[p]) / before[p] if before[p] else float("nan")
        for p in before
    }


@dataclass(frozen=True)
class SampleStats:
    """Mean/std/count summary of one sample set."""

    mean: float
    std: float
    n: int
    p95: float

    #: fewer finite samples than this and the summary is flagged
    #: unreliable (outlier filtering + failed runs can hollow a mode out)
    MIN_RELIABLE_N = 4

    @property
    def reliable(self) -> bool:
        return self.n >= self.MIN_RELIABLE_N and np.isfinite(self.mean)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SampleStats":
        """Summarize a sample; NaN/inf entries (failed runs) are dropped.

        Empty input yields an all-NaN, ``n=0`` summary rather than a
        numpy warning/crash; check :attr:`reliable` before leaning on
        the numbers.
        """
        v = np.asarray(values, dtype=np.float64)
        v = v[np.isfinite(v)]
        if v.size == 0:
            return cls(float("nan"), float("nan"), 0, float("nan"))
        return cls(
            mean=float(v.mean()),
            std=float(v.std(ddof=1)) if v.size > 1 else 0.0,
            n=int(v.size),
            p95=float(np.percentile(v, 95)),
        )

    def improvement_over(self, other: "SampleStats") -> float:
        """% improvement of this sample's mean relative to ``other``.

        Positive means this sample is faster (lower mean), matching the
        paper's "% of improvement in time, AD3 over AD0" column.
        """
        if not np.isfinite(other.mean) or other.mean == 0:
            return float("nan")
        return 100.0 * (other.mean - self.mean) / other.mean
