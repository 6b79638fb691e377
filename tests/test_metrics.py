"""Unit tests for the statistical toolkit."""

import numpy as np
import pytest

from repro.core.metrics import (
    LATENCY_PERCENTILES,
    SampleStats,
    ccdf,
    density,
    percent_change,
    percentile_summary,
    remove_outliers,
    zscore,
    zscore_pooled,
)


class TestZScore:
    def test_zero_mean_unit_std(self, rng):
        v = rng.normal(10, 2, 500)
        z = zscore(v)
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std(ddof=1) == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        assert zscore(np.array([5.0])).tolist() == [0.0]
        assert zscore(np.array([3.0, 3.0, 3.0])).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_spread_normalizes_to_zeros(self):
        # the sum overflows, so the mean and std are inf and the naive
        # z-scores are nan
        v = np.array([0.0, 8.98846567431158e307, 8.98846567431158e307])
        assert zscore(v).tolist() == [0.0, 0.0, 0.0]
        assert remove_outliers(v).tolist() == v.tolist()

    def test_positive_is_slower(self):
        z = zscore(np.array([1.0, 2.0, 3.0]))
        assert z[-1] > 0 > z[0]

    def test_pooled_normalization(self):
        pool = np.array([10.0, 12.0, 14.0, 16.0])
        z = zscore_pooled(np.array([13.0]), pool)
        assert z[0] == pytest.approx(0.0)

    def test_pooled_degenerate(self):
        assert zscore_pooled(np.array([5.0]), np.array([1.0]))[0] == 0.0


class TestOutlierRemoval:
    def test_keeps_clean_data(self, rng):
        v = rng.normal(100, 5, 100)
        assert remove_outliers(v).size >= 98

    def test_removes_extreme(self):
        v = np.concatenate([np.random.default_rng(0).normal(100, 1, 100), [500.0]])
        out = remove_outliers(v)
        assert 500.0 not in out
        assert out.size == 100

    def test_small_samples_untouched(self):
        v = np.array([1.0, 100.0])
        np.testing.assert_array_equal(remove_outliers(v), v)


class TestCcdf:
    def test_starts_at_one_decreases(self, rng):
        v = rng.integers(1, 100, 200).astype(float)
        x, c = ccdf(v)
        assert c[0] == pytest.approx(1.0)
        assert (np.diff(c) <= 1e-12).all()

    def test_weighted(self):
        x, c = ccdf(np.array([1.0, 2.0]), weights=np.array([1.0, 3.0]))
        assert c[0] == pytest.approx(1.0)
        assert c[1] == pytest.approx(0.75)


class TestDensity:
    def test_integrates_to_one(self, rng):
        v = rng.normal(500, 40, 300)
        x, d = density(v, n_grid=400)
        area = np.trapezoid(d, x)
        assert area == pytest.approx(1.0, abs=0.05)

    def test_peak_near_mean(self, rng):
        v = rng.normal(500, 10, 500)
        x, d = density(v)
        assert abs(x[np.argmax(d)] - 500) < 10

    def test_degenerate_spike(self):
        x, d = density(np.array([5.0, 5.0, 5.0]))
        assert d.max() == 1.0

    def test_custom_grid(self, rng):
        grid = np.linspace(0, 1000, 50)
        x, d = density(rng.normal(500, 40, 100), grid=grid)
        np.testing.assert_array_equal(x, grid)


class TestPercentiles:
    def test_fig14_percentile_set(self):
        assert LATENCY_PERCENTILES == (5, 25, 50, 75, 90, 95, 99, 99.9, 99.99)

    def test_summary_monotone(self, rng):
        v = rng.lognormal(0, 1, 10000)
        s = percentile_summary(v)
        vals = [s[p] for p in LATENCY_PERCENTILES]
        assert vals == sorted(vals)

    def test_nan_dropped(self):
        v = np.array([1.0, np.nan, 3.0])
        s = percentile_summary(v, percentiles=(50,))
        assert s[50] == pytest.approx(2.0)

    def test_empty_gives_nan(self):
        s = percentile_summary(np.array([]), percentiles=(50,))
        assert np.isnan(s[50])

    def test_percent_change_sign(self):
        before = {50: 10.0}
        after = {50: 8.0}
        assert percent_change(before, after)[50] == pytest.approx(-20.0)


class TestSampleStats:
    def test_from_values(self):
        s = SampleStats.from_values(np.array([10.0, 12.0, 14.0]))
        assert s.mean == pytest.approx(12.0)
        assert s.n == 3
        assert s.p95 >= s.mean

    def test_improvement_over(self):
        base = SampleStats.from_values(np.array([100.0, 100.0]))
        fast = SampleStats.from_values(np.array([90.0, 90.0]))
        assert fast.improvement_over(base) == pytest.approx(10.0)
        assert base.improvement_over(fast) == pytest.approx(-100.0 / 9, rel=1e-6)

    def test_empty(self):
        s = SampleStats.from_values(np.array([]))
        assert np.isnan(s.mean) and s.n == 0
        assert not s.reliable

    def test_failed_runs_filtered(self):
        # NaN runtimes (error-status records) must not poison the stats
        s = SampleStats.from_values(np.array([10.0, np.nan, 12.0, np.inf]))
        assert s.mean == pytest.approx(11.0)
        assert s.n == 2

    def test_all_nan_is_unreliable_not_crash(self):
        s = SampleStats.from_values(np.full(5, np.nan))
        assert s.n == 0 and not s.reliable

    def test_reliable_needs_min_samples(self):
        few = SampleStats.from_values(np.array([1.0, 2.0, 3.0]))
        enough = SampleStats.from_values(np.array([1.0, 2.0, 3.0, 4.0]))
        assert not few.reliable
        assert enough.reliable
