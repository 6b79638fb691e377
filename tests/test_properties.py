"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.biases import AD0, AD1, AD2, AD3, RoutingMode
from repro.core.metrics import ccdf, percentile_summary, remove_outliers, zscore
from repro.core.policy import minimal_preferred, split_fraction
from repro.network.congestion import CongestionModel
from repro.network.fluid import FlowSet, solve_fluid
from repro.topology.dragonfly import DragonflyParams, DragonflyTopology
from repro.topology.paths import minimal_paths, valiant_paths

MODES = st.sampled_from([AD0, AD1, AD2, AD3])
LOADS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestPolicyProperties:
    @given(mode=MODES, lm=LOADS, ln=LOADS)
    def test_split_fraction_in_unit_interval(self, mode, lm, ln):
        x = float(split_fraction(mode, lm, ln))
        assert 0.0 <= x <= 1.0

    @given(mode=MODES, lm=LOADS, ln=LOADS, delta=st.floats(0.01, 10.0))
    def test_split_monotone_in_nonmin_load(self, mode, lm, ln, delta):
        assert split_fraction(mode, lm, ln + delta) >= split_fraction(mode, lm, ln)

    @given(mode=MODES, lm=LOADS, ln=LOADS, delta=st.floats(0.01, 10.0))
    def test_split_antitone_in_min_load(self, mode, lm, ln, delta):
        assert split_fraction(mode, lm + delta, ln) <= split_fraction(mode, lm, ln)

    @given(lm=LOADS, ln=LOADS)
    def test_ad3_at_least_as_minimal_as_ad0(self, lm, ln):
        assert split_fraction(AD3, lm, ln) >= split_fraction(AD0, lm, ln) - 1e-12

    @given(lm=LOADS, ln=LOADS, hops=st.integers(0, 10))
    def test_minimal_preferred_monotone_in_bias(self, lm, ln, hops):
        # if the weaker bias already prefers minimal, the stronger must too
        if bool(minimal_preferred(AD0, lm, ln, hops)):
            assert bool(minimal_preferred(AD2, lm, ln, hops))
            assert bool(minimal_preferred(AD3, lm, ln, hops))

    @given(lm=LOADS, ln=LOADS, h1=st.integers(0, 10), h2=st.integers(0, 10))
    def test_ad1_increasingly_minimal(self, lm, ln, h1, h2):
        # deeper in the network, AD1 can only get more minimal
        lo, hi = min(h1, h2), max(h1, h2)
        if bool(minimal_preferred(AD1, lm, ln, lo)):
            assert bool(minimal_preferred(AD1, lm, ln, hi))

    @given(
        shift=st.integers(0, 15),
        add=st.integers(0, 15),
        lm=LOADS,
        ln=LOADS,
    )
    def test_any_valid_bias_well_defined(self, shift, add, lm, ln):
        mode = RoutingMode(f"S{shift}A{add}", shift=shift, add=add)
        assert bool(minimal_preferred(mode, lm, ln)) in (True, False)
        assert 0.0 <= float(split_fraction(mode, lm, ln)) <= 1.0


class TestCongestionProperties:
    @given(u=st.floats(0, 2, allow_nan=False))
    def test_stall_ratio_bounded(self, u):
        cm = CongestionModel()
        r = float(cm.stall_ratio(u))
        assert 0.0 <= r <= cm.stall_cap

    @given(u1=st.floats(0, 1), u2=st.floats(0, 1))
    def test_stall_ratio_monotone(self, u1, u2):
        cm = CongestionModel()
        lo, hi = min(u1, u2), max(u1, u2)
        assert cm.stall_ratio(hi) >= cm.stall_ratio(lo)

    @given(u=st.floats(0, 2), cap=st.floats(1e8, 2e10))
    def test_queue_delay_nonnegative_finite(self, u, cap):
        cm = CongestionModel()
        d = float(cm.queue_delay(u, cap))
        assert 0.0 <= d < 1.0
        assert np.isfinite(d)

    @given(u=st.floats(0, 3))
    def test_backpressure_bounded(self, u):
        cm = CongestionModel()
        f = float(cm.backpressure_factor(u))
        assert 1.0 <= f <= cm.backpressure_cap


class TestMetricsProperties:
    @given(
        st.lists(st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False), min_size=3, max_size=100)
    )
    def test_zscore_shape_and_scale(self, values):
        v = np.array(values)
        z = zscore(v)
        assert z.shape == v.shape
        assert np.isfinite(z).all()

    @given(
        st.lists(st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False), min_size=3, max_size=100)
    )
    def test_outlier_removal_subset(self, values):
        v = np.array(values)
        out = remove_outliers(v)
        assert out.size <= v.size
        assert np.isin(out, v).all()

    @given(st.lists(st.floats(0.0, 1e9), max_size=10))
    def test_outlier_removal_keeps_every_run_up_to_ten(self, values):
        # with the sample std no value lies beyond (n-1)/sqrt(n) sigma:
        # 2.85 at n = 10, inside the 3-sigma cut
        v = np.array(values)
        np.testing.assert_array_equal(remove_outliers(v), v)

    @given(
        st.floats(1.0, 1e6), st.floats(1e-6, 1e3), st.booleans(), st.integers(0, 10)
    )
    def test_outlier_removal_drops_the_odd_run_at_eleven(self, value, gap, slow, at):
        # the one odd value of 11 lies 10/sqrt(11) = 3.02 sigma out
        odd = value * (1 + gap) if slow else value / (1 + gap)
        v = np.insert(np.full(10, value), at, odd)
        np.testing.assert_array_equal(remove_outliers(v), np.full(10, value))

    @given(
        st.lists(st.floats(0.1, 1e3, allow_nan=False), min_size=1, max_size=200)
    )
    def test_ccdf_bounds(self, values):
        x, c = ccdf(np.array(values))
        assert c[0] == pytest.approx(1.0)
        assert (c > 0).all() and (c <= 1.0 + 1e-12).all()
        assert (np.diff(c) <= 1e-12).all()

    @given(
        st.lists(st.floats(0.1, 1e3, allow_nan=False), min_size=2, max_size=300)
    )
    def test_percentiles_within_range(self, values):
        v = np.array(values)
        s = percentile_summary(v, percentiles=(5, 50, 99))
        assert v.min() - 1e-9 <= s[5] <= s[50] <= s[99] <= v.max() + 1e-9


@st.composite
def small_dragonfly(draw):
    return DragonflyTopology(
        DragonflyParams(
            name="prop",
            n_groups=draw(st.integers(2, 5)),
            chassis_per_group=draw(st.integers(1, 3)),
            routers_per_chassis=draw(st.integers(2, 6)),
            nodes_per_router=draw(st.integers(1, 3)),
            cables_per_group_pair=draw(st.integers(1, 4)),
            lanes_per_cable=1,
        ),
        seed=draw(st.integers(0, 100)),
    )


class TestTopologyProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(top=small_dragonfly(), seed=st.integers(0, 1000))
    def test_paths_always_continuous(self, top, seed):
        rng = np.random.default_rng(seed)
        n = min(20, top.n_nodes - 1)
        src = rng.integers(0, top.n_nodes, n)
        dst = (src + 1 + rng.integers(0, top.n_nodes - 1, n)) % top.n_nodes
        for builder in (minimal_paths, valiant_paths):
            b = builder(top, src, dst, k=2, rng=rng)
            for row in b.links:
                ids = row[row >= 0]
                assert top.link_class[ids[0]] == 3  # injection
                assert top.link_class[ids[-1]] == 4  # ejection
                prev = top.link_dst_router[ids[0]]
                for lid in ids[1:-1]:
                    assert top.link_src_router[lid] == prev
                    prev = top.link_dst_router[lid]
                assert top.link_src_router[ids[-1]] == prev

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(top=small_dragonfly(), seed=st.integers(0, 1000), mode=MODES)
    def test_fluid_conserves_injection_load(self, top, seed, mode):
        rng = np.random.default_rng(seed)
        n = min(16, top.n_nodes - 1)
        src = rng.permutation(top.n_nodes)[:n]
        dst = np.roll(rng.permutation(top.n_nodes)[:n], 1)
        keep = src != dst
        fl = FlowSet(
            src[keep], dst[keep], np.full(int(keep.sum()), 1e5), np.zeros(int(keep.sum()), dtype=np.int64)
        )
        if fl.n == 0:
            return
        res = solve_fluid(top, fl, [mode], rng=rng)
        inj = top.injection_link(fl.src)
        expected = np.zeros(top.n_links)
        np.add.at(expected, inj, fl.nbytes)
        sel = expected > 0
        np.testing.assert_allclose(res.link_load[sel], expected[sel], rtol=1e-6)
        # split fraction always a valid probability
        assert (res.min_fraction >= 0).all() and (res.min_fraction <= 1).all()
        # times and latencies positive and finite
        assert np.isfinite(res.flow_time).all() and (res.flow_time > 0).all()
        assert np.isfinite(res.flow_latency).all() and (res.flow_latency > 0).all()
